package rtl

import (
	"sort"
	"sync"
	"sync/atomic"
)

// native.go is the runtime half of the codegen execution engine: a
// process-wide registry mapping netlist fingerprints to pre-generated,
// specialized run functions. The generation half lives in
// internal/rtl/codegen (the translator) and internal/rtl/native (the
// checked-in generated code for the benchmark suite, produced by
// cmd/rtlgen via go:generate).
//
// A NativeRun is a multi-cycle loop over one specific netlist compiled
// to straight-line Go: no instruction dispatch, constants folded into
// the code, masks baked in, FSM-state-specialized basic blocks, and the
// design's state held in locals for the whole call. It stores no
// combinational value: only registers are written back, at exit. A
// native Sim is therefore an interpreter Sim plus its run function —
// Run hands the run function every cycle before the last and finishes
// on the interpreter, which recomputes every node, so Value, RegValue,
// memories and cycle counts after Run are an interpreter run's. Every
// cycle something observes (Step, toggle counting, VCD dumps) runs on
// the interpreter.
//
// Registration is keyed on Fingerprint(m): two modules with equal
// fingerprints simulate identically, so code generated from one is
// valid for the other. Netlists without a registered run function
// (random fuzz modules, testdesigns, freshly edited benchmarks before
// regeneration) transparently fall back to the compiled engine; the
// fallback is observable through NativeFallbacks so a silently stale
// registry cannot masquerade as a codegen win.

// NativeRun simulates up to max cycles of a specific netlist from the
// register, input and memory state in (vals, mems). It stops before
// committing the first cycle whose Done is high; every earlier cycle
// commits its memory writes (in port order) and then latches all
// registers simultaneously. At exit it writes the registers back into
// vals and returns the number of cycles committed (max when Done never
// rose). It neither reads nor writes combinational entries of vals.
//
// A NativeRun must be pure over (vals, mems): implementations hold no
// mutable captured state, so one run function is shared by any number
// of concurrently running Sim clones.
type NativeRun func(vals []uint64, mems [][]uint64, max uint64) uint64

// nativeEntry is one registered generated simulator.
type nativeEntry struct {
	name string
	run  NativeRun
}

var (
	nativeMu  sync.RWMutex
	nativeReg = map[string]nativeEntry{}
	// nativeFallbacks counts NewSimEngine(native) calls that found no
	// registered run function and fell back to the compiled engine.
	nativeFallbacks atomic.Uint64
)

// RegisterNative binds a generated run function to a netlist
// fingerprint (see Fingerprint). Generated code calls it from init;
// name labels the entry for diagnostics. A later registration for the
// same fingerprint wins, which is harmless because equal fingerprints
// imply identical simulation semantics.
func RegisterNative(fingerprint, name string, run NativeRun) {
	if run == nil {
		panic("rtl: RegisterNative with nil run function")
	}
	nativeMu.Lock()
	nativeReg[fingerprint] = nativeEntry{name: name, run: run}
	nativeMu.Unlock()
}

// NativeRunFor returns the registered generated run function for the
// module's fingerprint, if any.
func NativeRunFor(m *Module) (NativeRun, bool) {
	nativeMu.RLock()
	e, ok := nativeReg[Fingerprint(m)]
	nativeMu.RUnlock()
	return e.run, ok
}

// NativeNames returns the names of all registered generated
// simulators, sorted (for tests and diagnostics).
func NativeNames() []string {
	nativeMu.RLock()
	names := make([]string, 0, len(nativeReg))
	for _, e := range nativeReg { //detlint:allow sorted immediately below
		names = append(names, e.name)
	}
	nativeMu.RUnlock()
	sort.Strings(names)
	return names
}

// NativeFallbacks reports how many native-engine simulator requests
// fell back to the compiled engine because no generated run function
// was registered for the netlist. Monotone; safe to read concurrently.
func NativeFallbacks() uint64 { return nativeFallbacks.Load() }

// NewNativeSim prepares a simulator that runs the given generated run
// function for the module: an interpreter Sim whose Run hands the run
// function every cycle but the last. The function must have been
// generated from a module with the same fingerprint; NewSimEngine does
// the lookup, this constructor exists for the codegen package's own
// differential tests (which pair arbitrary modules with freshly built
// plans).
func NewNativeSim(m *Module, run NativeRun) *Sim {
	if run == nil {
		panic("rtl: NewNativeSim with nil run function")
	}
	s := NewInterpSim(m)
	s.run = run
	return s
}
