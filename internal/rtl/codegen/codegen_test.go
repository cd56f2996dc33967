package codegen_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/rtl"
	"repro/internal/rtl/codegen"
	"repro/internal/testdesigns"
)

// toyJob returns a Toy work list mixing fast and slow items so every
// FSM state is visited.
func toyJob() []uint64 {
	return testdesigns.ToyJob([]uint64{
		testdesigns.ToyItem(false, 0),
		testdesigns.ToyItem(true, 5),
		testdesigns.ToyItem(true, 0),
		testdesigns.ToyItem(false, 0),
		testdesigns.ToyItem(true, 17),
	})
}

func TestPlanSpecializesToyFSM(t *testing.T) {
	ports := testdesigns.Toy()
	p := codegen.Build(ports.M)
	if p.StateCount() < 2 {
		t.Fatalf("Toy plan specialized %d states, want >= 2", p.StateCount())
	}
	if p.StateReg() != ports.State {
		t.Fatalf("plan specialized node %d, want the ctrl FSM register %d",
			p.StateReg(), ports.State)
	}
}

// runMatches runs one Sim.Run(limit) on the plan-backed native sim and
// on the interpreter from the same loaded state and fails unless the
// two agree on ticks, error, cycle count, every node value and every
// memory word. Activity counting stays off, so the native sim's run
// goes through Plan.Run for all cycles but the last.
func runMatches(t *testing.T, m *rtl.Module, p *codegen.Plan, load func(*rtl.Sim), limit uint64) {
	t.Helper()
	ref := rtl.NewInterpSim(m)
	nat := rtl.NewNativeSim(m, p.Run)
	if got := nat.Engine(); got != rtl.EngineNative {
		t.Fatalf("native sim reports engine %q", got)
	}
	load(ref)
	load(nat)
	rt, rerr := ref.Run(limit)
	nt, nerr := nat.Run(limit)
	if rt != nt || fmt.Sprint(rerr) != fmt.Sprint(nerr) {
		t.Fatalf("limit %d: interp %d, %v; native %d, %v", limit, rt, rerr, nt, nerr)
	}
	if ref.Cycles() != nat.Cycles() {
		t.Fatalf("limit %d: cycles interp=%d native=%d", limit, ref.Cycles(), nat.Cycles())
	}
	for id := range m.Nodes {
		if rv, nv := ref.Value(rtl.NodeID(id)), nat.Value(rtl.NodeID(id)); rv != nv {
			t.Fatalf("limit %d node %d (%s): interp=%#x native=%#x", limit, id, m.Nodes[id].Op, rv, nv)
		}
	}
	for _, mem := range m.Mems {
		rm, nm := ref.Mem(mem.Name), nat.Mem(mem.Name)
		for a := range rm {
			if rm[a] != nm[a] {
				t.Fatalf("limit %d: %s[%d] interp=%#x native=%#x", limit, mem.Name, a, rm[a], nm[a])
			}
		}
	}
}

// TestPlanRunMatchesInterpOnToy runs a full Toy job on the plan-backed
// native sim at every cycle limit from 1 to one past the job's length:
// each limit stops the run loop at a different cycle (every FSM state
// and memory port among them), and ticks, ErrNoProgress, every node
// value and the memories must match the interpreter's run with the
// same limit. It also drives a whole job through Step with activity
// counting on, the interpreter path a native sim takes when a cycle is
// observed.
func TestPlanRunMatchesInterpOnToy(t *testing.T) {
	ports := testdesigns.Toy()
	m := ports.M
	p := codegen.Build(m)
	load := func(s *rtl.Sim) {
		if err := s.LoadMem("in", toyJob()); err != nil {
			t.Fatal(err)
		}
	}
	ref := rtl.NewInterpSim(m)
	load(ref)
	total, err := ref.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 {
		t.Fatalf("Toy job took %d cycles; too short to exercise the limits", total)
	}
	for k := uint64(1); k <= total+1; k++ {
		runMatches(t, m, p, load, k)
	}

	ref = rtl.NewInterpSim(m)
	nat := rtl.NewNativeSim(m, p.Run)
	for _, s := range []*rtl.Sim{ref, nat} {
		s.EnableActivity()
		load(s)
	}
	for cycle := uint64(0); cycle < total; cycle++ {
		if dr, dn := ref.Step(), nat.Step(); dr != dn {
			t.Fatalf("cycle %d: done interp=%v native=%v", cycle, dr, dn)
		}
	}
	rt, nt := ref.Toggles(), nat.Toggles()
	for i := range rt {
		if rt[i] != nt[i] {
			t.Fatalf("toggle[%d]: interp=%d native=%d", i, rt[i], nt[i])
		}
	}
}

// testDesign is a named module for the emitter and run-loop tests.
type testDesign struct {
	name string
	m    *rtl.Module
}

// testDesigns is a spread of shapes: the FSM-heavy Toy, the
// input-driven hand FSM, and lint designs with unusual structure
// (unreachable and guarded-dead states, racing and dead write ports,
// combinational-only logic, frozen and partially dead registers).
func testDesigns() []testDesign {
	hand, _ := testdesigns.HandFSM()
	return []testDesign{
		{"toy", testdesigns.Toy().M},
		{"handfsm", hand},
		{"unreachable", testdesigns.UnreachableState()},
		{"racy", testdesigns.RacyWrites()},
		{"deadwrite", testdesigns.DeadWrite()},
		{"truncadd", testdesigns.TruncatingAdd()},
		{"datawait", testdesigns.DataWaitOnly()},
		{"guarded", testdesigns.GuardedDeadState()},
		{"frozen", testdesigns.FrozenConstant()},
		{"partdead", testdesigns.PartiallyDeadReg()},
		{"skipping", testdesigns.SkippingCounter()},
		{"idleinput", testdesigns.IdleInput()},
	}
}

// TestPlanRunMatchesInterpOnTestDesigns checks the run loop on every
// test design at a spread of cycle limits, with every input driven.
func TestPlanRunMatchesInterpOnTestDesigns(t *testing.T) {
	for _, d := range testDesigns() {
		p := codegen.Build(d.m)
		drive := func(s *rtl.Sim) {
			for id := range d.m.Nodes {
				if d.m.Nodes[id].Op == rtl.OpInput {
					s.SetInput(rtl.NodeID(id), 0x5a5a_a5a5_5a5a_a5a5^uint64(id))
				}
			}
		}
		for _, limit := range []uint64{1, 2, 3, 17, 64} {
			runMatches(t, d.m, p, drive, limit)
		}
	}
}

// TestEmitTypechecks emits Go source for every test design and runs
// the assembled file through the real go/types checker. This catches
// emitter bugs (unused locals, type mismatches, redeclarations, a read
// of a local no scope declares) without invoking the toolchain.
func TestEmitTypechecks(t *testing.T) {
	src := "package p\n\n"
	for _, d := range testDesigns() {
		src += codegen.EmitFunc(codegen.Build(d.m), "run_"+d.name) + "\n"
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gen.go", src, 0)
	if err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("emitted source does not typecheck: %v", err)
	}
}

// TestUnspecializedPlan checks a design with no usable FSM still gets a
// working straight-line plan, at a spread of cycle limits.
func TestUnspecializedPlan(t *testing.T) {
	m := testdesigns.TruncatingAdd()
	p := codegen.Build(m)
	if p.StateCount() != 0 {
		// Not fatal if analysis finds an FSM here — but the plan must
		// still match the interpreter either way.
		t.Logf("TruncatingAdd specialized %d states", p.StateCount())
	}
	for _, limit := range []uint64{1, 2, 3, 17, 64} {
		runMatches(t, m, p, func(*rtl.Sim) {}, limit)
	}
}
