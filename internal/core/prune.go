package core

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/absint"
	"repro/internal/instrument"
	"repro/internal/rtl"
)

// Pruning gates the abstract-interpretation netlist pruning applied to
// the simulated modules: proven-constant registers and cones are folded
// to literals, and the datapath feeding only write-only memories is
// dropped, before the engines compile the design, so every engine
// executes fewer instructions per cycle. Pruning is behavior-preserving
// on done, the witness registers, and every memory live logic reads
// (see absint.Prune); nothing in the flow reads the dropped output
// memories, so traces, features, and cache artifacts are bit-identical
// either way. On by default; REPRO_PRUNE=0
// or SetPruning(false) disables it (the escape hatch if a pruned design
// ever needs to be ruled out while debugging).
var pruneDisabled atomic.Bool

func init() {
	switch os.Getenv("REPRO_PRUNE") {
	case "0", "off", "false":
		pruneDisabled.Store(true)
	}
}

// SetPruning enables or disables absint pruning of simulated designs.
// Safe to call concurrently; affects predictors trained afterwards.
func SetPruning(on bool) { pruneDisabled.Store(!on) }

// PruningEnabled reports whether newly trained predictors prune.
func PruningEnabled() bool { return !pruneDisabled.Load() }

// bindFull selects the module the full-design simulators run — the
// instrumented design itself, or its absint-pruned twin when pruning is
// enabled — and returns it with the feature-witness register indices in
// that module (catalog order) and the batch hints translated to its
// register numbering.
func bindFull(ins *instrument.Instrumented, hints *rtl.BatchHints) (*rtl.Module, []int, *rtl.BatchHints, error) {
	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	if !PruningEnabled() {
		return ins.M, featRegs, hints, nil
	}
	pm, regMap := absint.Prune(ins.M, featRegs)
	for i, ri := range featRegs {
		ni, ok := regMap[ri]
		if !ok {
			return nil, nil, nil, fmt.Errorf("core: prune dropped witness register %d (%s)",
				ri, ins.Features[i].Name)
		}
		featRegs[i] = ni
	}
	return pm, featRegs, translateHints(hints, regMap), nil
}

// translateHints maps batch-plan hints through a pruning register map.
// A hinted register the pruner removed (a constant FSM) is dropped;
// PlanBatch re-validates the survivors against the pruned netlist.
func translateHints(h *rtl.BatchHints, regMap map[int]int) *rtl.BatchHints {
	if h == nil {
		return nil
	}
	out := &rtl.BatchHints{}
	for _, ri := range h.StateRegs {
		if ni, ok := regMap[ri]; ok {
			out.StateRegs = append(out.StateRegs, ni)
		}
	}
	return out
}
