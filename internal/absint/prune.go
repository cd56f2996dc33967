package absint

import "repro/internal/rtl"

// ConstFacts returns every node proven to hold a single value on all
// reachable cycles that is not already a literal. Inputs are excluded:
// their values are external even when the fixpoint cannot distinguish
// them (and substituting one would change SetInput behaviour).
//
// The facts are sound for every run from reset with any job data:
// inputs and RAM reads are Top in the abstract domain, and ROMs cannot
// be overwritten (LoadMem rejects them), so ROM-derived constants hold
// for all workloads.
func ConstFacts(a *Analysis) map[rtl.NodeID]uint64 {
	consts := make(map[rtl.NodeID]uint64)
	for id := range a.M.Nodes {
		switch a.M.Nodes[id].Op {
		case rtl.OpConst, rtl.OpInput:
			continue
		}
		if c, ok := a.ConstOf(rtl.NodeID(id)); ok {
			consts[rtl.NodeID(id)] = c
		}
	}
	return consts
}

// Prune simplifies m using abstract-interpretation facts: nodes proven
// constant globally (not just locally foldable) become literals, then
// rtl.Simplify's folding, identity rewrites, and dead-code elimination
// run as usual — so constant control chains, never-enabled write ports,
// and frozen registers disappear from the instruction stream every
// engine executes, and so does the write-only datapath: rtl.Simplify
// roots a memory's write ports only when live logic reads the memory,
// so the contents of write-only memories are not preserved. Registers
// listed in keepRegs survive with their state observable; the returned
// map gives each surviving source register's new index, exactly like
// rtl.Simplify.
func Prune(m *rtl.Module, keepRegs []int) (*rtl.Module, map[int]int) {
	return rtl.SimplifyWithConsts(m, keepRegs, ConstFacts(Analyze(m)))
}
