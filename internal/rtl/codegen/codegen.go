// Package codegen translates a netlist into specialized straight-line
// Go — the generation half of the native execution engine (the runtime
// half is rtl's NativeRun registry).
//
// The translation is Verilator's move taken one step further than the
// compiled engine: where Compile lowers the node DAG to a flat
// instruction stream that still pays one dispatch per instruction per
// cycle, codegen unrolls the cycle body into ordinary Go statements the
// Go compiler optimizes like any other code — constants become
// literals, width masks are baked in (and elided where the operand
// widths prove them redundant), intermediate values live in locals the
// register allocator can keep in machine registers, and instruction
// dispatch disappears entirely.
//
// On top of the unrolling, the translator specializes control flow per
// FSM state. The structural analyses already recover each design's FSM
// (analyze) and the set of states actually reachable from reset under
// the pinned abstract values (absint.RefinedReachable). The generated
// cycle body dispatches one Go switch on the latched state register
// and runs a per-state basic block in which the state is a known
// constant: state comparisons fold to literals, muxes they select
// collapse to copies, and whole control cones evaluate at generation
// time. Dead (unreachable) states get no arm at all; a default arm
// runs the unspecialized code so the generated body stays total even
// if an analysis bug ever produced an impossible state.
//
// The cycle body sits inside a loop that runs many cycles per call
// with the design's state in locals. Registers (and the inputs the
// body reads) are loaded from the value array once per call and
// written back once at exit; combinational node values never leave
// the loop body, and only the nodes some commit reads — Done, the
// registers' next values, the write ports — are computed at all (the
// plan drops every other instruction).
//
// Both backends consume the same Plan: the Go source emitter (emit.go,
// used by cmd/rtlgen to produce the checked-in internal/rtl/native
// registry) and a closure evaluator (eval.go) that executes the plan
// directly. The evaluator exists so the differential tests and
// FuzzEngineDifferential can check the specialization and pruning
// logic on arbitrary random netlists without invoking the Go
// toolchain; the emitted source for the benchmark suite is then
// checked bit-exact by the suite differential tests, and checked fresh
// by CI's generated-code drift gate.
//
// Run contract (rtl.NativeRun): starting from the register, input and
// memory state in (vals, mems), run(vals, mems, max) simulates cycles
// until the first cycle whose Done is high, or until max cycles have
// committed, whichever comes first. It commits every cycle before the
// done cycle — memory writes in port order, then the simultaneous
// register latch — and never the done cycle itself; at exit it writes
// the registers back into vals and returns the number of cycles
// committed. Combinational entries of vals are neither read nor
// written, so after a call they are stale; rtl.Sim runs the next cycle
// (the done cycle, or the limit cycle) on the interpreter, which
// recomputes every node and leaves state bit-identical to an
// interpreter run.
package codegen

import (
	"sort"

	"repro/internal/absint"
	"repro/internal/analyze"
	"repro/internal/rtl"
)

// maxStates caps FSM-state specialization: beyond this many reachable
// states the per-state arms stop paying for their code size (and the
// generated source would bloat linearly), so the plan falls back to
// one unspecialized straight-line body.
const maxStates = 16

// kind discriminates plan instruction forms. pGeneric evaluates the
// node's op over current values; the others are partial-evaluation
// residues.
type kind uint8

const (
	// pGeneric evaluates Op over the current value array.
	pGeneric kind = iota
	// pConst stores a value proven constant in this context.
	pConst
	// pCopy stores vals[a] & mask — a mux whose selector is known.
	pCopy
	// pShlImm / pShrImm shift by a known amount < 64.
	pShlImm
	pShrImm
)

// inst is one planned operation. dst/a/b/c index the value array; mask
// is the destination width mask; imm is the pConst value or the
// pShlImm/pShrImm shift amount.
type inst struct {
	kind kind
	op   rtl.Op
	dst  int32
	a    int32
	b    int32
	c    int32
	mem  int32
	mask uint64
	imm  uint64
}

// Plan is a netlist translated for specialized execution: a
// state-independent prefix, optionally a per-state specialization of
// the state-dependent suffix, and the unspecialized suffix as the
// default arm. Each list keeps its folded constants (pConst, which
// consumers read as literals) and only the residual instructions some
// sink needs. Immutable once built; safe to share across Sims.
type Plan struct {
	m *rtl.Module
	// prefix holds the comb nodes independent of the specialized state
	// register, in SSA order (when no FSM is specialized, every comb
	// node is here and the suffix pieces are empty).
	prefix []inst
	// stateNode is the specialized FSM's OpReg node, or -1.
	stateNode int32
	// stateVals are the reachable states, ascending; arms[i] is the
	// suffix specialized under stateVals[i].
	stateVals []uint64
	arms      [][]inst
	// generic is the unspecialized suffix (the default arm).
	generic []inst
	armOf   map[uint64]int
	// inSuffix marks the comb nodes the arms compute (nil when no FSM
	// is specialized). A sink in the suffix reaches the commit through
	// a loop-scope local each arm assigns.
	inSuffix []bool
}

// Module returns the module this plan was built from.
func (p *Plan) Module() *rtl.Module { return p.m }

// StateCount reports how many FSM states the plan specializes (0 when
// unspecialized).
func (p *Plan) StateCount() int { return len(p.stateVals) }

// StateReg returns the specialized state register's node, or
// rtl.InvalidNode.
func (p *Plan) StateReg() rtl.NodeID {
	if p.stateNode < 0 {
		return rtl.InvalidNode
	}
	return rtl.NodeID(p.stateNode)
}

// Build translates a validated module into a plan. It never fails: a
// module with no (usable) FSM simply gets an unspecialized plan.
func Build(m *rtl.Module) *Plan {
	p := &Plan{m: m, stateNode: -1}

	stateNode, states := pickFSM(m)

	// Base knowledge: constants hold their literal value everywhere.
	baseKnown := make(map[int32]uint64)
	for i := range m.Nodes {
		if n := &m.Nodes[i]; n.Op == rtl.OpConst {
			baseKnown[int32(i)] = n.Const & n.Mask()
		}
	}

	if stateNode < 0 {
		p.prefix = planOps(m, combNodes(m, nil), copyKnown(baseKnown))
		p.prune()
		return p
	}

	// Partition combinational nodes into the state-independent prefix
	// and the state-dependent suffix. Dependence flows through
	// combinational args only: other registers latch at cycle end, so
	// they cannot carry this cycle's state value back into the prefix.
	dep := make([]bool, len(m.Nodes))
	dep[stateNode] = true
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		for a := 0; a < int(n.NArgs); a++ {
			if dep[n.Args[a]] {
				dep[i] = true
				break
			}
		}
	}
	var prefixIDs, suffixIDs []rtl.NodeID
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		if dep[i] {
			suffixIDs = append(suffixIDs, rtl.NodeID(i))
		} else {
			prefixIDs = append(prefixIDs, rtl.NodeID(i))
		}
	}

	// Size guard: the arms duplicate the suffix once per state. Past
	// this budget the emitted source (and icache footprint) grows out
	// of proportion to the win, so fall back to one straight-line body
	// — still dispatch-free, just not state-specialized.
	if len(suffixIDs)*(len(states)+1) > 60000 {
		p.stateNode = -1
		p.prefix = planOps(m, combNodes(m, nil), copyKnown(baseKnown))
		p.prune()
		return p
	}

	prefixKnown := copyKnown(baseKnown)
	p.prefix = planOps(m, prefixIDs, prefixKnown)

	p.stateNode = int32(stateNode)
	p.stateVals = states
	p.armOf = make(map[uint64]int, len(states))
	for ai, sv := range states {
		known := copyKnown(prefixKnown)
		known[int32(stateNode)] = sv
		p.arms = append(p.arms, planOps(m, suffixIDs, known))
		p.armOf[sv] = ai
	}
	p.generic = planOps(m, suffixIDs, copyKnown(prefixKnown))
	p.inSuffix = make([]bool, len(m.Nodes))
	for _, id := range suffixIDs {
		p.inSuffix[id] = true
	}
	p.prune()
	return p
}

// constKnown returns the literal values in scope at loop level: every
// OpConst node plus the prefix's folded constants.
func (p *Plan) constKnown() map[int32]uint64 {
	known := knownIn(p.prefix)
	for i := range p.m.Nodes {
		if n := &p.m.Nodes[i]; n.Op == rtl.OpConst {
			known[int32(i)] = n.Const & n.Mask()
		}
	}
	return known
}

// armKnown returns the literal values in scope inside a suffix list:
// the loop-level literals, the list's own folded constants and, for a
// specialized arm (ai >= 0), the state register's value.
func (p *Plan) armKnown(ai int, insts []inst) map[int32]uint64 {
	known := knownIn(insts)
	for k, v := range p.constKnown() { //detlint:allow scratch map, never ranged for output
		known[k] = v
	}
	if ai >= 0 {
		known[p.stateNode] = p.stateVals[ai]
	}
	return known
}

// suffixNode reports whether the arms compute node id.
func (p *Plan) suffixNode(id int32) bool { return p.inSuffix != nil && p.inSuffix[id] }

// sinks lists the nodes one cycle's commit reads, in a fixed order:
// Done, every register's Next, and each write port's En followed by
// its Addr and Data. A port whose En is a known zero in scope cannot
// fire, so its Addr and Data are not sinks there (and the whole port
// is dropped when En is a known zero at loop level). May repeat nodes.
func (p *Plan) sinks(known map[int32]uint64) []int32 {
	m := p.m
	out := []int32{int32(m.Done)}
	for i := range m.Regs {
		out = append(out, int32(m.Regs[i].Next))
	}
	for i := range m.Writes {
		w := &m.Writes[i]
		out = append(out, int32(w.En))
		if v, ok := known[int32(w.En)]; ok && v == 0 {
			continue
		}
		out = append(out, int32(w.Addr), int32(w.Data))
	}
	return out
}

// prune drops every residual instruction whose value no sink needs,
// keeping the folded constants (consumers read them as literals). The
// suffix lists go first: what an arm reads from the prefix is a root
// of the prefix's own pass.
func (p *Plan) prune() {
	m := p.m
	need := make([]bool, len(m.Nodes))
	for _, id := range p.sinks(p.constKnown()) {
		if !p.suffixNode(id) {
			need[id] = true
		}
	}
	if p.stateNode >= 0 {
		for ai := range p.arms {
			p.arms[ai] = p.pruneSuffix(p.arms[ai], p.armKnown(ai, p.arms[ai]), need)
		}
		p.generic = p.pruneSuffix(p.generic, p.armKnown(-1, p.generic), need)
	}
	p.prefix = liveInsts(m, p.prefix, need)
}

// pruneSuffix prunes one suffix list from the sinks it must assign,
// marking the prefix nodes its kept instructions read in prefixNeed.
func (p *Plan) pruneSuffix(insts []inst, known map[int32]uint64, prefixNeed []bool) []inst {
	need := make([]bool, len(p.m.Nodes))
	for _, id := range p.sinks(known) {
		if p.suffixNode(id) {
			need[id] = true
		}
	}
	kept := liveInsts(p.m, insts, need)
	for id, n := range need {
		if n && !p.suffixNode(int32(id)) {
			prefixNeed[id] = true
		}
	}
	return kept
}

// liveInsts walks one SSA-ordered list backwards, keeping each folded
// constant and each instruction whose node need marks, and marking the
// nodes a kept instruction reads (in need, which therefore also
// collects what the list reads from outside itself).
func liveInsts(m *rtl.Module, insts []inst, need []bool) []inst {
	keep := make([]bool, len(insts))
	for i := len(insts) - 1; i >= 0; i-- {
		in := &insts[i]
		if in.kind == pConst {
			keep[i] = true
			continue
		}
		if !need[in.dst] {
			continue
		}
		keep[i] = true
		for _, a := range in.reads(m) {
			need[a] = true
		}
	}
	out := make([]inst, 0, len(insts))
	for i := range insts {
		if keep[i] {
			out = append(out, insts[i])
		}
	}
	return out
}

// reads lists the nodes a residual instruction's operands name.
func (in *inst) reads(m *rtl.Module) []int32 {
	if in.kind != pGeneric {
		return []int32{in.a}
	}
	return []int32{in.a, in.b, in.c}[:m.Nodes[in.dst].NArgs]
}

// pickFSM chooses the FSM register to specialize on: the one whose
// combinational cone is largest, among FSMs with a usable reachable
// state set (2..maxStates states, per absint's refinement). Returns
// (-1, nil) when no FSM qualifies.
func pickFSM(m *rtl.Module) (rtl.NodeID, []uint64) {
	sa := analyze.Analyze(m)
	if len(sa.FSMs) == 0 {
		return rtl.InvalidNode, nil
	}
	av := absint.Analyze(m)
	bestNode, bestScore := rtl.InvalidNode, -1
	var bestStates []uint64
	for fi := range sa.FSMs {
		f := &sa.FSMs[fi]
		reach := absint.RefinedReachable(av, sa, fi)
		if len(reach) < 2 || len(reach) > maxStates {
			continue
		}
		score := coneSize(m, f.StateNode)
		if score > bestScore {
			states := make([]uint64, 0, len(reach))
			for s := range reach { //detlint:allow sorted immediately below
				states = append(states, s)
			}
			sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
			bestNode, bestScore, bestStates = f.StateNode, score, states
		}
	}
	return bestNode, bestStates
}

// coneSize counts the combinational nodes downstream of a node.
func coneSize(m *rtl.Module, root rtl.NodeID) int {
	dep := make([]bool, len(m.Nodes))
	dep[root] = true
	count := 0
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		for a := 0; a < int(n.NArgs); a++ {
			if dep[n.Args[a]] {
				dep[i] = true
				count++
				break
			}
		}
	}
	return count
}

// combNodes lists the module's combinational node IDs in SSA order,
// excluding skip (used for the unspecialized whole-module plan).
func combNodes(m *rtl.Module, skip []bool) []rtl.NodeID {
	var ids []rtl.NodeID
	for i := range m.Nodes {
		switch m.Nodes[i].Op {
		case rtl.OpConst, rtl.OpInput, rtl.OpReg:
			continue
		}
		if skip != nil && skip[i] {
			continue
		}
		ids = append(ids, rtl.NodeID(i))
	}
	return ids
}

func copyKnown(src map[int32]uint64) map[int32]uint64 {
	dst := make(map[int32]uint64, len(src))
	for k, v := range src { //detlint:allow value copy; iteration order immaterial
		dst[k] = v
	}
	return dst
}

// absorbed returns the value of a two-operand node that one known
// operand decides on its own: x&0 and x*0 are zero, and x|k is all
// ones when k sets every result bit. Operands count modulo the result
// width, so x*256 at width 8 is zero too. Folding these lets a guard
// built from a known-zero enable (and every mux it selects) fold away
// instead of surviving as residual code.
func absorbed(n *rtl.Node, known map[int32]uint64) (uint64, bool) {
	mask := n.Mask()
	for a := 0; a < 2; a++ {
		v, ok := known[int32(n.Args[a])]
		if !ok {
			continue
		}
		switch n.Op {
		case rtl.OpAnd, rtl.OpMul:
			if v&mask == 0 {
				return 0, true
			}
		case rtl.OpOr:
			if v&mask == mask {
				return mask, true
			}
		}
	}
	return 0, false
}

// planOps partially evaluates the listed nodes (in the given SSA
// order) under the known-value map, appending to known as values are
// proven, and returns the residual instruction list.
func planOps(m *rtl.Module, ids []rtl.NodeID, known map[int32]uint64) []inst {
	out := make([]inst, 0, len(ids))
	for _, id := range ids {
		n := &m.Nodes[id]
		in := inst{
			kind: pGeneric,
			op:   n.Op,
			dst:  int32(id),
			a:    int32(n.Args[0]),
			b:    int32(n.Args[1]),
			c:    int32(n.Args[2]),
			mem:  n.Mem,
			mask: n.Mask(),
		}
		var argv [3]uint64
		argKnown := true
		for a := 0; a < int(n.NArgs); a++ {
			v, ok := known[int32(n.Args[a])]
			if !ok {
				argKnown = false
				break
			}
			argv[a] = v
		}
		av, absorbing := absorbed(n, known)
		switch {
		case argKnown && n.Op != rtl.OpMemRead:
			v := rtl.EvalNode(n, argv)
			known[int32(id)] = v
			in.kind, in.imm = pConst, v
		case absorbing:
			known[int32(id)] = av
			in.kind, in.imm = pConst, av
		case n.Op == rtl.OpMux:
			if sel, ok := known[in.a]; ok {
				src := in.b
				if sel == 0 {
					src = in.c
				}
				if v, ok := known[src]; ok {
					v &= in.mask
					known[int32(id)] = v
					in.kind, in.imm = pConst, v
				} else {
					in.kind, in.a = pCopy, src
				}
			}
		case n.Op == rtl.OpShl || n.Op == rtl.OpShr:
			if sh, ok := known[in.b]; ok {
				if sh >= 64 {
					known[int32(id)] = 0
					in.kind, in.imm = pConst, 0
				} else if n.Op == rtl.OpShl {
					in.kind, in.imm = pShlImm, sh
				} else {
					in.kind, in.imm = pShrImm, sh
				}
			}
		}
		out = append(out, in)
	}
	return out
}
