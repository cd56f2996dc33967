package codegen

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
)

// EmitFunc renders the plan as the source of one Go function with the
// rtl.NativeRun signature:
//
//	func <name>(vals []uint64, mems [][]uint64, max uint64) uint64
//
// The body is a loop over cycles with the design's state in locals:
// registers, and the inputs the loop reads, are loaded from vals once;
// each kept residual node becomes an SSA local inside the loop body (so
// consumers read machine registers, not memory), folded constants print
// as literals at their use sites, and the state-dependent suffix
// becomes a switch over the state register's local with one case per
// reachable state. Suffix sinks (next values, write-port operands,
// Done) reach the commit through loop-scope locals s<N> every arm
// assigns. The loop breaks before committing a cycle whose Done is
// high; memory writes commit in place and the latch assigns the
// register locals, which are written back to vals once at exit. The
// function never reads a combinational entry of vals: the emitter
// panics if the plan would need one.
//
// The output is plain unformatted Go; cmd/rtlgen runs the assembled
// file through go/format before writing it.
func EmitFunc(p *Plan, name string) string {
	e := &emitter{
		p:      p,
		m:      p.m,
		inputs: make([]bool, len(p.m.Nodes)),
		mems:   make([]bool, len(p.m.Mems)),
	}
	return e.run(name)
}

type emitter struct {
	p *Plan
	m *rtl.Module
	b strings.Builder
	// inputs and mems mark the input nodes and memories the emitted
	// body reads, so the preamble loads exactly those (an unused local
	// would not compile).
	inputs []bool
	mems   []bool
}

func (e *emitter) pf(format string, args ...any) {
	fmt.Fprintf(&e.b, format, args...)
}

func (e *emitter) run(name string) string {
	p, m := e.p, e.m
	loopKnown := p.constKnown()
	loopDefined := defined(nil, p.prefix)

	e.pf("var n uint64\nfor ; n < max; n++ {\n")
	e.emitInsts(p.prefix, loopKnown, loopDefined)
	if p.stateNode >= 0 {
		// Suffix sinks become loop-scope locals, declared in node order.
		isSink := make([]bool, len(m.Nodes))
		for _, id := range p.sinks(loopKnown) {
			isSink[id] = p.suffixNode(id)
		}
		var names []string
		for id, ok := range isSink {
			if ok {
				names = append(names, fmt.Sprintf("s%d", id))
			}
		}
		if len(names) > 0 {
			e.pf("var %s uint64\n", strings.Join(names, ", "))
		}
		e.pf("switch v%d {\n", p.stateNode)
		for ai, sv := range p.stateVals {
			e.pf("case %#x:\n", sv)
			e.emitArm(ai, p.arms[ai], loopDefined)
		}
		e.pf("default:\n")
		e.emitArm(-1, p.generic, loopDefined)
		e.pf("}\n")
	}
	sink := func(id int32) string {
		if p.suffixNode(id) {
			return fmt.Sprintf("s%d", id)
		}
		return e.ref(id, loopKnown, loopDefined)
	}

	// The done cycle is left uncommitted for the caller to run.
	if v, ok := loopKnown[int32(m.Done)]; !ok || v != 0 {
		e.pf("if %s != 0 {\nbreak\n}\n", sink(int32(m.Done)))
	}
	for i := range m.Writes {
		w := &m.Writes[i]
		en, enKnown := loopKnown[int32(w.En)]
		if enKnown && en == 0 {
			continue
		}
		e.mems[w.Mem] = true
		if !enKnown {
			e.pf("if %s != 0 {\n", sink(int32(w.En)))
		}
		e.pf("if addr := uint64(%s); addr < uint64(len(m%d)) {\n", sink(int32(w.Addr)), w.Mem)
		e.pf("m%d[addr] = %s\n}\n", w.Mem, sink(int32(w.Data)))
		if !enKnown {
			e.pf("}\n")
		}
	}
	// Registers latch simultaneously: a next value that is another
	// register is copied out before any register local is assigned.
	next := make([]string, len(m.Regs))
	for i := range m.Regs {
		r := &m.Regs[i]
		mask := m.Nodes[r.Node].Mask()
		if v, ok := loopKnown[int32(r.Next)]; ok {
			next[i] = fmt.Sprintf("%#x", v&mask)
			continue
		}
		next[i] = sink(int32(r.Next))
		if m.Nodes[r.Next].Mask()&^mask != 0 {
			next[i] = "(" + next[i] + maskSuffix(mask) + ")"
		}
		if m.Nodes[r.Next].Op == rtl.OpReg && r.Next != r.Node {
			e.pf("l%d := %s\n", i, next[i])
			next[i] = fmt.Sprintf("l%d", i)
		}
	}
	for i := range m.Regs {
		if r := &m.Regs[i]; r.Next != r.Node {
			e.pf("v%d = %s\n", r.Node, next[i])
		}
	}
	e.pf("}\n")
	for i := range m.Regs {
		e.pf("vals[%d] = v%d\n", m.Regs[i].Node, m.Regs[i].Node)
	}
	e.pf("return n\n}\n")

	// The preamble names exactly the memories and inputs the body used.
	var head strings.Builder
	fmt.Fprintf(&head, "func %s(vals []uint64, mems [][]uint64, max uint64) uint64 {\n", name)
	if n := len(m.Nodes); n > 0 {
		fmt.Fprintf(&head, "_ = vals[%d]\n", n-1)
	}
	for mi, used := range e.mems {
		if used {
			fmt.Fprintf(&head, "m%d := mems[%d]\n", mi, mi)
		}
	}
	for i := range m.Nodes {
		if m.Nodes[i].Op == rtl.OpReg || e.inputs[i] {
			fmt.Fprintf(&head, "v%d := vals[%d]\n", i, i)
		}
	}
	return head.String() + e.b.String()
}

// emitArm renders one suffix list as a switch case: its instructions,
// then an assignment to every suffix sink it must provide.
func (e *emitter) emitArm(ai int, insts []inst, loopDefined map[int32]bool) {
	p := e.p
	known := p.armKnown(ai, insts)
	def := defined(loopDefined, insts)
	e.emitInsts(insts, known, def)
	seen := make([]bool, len(e.m.Nodes))
	for _, id := range p.sinks(known) {
		if p.suffixNode(id) && !seen[id] {
			seen[id] = true
			e.pf("s%d = %s\n", id, e.ref(id, known, def))
		}
	}
}

// knownIn collects the literal results proven within an instruction
// list (its pConst entries), used to print consumers as literals.
func knownIn(insts []inst) map[int32]uint64 {
	known := map[int32]uint64{}
	for i := range insts {
		if insts[i].kind == pConst {
			known[insts[i].dst] = insts[i].imm
		}
	}
	return known
}

// defined extends an enclosing scope's set of nodes with locals by the
// locals a list's residual instructions introduce.
func defined(outer map[int32]bool, insts []inst) map[int32]bool {
	d := make(map[int32]bool, len(outer)+len(insts))
	for k, v := range outer { //detlint:allow scratch map, never ranged for output
		d[k] = v
	}
	for i := range insts {
		if insts[i].kind != pConst {
			d[insts[i].dst] = true
		}
	}
	return d
}

// ref renders a read of node id: a literal when known in scope, else
// the local holding it — the register or input local loaded at entry,
// or the SSA local of a kept instruction. A combinational node with
// neither is a pruning bug, so it panics rather than read vals.
func (e *emitter) ref(id int32, known map[int32]uint64, defined map[int32]bool) string {
	if v, ok := known[id]; ok {
		return fmt.Sprintf("%#x", v)
	}
	switch e.m.Nodes[id].Op {
	case rtl.OpInput:
		e.inputs[id] = true
		return fmt.Sprintf("v%d", id)
	case rtl.OpReg:
		return fmt.Sprintf("v%d", id)
	}
	if !defined[id] {
		panic(fmt.Sprintf("codegen: %s node %d read without a local", e.m.Nodes[id].Op, id))
	}
	return fmt.Sprintf("v%d", id)
}

// maskSuffix renders "& mask", or nothing for full-width values.
func maskSuffix(mask uint64) string {
	if mask == ^uint64(0) {
		return ""
	}
	return fmt.Sprintf(" & %#x", mask)
}

// bound returns a mask covering every value a node reference can hold:
// a literal's exact bits, otherwise the node's width mask (all engines
// store width-truncated values).
func bound(id int32, m *rtl.Module, known map[int32]uint64) uint64 {
	if v, ok := known[id]; ok {
		return v
	}
	return m.Nodes[id].Mask()
}

// emitInsts renders one instruction list. known maps nodes to literal
// values in this scope; defined holds every node with a visible local
// (including this list's own, precomputed by the caller).
func (e *emitter) emitInsts(insts []inst, known map[int32]uint64, defined map[int32]bool) {
	m := e.m
	r := func(id int32) string { return e.ref(id, known, defined) }
	for i := range insts {
		in := &insts[i]
		d := in.dst
		switch in.kind {
		case pConst:
			// Folded: consumers print the literal.
		case pCopy:
			msk := maskSuffix(in.mask)
			if bound(in.a, m, known)&^in.mask == 0 {
				msk = ""
			}
			e.pf("v%d := %s%s\n", d, r(in.a), msk)
		case pShlImm:
			e.pf("v%d := (%s << %d)%s\n", d, r(in.a), in.imm, maskSuffix(in.mask))
		case pShrImm:
			msk := maskSuffix(in.mask)
			if bound(in.a, m, known)>>in.imm&^in.mask == 0 {
				msk = ""
			}
			e.pf("v%d := (%s >> %d)%s\n", d, r(in.a), in.imm, msk)
		default:
			e.emitGeneric(in, r, known)
		}
	}
}

// emitGeneric renders a pGeneric instruction as the statements defining
// local v<dst>.
func (e *emitter) emitGeneric(in *inst, r func(int32) string, known map[int32]uint64) {
	m := e.m
	d := in.dst
	msk := maskSuffix(in.mask)
	ab := bound(in.a, m, known)
	var bb uint64
	if m.Nodes[d].NArgs > 1 {
		bb = bound(in.b, m, known)
	}
	switch in.op {
	case rtl.OpAdd:
		e.pf("v%d := (%s + %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpSub:
		e.pf("v%d := (%s - %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpMul:
		e.pf("v%d := (%s * %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpAnd:
		if ab&bb&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := %s & %s%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpOr:
		if (ab|bb)&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := (%s | %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpXor:
		if (ab|bb)&^in.mask == 0 {
			msk = ""
		}
		e.pf("v%d := (%s ^ %s)%s\n", d, r(in.a), r(in.b), msk)
	case rtl.OpNot:
		e.pf("v%d := ^%s%s\n", d, r(in.a), msk)
	case rtl.OpShl:
		e.pf("var v%d uint64\n", d)
		e.pf("if sh := %s; sh < 64 {\nv%d = (%s << sh)%s\n}\n", r(in.b), d, r(in.a), msk)
	case rtl.OpShr:
		e.pf("var v%d uint64\n", d)
		e.pf("if sh := %s; sh < 64 {\nv%d = (%s >> sh)%s\n}\n", r(in.b), d, r(in.a), msk)
	case rtl.OpEq:
		e.pf("var v%d uint64\nif %s == %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpNe:
		e.pf("var v%d uint64\nif %s != %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpLt:
		e.pf("var v%d uint64\nif %s < %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpLe:
		e.pf("var v%d uint64\nif %s <= %s {\nv%d = 1\n}\n", d, r(in.a), r(in.b), d)
	case rtl.OpMux:
		cb := bound(in.c, m, known)
		bmsk, cmsk := msk, msk
		if bb&^in.mask == 0 {
			bmsk = ""
		}
		if cb&^in.mask == 0 {
			cmsk = ""
		}
		e.pf("var v%d uint64\n", d)
		e.pf("if %s != 0 {\nv%d = %s%s\n} else {\nv%d = %s%s\n}\n",
			r(in.a), d, r(in.b), bmsk, d, r(in.c), cmsk)
	case rtl.OpMemRead:
		e.pf("var v%d uint64\n", d)
		// The uint64 conversion keeps a folded-literal address from
		// typing the local as int; it is a no-op for value reads.
		e.mems[in.mem] = true
		e.pf("if addr := uint64(%s); addr < uint64(len(m%d)) {\nv%d = m%d[addr]%s\n}\n",
			r(in.a), in.mem, d, in.mem, msk)
	default:
		panic(fmt.Sprintf("codegen: cannot emit op %v", in.op))
	}
}
