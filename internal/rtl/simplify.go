package rtl

// Simplify performs the cleanup passes a synthesis tool would run after
// a netlist transformation: constant folding, mux folding (selectors
// that became constants, e.g. after the slicer's wait-state elision),
// algebraic identities, global value numbering, and dead-code
// elimination of both combinational nodes and registers.
//
// Roots are the done signal, the registers named in keepRegs (by Regs
// index) — the slicer passes its feature witnesses there — and the
// write ports of every live memory, one that logic in the cone of a
// root reads. Registers not reachable from any root are dropped. A
// memory nothing live reads is write-only: its write ports are not
// roots, so they, the memory and the logic only they consume are
// dropped too. The returned map gives each surviving source register's
// new index; dropped registers are absent.
//
// Simplification preserves cycle-accurate behaviour on everything it
// keeps: done timing, every surviving register and the contents of
// every surviving memory. It only replaces nodes with provably equal
// ones and removes state no root can observe; the contents of a
// write-only memory are not preserved. The slice package runs it so
// that elided guards collapse the logic they used to select, which is
// what brings slice areas down to the small fractions the paper
// reports.
func Simplify(m *Module, keepRegs []int) (*Module, map[int]int) {
	return SimplifyWithConsts(m, keepRegs, nil)
}

// SimplifyWithConsts is Simplify with externally proven constant facts:
// consts maps node IDs to values the caller has proven the node holds
// on every reachable cycle (e.g. from abstract interpretation). Each
// such node is replaced by a literal before the usual passes run, so
// constant folding propagates through logic that is only constant
// globally (a register that never changes, a ROM read at a fixed
// address) rather than locally. Registers proven constant are dropped
// entirely unless named in keepRegs. The caller is responsible for the
// facts' soundness; an incorrect fact changes behaviour.
func SimplifyWithConsts(m *Module, keepRegs []int, consts map[NodeID]uint64) (*Module, map[int]int) {
	if len(consts) == 0 {
		return simplify(m, keepRegs)
	}
	cp, idxMap := substConsts(m, keepRegs, consts)
	cpKeep := make([]int, 0, len(keepRegs))
	for _, ri := range keepRegs {
		cpKeep = append(cpKeep, idxMap[ri]) // keepRegs registers are never dropped
	}
	sm, cpRegMap := simplify(cp, cpKeep)
	regMap := make(map[int]int, len(cpRegMap))
	for ri := range m.Regs {
		if ci, ok := idxMap[ri]; ok {
			if ni, ok := cpRegMap[ci]; ok {
				regMap[ri] = ni
			}
		}
	}
	return sm, regMap
}

// substConsts copies m with every proven-constant node rewritten to an
// OpConst literal in place (node IDs preserved). Inputs are never
// substituted (their values are external by definition), and registers
// in keepRegs keep their state so callers can still observe them.
// Constant registers otherwise become literals and their Reg entries
// are dropped, so the rewrite below never roots their next cones. The
// returned map gives each surviving register's index in the copy.
func substConsts(m *Module, keepRegs []int, consts map[NodeID]uint64) (*Module, map[int]int) {
	keep := make(map[int]bool, len(keepRegs))
	for _, ri := range keepRegs {
		keep[ri] = true
	}
	cp := &Module{Name: m.Name, Srcs: m.Srcs, Done: m.Done}
	cp.Nodes = append([]Node(nil), m.Nodes...)
	cp.Mems = m.Mems
	cp.Writes = m.Writes
	// Iterate by ID, not over the map, for deterministic output.
	for id := range cp.Nodes {
		v, ok := consts[NodeID(id)]
		if !ok {
			continue
		}
		n := &cp.Nodes[id]
		switch n.Op {
		case OpConst, OpInput:
			continue
		case OpReg:
			if ri := m.RegIndex(NodeID(id)); ri < 0 || keep[ri] {
				continue
			}
		}
		cp.Nodes[id] = Node{Op: OpConst, Width: n.Width, Const: v & n.Mask(), Name: n.Name, Src: n.Src}
	}
	idxMap := make(map[int]int, len(m.Regs))
	for i := range m.Regs {
		if cp.Nodes[m.Regs[i].Node].Op == OpConst {
			continue
		}
		idxMap[i] = len(cp.Regs)
		cp.Regs = append(cp.Regs, m.Regs[i])
	}
	return cp, idxMap
}

// simplify is the shared implementation behind Simplify and
// SimplifyWithConsts.
func simplify(m *Module, keepRegs []int) (*Module, map[int]int) {
	// Phase 1: register and memory liveness on the source module. A
	// register is live if its OpReg node is in the cone of a root; live
	// registers' next expressions become roots in turn. A memory is live
	// if a node in the cone reads it; its write ports become roots in
	// turn. A memory nothing live reads is write-only: its ports are not
	// roots, so the datapath feeding them drops out.
	liveRegs := make([]bool, len(m.Regs))
	liveMems := make([]bool, len(m.Mems))
	inCone := make(map[NodeID]bool)
	var stack []NodeID
	push := func(id NodeID) {
		if !inCone[id] {
			inCone[id] = true
			stack = append(stack, id)
		}
	}
	push(m.Done)
	for _, ri := range keepRegs {
		liveRegs[ri] = true
		push(m.Regs[ri].Node)
		push(m.Regs[ri].Next)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.Nodes[id]
		for i := 0; i < int(n.NArgs); i++ {
			push(n.Args[i])
		}
		switch n.Op {
		case OpReg:
			if ri := m.RegIndex(id); ri >= 0 && !liveRegs[ri] {
				liveRegs[ri] = true
				push(m.Regs[ri].Next)
			}
		case OpMemRead:
			if !liveMems[n.Mem] {
				liveMems[n.Mem] = true
				for _, w := range m.Writes {
					if w.Mem == n.Mem {
						push(w.Addr)
						push(w.Data)
						push(w.En)
					}
				}
			}
		}
	}

	// Phase 2: rewrite from the roots.
	s := &simplifier{
		src:  m,
		out:  &Module{Name: m.Name, Srcs: m.Srcs},
		memo: make(map[NodeID]NodeID, len(m.Nodes)),
		pure: make(map[pureKey]NodeID),
	}
	memMap := make(map[int32]int32, len(m.Mems))
	s.mapMem = func(old int32) int32 {
		if nm, ok := memMap[old]; ok {
			return nm
		}
		srcMem := m.Mems[old]
		cp := &Mem{Name: srcMem.Name, Words: srcMem.Words, ROM: srcMem.ROM}
		if srcMem.ROM {
			cp.Data = append([]uint64(nil), srcMem.Data...)
		}
		nm := int32(len(s.out.Mems))
		s.out.Mems = append(s.out.Mems, cp)
		memMap[old] = nm
		return nm
	}

	regMap := make(map[int]int)
	for i := range m.Regs {
		if !liveRegs[i] {
			continue
		}
		r := &m.Regs[i]
		newNode := s.rewrite(r.Node)
		newNext := s.rewrite(r.Next)
		regMap[i] = len(s.out.Regs)
		s.out.Regs = append(s.out.Regs, Reg{
			Node: newNode, Next: newNext, Init: r.Init, Name: r.Name,
		})
	}
	for _, w := range m.Writes {
		if !liveMems[w.Mem] {
			continue
		}
		en := s.rewrite(w.En)
		if v, ok := s.constOf(en); ok && v == 0 {
			// A write whose enable is provably never asserted writes
			// nothing; drop the port (compact sweeps its cone).
			continue
		}
		s.out.Writes = append(s.out.Writes, MemWrite{
			Mem:  s.mapMem(w.Mem),
			Addr: s.rewrite(w.Addr),
			Data: s.rewrite(w.Data),
			En:   en,
		})
	}
	s.out.Done = s.rewrite(m.Done)

	// Phase 3: compact. Rewriting is bottom-up, so arguments of nodes
	// that later folded away (e.g. the dead arm of a constant-selector
	// mux) were emitted before the fold decided; sweep them out.
	return compact(s.out), regMap
}

// compact drops combinational nodes unreachable from the module's roots
// and renumbers densely, preserving register order.
func compact(m *Module) *Module {
	live := make([]bool, len(m.Nodes))
	var stack []NodeID
	push := func(id NodeID) {
		if !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	push(m.Done)
	for i := range m.Regs {
		push(m.Regs[i].Node)
		push(m.Regs[i].Next)
	}
	for _, w := range m.Writes {
		push(w.Addr)
		push(w.Data)
		push(w.En)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.Nodes[id]
		for i := 0; i < int(n.NArgs); i++ {
			push(n.Args[i])
		}
	}
	remap := make([]NodeID, len(m.Nodes))
	out := &Module{Name: m.Name, Mems: m.Mems, Srcs: m.Srcs}
	for i := range m.Nodes {
		if !live[i] {
			remap[i] = InvalidNode
			continue
		}
		n := m.Nodes[i]
		for a := 0; a < int(n.NArgs); a++ {
			n.Args[a] = remap[n.Args[a]]
		}
		remap[i] = NodeID(len(out.Nodes))
		out.Nodes = append(out.Nodes, n)
	}
	for _, r := range m.Regs {
		out.Regs = append(out.Regs, Reg{
			Node: remap[r.Node], Next: remap[r.Next], Init: r.Init, Name: r.Name,
		})
	}
	for _, w := range m.Writes {
		out.Writes = append(out.Writes, MemWrite{
			Mem: w.Mem, Addr: remap[w.Addr], Data: remap[w.Data], En: remap[w.En],
		})
	}
	out.Done = remap[m.Done]
	return out
}

type simplifier struct {
	src    *Module
	out    *Module
	memo   map[NodeID]NodeID
	pure   map[pureKey]NodeID
	mapMem func(int32) int32
}

// rewrite returns the simplified copy of old in the output module.
func (s *simplifier) rewrite(old NodeID) NodeID {
	if nid, ok := s.memo[old]; ok {
		return nid
	}
	n := s.src.Nodes[old] // copy
	switch n.Op {
	case OpConst, OpInput:
		nid := s.emit(n)
		s.memo[old] = nid
		return nid
	case OpReg:
		nid := s.emit(n)
		s.memo[old] = nid
		return nid
	case OpMemRead:
		n.Mem = s.mapMem(n.Mem)
		n.Args[0] = s.rewrite(n.Args[0])
		nid := s.emit(n)
		s.memo[old] = nid
		return nid
	}
	for i := 0; i < int(n.NArgs); i++ {
		n.Args[i] = s.rewrite(n.Args[i])
	}
	nid := s.fold(n)
	s.memo[old] = nid
	return nid
}

// fold applies local rewrites to a node whose args are already
// simplified, emitting either a folded constant, a forwarded arg, or
// the node itself (value-numbered).
func (s *simplifier) fold(n Node) NodeID {
	out := s.out
	isConst := func(id NodeID) (uint64, bool) {
		nd := &out.Nodes[id]
		if nd.Op == OpConst {
			return nd.Const & nd.Mask(), true
		}
		return 0, false
	}

	// Mux folding first: constant selector, or identical arms.
	if n.Op == OpMux {
		if sv, ok := isConst(n.Args[0]); ok {
			if sv != 0 {
				return s.forward(n.Args[1], n.Width)
			}
			return s.forward(n.Args[2], n.Width)
		}
		if n.Args[1] == n.Args[2] {
			return s.forward(n.Args[1], n.Width)
		}
	}

	// Full constant folding for any op whose args are all constants.
	allConst := n.NArgs > 0
	var vals [3]uint64
	for i := 0; i < int(n.NArgs); i++ {
		v, ok := isConst(n.Args[i])
		if !ok {
			allConst = false
			break
		}
		vals[i] = v
	}
	if allConst {
		return s.emitConst(evalOp(&n, vals), n.Width)
	}

	// Algebraic identities with one constant operand.
	if n.NArgs == 2 {
		a, aOk := isConst(n.Args[0])
		b, bOk := isConst(n.Args[1])
		switch n.Op {
		case OpAdd, OpOr, OpXor:
			if aOk && a == 0 {
				return s.forward(n.Args[1], n.Width)
			}
			if bOk && b == 0 {
				return s.forward(n.Args[0], n.Width)
			}
		case OpSub:
			if bOk && b == 0 {
				return s.forward(n.Args[0], n.Width)
			}
		case OpShl:
			if bOk && b == 0 {
				return s.forward(n.Args[0], n.Width)
			}
			// Shifting everything past the result width leaves zero.
			if bOk && b >= uint64(n.Width) {
				return s.emitConst(0, n.Width)
			}
		case OpShr:
			if bOk && b == 0 {
				return s.forward(n.Args[0], n.Width)
			}
			// The argument has widthOf(arg) significant bits; shifting
			// them all out leaves zero regardless of the result width.
			if bOk && b >= uint64(s.widthOf(n.Args[0])) {
				return s.emitConst(0, n.Width)
			}
		case OpAnd:
			if aOk && a == 0 || bOk && b == 0 {
				return s.emitConst(0, n.Width)
			}
			if aOk && a == WidthMask(n.Width) && s.widthOf(n.Args[1]) <= n.Width {
				return s.forward(n.Args[1], n.Width)
			}
			if bOk && b == WidthMask(n.Width) && s.widthOf(n.Args[0]) <= n.Width {
				return s.forward(n.Args[0], n.Width)
			}
		case OpMul:
			if aOk && a == 0 || bOk && b == 0 {
				return s.emitConst(0, n.Width)
			}
			if aOk && a == 1 && s.widthOf(n.Args[1]) <= n.Width {
				return s.forward(n.Args[1], n.Width)
			}
			if bOk && b == 1 && s.widthOf(n.Args[0]) <= n.Width {
				return s.forward(n.Args[0], n.Width)
			}
		}
	}
	// x == x, x != x, x <= x, x < x on identical operands.
	if n.NArgs == 2 && n.Args[0] == n.Args[1] {
		switch n.Op {
		case OpEq, OpLe:
			return s.emitConst(1, 1)
		case OpNe, OpLt:
			return s.emitConst(0, 1)
		case OpXor, OpSub:
			return s.emitConst(0, n.Width)
		case OpAnd, OpOr:
			return s.forward(n.Args[0], n.Width)
		}
	}
	return s.emit(n)
}

// forward re-types a node reference to the requested width, inserting a
// truncation only when the source is wider.
func (s *simplifier) forward(id NodeID, width uint8) NodeID {
	w := s.widthOf(id)
	if w == width {
		return id
	}
	if v, ok := s.constOf(id); ok {
		return s.emitConst(v&WidthMask(width), width)
	}
	if w < width {
		// Zero-extension: widen via OR with 0.
		zero := s.emitConst(0, width)
		n := Node{Op: OpOr, Width: width}
		n.Args[0], n.Args[1] = id, zero
		n.NArgs = 2
		return s.emit(n)
	}
	mask := s.emitConst(WidthMask(width), w)
	n := Node{Op: OpAnd, Width: width}
	n.Args[0], n.Args[1] = id, mask
	n.NArgs = 2
	return s.emit(n)
}

func (s *simplifier) widthOf(id NodeID) uint8 { return s.out.Nodes[id].Width }

func (s *simplifier) constOf(id NodeID) (uint64, bool) {
	n := &s.out.Nodes[id]
	if n.Op == OpConst {
		return n.Const & n.Mask(), true
	}
	return 0, false
}

func (s *simplifier) emitConst(v uint64, width uint8) NodeID {
	return s.emit(Node{Op: OpConst, Width: width, Const: v & WidthMask(width)})
}

// emit appends a node with value numbering (constants and pure ops).
func (s *simplifier) emit(n Node) NodeID {
	if n.Op == OpConst {
		k := pureKey{op: OpConst, width: n.Width, args: [3]NodeID{NodeID(n.Const), NodeID(n.Const >> 32)}}
		if id, ok := s.pure[k]; ok {
			return id
		}
		id := NodeID(len(s.out.Nodes))
		s.out.Nodes = append(s.out.Nodes, n)
		s.pure[k] = id
		return id
	}
	if k, ok := pureKeyFor(&n); ok {
		if id, exists := s.pure[k]; exists {
			return id
		}
		id := NodeID(len(s.out.Nodes))
		s.out.Nodes = append(s.out.Nodes, n)
		s.pure[k] = id
		return id
	}
	id := NodeID(len(s.out.Nodes))
	s.out.Nodes = append(s.out.Nodes, n)
	return id
}
