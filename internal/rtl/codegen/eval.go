package codegen

import "repro/internal/rtl"

// poison fills combinational entries at the start of every evaluated
// cycle, so a plan that reads a node no kept instruction computed
// diverges from the interpreter instead of reading a stale value.
const poison = 0xdead_beef_dead_beef

// Run executes the plan directly — the interpretive backend over the
// same specialized, pruned instruction lists the emitter turns into Go
// source. Its signature and contract match rtl.NativeRun (see the
// package comment), so rtl.NewNativeSim(m, plan.Run) yields a
// simulator the differential tests can run against the other engines
// on arbitrary modules, exercising the partial-evaluation, pruning and
// FSM-dispatch logic without the Go toolchain. Like the emitted code it
// writes only registers back into vals: it evaluates into a private
// copy whose combinational entries are poisoned each cycle.
func (p *Plan) Run(vals []uint64, mems [][]uint64, max uint64) uint64 {
	m := p.m
	cur := make([]uint64, len(vals))
	copy(cur, vals)
	comb := combNodes(m, nil)
	latch := make([]uint64, len(m.Regs))
	var n uint64
	for ; n < max; n++ {
		for _, id := range comb {
			cur[id] = poison
		}
		// Combinational evaluation — prefix, then the suffix arm
		// specialized for the current state (or the generic default).
		runInsts(p.prefix, cur, mems)
		if p.stateNode >= 0 {
			if ai, ok := p.armOf[cur[p.stateNode]]; ok {
				runInsts(p.arms[ai], cur, mems)
			} else {
				runInsts(p.generic, cur, mems)
			}
		}
		if cur[m.Done] != 0 {
			break
		}
		// Memory writes commit.
		for i := range m.Writes {
			w := &m.Writes[i]
			if cur[w.En] != 0 {
				data := mems[w.Mem]
				if addr := cur[w.Addr]; addr < uint64(len(data)) {
					data[addr] = cur[w.Data]
				}
			}
		}
		// Registers latch simultaneously.
		for i := range m.Regs {
			r := &m.Regs[i]
			latch[i] = cur[r.Next] & m.Nodes[r.Node].Mask()
		}
		for i := range m.Regs {
			cur[m.Regs[i].Node] = latch[i]
		}
	}
	for i := range m.Regs {
		vals[m.Regs[i].Node] = cur[m.Regs[i].Node]
	}
	return n
}

func runInsts(insts []inst, vals []uint64, mems [][]uint64) {
	for i := range insts {
		in := &insts[i]
		switch in.kind {
		case pConst:
			vals[in.dst] = in.imm
		case pCopy:
			vals[in.dst] = vals[in.a] & in.mask
		case pShlImm:
			vals[in.dst] = (vals[in.a] << in.imm) & in.mask
		case pShrImm:
			vals[in.dst] = (vals[in.a] >> in.imm) & in.mask
		default:
			switch in.op {
			case rtl.OpMemRead:
				data := mems[in.mem]
				if addr := vals[in.a]; addr < uint64(len(data)) {
					vals[in.dst] = data[addr] & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpMux:
				if vals[in.a] != 0 {
					vals[in.dst] = vals[in.b] & in.mask
				} else {
					vals[in.dst] = vals[in.c] & in.mask
				}
			case rtl.OpAdd:
				vals[in.dst] = (vals[in.a] + vals[in.b]) & in.mask
			case rtl.OpSub:
				vals[in.dst] = (vals[in.a] - vals[in.b]) & in.mask
			case rtl.OpMul:
				vals[in.dst] = (vals[in.a] * vals[in.b]) & in.mask
			case rtl.OpAnd:
				vals[in.dst] = vals[in.a] & vals[in.b] & in.mask
			case rtl.OpOr:
				vals[in.dst] = (vals[in.a] | vals[in.b]) & in.mask
			case rtl.OpXor:
				vals[in.dst] = (vals[in.a] ^ vals[in.b]) & in.mask
			case rtl.OpNot:
				vals[in.dst] = ^vals[in.a] & in.mask
			case rtl.OpShl:
				if sh := vals[in.b]; sh < 64 {
					vals[in.dst] = (vals[in.a] << sh) & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpShr:
				if sh := vals[in.b]; sh < 64 {
					vals[in.dst] = (vals[in.a] >> sh) & in.mask
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpEq:
				if vals[in.a] == vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpNe:
				if vals[in.a] != vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpLt:
				if vals[in.a] < vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			case rtl.OpLe:
				if vals[in.a] <= vals[in.b] {
					vals[in.dst] = 1
				} else {
					vals[in.dst] = 0
				}
			}
		}
	}
}
