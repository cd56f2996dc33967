package rtl

import (
	"fmt"
	"math/rand"
	"testing"
)

// randModule builds a random but valid netlist: a few inputs, a DAG of
// random combinational ops over them, several registers with random
// next expressions, a memory, and a terminating counter driving done.
func randModule(rng *rand.Rand) (*Module, []NodeID) {
	b := NewBuilder("rand")
	var pool []Signal
	var inputs []NodeID
	for i := 0; i < 3; i++ {
		in := b.Input(fmt.Sprintf("in%d", i), 1+uint8(rng.Intn(16)))
		pool = append(pool, in)
		inputs = append(inputs, in.ID())
	}
	pool = append(pool, b.Const(uint64(rng.Intn(1000)), 16))
	pick := func() Signal { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 25; i++ {
		a, c := pick(), pick()
		var s Signal
		switch rng.Intn(10) {
		case 0:
			s = a.Add(c)
		case 1:
			s = a.Sub(c)
		case 2:
			s = a.Mul(c, 16)
		case 3:
			s = a.And(c)
		case 4:
			s = a.Or(c)
		case 5:
			s = a.Xor(c)
		case 6:
			s = a.Eq(c)
		case 7:
			s = a.Lt(c)
		case 8:
			s = a.Not()
		default:
			s = pick().NonZero().Mux(a, c)
		}
		pool = append(pool, s)
	}
	// Registers latching random pool values.
	for i := 0; i < 4; i++ {
		v := pick()
		r := b.Reg("r", v.Width(), 0)
		b.SetNext(r, v)
		pool = append(pool, r.Signal)
	}
	// A terminating counter so Run finishes.
	cnt := b.Reg("cnt", 8, 0)
	b.SetNext(cnt, cnt.Inc())
	b.SetDone(cnt.EqK(30))
	return b.MustBuild(), inputs
}

// TestSimplifyPreservesBehaviour is the pass's defining property: for
// random netlists and random inputs, every register of the simplified
// module matches the original cycle for cycle.
func TestSimplifyPreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m, inputs := randModule(rng)
		keep := make([]int, len(m.Regs))
		for i := range keep {
			keep[i] = i
		}
		sm, regMap := Simplify(m, keep)
		if err := sm.Validate(); err != nil {
			t.Fatalf("trial %d: simplified module invalid: %v", trial, err)
		}
		s1, s2 := NewSim(m), NewSim(sm)
		// Map inputs by name (dead inputs may have been dropped).
		sInputs := map[string]NodeID{}
		for i := range sm.Nodes {
			if sm.Nodes[i].Op == OpInput {
				sInputs[sm.Nodes[i].Name] = NodeID(i)
			}
		}
		for cycle := 0; cycle < 32; cycle++ {
			for _, id := range inputs {
				v := rng.Uint64()
				s1.SetInput(id, v)
				if sid, ok := sInputs[m.Nodes[id].Name]; ok {
					s2.SetInput(sid, v)
				}
			}
			s1.Step()
			s2.Step()
			for oi, ni := range regMap {
				v1 := s1.RegValue(oi)
				v2 := s2.RegValue(ni)
				if v1 != v2 {
					t.Fatalf("trial %d cycle %d: reg %s = %d, simplified %d",
						trial, cycle, m.Regs[oi].Name, v1, v2)
				}
			}
		}
	}
}

func TestSimplifyFoldsConstMux(t *testing.T) {
	b := NewBuilder("cm")
	x := b.Input("x", 8)
	one := b.Const(1, 1)
	folded := one.Mux(x.Add(x).Trunc(8), x.Mul(x, 8))
	r := b.Reg("r", 8, 0)
	b.SetNext(r, folded)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	sm, _ := Simplify(m, []int{0})
	for i := range sm.Nodes {
		if sm.Nodes[i].Op == OpMux {
			t.Error("constant-selector mux survived")
		}
		if sm.Nodes[i].Op == OpMul {
			t.Error("dead mux arm (multiplier) survived")
		}
	}
}

func TestSimplifyDropsDeadRegisters(t *testing.T) {
	b := NewBuilder("dead")
	x := b.Input("x", 8)
	live := b.Reg("live", 8, 0)
	b.SetNext(live, x)
	dead := b.Reg("dead", 8, 0)
	b.SetNext(dead, x.Add(x).Trunc(8))
	b.SetDone(live.EqK(5))
	m := b.MustBuild()
	sm, regMap := Simplify(m, []int{0}) // keep only "live"
	if len(sm.Regs) != 1 {
		t.Fatalf("regs = %d, want 1", len(sm.Regs))
	}
	if _, ok := regMap[1]; ok {
		t.Error("dead register survived in the map")
	}
	if ni, ok := regMap[0]; !ok || sm.Regs[ni].Name != "live" {
		t.Error("live register mapping wrong")
	}
}

func TestSimplifyKeepRootsProtectRegisters(t *testing.T) {
	b := NewBuilder("keep")
	x := b.Input("x", 8)
	w := b.Reg("witness", 8, 0)
	b.SetNext(w, x)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	// Without keep the witness is dead; with keep it survives.
	sm0, _ := Simplify(m, nil)
	if len(sm0.Regs) != 0 {
		t.Errorf("unreferenced register kept without roots: %d", len(sm0.Regs))
	}
	sm1, regMap := Simplify(m, []int{0})
	if len(sm1.Regs) != 1 || regMap[0] != 0 {
		t.Error("keep root did not protect the witness")
	}
}

func TestSimplifyConstFoldsThroughArithmetic(t *testing.T) {
	b := NewBuilder("cf")
	a := b.Const(20, 16)
	c := b.Const(22, 16)
	sum := a.Add(c).Mul(b.Const(2, 16), 16)
	r := b.Reg("r", 16, 0)
	b.SetNext(r, sum)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	sm, regMap := Simplify(m, []int{0})
	next := sm.Regs[regMap[0]].Next
	if sm.Nodes[next].Op != OpConst || sm.Nodes[next].Const != 84 {
		t.Errorf("constant chain not folded: %v %d", sm.Nodes[next].Op, sm.Nodes[next].Const)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	b := NewBuilder("ids")
	x := b.Input("x", 8)
	zero := b.Const(0, 8)
	cases := []Signal{
		x.Add(zero),    // x+0 = x
		x.Xor(x),       // x^x = 0
		x.Sub(zero),    // x-0 = x
		x.Mul(zero, 8), // x*0 = 0
		x.And(x),       // x&x = x
		x.Eq(x),        // 1
	}
	for _, s := range cases {
		r := b.Reg("r", s.Width(), 0)
		b.SetNext(r, s)
	}
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	keep := make([]int, len(m.Regs))
	for i := range keep {
		keep[i] = i
	}
	sm, regMap := Simplify(m, keep)
	// Behavioural spot check: feed x and verify each register.
	sim := NewSim(sm)
	var inID NodeID = -1
	for i := range sm.Nodes {
		if sm.Nodes[i].Op == OpInput {
			inID = NodeID(i)
		}
	}
	sim.SetInput(inID, 0xA7)
	sim.Step()
	want := []uint64{0xA7, 0, 0xA7, 0, 0xA7, 1}
	for i, w := range want {
		if got := sim.RegValue(regMap[i]); got != w {
			t.Errorf("identity %d: got %d, want %d", i, got, w)
		}
	}
	// And structurally: the xor/eq/mul nodes should be gone.
	for i := range sm.Nodes {
		switch sm.Nodes[i].Op {
		case OpXor, OpEq, OpMul:
			t.Errorf("op %s survived identity folding", sm.Nodes[i].Op)
		}
	}
}

func TestSimplifyShrinksElisionStyleNetlist(t *testing.T) {
	// Mimic what elision does: a big mux tree whose selectors are
	// constants must collapse to almost nothing.
	b := NewBuilder("shrink")
	x := b.Input("x", 16)
	sel := b.Const(1, 1)
	v := x
	for i := 0; i < 10; i++ {
		heavy := v.Mul(v, 16).Add(b.Const(uint64(i), 16))
		v = sel.Mux(v.Add(b.Const(1, 16)), heavy)
	}
	r := b.Reg("r", 16, 0)
	b.SetNext(r, v)
	b.SetDone(b.Const(1, 1))
	m := b.MustBuild()
	sm, _ := Simplify(m, []int{0})
	if len(sm.Nodes) >= len(m.Nodes)/2 {
		t.Errorf("netlist barely shrank: %d -> %d nodes", len(m.Nodes), len(sm.Nodes))
	}
	for i := range sm.Nodes {
		if sm.Nodes[i].Op == OpMul {
			t.Error("dead heavy arm survived")
		}
	}
}

// TestSimplifyShiftWidthEdges is the folded-vs-unfolded property test
// targeted at shift-amount >= width and width-truncation corners: for
// every (width, amount) pair around the edges — including amounts past
// the operand width and past 64 — folded evaluation must match the
// unfolded module on random inputs, and amounts that provably clear
// the result must fold to literal zero.
func TestSimplifyShiftWidthEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	widths := []uint8{1, 7, 8, 32, 63, 64}
	for _, w := range widths {
		amounts := []uint64{0, 1, uint64(w) - 1, uint64(w), uint64(w) + 1, 63, 64, 100}
		for _, k := range amounts {
			b := NewBuilder("shiftedge")
			x := b.Input("x", w)
			amt := b.Const(k, 7)
			shl := x.Shl(amt)
			shr := x.Shr(amt)
			// Truncating / widening consumers stress forward()'s
			// re-typing on both sides of the width.
			narrow := shl.Trunc(1 + w/2)
			wide := shr.WidenTo(64)
			r1 := b.Reg("r1", shl.Width(), 0)
			b.SetNext(r1, shl)
			r2 := b.Reg("r2", shr.Width(), 0)
			b.SetNext(r2, shr)
			r3 := b.Reg("r3", narrow.Width(), 0)
			b.SetNext(r3, narrow)
			r4 := b.Reg("r4", wide.Width(), 0)
			b.SetNext(r4, wide)
			b.SetDone(b.Const(0, 1))
			m := b.MustBuild()
			keep := []int{0, 1, 2, 3}
			sm, regMap := Simplify(m, keep)
			if err := sm.Validate(); err != nil {
				t.Fatalf("w=%d k=%d: invalid: %v", w, k, err)
			}
			if k >= uint64(w) {
				// Both shifts clear every result bit; everything must
				// have folded to constants.
				for i := range sm.Nodes {
					switch sm.Nodes[i].Op {
					case OpShl, OpShr:
						t.Errorf("w=%d k=%d: %s survived full-clear folding", w, k, sm.Nodes[i].Op)
					}
				}
			}
			s1, s2 := NewSim(m), NewSim(sm)
			var in1, in2 NodeID = -1, -1
			for i := range m.Nodes {
				if m.Nodes[i].Op == OpInput {
					in1 = NodeID(i)
				}
			}
			for i := range sm.Nodes {
				if sm.Nodes[i].Op == OpInput {
					in2 = NodeID(i)
				}
			}
			for cycle := 0; cycle < 8; cycle++ {
				v := rng.Uint64()
				s1.SetInput(in1, v)
				if in2 >= 0 {
					s2.SetInput(in2, v)
				}
				s1.Step()
				s2.Step()
				for oi := range keep {
					if v1, v2 := s1.RegValue(oi), s2.RegValue(regMap[oi]); v1 != v2 {
						t.Fatalf("w=%d k=%d cycle %d reg %d: %#x (orig) != %#x (folded)",
							w, k, cycle, oi, v1, v2)
					}
				}
			}
		}
	}
}

// TestSimplifyWithConstsFacts feeds externally proven constants (the
// absint use case) and checks substitution, register dropping, keepRegs
// protection, and behavioural equivalence.
func TestSimplifyWithConstsFacts(t *testing.T) {
	b := NewBuilder("facts")
	frozen := b.Reg("frozen", 8, 5)
	b.SetNext(frozen, frozen.Signal)
	cnt := b.Reg("cnt", 8, 0)
	b.SetNext(cnt, cnt.Signal.Add(frozen.Signal).Trunc(8))
	kept := b.Reg("kept", 8, 7)
	b.SetNext(kept, kept.Signal)
	b.SetDone(cnt.Signal.EqK(50).And(kept.Signal.EqK(7)))
	m := b.MustBuild()

	consts := map[NodeID]uint64{
		frozen.Signal.ID(): 5,
		kept.Signal.ID():   7,
	}
	sm, regMap := SimplifyWithConsts(m, []int{2}, consts)
	if _, ok := regMap[0]; ok {
		t.Error("frozen register must be dropped")
	}
	if _, ok := regMap[1]; !ok {
		t.Error("counter must survive")
	}
	ki, ok := regMap[2]
	if !ok {
		t.Fatal("keepRegs register must survive const substitution")
	}
	s1, s2 := NewSim(m), NewSim(sm)
	t1, err1 := s1.Run(1000)
	t2, err2 := s2.Run(1000)
	if err1 != nil || err2 != nil {
		t.Fatalf("run: %v / %v", err1, err2)
	}
	if t1 != t2 {
		t.Fatalf("folded design finished at %d, original at %d", t2, t1)
	}
	if got := s2.RegValue(ki); got != 7 {
		t.Fatalf("kept register reads %d, want 7", got)
	}
	// A wrong fact must change behaviour (documents the soundness
	// contract: the caller vouches for the facts).
	smBad, _ := SimplifyWithConsts(m, nil, map[NodeID]uint64{frozen.Signal.ID(): 1})
	sBad := NewSim(smBad)
	if tBad, err := sBad.Run(1000); err == nil && tBad == t1 {
		t.Fatal("intentionally wrong fact did not change behaviour; substitution inert?")
	}
}

// TestSimplifyRootsOnlyReadMemories pins the memory-liveness rule: a
// write port is a root only when live logic reads its memory. A
// write-only memory loses its port and the register feeding it; a
// memory read back by the done cone keeps its port; and in a
// memory→register→memory chain whose far end done reads, liveness
// reaches back through the register to the near memory's port too.
// Done, every surviving register and every surviving memory still
// match the source module cycle for cycle.
func TestSimplifyRootsOnlyReadMemories(t *testing.T) {
	b := NewBuilder("memlive")
	x := b.Input("x", 8)
	one := b.Const(1, 1)
	cnt := b.Reg("cnt", 4, 0)
	b.SetNext(cnt, cnt.Inc())

	// Write-only: an accumulator stored every cycle and never read.
	acc := b.Reg("acc", 8, 0)
	b.SetNext(acc, acc.Add(x).Trunc(8))
	out := b.Memory("out", 16)
	b.Write(out, cnt.Signal, acc.Signal, one)

	// Read back by done.
	d := b.Reg("d", 8, 0)
	b.SetNext(d, d.Xor(x))
	buf := b.Memory("buf", 16)
	b.Write(buf, cnt.Signal, d.Signal, one)
	bufHit := b.Read(buf, cnt.Dec(), 8).EqK(0xff)

	// Chain: near is latched into r2, r2 is stored into far, done reads far.
	r1 := b.Reg("r1", 8, 0)
	b.SetNext(r1, r1.Add(x).Trunc(8))
	near := b.Memory("near", 16)
	b.Write(near, cnt.Signal, r1.Signal, one)
	r2 := b.Reg("r2", 8, 0)
	b.SetNext(r2, b.Read(near, cnt.Dec(), 8))
	far := b.Memory("far", 16)
	b.Write(far, cnt.Signal, r2.Signal, one)
	farHit := b.Read(far, cnt.Dec(), 8).EqK(0xfe)

	b.SetDone(cnt.EqK(15).Or(bufHit).Or(farHit))
	m := b.MustBuild()
	sm, regMap := Simplify(m, nil)
	if err := sm.Validate(); err != nil {
		t.Fatalf("simplified module invalid: %v", err)
	}

	if sm.MemByName("out") != nil {
		t.Error("write-only memory out survived")
	}
	if _, ok := regMap[acc.regIndex]; ok {
		t.Error("register acc, which feeds only the write-only memory, survived")
	}
	for _, name := range []string{"buf", "near", "far"} {
		if sm.MemByName(name) == nil {
			t.Errorf("read memory %s dropped", name)
		}
	}
	for _, r := range []RegSignal{cnt, d, r1, r2} {
		if _, ok := regMap[r.regIndex]; !ok {
			t.Errorf("register %s dropped", m.Regs[r.regIndex].Name)
		}
	}
	if len(sm.Writes) != 3 {
		t.Fatalf("%d write ports survive, want 3 (buf, near, far)", len(sm.Writes))
	}

	s1, s2 := NewInterpSim(m), NewInterpSim(sm)
	var sx NodeID = InvalidNode
	for i := range sm.Nodes {
		if sm.Nodes[i].Op == OpInput {
			sx = NodeID(i)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 40; cycle++ {
		v := rng.Uint64()
		s1.SetInput(x.ID(), v)
		s2.SetInput(sx, v)
		if d1, d2 := s1.Step(), s2.Step(); d1 != d2 {
			t.Fatalf("cycle %d: done %v, simplified %v", cycle, d1, d2)
		}
		for oi, ni := range regMap {
			if v1, v2 := s1.RegValue(oi), s2.RegValue(ni); v1 != v2 {
				t.Fatalf("cycle %d: reg %s = %d, simplified %d", cycle, m.Regs[oi].Name, v1, v2)
			}
		}
		for _, mem := range sm.Mems {
			m1, m2 := s1.Mem(mem.Name), s2.Mem(mem.Name)
			for w := range m1 {
				if m1[w] != m2[w] {
					t.Fatalf("cycle %d: %s[%d] = %d, simplified %d", cycle, mem.Name, w, m1[w], m2[w])
				}
			}
		}
	}
}
