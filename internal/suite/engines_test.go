package suite

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/rtl"

	// The native engine resolves generated run functions registered at init.
	_ "repro/internal/rtl/native"
)

// TestBatchEngineMatchesOnSuite extends the differential net to the
// batch engine on every benchmark: several real jobs of differing
// lengths are packed into lanes of one BatchSim — so lanes retire at
// different cycles — and each lane's ticks, node values, toggle
// counters, and memories must match a scalar interpreter run of the
// same job bit-exactly, on both the instrumented design and its slice.
func TestBatchEngineMatchesOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, sl := instrumentAndSlice(t, spec)
			jobs := spec.TestJobs(31)
			if len(jobs) > 5 {
				jobs = jobs[:5]
			}
			for _, mod := range []*rtl.Module{ins.M, sl.M} {
				bs := rtl.NewBatchSim(mod, len(jobs))
				bs.EnableActivity()
				ticks, errs := accel.RunJobs(bs, jobs, spec.MaxTicks)
				for l, job := range jobs {
					if errs[l] != nil {
						t.Fatalf("%s lane %d: %v", mod.Name, l, errs[l])
					}
					ref := rtl.NewInterpSim(mod)
					ref.EnableActivity()
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					if ticks[l] != rt {
						t.Fatalf("%s lane %d: ticks %d (batch) != %d (interp)", mod.Name, l, ticks[l], rt)
					}
					for id := 0; id < mod.NumNodes(); id++ {
						if bv, rv := bs.Value(l, rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); bv != rv {
							t.Fatalf("%s lane %d node %d (%s): %#x (batch) != %#x (interp)",
								mod.Name, l, id, mod.Nodes[id].Op, bv, rv)
						}
					}
					bg, rg := bs.Toggles(l), ref.Toggles()
					for id := range rg {
						if bg[id] != rg[id] {
							t.Fatalf("%s lane %d node %d: toggles %d (batch) != %d (interp)",
								mod.Name, l, id, bg[id], rg[id])
						}
					}
					for _, mem := range mod.Mems {
						bm, rm := bs.Mem(l, mem.Name), ref.Mem(mem.Name)
						for a := range rm {
							if bm[a] != rm[a] {
								t.Fatalf("%s lane %d mem %s[%d]: %#x (batch) != %#x (interp)",
									mod.Name, l, mem.Name, a, bm[a], rm[a])
							}
						}
					}
				}
			}
		})
	}
}

// TestEnginesMatchOnSuite is the suite-wide differential test: for
// every benchmark, the instrumented full design AND its hardware slice
// are run on real jobs by the scalar engines — interpreter (reference),
// compiled, and the generated native code — and every observable
// (ticks, every node value, every toggle counter, every memory word)
// must agree bit-exactly. The toggle counters feed the energy model,
// so their equivalence is what licenses native as the default engine
// and compiled as its fallback. A native sim counting activity steps
// on the interpreter, so the native engine also runs once without it,
// through its generated run loop.
func TestEnginesMatchOnSuite(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, sl := instrumentAndSlice(t, spec)
			jobs := spec.TestJobs(23)[:2]
			for _, mod := range []*rtl.Module{ins.M, sl.M} {
				ref := rtl.NewInterpSim(mod)
				nat := rtl.NewSimEngine(mod, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: native sim reports %q — generated registry stale? run go generate ./internal/rtl/native",
						mod.Name, got)
				}
				// The native sim counts activity, so it steps on the
				// interpreter; a second one without activity runs the
				// generated loop (Toggles stays nil, so the toggle
				// comparison below skips it).
				others := []struct {
					name string
					s    *rtl.Sim
				}{
					{"compiled", rtl.Compile(mod).NewSim()},
					{"native", nat},
					{"native run loop", rtl.NewSimEngine(mod, rtl.EngineNative)},
				}
				ref.EnableActivity()
				for _, o := range others[:2] {
					o.s.EnableActivity()
				}
				for ji, job := range jobs {
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					rg := ref.Toggles()
					for _, o := range others {
						ot, err := accel.RunJob(o.s, job, spec.MaxTicks)
						if err != nil {
							t.Fatal(err)
						}
						if ot != rt {
							t.Fatalf("%s job %d: ticks %d (%s) != %d (interp)",
								mod.Name, ji, ot, o.name, rt)
						}
						for id := 0; id < mod.NumNodes(); id++ {
							if ov, rv := o.s.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); ov != rv {
								t.Fatalf("%s job %d node %d (%s): %#x (%s) != %#x (interp)",
									mod.Name, ji, id, mod.Nodes[id].Op, ov, o.name, rv)
							}
						}
						og := o.s.Toggles()
						for id := range og {
							if og[id] != rg[id] {
								t.Fatalf("%s job %d node %d: toggles %d (%s) != %d (interp)",
									mod.Name, ji, id, og[id], o.name, rg[id])
							}
						}
						for _, mem := range mod.Mems {
							om, rm := o.s.Mem(mem.Name), ref.Mem(mem.Name)
							for a := range om {
								if om[a] != rm[a] {
									t.Fatalf("%s job %d mem %s[%d]: %#x (%s) != %#x (interp)",
										mod.Name, ji, mem.Name, a, om[a], o.name, rm[a])
								}
							}
						}
					}
				}
			}
		})
	}
}
