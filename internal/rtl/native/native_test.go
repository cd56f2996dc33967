package native_test

import (
	"fmt"
	"testing"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/suite"

	_ "repro/internal/rtl/native"
)

// shape is one netlist the production flows simulate.
type shape struct {
	name string
	m    *rtl.Module
}

// prodShapes builds a benchmark's raw design, instrumented design and
// pruned twin (the full-design simulator core.Train binds).
func prodShapes(t *testing.T, spec accel.Spec) []shape {
	t.Helper()
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	pm, _ := absint.Prune(ins.M, featRegs)
	return []shape{{"raw", spec.Build()}, {"instrumented", ins.M}, {"pruned", pm}}
}

// TestRegistryCoversSuiteShapes asserts the checked-in generated code
// actually resolves for every netlist shape the production flows
// simulate — raw design, instrumented design, pruned twin — on all 7
// benchmarks. A miss here means internal/rtl/native is stale:
// regenerate with `go generate ./internal/rtl/native`.
func TestRegistryCoversSuiteShapes(t *testing.T) {
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, sh := range prodShapes(t, spec) {
				s := rtl.NewSimEngine(sh.m, rtl.EngineNative)
				if got := s.Engine(); got != rtl.EngineNative {
					t.Errorf("%s %s: engine %q (registry stale? run go generate ./internal/rtl/native)",
						spec.Name, sh.name, got)
				}
			}
		})
	}
}

// TestGeneratedCodeMatchesInterpOnSuite is the differential check of
// the emitted (checked-in) code itself, as opposed to the codegen plan
// evaluator the rtl package fuzzes. For every benchmark, real jobs run
// on the native sims of the raw design, the instrumented design, its
// pruned twin and the trained predictor slice with activity counting
// off — the production path, where Run hands every cycle but the last
// to the generated run function — at cycle limits 1, 2, 37 and the
// benchmark's MaxTicks, so the loop stops both on the limit and on
// Done; ticks, error, every node value and every memory word must
// match an interpreter run with the same limit. A second leg runs the
// raw design and the slice with activity counting on (the interpreter
// path a native sim takes when cycles are observed) and also compares
// toggle counters.
func TestGeneratedCodeMatchesInterpOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite run in -short mode")
	}
	for _, spec := range suite.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if !core.PruningEnabled() {
				// The checked-in slices are generated under default
				// pruning; REPRO_PRUNE=0 slices legitimately fall back
				// to compiled (covered by TestNativeFallback in rtl).
				t.Skip("pruning disabled; generated slices target the pruned flow")
			}
			pred, err := core.Train(spec, core.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			jobs := spec.TestJobs(17)
			if len(jobs) > 3 {
				jobs = jobs[:3]
			}
			shapes := append(prodShapes(t, spec), shape{"slice", pred.Slice.M})
			for _, sh := range shapes {
				nat := rtl.NewSimEngine(sh.m, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: engine %q, want native (stale registry?)", sh.name, got)
				}
				ref := rtl.NewInterpSim(sh.m)
				for ji, job := range jobs {
					for _, limit := range []uint64{1, 2, 37, spec.MaxTicks} {
						rt, rerr := accel.RunJob(ref, job, limit)
						nt, nerr := accel.RunJob(nat, job, limit)
						if nt != rt || fmt.Sprint(nerr) != fmt.Sprint(rerr) {
							t.Fatalf("%s job %d limit %d: native %d, %v; interp %d, %v",
								sh.name, ji, limit, nt, nerr, rt, rerr)
						}
						for id := 0; id < sh.m.NumNodes(); id++ {
							if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
								t.Fatalf("%s job %d limit %d node %d (%s): %#x (native) != %#x (interp)",
									sh.name, ji, limit, id, sh.m.Nodes[id].Op, nv, rv)
							}
						}
						for _, mem := range sh.m.Mems {
							nm, rm := nat.Mem(mem.Name), ref.Mem(mem.Name)
							for a := range rm {
								if nm[a] != rm[a] {
									t.Fatalf("%s job %d limit %d mem %s[%d]: %#x (native) != %#x (interp)",
										sh.name, ji, limit, mem.Name, a, nm[a], rm[a])
								}
							}
						}
					}
				}
			}

			for _, m := range []*rtl.Module{spec.Build(), pred.Slice.M} {
				nat := rtl.NewSimEngine(m, rtl.EngineNative)
				if got := nat.Engine(); got != rtl.EngineNative {
					t.Fatalf("%s: engine %q, want native (stale registry?)", m.Name, got)
				}
				ref := rtl.NewInterpSim(m)
				nat.EnableActivity()
				ref.EnableActivity()
				for ji, job := range jobs {
					rt, err := accel.RunJob(ref, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					nt, err := accel.RunJob(nat, job, spec.MaxTicks)
					if err != nil {
						t.Fatal(err)
					}
					if nt != rt {
						t.Fatalf("%s job %d: ticks %d (native) != %d (interp)", m.Name, ji, nt, rt)
					}
					for id := 0; id < m.NumNodes(); id++ {
						if nv, rv := nat.Value(rtl.NodeID(id)), ref.Value(rtl.NodeID(id)); nv != rv {
							t.Fatalf("%s job %d node %d (%s): %#x (native) != %#x (interp)",
								m.Name, ji, id, m.Nodes[id].Op, nv, rv)
						}
					}
					ng, rg := nat.Toggles(), ref.Toggles()
					for id := range rg {
						if ng[id] != rg[id] {
							t.Fatalf("%s job %d node %d: toggles %d (native) != %d (interp)",
								m.Name, ji, id, ng[id], rg[id])
						}
					}
					for _, mem := range m.Mems {
						nm, rm := nat.Mem(mem.Name), ref.Mem(mem.Name)
						for a := range rm {
							if nm[a] != rm[a] {
								t.Fatalf("%s job %d mem %s[%d]: %#x (native) != %#x (interp)",
									m.Name, ji, mem.Name, a, nm[a], rm[a])
							}
						}
					}
				}
			}
		})
	}
}
