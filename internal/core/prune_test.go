package core

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/suite"
)

// TestBindFullMatchesUnprunedOnSuite checks the module the full-design
// simulators run under default pruning against the unpruned
// instrumented design: on every seed-42 training and test job of every
// benchmark, the bound module under the native engine and the unpruned
// one under the compiled engine must agree on the tick count and on
// every feature witness. These are everything the flow reads from a
// full-design run; the memories pruning drops (those nothing live
// reads) are not among them.
func TestBindFullMatchesUnprunedOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every seed-42 job twice")
	}
	if !PruningEnabled() {
		t.Skip("pruning disabled (REPRO_PRUNE=0): bindFull returns the unpruned design")
	}
	for _, spec := range suite.All() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ins, err := instrument.Instrument(spec.Build())
			if err != nil {
				t.Fatal(err)
			}
			fullM, featRegs, _, err := bindFull(ins, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := rtl.NewSimEngine(fullM, rtl.EngineNative)
			if got := bound.Engine(); got != rtl.EngineNative {
				t.Fatalf("bound module runs on %q, want native — regenerate internal/rtl/native", got)
			}
			ref := rtl.NewSimEngine(ins.M, rtl.EngineCompiled)
			jobs := append(spec.TrainJobs(42), spec.TestJobs(43)...)
			if raceEnabled {
				// Each subtest is one goroutine over private simulators, so
				// the race detector has nothing to check beyond a few jobs.
				jobs = jobs[:20]
			}
			for ji, job := range jobs {
				want, err := accel.RunJob(ref, job, spec.MaxTicks)
				if err != nil {
					t.Fatalf("job %d (unpruned): %v", ji, err)
				}
				got, err := accel.RunJob(bound, job, spec.MaxTicks)
				if err != nil {
					t.Fatalf("job %d (bound): %v", ji, err)
				}
				if got != want {
					t.Fatalf("job %d: %d ticks (bound) != %d (unpruned)", ji, got, want)
				}
				for fi, f := range ins.Features {
					if rv, bv := ref.RegValue(f.Witness), bound.RegValue(featRegs[fi]); rv != bv {
						t.Fatalf("job %d witness %s: %#x (bound) != %#x (unpruned)", ji, f.Name, bv, rv)
					}
				}
			}
			t.Logf("%d jobs; %d -> %d nodes, %d -> %d regs, %d -> %d write ports",
				len(jobs), len(ins.M.Nodes), len(fullM.Nodes), len(ins.M.Regs), len(fullM.Regs),
				len(ins.M.Writes), len(fullM.Writes))
		})
	}
}
