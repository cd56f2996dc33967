package suite

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/rtl"
)

// TestBatchEngineNoRegression guards the batch engine's reason to
// exist: aggregate trace-collection throughput (instrumented full
// design + hardware slice per job, the exact work core.CollectTraces
// does) must comfortably beat the scalar compiled engine. Measured
// ratios are ~4x on every benchmark (see BENCH_sim.json); the floor
// here is 1.5x so only a real regression — not scheduler noise on a
// loaded single-core runner — can trip it. Skipped under -short: it
// measures wall-clock on purpose.
func TestBatchEngineNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped with -short")
	}
	const floor = 1.5
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ins, sl := instrumentAndSlice(t, spec)
			job := spec.TestJobs(3)[0]
			jobs := make([]accel.Job, rtl.MaxBatchLanes)
			for l := range jobs {
				jobs[l] = job
			}
			fullS := rtl.NewSimEngine(ins.M, rtl.EngineCompiled)
			sliceS := rtl.NewSimEngine(sl.M, rtl.EngineCompiled)
			runScalar := func() {
				for _, s := range []*rtl.Sim{fullS, sliceS} {
					if _, err := accel.RunJob(s, job, spec.MaxTicks); err != nil {
						t.Fatal(err)
					}
				}
			}
			fbs := rtl.NewBatchSim(ins.M, len(jobs))
			sbs := rtl.NewBatchSim(sl.M, len(jobs))
			runBatch := func() {
				for _, bs := range []*rtl.BatchSim{fbs, sbs} {
					_, errs := accel.RunJobs(bs, jobs, spec.MaxTicks)
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			runScalar()
			runBatch()
			const reps = 8
			bestScalar, bestBatch := 0.0, 0.0
			for p := 0; p < 3; p++ {
				start := time.Now() //detlint:allow perf guard measures wall-clock by design
				for i := 0; i < reps; i++ {
					runScalar()
				}
				if s := time.Since(start).Seconds(); bestScalar == 0 || s < bestScalar {
					bestScalar = s
				}
				start = time.Now() //detlint:allow perf guard measures wall-clock by design
				runBatch()
				if s := time.Since(start).Seconds(); bestBatch == 0 || s < bestBatch {
					bestBatch = s
				}
			}
			scalarJPS := float64(reps) / bestScalar
			batchJPS := float64(len(jobs)) / bestBatch
			ratio := batchJPS / scalarJPS
			t.Logf("scalar %.0f jobs/s, batch %.0f jobs/s, ratio %.2fx", scalarJPS, batchJPS, ratio)
			if ratio < floor {
				t.Errorf("batch trace collection only %.2fx compiled on %s (floor %.1fx)",
					ratio, spec.Name, floor)
			}
		})
	}
}

// TestNativeEngineNoRegression guards the native (codegen) engine's
// reason to exist: single-job latency, the quantity that matters on
// the serving path where a prediction runs inline before each job and
// batch's 64-lane amortization cannot help. Aggregate single-job
// throughput (instrumented full design + hardware slice per job)
// across the whole suite must comfortably beat the scalar compiled
// engine. With the register-resident run loop the aggregate measures
// ~11x (per design, see the native rows of BENCH_sim.json); the
// per-cycle step it replaced measured ~3.7x. The floor of 5x sits
// between the two, so a regression back towards per-cycle stores
// trips it while scheduler noise on a loaded runner does not.
// Skipped under -short: it measures wall-clock on purpose.
func TestNativeEngineNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped with -short")
	}
	const floor = 5.0
	type pair struct {
		compiled, native *rtl.Sim
		job              accel.Job
		max              uint64
	}
	var pairs []pair
	for _, spec := range All() {
		ins, sl := instrumentAndSlice(t, spec)
		job := spec.TestJobs(3)[0]
		for _, m := range []*rtl.Module{ins.M, sl.M} {
			nat := rtl.NewSimEngine(m, rtl.EngineNative)
			if got := nat.Engine(); got != rtl.EngineNative {
				t.Fatalf("%s: native sim reports %q — regenerate internal/rtl/native", m.Name, got)
			}
			pairs = append(pairs, pair{
				compiled: rtl.NewSimEngine(m, rtl.EngineCompiled),
				native:   nat,
				job:      job,
				max:      spec.MaxTicks,
			})
		}
	}
	run := func(pick func(p *pair) *rtl.Sim) float64 {
		// Best of three passes, one warm-up job per sim inside each.
		best := 0.0
		jobs := 0
		for p := 0; p < 3; p++ {
			start := time.Now() //detlint:allow perf guard measures wall-clock by design
			n := 0
			for i := range pairs {
				if _, err := accel.RunJob(pick(&pairs[i]), pairs[i].job, pairs[i].max); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if s := time.Since(start).Seconds(); best == 0 || s < best {
				best, jobs = s, n
			}
		}
		return float64(jobs) / best
	}
	compiledJPS := run(func(p *pair) *rtl.Sim { return p.compiled })
	nativeJPS := run(func(p *pair) *rtl.Sim { return p.native })
	ratio := nativeJPS / compiledJPS
	t.Logf("compiled %.0f jobs/s, native %.0f jobs/s, aggregate ratio %.2fx", compiledJPS, nativeJPS, ratio)
	if ratio < floor {
		t.Errorf("native single-job throughput only %.2fx compiled across the suite (floor %.1fx)", ratio, floor)
	}
}
