package rtl_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/rtl"
	"repro/internal/testdesigns"
)

// benchToy runs the Toy workload on the given engine and reports
// Mevals/s (node evaluations per second, the headline simulator
// throughput metric) and ns/cycle.
func benchToy(b *testing.B, s *rtl.Sim, nodes int) {
	items := make([]uint64, 100)
	for i := range items {
		items[i] = testdesigns.ToyItem(i%2 == 0, uint8(20))
	}
	job := testdesigns.ToyJob(items)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		s.Reset()
		if err := s.LoadMem("in", job); err != nil {
			b.Fatal(err)
		}
		c, err := s.Run(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		total += c
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(total*uint64(nodes))/sec/1e6, "Mevals/s")
	b.ReportMetric(sec*1e9/float64(total), "ns/cycle")
	b.ReportMetric(float64(total)/float64(b.N), "ticks/job")
}

// BenchmarkToySim measures the compiled engine (Toy has no generated
// native run function, so the default engine falls back to it).
func BenchmarkToySim(b *testing.B) {
	toy := testdesigns.Toy()
	benchToy(b, rtl.NewSimEngine(toy.M, rtl.EngineCompiled), toy.M.NumNodes())
}

// BenchmarkToySimInterp measures the interpreter escape hatch on the
// same workload, so each engine's speedup is one benchstat away.
func BenchmarkToySimInterp(b *testing.B) {
	toy := testdesigns.Toy()
	benchToy(b, rtl.NewInterpSim(toy.M), toy.M.NumNodes())
}

// benchAccel runs one real accelerator job repeatedly on the given
// engine. stencil is used because its netlist is datapath-heavy and
// representative of the suite's per-cycle cost.
func benchAccel(b *testing.B, engine rtl.Engine) {
	spec := stencil.Spec()
	m := spec.Build()
	s := rtl.NewSimEngine(m, engine)
	job := spec.TestJobs(3)[0]
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		c, err := accel.RunJob(s, job, spec.MaxTicks)
		if err != nil {
			b.Fatal(err)
		}
		total += c
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(total*uint64(m.NumNodes()))/sec/1e6, "Mevals/s")
	b.ReportMetric(sec*1e9/float64(total), "ns/cycle")
}

// BenchmarkStencilSim measures the compiled engine on a real
// accelerator netlist.
func BenchmarkStencilSim(b *testing.B) { benchAccel(b, rtl.EngineCompiled) }

// BenchmarkStencilSimInterp is the interpreter reference point.
func BenchmarkStencilSimInterp(b *testing.B) { benchAccel(b, rtl.EngineInterp) }

// BenchmarkToySimBatch measures aggregate batched throughput: 64 Toy
// jobs per RunJobs call, reported as jobs/s so the ratio against 64
// scalar RunJob calls is the batch amortization factor.
func BenchmarkToySimBatch(b *testing.B) {
	toy := testdesigns.Toy()
	items := make([]uint64, 100)
	for i := range items {
		items[i] = testdesigns.ToyItem(i%2 == 0, uint8(20))
	}
	jobs := make([]accel.Job, rtl.MaxBatchLanes)
	for l := range jobs {
		jobs[l] = accel.Job{Mems: map[string][]uint64{"in": testdesigns.ToyJob(items)}}
	}
	plan := rtl.PlanBatch(toy.M, nil)
	bs := plan.NewBatchSim(len(jobs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := accel.RunJobs(bs, jobs, 1<<20)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkStencilSimBatch is the batched counterpart of
// BenchmarkStencilSim on a real accelerator netlist: 64 lanes of the
// same job, aggregate jobs/s.
func BenchmarkStencilSimBatch(b *testing.B) {
	spec := stencil.Spec()
	m := spec.Build()
	job := spec.TestJobs(3)[0]
	jobs := make([]accel.Job, rtl.MaxBatchLanes)
	for l := range jobs {
		jobs[l] = job
	}
	plan := rtl.PlanBatch(m, nil)
	bs := plan.NewBatchSim(len(jobs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := accel.RunJobs(bs, jobs, spec.MaxTicks)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
