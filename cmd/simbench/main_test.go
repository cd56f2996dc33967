package main

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/suite"
	"repro/internal/testdesigns"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want Quartiles
	}{
		{[]float64{5, 1, 4, 2, 3}, Quartiles{P25: 2, Median: 3, P75: 4}},
		{[]float64{4, 1, 3, 2}, Quartiles{P25: 1.75, Median: 2.5, P75: 3.25}},
		{[]float64{7}, Quartiles{P25: 7, Median: 7, P75: 7}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles = %+v, want %+v", got, tc.want)
		}
	}
}

// TestProcessCPU checks the CPU clock advances over busy work and never
// runs backwards.
func TestProcessCPU(t *testing.T) {
	before, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	after, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	if after < before || x == 0 {
		t.Fatalf("process CPU went from %v to %v s", before, after)
	}
}

// TestMeasureDesignToy runs the engine-throughput section on Toy at a
// tiny repetition count: every engine must report work and the ratios
// must be finite and positive.
func TestMeasureDesignToy(t *testing.T) {
	toy := testdesigns.Toy()
	items := []uint64{testdesigns.ToyItem(true, 3), testdesigns.ToyItem(false, 0)}
	job := testdesigns.ToyJob(items)
	dr, err := measureDesign("toy", toy.M, accel.Job{Mems: map[string][]uint64{"in": job}}, 1<<20, 3,
		func(s *rtl.Sim) func() (uint64, error) {
			return func() (uint64, error) {
				s.Reset()
				if err := s.LoadMem("in", job); err != nil {
					return 0, err
				}
				return s.Run(1 << 20)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Engines) != 4 {
		t.Fatalf("%d engine rows, want 4", len(dr.Engines))
	}
	if dr.Rounds != designRounds {
		t.Errorf("%d rounds, want %d", dr.Rounds, designRounds)
	}
	for _, e := range dr.Engines {
		q := e.NsPerCycle
		if e.Cycles == 0 || !(q.P25 > 0 && q.P25 <= q.Median && q.Median <= q.P75) || !(e.MevalsPerS.Median > 0) {
			t.Errorf("%s: %d cycles per pass, %+v ns/cycle, %+v Mevals/s", e.Engine, e.Cycles, q, e.MevalsPerS)
		}
	}
	if want := testdesigns.ToyCycles(items); dr.Engines[0].Cycles != want {
		t.Errorf("interp measured %d cycles per pass, want %d (one job)", dr.Engines[0].Cycles, want)
	}
	for _, r := range []float64{dr.CompiledVsInterp, dr.NativeVsCompiled, dr.BatchVsCompiled} {
		if !(r > 0) {
			t.Errorf("non-positive ratio in %+v", dr)
		}
	}
}

// TestMeasurePrune checks the static pruning record on one benchmark:
// pruning never adds instructions.
func TestMeasurePrune(t *testing.T) {
	spec, err := suite.ByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := measurePrune(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pr.FullInstrPruned > pr.FullInstr || pr.SliceInstrPruned > pr.SliceInstr || pr.FullInstr == 0 {
		t.Errorf("prune record %+v", pr)
	}
}
