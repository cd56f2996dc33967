package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel/md"
	"repro/internal/fault"
	"repro/internal/suite"
)

// TestTrainWithTracesMatchesCollectTraces: on every suite benchmark the
// training traces TrainWithTraces builds from Train's own full-design
// runs equal a fresh CollectTraces of the same jobs, the predictor
// equals Train's, and the trace step simulates only the slices — one
// run per job on top of Train's one.
func TestTrainWithTracesMatchesCollectTraces(t *testing.T) {
	for _, spec := range suite.All() {
		t.Run(spec.Name, func(t *testing.T) {
			jobs := spec.TrainJobs(42)
			if testing.Short() && len(jobs) > 40 {
				jobs = jobs[:40]
			}
			opt := Options{Seed: 42, TrainJobs: jobs}
			before := SimulatedJobs()
			p, traces, err := TrainWithTraces(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := SimulatedJobs() - before; d != 2*uint64(len(jobs)) {
				t.Errorf("TrainWithTraces simulated %d design runs, want %d (full design + slice per job)", d, 2*len(jobs))
			}
			want, err := p.CollectTraces(jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traces, want) {
				t.Fatal("TrainWithTraces traces differ from CollectTraces")
			}
			ref, err := Train(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Model, ref.Model) || !reflect.DeepEqual(p.Kept, ref.Kept) || p.Gamma != ref.Gamma {
				t.Fatal("TrainWithTraces trained a different predictor than Train")
			}
		})
	}
}

// traceOnlyFaults returns a persistent FaultJob schedule under which
// every "train/<name>/<i>" job succeeds within its one retry but at
// least one "traces/<name>/<i>" job fails both attempts, so only the
// trace step can fail.
func traceOnlyFaults(t *testing.T, name string, n int) *fault.Injector {
	t.Helper()
	doubleFault := func(in *fault.Injector, kind string) bool {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s/%s/%d", kind, name, i)
			if in.CheckN(FaultJob, key, 0) && in.CheckN(FaultJob, key, 1) {
				return true
			}
		}
		return false
	}
	for seed := int64(1); seed < 1000; seed++ {
		in := fault.New(seed).SiteRepeat(FaultJob, 0.2, 1)
		if !doubleFault(in, "train") && doubleFault(in, "traces") {
			return in
		}
	}
	t.Fatal("no seed yields a trace-only persistent fault")
	return nil
}

// TestTrainWithTracesFaults: the trace step keeps CollectTraces' fault
// keys and retries. A transient schedule (every train and trace job
// fails once) yields the fault-free traces; a persistent fault on a
// trace job fails the call.
func TestTrainWithTracesFaults(t *testing.T) {
	spec := md.Spec()
	jobs := spec.TrainJobs(5)[:24]
	opt := Options{TrainJobs: jobs}
	_, clean, err := TrainWithTraces(spec, opt)
	if err != nil {
		t.Fatal(err)
	}

	defer SetFaultInjector(nil)
	SetFaultInjector(fault.New(1).Site(FaultJob, 1))
	before := RetriedJobs()
	_, faulted, err := TrainWithTraces(spec, opt)
	if err != nil {
		t.Fatalf("transient faults failed training: %v", err)
	}
	if !reflect.DeepEqual(clean, faulted) {
		t.Fatal("training traces under transient faults differ from the clean run")
	}
	if got := RetriedJobs() - before; got != 2*uint64(len(jobs)) {
		t.Errorf("RetriedJobs advanced by %d, want %d (each train and trace job once)", got, 2*len(jobs))
	}

	SetFaultInjector(traceOnlyFaults(t, spec.Name, len(jobs)))
	_, _, err = TrainWithTraces(spec, opt)
	if !fault.Injected(err) || strings.Contains(err.Error(), "train job") {
		t.Fatalf("persistent trace fault: err = %v, want an injected trace-job failure", err)
	}
}

// TestTrainWithTracesCache: the training traces are stored under
// CollectTraces' key, so a later CollectTraces of the training jobs is
// a hit that simulates nothing; a warm TrainWithTraces (rows and traces
// both cached) simulates nothing either.
func TestTrainWithTracesCache(t *testing.T) {
	withCache(t, t.TempDir())
	spec := md.Spec()
	jobs := spec.TrainJobs(6)[:24]
	opt := Options{TrainJobs: jobs}
	p, traces, err := TrainWithTraces(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() ([]JobTrace, error)
	}{
		{"CollectTraces", func() ([]JobTrace, error) { return p.CollectTraces(jobs) }},
		{"TrainWithTraces", func() ([]JobTrace, error) {
			_, tr, err := TrainWithTraces(spec, opt)
			return tr, err
		}},
	} {
		before := SimulatedJobs()
		got, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if d := SimulatedJobs() - before; d != 0 {
			t.Errorf("warm %s simulated %d design runs, want 0", c.name, d)
		}
		if !reflect.DeepEqual(got, traces) {
			t.Errorf("warm %s returned different traces", c.name)
		}
	}
}
