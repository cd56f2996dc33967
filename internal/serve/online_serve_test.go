package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel/stencil"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/online"
	"repro/internal/workload"
)

// stencilShardConfig trains the covariate-drift predictor (cols=40
// stencil images; see the online package's soak for why that drifts
// under a column shift) and wires it into a serving profile.
func stencilShardConfig(t *testing.T) ShardConfig {
	t.Helper()
	imgs := make([]workload.StencilImage, 40)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 8 + (i*7+3)%37, Cols: 40, Class: "drift"}
	}
	p, err := core.Train(stencil.Spec(), core.Options{TrainJobs: stencil.JobsFrom(imgs, 3)})
	if err != nil {
		t.Fatal(err)
	}
	pm, spm := testModels()
	return ShardConfig{
		Name: "stencil",
		Profile: Profile{
			Pred:       p,
			Device:     dvfs.ASIC(p.Spec.NominalHz, false),
			Power:      pm,
			SlicePower: spm,
			Deadline:   testDeadline,
			Margin:     testMargin,
		},
		QueueDepth:  512,
		DegradeWait: -1,
		Online:      &online.Config{RingSize: 64, MinObservations: 64, DriftWindow: 32, CanaryWindow: 32},
	}
}

// driftStream builds 304 stencil jobs — 96 from the training
// distribution (cols=40), then 208 drifted (cols=8) — submitted in
// back-to-back pairs 40 ms apart, so the second job of every pair
// queues behind the first and the model swap lands under a live
// backlog.
func driftStream() ([]workload.StencilImage, []float64) {
	imgs := make([]workload.StencilImage, 0, 304)
	for i := 0; i < 96; i++ {
		imgs = append(imgs, workload.StencilImage{Rows: 8 + (i*7+7)%37, Cols: 40, Class: "p1"})
	}
	for i := 0; i < 208; i++ {
		imgs = append(imgs, workload.StencilImage{Rows: 8 + (i*7+11)%37, Cols: 8, Class: "p2"})
	}
	arrivals := make([]float64, len(imgs))
	for i := range arrivals {
		arrivals[i] = float64(i/2) * 0.04
	}
	return imgs, arrivals
}

// TestOnlineSwapDuringBacklog is the shadow-predict double-count audit
// and the swap-during-backlog regression test: with a promotion landing
// while jobs queue, the prediction-latency histogram must count exactly
// one observation per predicted job (the canary's 64 shadow predictions
// per window never touch it), the placement invariant Done + HandedOff
// == Placed must hold, miss attribution must stay sane, and the whole
// run must be bit-deterministic.
func TestOnlineSwapDuringBacklog(t *testing.T) {
	run := func() (Stats, online.Stats, uint64) {
		cfg := stencilShardConfig(t)
		sh, err := NewShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs, arrivals := driftStream()
		jobs := stencil.JobsFrom(imgs, 5)
		res := make(chan Outcome, len(jobs))
		for i, job := range jobs {
			if err := sh.Submit(Job{Arrival: arrivals[i], Payload: job, Result: res}); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		os, _ := sh.OnlineStats()
		_ = os // scrape-while-serving must not deadlock or race
		sh.Close()
		st := sh.Stats()
		os, ok := sh.OnlineStats()
		if !ok {
			t.Fatal("online-enabled shard reports no trainer stats")
		}
		cum, _ := sh.predictHist.Snapshot()
		return st, os, cum[len(cum)-1]
	}

	st, os, predCount := run()

	// Exactly one promoted cycle, same arithmetic as the drain-per-job
	// soak: queueing shifts budgets, not the observation stream.
	if os.DriftEvents != 1 || os.Retrains != 1 || os.Promotions != 1 || os.CanaryRejects != 0 {
		t.Fatalf("trainer cycle under backlog: %+v", os)
	}
	if st.ModelVersion != 1 {
		t.Fatalf("model version %d after promotion", st.ModelVersion)
	}
	if st.WaitP99 == 0 {
		t.Fatal("no job ever queued — the backlog scenario is not exercising waits")
	}

	// Placement invariant: every accepted job is either served or handed
	// off, never both, never lost.
	if st.Rejected != 0 {
		t.Fatalf("queue rejected %d jobs; depth is sized for the whole stream", st.Rejected)
	}
	if st.Done+st.HandedOff != 304 {
		t.Fatalf("Done %d + HandedOff %d != 304 placed", st.Done, st.HandedOff)
	}

	// No shadow-predict double counting: the latency histogram holds
	// exactly one sample per successfully predicted job, which is also
	// exactly the trainer's observation count.
	predicted := st.Done - st.Degraded - st.Errors
	if predCount != predicted {
		t.Fatalf("predict histogram holds %d samples, want %d (Done−Degraded−Errors) — canary shadow predictions leaked", predCount, predicted)
	}
	if os.Observations != predicted {
		t.Fatalf("trainer saw %d observations, want %d", os.Observations, predicted)
	}

	// Miss attribution: no injector, so no fault misses; queue-wait
	// misses (the second job of early pairs) land in ServingMisses.
	if st.FaultMisses != 0 {
		t.Fatalf("fault misses %d without an injector", st.FaultMisses)
	}
	if st.ServingMisses == 0 || st.ServingMisses > st.Misses {
		t.Fatalf("serving misses %d of %d total — backlog misses misattributed", st.ServingMisses, st.Misses)
	}

	// Bit-determinism under backlog: the swap still lands between the
	// same two jobs.
	st2, os2, predCount2 := run()
	if !reflect.DeepEqual(st, st2) || !reflect.DeepEqual(os, os2) || predCount != predCount2 {
		t.Errorf("backlogged online run diverges across reruns:\n%+v\n%+v", st, st2)
	}
}

// TestOnlineSwapWithCrashHorizon: a crash horizon after the promotion
// hands the tail of the queue back; the placement invariant and the
// swapped version both survive.
func TestOnlineSwapWithCrashHorizon(t *testing.T) {
	cfg := stencilShardConfig(t)
	cfg.KillAt = 4.0 // pairs arrive every 40 ms; the horizon lands past the swap at observation 192
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs, arrivals := driftStream()
	jobs := stencil.JobsFrom(imgs, 5)
	res := make(chan Outcome, len(jobs))
	for i, job := range jobs {
		if err := sh.Submit(Job{Arrival: arrivals[i], Payload: job, Result: res}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sh.Close()
	st := sh.Stats()
	if st.HandedOff == 0 {
		t.Fatal("crash horizon handed nothing back")
	}
	if st.Done+st.HandedOff != 304 {
		t.Fatalf("Done %d + HandedOff %d != 304 placed", st.Done, st.HandedOff)
	}
	if got := uint64(len(sh.Handoff())); got != st.HandedOff {
		t.Fatalf("Handoff returns %d jobs, stats say %d", got, st.HandedOff)
	}
	// Outcomes arrived only for served jobs.
	if got := uint64(len(res)); got != st.Done {
		t.Fatalf("%d outcomes for %d served jobs", got, st.Done)
	}
	if st.ModelVersion != 1 {
		t.Fatalf("model version %d — the promotion precedes the horizon", st.ModelVersion)
	}
}

// TestOnlineRequiresPredictor: replay-only shards have no features to
// learn from; wiring a trainer to one is a configuration error.
func TestOnlineRequiresPredictor(t *testing.T) {
	cfg := testShardConfig("replay")
	cfg.Online = &online.Config{}
	if _, err := NewShard(cfg); err == nil {
		t.Error("replay-only shard accepted an online trainer")
	}
}

// TestStageHistograms: every successfully simulated job records its
// full-design run, and only predicted (non-degraded) jobs record a
// slice run and a prediction; WriteMetrics renders the three
// histograms, the simulation stages labeled with their engines.
func TestStageHistograms(t *testing.T) {
	cfg := stencilShardConfig(t)
	cfg.Online = nil
	cfg.DegradeWait = testDeadline / 2
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs, _ := driftStream()
	jobs := stencil.JobsFrom(imgs[:24], 5)
	res := make(chan Outcome, len(jobs))
	for _, job := range jobs {
		// One burst: the tail of the queue waits past DegradeWait.
		if err := sh.Submit(Job{Arrival: 0, Payload: job, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()
	st := sh.Stats()
	if st.Degraded == 0 || st.Degraded == st.Done {
		t.Fatalf("%d of %d jobs degraded; want some of each path", st.Degraded, st.Done)
	}
	count := func(h *histogram) uint64 { cum, _ := h.Snapshot(); return cum[len(cum)-1] }
	if got, want := count(&sh.execHist), st.Done-st.Errors; got != want {
		t.Errorf("exec_sim_ns holds %d samples, want %d (every simulated job)", got, want)
	}
	predicted := st.Done - st.Degraded - st.Errors
	if got := count(&sh.sliceHist); got != predicted {
		t.Errorf("slice_sim_ns holds %d samples, want %d (predicted jobs)", got, predicted)
	}
	if got := count(&sh.predictHist); got != predicted {
		t.Errorf("predict_ns holds %d samples, want %d (predicted jobs)", got, predicted)
	}

	var buf strings.Builder
	WriteMetrics(&buf, []*Shard{sh})
	js := cfg.Pred.NewJobSimulator()
	for _, want := range []string{
		fmt.Sprintf("dvfserved_exec_sim_ns_count{shard=\"stencil\",engine=%q} %d\n", js.ExecEngine(), st.Done-st.Errors),
		fmt.Sprintf("dvfserved_slice_sim_ns_count{shard=\"stencil\",engine=%q} %d\n", js.SliceEngine(), predicted),
		fmt.Sprintf("dvfserved_predict_ns_count{shard=\"stencil\"} %d\n", predicted),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
