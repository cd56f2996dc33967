package serve

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	testHz       = 250e6
	testDeadline = 16.7e-3
	testMargin   = 0.05
)

// synthTraces builds replay traces with the given execution times (ms)
// at a 250 MHz nominal clock and perfect predictions — the same shape
// sim's own tests use, so replay-mode shards need no trained predictor.
func synthTraces(ms []float64) []core.JobTrace {
	traces := make([]core.JobTrace, len(ms))
	for i, m := range ms {
		sec := m * 1e-3
		cycles := sec * testHz
		traces[i] = core.JobTrace{
			Ticks:        uint64(cycles / 1000),
			Cycles:       cycles,
			Seconds:      sec,
			PredSeconds:  sec,
			SliceTicks:   uint64(cycles / 1000 / 20),
			SliceSeconds: sec / 20,
			Class:        "c",
		}
	}
	return traces
}

func testModels() (power.Model, power.Model) {
	st := rtl.AreaStats{LogicGates: 40000, RegGates: 15000, MemGates: 20000}
	sliceSt := rtl.AreaStats{LogicGates: 2000, RegGates: 800}
	return power.FromStats(st, power.DefaultParams(testHz)),
		power.FromStats(sliceSt, power.DefaultParams(testHz))
}

func testShardConfig(name string) ShardConfig {
	pm, spm := testModels()
	return ShardConfig{
		Name: name,
		Profile: Profile{
			Device:     dvfs.ASIC(testHz, false),
			Power:      pm,
			SlicePower: spm,
			Deadline:   testDeadline,
			Margin:     testMargin,
		},
	}
}

// submitTraces feeds traces with the given arrivals and returns the
// outcomes in order, closing the shard afterwards.
func submitTraces(t *testing.T, sh *Shard, traces []core.JobTrace, arrivals []float64) []Outcome {
	t.Helper()
	res := make(chan Outcome, len(traces))
	for i := range traces {
		if err := sh.Submit(Job{Arrival: arrivals[i], Trace: &traces[i], Result: res}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sh.Close()
	out := make([]Outcome, 0, len(traces))
	for range traces {
		out = append(out, <-res)
	}
	return out
}

func TestShardValidation(t *testing.T) {
	if _, err := NewShard(ShardConfig{}); err == nil {
		t.Error("nameless shard accepted")
	}
	cfg := testShardConfig("x")
	cfg.QueueDepth = -1
	if _, err := NewShard(cfg); err == nil {
		t.Error("negative queue depth accepted")
	}
	cfg = testShardConfig("x")
	cfg.Device = nil
	if _, err := NewShard(cfg); err == nil {
		t.Error("missing device accepted")
	}
	cfg = testShardConfig("x")
	cfg.KillAt = -1
	if _, err := NewShard(cfg); err == nil {
		t.Error("negative kill horizon accepted")
	}
}

// TestCloseHandoffReturnsQueuedJobs is the drain-with-handoff
// regression test: a retiring shard must hand its admitted-but-
// unstarted backlog back to the caller instead of silently grinding
// through (or dropping) it. The worker is pinned mid-job on an
// unbuffered result send, the queue is filled behind it, and
// CloseHandoff must return exactly that backlog in queue order.
func TestCloseHandoffReturnsQueuedJobs(t *testing.T) {
	cfg := testShardConfig("retire")
	cfg.QueueDepth = 16
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the worker: it serves the gate job, then blocks sending the
	// outcome on the unbuffered channel.
	gate := make(chan Outcome)
	gateTr := synthTraces([]float64{1})[0]
	if err := sh.Submit(Job{Trace: &gateTr, Result: gate}); err != nil {
		t.Fatal(err)
	}
	for sh.Stats().Done != 1 {
		runtime.Gosched() // wait until the worker is blocked on the gate send
	}
	const n = 5
	traces := synthTraces([]float64{2, 2, 2, 2, 2})
	for i := 0; i < n; i++ {
		if err := sh.Submit(Job{Arrival: float64(i), Trace: &traces[i]}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan []Job, 1)
	go func() { done <- sh.CloseHandoff() }()
	for !sh.handoffNow.Load() {
		runtime.Gosched() // the handoff flag must land before the worker resumes
	}
	<-gate // unblock the worker; every queued job is now handed back
	handoff := <-done
	if len(handoff) != n {
		t.Fatalf("handoff returned %d jobs, want %d", len(handoff), n)
	}
	for i, j := range handoff {
		if j.Arrival != float64(i) {
			t.Errorf("handoff[%d].Arrival = %g, want %d (queue order broken)", i, j.Arrival, i)
		}
	}
	st := sh.Stats()
	if st.HandedOff != n {
		t.Errorf("HandedOff = %d, want %d", st.HandedOff, n)
	}
	if st.Done != 1 {
		t.Errorf("Done = %d, want 1 (only the in-flight gate job serves)", st.Done)
	}
	if got := sh.Handoff(); len(got) != n {
		t.Errorf("Handoff() = %d jobs, want %d", len(got), n)
	}
}

// TestKillAtHandsBackJobsPastHorizon: the virtual-time crash horizon
// partitions the stream at the job boundary — jobs whose service would
// start at or after KillAt are handed back, earlier ones serve
// normally — as a pure function of the virtual clock.
func TestKillAtHandsBackJobsPastHorizon(t *testing.T) {
	cfg := testShardConfig("mortal")
	cfg.KillAt = 2.5 * testDeadline
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := synthTraces([]float64{4, 4, 4, 4, 4, 4})
	arrivals := workload.PeriodicArrivals(len(traces), testDeadline)
	res := make(chan Outcome, len(traces))
	for i := range traces {
		if err := sh.Submit(Job{Arrival: arrivals[i], Trace: &traces[i], Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()
	// Arrivals 0, 1d, 2d start before 2.5d; 3d, 4d, 5d are past the
	// horizon and die with the replica.
	for i := 0; i < 3; i++ {
		if o := <-res; o.Err != nil {
			t.Fatalf("pre-horizon job %d: %v", i, o.Err)
		}
	}
	st := sh.Stats()
	if st.Done != 3 || st.HandedOff != 3 {
		t.Fatalf("done %d handed off %d, want 3 and 3", st.Done, st.HandedOff)
	}
	handoff := sh.Handoff()
	if len(handoff) != 3 {
		t.Fatalf("handoff holds %d jobs, want 3", len(handoff))
	}
	for i, j := range handoff {
		if j.Arrival < cfg.KillAt {
			t.Errorf("handoff[%d] arrived at %g, before the %g horizon", i, j.Arrival, cfg.KillAt)
		}
	}
}

// TestKillAtUsesServiceStartNotArrival: a job that arrives before the
// horizon but whose service would start after it (backlog pushed it
// past) still dies with the replica — the crash lands where the work
// would have run, not where it was enqueued.
func TestKillAtUsesServiceStartNotArrival(t *testing.T) {
	cfg := testShardConfig("backlogged")
	cfg.KillAt = 10e-3
	cfg.DegradeWait = -1
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := synthTraces([]float64{15, 2})
	res := make(chan Outcome, len(traces))
	for i := range traces {
		if err := sh.Submit(Job{Arrival: 0, Trace: &traces[i], Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Close()
	if o := <-res; o.Err != nil {
		t.Fatal(o.Err)
	}
	st := sh.Stats()
	if st.Done != 1 || st.HandedOff != 1 {
		t.Fatalf("done %d handed off %d, want 1 and 1", st.Done, st.HandedOff)
	}
	if hj := sh.Handoff(); len(hj) != 1 || hj[0].Arrival != 0 {
		t.Fatalf("handoff = %+v, want the second t=0 job", hj)
	}
}

// TestPeriodicStreamMatchesOfflineReplay is the reconciliation
// property in miniature: at frame-periodic arrivals where every job
// fits its slot, queue wait is zero and the served stream's decisions,
// energy, and misses are identical to the offline sim.Run replay.
func TestPeriodicStreamMatchesOfflineReplay(t *testing.T) {
	// All jobs fit their slot (≤ 15 ms leaves room for slice + switch
	// overheads), so no job overruns into the next arrival.
	ms := []float64{4, 8, 12, 15, 2, 9, 14, 5, 11, 3}
	traces := synthTraces(ms)

	pm, spm := testModels()
	offline, err := sim.Run(traces, sim.Config{
		Device:     dvfs.ASIC(testHz, false),
		Power:      pm,
		SlicePower: spm,
		Deadline:   testDeadline,
		Controller: control.NewPredictive(testMargin, false),
	})
	if err != nil {
		t.Fatal(err)
	}

	sh, err := NewShard(testShardConfig("replay"))
	if err != nil {
		t.Fatal(err)
	}
	outs := submitTraces(t, sh, traces, workload.PeriodicArrivals(len(traces), testDeadline))

	st := sh.Stats()
	if st.Done != uint64(len(traces)) {
		t.Fatalf("done = %d, want %d", st.Done, len(traces))
	}
	if st.Degraded != 0 || st.Rejected != 0 || st.Errors != 0 {
		t.Fatalf("unexpected degraded/rejected/errors: %+v", st)
	}
	if st.ServingMisses != 0 {
		t.Errorf("serving-layer misses at nominal load: %d", st.ServingMisses)
	}
	if math.Abs(st.Energy-offline.Energy) > 1e-12*offline.Energy {
		t.Errorf("energy %g != offline %g", st.Energy, offline.Energy)
	}
	if int(st.Misses) != offline.Misses {
		t.Errorf("misses %d != offline %d", st.Misses, offline.Misses)
	}
	if int(st.Switches) != offline.Switches {
		t.Errorf("switches %d != offline %d", st.Switches, offline.Switches)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Wait != 0 {
			t.Errorf("job %d waited %g at nominal load", i, o.Wait)
		}
		if o.Job.Level != offline.PerJob[i].Level {
			t.Errorf("job %d level %d != offline %d", i, o.Job.Level, offline.PerJob[i].Level)
		}
		if o.Job.Energy != offline.PerJob[i].Energy {
			t.Errorf("job %d energy %g != offline %g", i, o.Job.Energy, offline.PerJob[i].Energy)
		}
	}
}

// TestQueueWaitConsumesBudget: two near-deadline jobs arriving
// back-to-back leave the second with a consumed budget; the serving
// layer must account the wait and attribute the resulting miss to
// itself.
func TestQueueWaitConsumesBudget(t *testing.T) {
	traces := synthTraces([]float64{15, 15})
	cfg := testShardConfig("wait")
	cfg.DegradeWait = -1 // isolate wait accounting from degradation
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := submitTraces(t, sh, traces, []float64{0, 0})
	if outs[0].Missed() {
		t.Error("first job has a full budget and should meet the deadline")
	}
	if outs[1].Wait <= 0 {
		t.Error("second job should inherit queue wait")
	}
	if !outs[1].Missed() {
		t.Error("second job's consumed budget should miss")
	}
	st := sh.Stats()
	if st.ServingMisses != 1 {
		t.Errorf("serving misses = %d, want 1", st.ServingMisses)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestAdmissionControl: a stalled queue rejects overflow rather than
// growing without bound.
func TestAdmissionControl(t *testing.T) {
	cfg := testShardConfig("full")
	cfg.QueueDepth = 2
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stall the worker with a gate job so the queue backs up.
	gate := make(chan Outcome) // unbuffered: worker blocks sending it
	tr := synthTraces([]float64{1})[0]
	if err := sh.Submit(Job{Trace: &tr, Result: gate}); err != nil {
		t.Fatal(err)
	}
	// Fill the queue behind the gate, then overflow it. The worker may
	// have dequeued up to one job before blocking on the gate send, so
	// allow one extra acceptance before demanding rejection.
	rejected := 0
	for i := 0; i < cfg.QueueDepth+2; i++ {
		if err := sh.Submit(Job{Trace: &tr}); err == ErrQueueFull {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("overflow submissions were all accepted")
	}
	if got := sh.Stats().Rejected; int(got) != rejected {
		t.Errorf("rejected counter = %d, want %d", got, rejected)
	}
	<-gate
	sh.Close()
}

// TestDegradationUnderBacklog: a burst whose tail waits past the
// degradation threshold serves those jobs at maximum frequency with
// prediction bypassed, and recovers (serves predictively) once the
// backlog clears.
func TestDegradationUnderBacklog(t *testing.T) {
	cfg := testShardConfig("burst")
	cfg.QueueDepth = 64
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 12 moderate jobs all arriving at t=0, then a lone job far in the
	// future after the queue has drained.
	burst := synthTraces([]float64{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6})
	arrivals := workload.BurstyArrivals(len(burst), len(burst), testDeadline)
	res := make(chan Outcome, len(burst)+1)
	for i := range burst {
		if err := sh.Submit(Job{Arrival: arrivals[i], Trace: &burst[i], Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	outs := make([]Outcome, 0, len(burst))
	for range burst {
		outs = append(outs, <-res)
	}
	var degraded int
	for _, o := range outs {
		if o.Degraded {
			degraded++
			if o.Job.Level != cfg.Device.Nominal {
				t.Errorf("degraded job ran at level %d, not nominal %d", o.Job.Level, cfg.Device.Nominal)
			}
		}
	}
	if degraded == 0 {
		t.Error("no job degraded under a 12-deep burst with high-water 3")
	}
	if st := sh.Stats(); st.Degraded != uint64(degraded) {
		t.Errorf("degraded counter = %d, want %d", st.Degraded, degraded)
	}

	// Recovery: with the backlog gone, a fresh job is served predictively.
	late := synthTraces([]float64{6})[0]
	if err := sh.Submit(Job{Arrival: 1e6, Trace: &late, Result: res}); err != nil {
		t.Fatal(err)
	}
	if o := <-res; o.Degraded {
		t.Error("shard did not recover from degradation after the backlog cleared")
	}
	sh.Close()
}

// TestBudgetExhaustionDegrades: a job arriving with its budget already
// burned below the switch overhead takes the degraded path rather than
// attempting an infeasible prediction.
func TestBudgetExhaustionDegrades(t *testing.T) {
	traces := synthTraces([]float64{16.6, 4})
	cfg := testShardConfig("exhausted")
	cfg.DegradeWait = -1
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs arrive together; the first eats essentially the whole
	// deadline, leaving the second with nothing.
	outs := submitTraces(t, sh, traces, []float64{0, 0})
	if !outs[1].Degraded {
		t.Error("budget-exhausted job should degrade to max frequency")
	}
}

func TestReplayOnlyShardRejectsPayloadJobs(t *testing.T) {
	sh, err := NewShard(testShardConfig("noPred"))
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan Outcome, 1)
	if err := sh.Submit(Job{Result: res}); err != nil {
		t.Fatal(err)
	}
	if o := <-res; o.Err == nil {
		t.Error("payload job on a replay-only shard should error")
	}
	if st := sh.Stats(); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	sh.Close()
}

func TestServerRouting(t *testing.T) {
	sv := NewServer()
	if _, err := sv.AddShard(testShardConfig("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.AddShard(testShardConfig("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.AddShard(testShardConfig("a")); err == nil {
		t.Error("duplicate shard accepted")
	}
	if got := sv.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("names = %v", got)
	}
	if err := sv.Submit("nope", Job{}); err == nil {
		t.Error("unknown shard accepted a job")
	}
	tr := synthTraces([]float64{3})[0]
	res := make(chan Outcome, 1)
	if err := sv.Submit("a", Job{Trace: &tr, Result: res}); err != nil {
		t.Fatal(err)
	}
	if o := <-res; o.Err != nil {
		t.Fatal(o.Err)
	}
	sv.Close()
	stats := sv.Stats()
	if len(stats) != 2 || stats[0].Done != 1 || stats[1].Done != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 1000; i++ {
		h.Observe(1e-3) // all in one bucket
	}
	if q := h.Quantile(0.5); q <= 0 || q > 5e-3 {
		t.Errorf("p50 = %g, want ~1e-3", q)
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-1e-3) > 1e-9 {
		t.Errorf("mean = %g", m)
	}
	var empty histogram
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

// TestStallRetryRecovers: a transient stall schedule (rate 1, retries
// never re-fault) with one retry allowed serves every job on its retry
// — no degradation, no errors, and stall delays charged to the budget.
func TestStallRetryRecovers(t *testing.T) {
	cfg := testShardConfig("stall")
	cfg.Faults = fault.New(3).Site(FaultStall, 1) // transient
	cfg.MaxRetries = 1
	cfg.RetryBackoff = 50 * time.Microsecond
	cfg.StallPenalty = 1e-3
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := synthTraces([]float64{4, 8, 12, 5})
	arrivals := workload.PeriodicArrivals(len(traces), testDeadline)
	outs := submitTraces(t, sh, traces, arrivals)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Stalls != 1 || o.StallDelay != 1e-3 {
			t.Errorf("job %d: stalls %d delay %g, want 1 stall of 1ms", i, o.Stalls, o.StallDelay)
		}
		if o.Degraded {
			t.Errorf("job %d degraded despite a successful retry", i)
		}
	}
	st := sh.Stats()
	n := uint64(len(traces))
	if st.Stalled != n || st.Retries != n {
		t.Errorf("stalled %d retries %d, want %d each", st.Stalled, st.Retries, n)
	}
	if st.Degraded != 0 || st.DegradedStall != 0 || st.Errors != 0 {
		t.Errorf("degraded %d (stall-triggered %d), errors %d, want zeros", st.Degraded, st.DegradedStall, st.Errors)
	}
}

// TestStallExhaustionDegrades: with no retries allowed, a stalled job
// falls back to the degraded path instead of erroring, and the
// transition is attributed to stall exhaustion in the metrics.
func TestStallExhaustionDegrades(t *testing.T) {
	cfg := testShardConfig("exhaust")
	cfg.Faults = fault.New(3).Site(FaultStall, 1)
	cfg.MaxRetries = 0
	cfg.StallPenalty = 1e-3
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := synthTraces([]float64{4, 8, 5})
	arrivals := workload.PeriodicArrivals(len(traces), testDeadline)
	outs := submitTraces(t, sh, traces, arrivals)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if !o.Degraded {
			t.Errorf("job %d not degraded after stall exhaustion", i)
		}
	}
	st := sh.Stats()
	n := uint64(len(traces))
	if st.Degraded != n || st.DegradedStall != n {
		t.Errorf("degraded %d (stall-triggered %d), want %d", st.Degraded, st.DegradedStall, n)
	}
	if st.Retries != 0 || st.Stalled != n || st.Errors != 0 {
		t.Errorf("retries %d stalled %d errors %d", st.Retries, st.Stalled, st.Errors)
	}
}

// TestStallDelayAttributedToFaultMisses: an injected stall that pushes
// an otherwise-fitting job past its deadline counts as a fault miss,
// not a serving miss.
func TestStallDelayAttributedToFaultMisses(t *testing.T) {
	cfg := testShardConfig("attr")
	cfg.Faults = fault.New(3).Site(FaultStall, 1)
	cfg.MaxRetries = 1
	cfg.StallPenalty = 10e-3 // 10 ms of a 16.7 ms deadline
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 12 ms of work fits a fresh deadline but not one down 10 ms.
	traces := synthTraces([]float64{12})
	outs := submitTraces(t, sh, traces, []float64{0})
	if !outs[0].Missed() {
		t.Fatal("job with 10ms injected delay met a 16.7ms deadline")
	}
	st := sh.Stats()
	if st.Misses != 1 || st.FaultMisses != 1 || st.ServingMisses != 0 {
		t.Errorf("misses %d fault %d serving %d, want 1/1/0", st.Misses, st.FaultMisses, st.ServingMisses)
	}
}

// TestOverflowPolicies: OverflowShed rejects excess and keeps serving
// predictively; OverflowDegrade additionally pushes the shard into the
// overloaded regime, so admitted jobs bypass prediction until the
// backlog halves.
func TestOverflowPolicies(t *testing.T) {
	for _, policy := range []OverflowPolicy{OverflowShed, OverflowDegrade} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := testShardConfig("ovf")
			cfg.QueueDepth = 4
			cfg.Overflow = policy
			cfg.DegradeWait = -1 // isolate the overload trigger from wait-degradation
			sh, err := NewShard(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Gate the worker so the queue can actually fill.
			gate := make(chan Outcome) // unbuffered: worker blocks sending it
			gateTr := synthTraces([]float64{1})[0]
			if err := sh.Submit(Job{Trace: &gateTr, Result: gate}); err != nil {
				t.Fatal(err)
			}
			traces := synthTraces([]float64{1, 1, 1, 1, 1, 1, 1, 1})
			res := make(chan Outcome, len(traces))
			accepted := 0
			for i := range traces {
				if err := sh.Submit(Job{Trace: &traces[i], Result: res}); err == nil {
					accepted++
				}
			}
			if accepted == len(traces) {
				t.Fatal("queue never overflowed")
			}
			<-gate
			sh.Close()
			degraded := 0
			for i := 0; i < accepted; i++ {
				if o := <-res; o.Degraded {
					degraded++
				}
			}
			st := sh.Stats()
			shed := uint64(len(traces) - accepted)
			if st.Shed != shed || st.Rejected != shed {
				t.Errorf("shed %d rejected %d, want %d", st.Shed, st.Rejected, shed)
			}
			if policy == OverflowShed {
				if st.Overloads != 0 || st.DegradedOverload != 0 || degraded != 0 {
					t.Errorf("shed policy entered overload: overloads %d, degraded %d", st.Overloads, degraded)
				}
			} else {
				if st.Overloads == 0 {
					t.Error("degrade policy never declared overload")
				}
				if st.DegradedOverload == 0 || degraded == 0 {
					t.Errorf("degrade policy never degraded admitted jobs (attributed %d, observed %d)", st.DegradedOverload, degraded)
				}
			}
		})
	}
}

// TestOverloadHysteresis pins the depth gauge and the overload
// regime on a deterministic overflow. The worker is parked on a gate
// job, the queue fills exactly and the excess is rejected: the gauge
// then reads the queued jobs alone (each reject undoes its own count).
// Draining clears the regime at the first completion that leaves the
// backlog at QueueDepth/2, so of the four queued jobs the first two
// run degraded and the last two predict.
func TestOverloadHysteresis(t *testing.T) {
	cfg := testShardConfig("hyst")
	cfg.QueueDepth = 4
	cfg.Overflow = OverflowDegrade
	cfg.DegradeWait = -1 // isolate the overload trigger from wait-degradation
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan Outcome) // unbuffered: the worker blocks sending it
	gateTr := synthTraces([]float64{1})[0]
	if err := sh.Submit(Job{Trace: &gateTr, Result: gate}); err != nil {
		t.Fatal(err)
	}
	// The worker decrements the gauge after serving a job and before
	// sending its result, so depth 0 means it is parked on the gate.
	deadline := time.Now().Add(10 * time.Second)
	for sh.Stats().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never finished the gate job")
		}
		runtime.Gosched()
	}
	// Arrivals far apart: no job waits on its predecessor's virtual
	// service, so no wait or budget trigger competes with overload.
	traces := synthTraces([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	res := make(chan Outcome, len(traces))
	accepted := 0
	for i := range traces {
		j := Job{Arrival: float64(i+1) * 10 * testDeadline, Trace: &traces[i], Result: res}
		if sh.Submit(j) == nil {
			accepted++
		}
	}
	st := sh.Stats()
	if accepted != cfg.QueueDepth || st.QueueDepth != int64(cfg.QueueDepth) || st.Rejected != 4 || st.Overloads != 1 {
		t.Fatalf("parked worker: accepted %d, depth %d, rejected %d, overloads %d; want 4/4/4/1",
			accepted, st.QueueDepth, st.Rejected, st.Overloads)
	}
	<-gate
	sh.Close()
	for i := 0; i < accepted; i++ {
		if o := <-res; o.Degraded != (i < 2) {
			t.Errorf("queued job %d: degraded %v, want %v", i, o.Degraded, i < 2)
		}
	}
	st = sh.Stats()
	if st.DegradedOverload != 2 || st.Degraded != 2 || st.QueueDepth != 0 {
		t.Errorf("drained: degraded %d (overload %d), depth %d; want 2 (2), 0",
			st.Degraded, st.DegradedOverload, st.QueueDepth)
	}
}

// TestShardConfigValidatesFailureKnobs: negative watchdog knobs are
// rejected up front.
func TestShardConfigValidatesFailureKnobs(t *testing.T) {
	cfg := testShardConfig("x")
	cfg.JobTimeout = -time.Second
	if _, err := NewShard(cfg); err == nil {
		t.Error("negative JobTimeout accepted")
	}
	cfg = testShardConfig("x")
	cfg.RetryBackoff = -time.Second
	if _, err := NewShard(cfg); err == nil {
		t.Error("negative RetryBackoff accepted")
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Error("bogus overflow policy parsed")
	}
	for spell, want := range map[string]OverflowPolicy{"": OverflowShed, "shed": OverflowShed, "degrade": OverflowDegrade} {
		if got, err := ParseOverflowPolicy(spell); err != nil || got != want {
			t.Errorf("ParseOverflowPolicy(%q) = %v, %v", spell, got, err)
		}
	}
}
