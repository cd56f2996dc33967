package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/rtl"
	"repro/internal/workload"
)

// JobSource generates n jobs for a benchmark from a seed; the API uses
// it to synthesize request payloads server-side, so clients describe
// load (count, seed, arrival process) instead of shipping scratchpad
// images over HTTP.
type JobSource func(bench string, n int, seed int64) ([]accel.Job, error)

// API wraps a Server with the dvfserved HTTP surface. Arrival
// timestamps are assigned from a per-shard cursor so successive
// submissions form one continuous virtual-time stream.
type API struct {
	srv    *Server
	source JobSource

	mu     sync.Mutex
	cursor map[string]float64
}

// NewAPI builds the HTTP API over a server.
func NewAPI(srv *Server, source JobSource) *API {
	return &API{srv: srv, source: source, cursor: make(map[string]float64)}
}

// Handler returns the route mux:
//
//	GET  /healthz        liveness probe
//	GET  /v1/benchmarks  shard names
//	GET  /v1/stats       per-shard stats (JSON)
//	POST /v1/jobs        submit a generated job stream
//	POST /v1/drain       block until every queue is empty
//	GET  /metrics        counters and histograms (text exposition)
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/benchmarks", a.handleBenchmarks)
	mux.HandleFunc("/v1/stats", a.handleStats)
	mux.HandleFunc("/v1/model", a.handleModel)
	mux.HandleFunc("/v1/jobs", a.handleJobs)
	mux.HandleFunc("/v1/drain", a.handleDrain)
	mux.HandleFunc("/metrics", a.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (a *API) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.srv.Names())
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.srv.Stats())
}

// ModelStatus is one shard's serving-model report: the live β
// snapshot, its version, and — when online learning is enabled — the
// trainer's counters. The /v1/model endpoint returns one per shard.
type ModelStatus struct {
	Shard string `json:"shard"`
	// Version is 0 for the offline-trained β, incremented per promoted
	// online refit.
	Version uint64 `json:"version"`
	// Online reports whether a trainer is attached to this shard.
	Online bool `json:"online"`
	// Model is the live β restricted to the slice's kept features,
	// keyed by feature name — the coefficients the hardware actually
	// multiplies.
	Model map[string]float64 `json:"model"`
	// Intercept is the live model's constant term.
	Intercept float64 `json:"intercept"`
	// Trainer is the online trainer's counter snapshot (zeros with
	// State "off" when disabled).
	Trainer online.Stats `json:"trainer"`
}

// ModelStatusFor builds a ModelStatus for a predictor and its optional
// trainer (nil when online learning is disabled). Shared by the
// single-server and cluster /v1/model endpoints.
func ModelStatusFor(name string, pred *core.Predictor, trainer *online.Trainer) ModelStatus {
	live := pred.LiveModel()
	names := pred.Ins.Names()
	coefs := make(map[string]float64, len(pred.Kept))
	for _, k := range pred.Kept {
		coefs[names[k]] = live.Coef[k]
	}
	return ModelStatus{
		Shard:     name,
		Version:   pred.ModelVersion(),
		Online:    trainer != nil,
		Model:     coefs,
		Intercept: live.Intercept,
		Trainer:   trainer.Stats(),
	}
}

// ModelStatus reports the shard's live serving model; ok is false for
// replay-only shards, which have no predictor.
func (s *Shard) ModelStatus() (ModelStatus, bool) {
	if s.cfg.Pred == nil {
		return ModelStatus{}, false
	}
	return ModelStatusFor(s.cfg.Name, s.cfg.Pred, s.trainer), true
}

func (a *API) handleModel(w http.ResponseWriter, r *http.Request) {
	out := make([]ModelStatus, 0)
	for _, name := range a.srv.Names() {
		if ms, ok := a.srv.Shard(name).ModelStatus(); ok {
			out = append(out, ms)
		}
	}
	writeJSON(w, out)
}

// JobsRequest is the POST /v1/jobs body.
type JobsRequest struct {
	// Bench names the target shard.
	Bench string `json:"bench"`
	// Count is the number of jobs to generate and submit.
	Count int `json:"count"`
	// Seed drives job generation (default 1).
	Seed int64 `json:"seed"`
	// PeriodMs spaces periodic arrivals (default: the shard deadline).
	PeriodMs float64 `json:"period_ms"`
	// Poisson switches to exponential inter-arrival gaps at RateHz.
	Poisson bool `json:"poisson"`
	// RateHz is the Poisson arrival rate (default: 1000/PeriodMs).
	RateHz float64 `json:"rate_hz"`
	// Burst > 1 groups periodic arrivals into back-to-back bursts.
	Burst int `json:"burst"`
}

// JobsResponse reports admission results for one submission.
type JobsResponse struct {
	Bench    string  `json:"bench"`
	Accepted int     `json:"accepted"`
	Rejected int     `json:"rejected"`
	First    float64 `json:"first_arrival_s"`
	Last     float64 `json:"last_arrival_s"`
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req JobsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sh := a.srv.Shard(req.Bench)
	if sh == nil {
		http.Error(w, fmt.Sprintf("unknown benchmark %q (have %v)", req.Bench, a.srv.Names()), http.StatusNotFound)
		return
	}
	if req.Count < 1 || req.Count > 100000 {
		http.Error(w, "count must be in 1..100000", http.StatusBadRequest)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	period := req.PeriodMs * 1e-3
	if period <= 0 {
		period = sh.cfg.Deadline
	}
	jobs, err := a.source(req.Bench, req.Count, seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var offs []float64
	switch {
	case req.Poisson:
		rate := req.RateHz
		if rate <= 0 {
			rate = 1 / period
		}
		offs = workload.PoissonArrivals(req.Count, rate, seed)
	case req.Burst > 1:
		offs = workload.BurstyArrivals(req.Count, req.Burst, period)
	default:
		offs = workload.PeriodicArrivals(req.Count, period)
	}

	a.mu.Lock()
	base := a.cursor[req.Bench]
	a.cursor[req.Bench] = base + offs[len(offs)-1] + period
	a.mu.Unlock()

	resp := JobsResponse{Bench: req.Bench, First: base + offs[0], Last: base + offs[len(offs)-1]}
	for i, job := range jobs {
		if err := sh.Submit(Job{Arrival: base + offs[i], Payload: job}); err != nil {
			resp.Rejected++
		} else {
			resp.Accepted++
		}
	}
	writeJSON(w, resp)
}

// DrainTimeout bounds how long POST /v1/drain (here and in the cluster
// API) waits for the queues to empty before answering 503. A server's
// write timeout must exceed it, or the drain answer is cut off.
const DrainTimeout = 2 * time.Minute

func (a *API) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	deadline := time.Now().Add(DrainTimeout) //detlint:allow HTTP timeout, not a replay path
	for {
		busy := false
		for _, st := range a.srv.Stats() {
			if st.QueueDepth > 0 {
				busy = true
			}
		}
		if !busy {
			fmt.Fprintln(w, "drained")
			return
		}
		if time.Now().After(deadline) { //detlint:allow HTTP timeout, not a replay path
			http.Error(w, "drain timed out", http.StatusServiceUnavailable)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	shards := make([]*Shard, 0)
	for _, name := range a.srv.Names() {
		shards = append(shards, a.srv.Shard(name))
	}
	WriteMetrics(w, shards)
}

// WriteMetrics renders the Prometheus-style text exposition for the
// given shards, in order, labeling every per-shard series with the
// shard's name — counters, gauges, the latency histogram, and the
// per-stage wall-clock histograms of simulated jobs (exec_sim_ns,
// slice_sim_ns, predict_ns; see core.Stages) — followed by the
// process-wide counters: native-engine fallbacks, design runs
// (simulated and batched), and — when a trace cache is installed —
// trace-cache hits and misses.
// The single-server /metrics endpoint and the cluster endpoint (where
// each replica is a shard named "bench/i") share this renderer.
func WriteMetrics(w io.Writer, shards []*Shard) {
	stats := make([]Stats, len(shards))
	for i, sh := range shards {
		stats[i] = sh.Stats()
	}
	counters := []struct {
		name, help string
		get        func(Stats) uint64
	}{
		{"dvfserved_jobs_done_total", "Completed jobs.", func(s Stats) uint64 { return s.Done }},
		{"dvfserved_jobs_rejected_total", "Jobs rejected by admission control.", func(s Stats) uint64 { return s.Rejected }},
		{"dvfserved_jobs_degraded_total", "Jobs served on the max-frequency bypass.", func(s Stats) uint64 { return s.Degraded }},
		{"dvfserved_job_errors_total", "Jobs that failed to simulate.", func(s Stats) uint64 { return s.Errors }},
		{"dvfserved_jobs_shed_total", "Jobs dropped at a full queue.", func(s Stats) uint64 { return s.Shed }},
		{"dvfserved_overloads_total", "Transitions into the overflow-degrade overload regime.", func(s Stats) uint64 { return s.Overloads }},
		{"dvfserved_degraded_wait_total", "Degraded jobs triggered by queue wait.", func(s Stats) uint64 { return s.DegradedWait }},
		{"dvfserved_degraded_budget_total", "Degraded jobs triggered by exhausted budget.", func(s Stats) uint64 { return s.DegradedBudget }},
		{"dvfserved_degraded_overload_total", "Degraded jobs triggered by the overload regime.", func(s Stats) uint64 { return s.DegradedOverload }},
		{"dvfserved_degraded_stall_total", "Degraded jobs triggered by stall-retry exhaustion.", func(s Stats) uint64 { return s.DegradedStall }},
		{"dvfserved_stalled_attempts_total", "Prediction attempts that timed out.", func(s Stats) uint64 { return s.Stalled }},
		{"dvfserved_stall_retries_total", "Retries provoked by stalled attempts.", func(s Stats) uint64 { return s.Retries }},
		{"dvfserved_jobs_handed_off_total", "Queued jobs handed back at drain or crash horizon.", func(s Stats) uint64 { return s.HandedOff }},
		{"dvfserved_deadline_misses_total", "Arrival-relative deadline misses.", func(s Stats) uint64 { return s.Misses }},
		{"dvfserved_serving_misses_total", "Misses attributable to queue wait.", func(s Stats) uint64 { return s.ServingMisses }},
		{"dvfserved_fault_misses_total", "Misses attributable to injected stall delays.", func(s Stats) uint64 { return s.FaultMisses }},
		{"dvfserved_dvfs_switches_total", "Charged DVFS transitions.", func(s Stats) uint64 { return s.Switches }},
		{"dvfserved_bound_clamps_total", "Predictions clamped into static cycle bounds.", func(s Stats) uint64 { return s.BoundClamps }},
		{"dvfserved_model_drift_events_total", "Drift detections by the online trainer.", func(s Stats) uint64 { return s.DriftEvents }},
		{"dvfserved_model_retrains_total", "Background model refits started.", func(s Stats) uint64 { return s.Retrains }},
		{"dvfserved_model_promotions_total", "Canary candidates promoted to the live model.", func(s Stats) uint64 { return s.Promotions }},
		{"dvfserved_model_canary_rejects_total", "Canary candidates rejected (incumbent retained).", func(s Stats) uint64 { return s.CanaryRejects }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for _, st := range stats {
			fmt.Fprintf(w, "%s{shard=%q} %d\n", c.name, st.Name, c.get(st))
		}
	}
	fmt.Fprintf(w, "# HELP dvfserved_energy_joules_total Total job energy.\n# TYPE dvfserved_energy_joules_total counter\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_energy_joules_total{shard=%q} %g\n", st.Name, st.Energy)
	}
	fmt.Fprintf(w, "# HELP dvfserved_queue_depth Jobs queued or executing.\n# TYPE dvfserved_queue_depth gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_queue_depth{shard=%q} %d\n", st.Name, st.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP dvfserved_model_version Live model version (0 = offline-trained).\n# TYPE dvfserved_model_version gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "dvfserved_model_version{shard=%q} %d\n", st.Name, st.ModelVersion)
	}
	fmt.Fprintf(w, "# HELP dvfserved_latency_seconds Total job latency (queue wait + service).\n# TYPE dvfserved_latency_seconds histogram\n")
	for _, sh := range shards {
		name := sh.Name()
		cum, sum := sh.latHist.Snapshot()
		for i, b := range Buckets() {
			fmt.Fprintf(w, "dvfserved_latency_seconds_bucket{shard=%q,le=%q} %d\n", name, fmt.Sprintf("%g", b), cum[i])
		}
		fmt.Fprintf(w, "dvfserved_latency_seconds_bucket{shard=%q,le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
		fmt.Fprintf(w, "dvfserved_latency_seconds_sum{shard=%q} %g\n", name, sum)
		fmt.Fprintf(w, "dvfserved_latency_seconds_count{shard=%q} %d\n", name, cum[len(cum)-1])
	}
	// Stage times of simulated jobs. The simulation stages carry the
	// engine that ran them; the prediction runs no RTL engine.
	stages := []struct {
		name, help string
		hist       func(*Shard) *histogram
		engine     func(*Shard) string
	}{
		{"dvfserved_exec_sim_ns", "Wall-clock full-design simulation per job in nanoseconds, labeled with the RTL engine running the full design.",
			func(sh *Shard) *histogram { return &sh.execHist }, func(sh *Shard) string { return sh.execEngine }},
		{"dvfserved_slice_sim_ns", "Wall-clock slice simulation per predicted job in nanoseconds, labeled with the RTL engine running the slice.",
			func(sh *Shard) *histogram { return &sh.sliceHist }, func(sh *Shard) string { return sh.sliceEngine }},
		{"dvfserved_predict_ns", "Wall-clock prediction from the slice's features (feature read, dot product, clamp) per predicted job in nanoseconds.",
			func(sh *Shard) *histogram { return &sh.predictHist }, nil},
	}
	for _, st := range stages {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", st.name, st.help, st.name)
		for _, sh := range shards {
			if sh.execEngine == "" {
				continue // replay-only shard
			}
			labels := fmt.Sprintf("shard=%q", sh.Name())
			if st.engine != nil {
				labels += fmt.Sprintf(",engine=%q", st.engine(sh))
			}
			h := st.hist(sh)
			cum, sum := h.Snapshot()
			for i, b := range h.bkts() {
				fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", st.name, labels, fmt.Sprintf("%g", b), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", st.name, labels, cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum{%s} %g\n", st.name, labels, sum)
			fmt.Fprintf(w, "%s_count{%s} %d\n", st.name, labels, cum[len(cum)-1])
		}
	}
	// Process-wide counters, so unlabeled.
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	// Every simulator this process built on the compiled engine because
	// its netlist had no generated native run function (about 10x slower
	// per job).
	counter("dvfserved_native_fallbacks_total", "Simulators that fell back from the native to the compiled engine.", rtl.NativeFallbacks())
	// Design runs count one per full-design or slice simulation, serving
	// and training alike; see core.SimulatedJobs.
	counter("dvfserved_simulated_jobs_total", "RTL design runs (one per full-design or slice simulation).", core.SimulatedJobs())
	counter("dvfserved_batched_jobs_total", "RTL design runs executed in batch-engine lanes.", core.BatchedJobs())
	if c := core.TraceCache(); c != nil {
		st := c.Stats()
		counter("dvfserved_trace_cache_hits_total", "Trace-cache lookups served from the persistent cache.", st.Hits)
		counter("dvfserved_trace_cache_misses_total", "Trace-cache lookups that found nothing usable.", st.Misses)
	}
}
