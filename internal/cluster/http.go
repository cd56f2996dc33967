package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// API wraps a Fleet with the dvfserved HTTP surface in cluster mode.
// It mirrors serve.API — same job-generation contract, same metrics
// exposition (every replica is a shard named "bench/i") — and adds the
// cluster endpoints.
type API struct {
	fleet  *Fleet
	source serve.JobSource

	mu     sync.Mutex
	cursor map[string]float64
}

// NewAPI builds the HTTP API over a fleet.
func NewAPI(fleet *Fleet, source serve.JobSource) *API {
	return &API{fleet: fleet, source: source, cursor: make(map[string]float64)}
}

// Handler returns the route mux:
//
//	GET  /healthz          liveness probe
//	GET  /v1/benchmarks    pool names
//	GET  /v1/stats         per-pool cluster stats (JSON)
//	GET  /v1/cluster       alias of /v1/stats (router + replica detail)
//	POST /v1/jobs          submit a generated job stream (routed)
//	POST /v1/drain         block until every replica queue is empty
//	POST /v1/retire        drain-with-handoff one replica now
//	GET  /metrics          per-replica + cluster counters (text)
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.fleet.Names())
	})
	mux.HandleFunc("/v1/stats", a.handleStats)
	mux.HandleFunc("/v1/cluster", a.handleStats)
	mux.HandleFunc("/v1/model", a.handleModel)
	mux.HandleFunc("/v1/jobs", a.handleJobs)
	mux.HandleFunc("/v1/drain", a.handleDrain)
	mux.HandleFunc("/v1/retire", a.handleRetire)
	mux.HandleFunc("/metrics", a.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.fleet.Stats())
}

func (a *API) handleModel(w http.ResponseWriter, r *http.Request) {
	out := make([]serve.ModelStatus, 0)
	for _, name := range a.fleet.Names() {
		if ms, ok := a.fleet.Pool(name).ModelStatus(); ok {
			out = append(out, ms)
		}
	}
	writeJSON(w, out)
}

// JobsRequest reuses the single-server request shape (serve.JobsRequest).
type JobsRequest = serve.JobsRequest

// JobsResponse reports routing results for one submission.
type JobsResponse struct {
	Bench    string  `json:"bench"`
	Accepted int     `json:"accepted"`
	Shed     int     `json:"shed"`
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
	p := a.fleet.Pool(req.Bench)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown benchmark %q (have %v)", req.Bench, a.fleet.Names()), http.StatusNotFound)
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
		period = p.cfg.Shard.Deadline
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
	resp := JobsResponse{Bench: req.Bench, First: base + offs[0], Last: base + offs[len(offs)-1]}
	for i, job := range jobs {
		if err := p.Submit(Job{Arrival: base + offs[i], Payload: job}); err != nil {
			resp.Shed++
		} else {
			resp.Accepted++
		}
	}
	a.mu.Unlock()
	writeJSON(w, resp)
}

func (a *API) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	deadline := time.Now().Add(serve.DrainTimeout) //detlint:allow HTTP timeout, not a replay path
	for {
		busy := false
		for _, ps := range a.fleet.Stats() {
			for _, rs := range ps.Replicas {
				if rs.QueueDepth > 0 {
					busy = true
				}
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

// RetireRequest is the POST /v1/retire body: the pool and the replica
// shard name ("bench/i") to drain-with-handoff immediately.
type RetireRequest struct {
	Bench   string `json:"bench"`
	Replica string `json:"replica"`
}

func (a *API) handleRetire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req RetireRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p := a.fleet.Pool(req.Bench)
	if p == nil {
		http.Error(w, fmt.Sprintf("unknown benchmark %q", req.Bench), http.StatusNotFound)
		return
	}
	if err := p.RetireNow(req.Replica); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "retired %s\n", req.Replica)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	stats := a.fleet.Stats()
	shards := make([]*serve.Shard, 0)
	for _, name := range a.fleet.Names() {
		shards = append(shards, a.fleet.Pool(name).Shards()...)
	}
	serve.WriteMetrics(w, shards)

	counters := []struct {
		name, help string
		get        func(PoolStats) uint64
	}{
		{"dvfscluster_jobs_submitted_total", "Jobs offered to the router.", func(s PoolStats) uint64 { return s.Submitted }},
		{"dvfscluster_jobs_placed_total", "Router placements, including re-placements.", func(s PoolStats) uint64 { return s.Placed }},
		{"dvfscluster_jobs_shed_total", "Jobs shed because no replica could meet the deadline.", func(s PoolStats) uint64 { return s.Shed }},
		{"dvfscluster_jobs_intrinsic_total", "Placed jobs that would miss even a fresh deadline.", func(s PoolStats) uint64 { return s.Intrinsic }},
		{"dvfscluster_jobs_replaced_total", "Jobs recovered from dead replicas and re-placed.", func(s PoolStats) uint64 { return s.Replaced }},
		{"dvfscluster_fault_debt_misses_total", "Recovered jobs that then missed their deadline.", func(s PoolStats) uint64 { return s.FaultDebtMisses }},
		{"dvfscluster_jobs_lost_total", "Recovered jobs with no live replica left (errored, not silent).", func(s PoolStats) uint64 { return s.Lost }},
		{"dvfscluster_replica_kills_total", "Crash horizons fired.", func(s PoolStats) uint64 { return s.Kills }},
		{"dvfscluster_scale_ups_total", "Autoscaler scale-up actions.", func(s PoolStats) uint64 { return s.ScaleUps }},
		{"dvfscluster_scale_downs_total", "Autoscaler drain actions.", func(s PoolStats) uint64 { return s.ScaleDowns }},
		{"dvfscluster_model_drift_events_total", "Drift detections by the pool's online trainer.", func(s PoolStats) uint64 { return s.Online.DriftEvents }},
		{"dvfscluster_model_retrains_total", "Background model refits started at the router.", func(s PoolStats) uint64 { return s.Online.Retrains }},
		{"dvfscluster_model_promotions_total", "Canary candidates promoted fleet-wide.", func(s PoolStats) uint64 { return s.Online.Promotions }},
		{"dvfscluster_model_canary_rejects_total", "Canary candidates rejected (incumbent retained).", func(s PoolStats) uint64 { return s.Online.CanaryRejects }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for _, ps := range stats {
			fmt.Fprintf(w, "%s{pool=%q,policy=%q} %d\n", c.name, ps.Name, ps.Policy, c.get(ps))
		}
	}
	fmt.Fprintf(w, "# HELP dvfscluster_replicas Replicas by state.\n# TYPE dvfscluster_replicas gauge\n")
	for _, ps := range stats {
		counts := map[string]int{"active": 0, "draining": 0, "dead": 0}
		for _, rs := range ps.Replicas {
			counts[rs.State]++
		}
		for _, state := range []string{"active", "draining", "dead"} {
			fmt.Fprintf(w, "dvfscluster_replicas{pool=%q,state=%q} %d\n", ps.Name, state, counts[state])
		}
	}
	fmt.Fprintf(w, "# HELP dvfscluster_energy_joules_total Fleet energy by pool.\n# TYPE dvfscluster_energy_joules_total counter\n")
	for _, ps := range stats {
		fmt.Fprintf(w, "dvfscluster_energy_joules_total{pool=%q} %g\n", ps.Name, ps.Fleet.Energy)
	}
}
