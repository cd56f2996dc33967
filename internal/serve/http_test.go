package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/suite"
	"repro/internal/tracecache"
)

// suiteSource is the job source cmd/dvfserved wires: cycle the spec's
// test-job pool.
func suiteSource(bench string, n int, seed int64) ([]accel.Job, error) {
	spec, err := suite.ByName(bench)
	if err != nil {
		return nil, err
	}
	pool := spec.TestJobs(seed)
	if len(pool) == 0 {
		return nil, fmt.Errorf("no jobs for %s", bench)
	}
	jobs := make([]accel.Job, n)
	for i := range jobs {
		jobs[i] = pool[i%len(pool)]
	}
	return jobs, nil
}

// TestHTTPAPI drives the full dvfserved HTTP surface end to end
// against a live trained shard: submit a stream, drain, read stats and
// metrics, and exercise the error paths.
func TestHTTPAPI(t *testing.T) {
	lab := quickLab(t)
	srv := serve.NewServer()
	if _, err := srv.AddShard(shardCfgFor(t, lab, "aes", 128)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	api := serve.NewAPI(srv, suiteSource)
	ts := httptest.NewServer(api.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAll(t, resp)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, readAll(t, resp)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := get("/v1/benchmarks"); code != 200 || !strings.Contains(body, `"aes"`) {
		t.Fatalf("benchmarks: %d %q", code, body)
	}

	// Error paths before any load.
	if code, _ := get("/v1/jobs"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs = %d, want 405", code)
	}
	if code, _ := post("/v1/jobs", "{not json"); code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", code)
	}
	if code, _ := post("/v1/jobs", `{"bench":"nope","count":1}`); code != http.StatusNotFound {
		t.Errorf("unknown bench = %d, want 404", code)
	}
	if code, _ := post("/v1/jobs", `{"bench":"aes","count":0}`); code != http.StatusBadRequest {
		t.Errorf("zero count = %d, want 400", code)
	}
	if code, _ := get("/v1/drain"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/drain = %d, want 405", code)
	}

	// Submit a periodic stream, then a second batch: arrivals must
	// continue the same virtual-time stream, not restart at zero.
	var jr serve.JobsResponse
	code, body := post("/v1/jobs", `{"bench":"aes","count":8,"seed":7}`)
	if code != 200 {
		t.Fatalf("jobs: %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Accepted != 8 || jr.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d, want 8/0", jr.Accepted, jr.Rejected)
	}
	firstLast := jr.Last
	code, body = post("/v1/jobs", `{"bench":"aes","count":4,"seed":7,"poisson":true,"rate_hz":30}`)
	if code != 200 {
		t.Fatalf("second jobs: %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.First <= firstLast {
		t.Errorf("second batch restarted the clock: first %g <= previous last %g", jr.First, firstLast)
	}

	if code, body := post("/v1/drain", ""); code != 200 || !strings.Contains(body, "drained") {
		t.Fatalf("drain: %d %q", code, body)
	}

	code, body = get("/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var stats []serve.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Done != 12 || stats[0].QueueDepth != 0 {
		t.Fatalf("stats = %+v", stats)
	}

	sim0 := core.SimulatedJobs()
	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	sim1 := core.SimulatedJobs()
	e, err := lab.Entry("aes")
	if err != nil {
		t.Fatal(err)
	}
	// The simulation stages' engine labels name the engine that actually
	// runs each design: compiled under the batch default, which has no
	// scalar form.
	js := e.Pred.NewJobSimulator()
	sliceEngine, execEngine := js.SliceEngine(), js.ExecEngine()
	for _, want := range []string{
		`dvfserved_jobs_done_total{shard="aes"} 12`,
		`dvfserved_latency_seconds_count{shard="aes"} 12`,
		`dvfserved_latency_seconds_bucket{shard="aes",le="+Inf"} 12`,
		`dvfserved_queue_depth{shard="aes"} 0`,
		`dvfserved_bound_clamps_total{shard="aes"}`,
		"# TYPE dvfserved_energy_joules_total counter",
		"# TYPE dvfserved_exec_sim_ns histogram",
		`dvfserved_exec_sim_ns_count{shard="aes",engine="` + string(execEngine) + `"} 12`,
		"# TYPE dvfserved_slice_sim_ns histogram",
		`dvfserved_slice_sim_ns_count{shard="aes",engine="` + string(sliceEngine) + `"} `,
		"# TYPE dvfserved_predict_ns histogram",
		`dvfserved_predict_ns_count{shard="aes"} `,
		"# TYPE dvfserved_native_fallbacks_total counter",
		"\ndvfserved_native_fallbacks_total ",
		"# TYPE dvfserved_simulated_jobs_total counter",
		"# TYPE dvfserved_batched_jobs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The design-run counter is process-wide: it covers at least the 12
	// jobs just served and reads core.SimulatedJobs at scrape time.
	if v := metricValue(t, body, "dvfserved_simulated_jobs_total"); v < 12 || v < sim0 || v > sim1 {
		t.Errorf("dvfserved_simulated_jobs_total = %d, want >= 12 and within [%d, %d]", v, sim0, sim1)
	}
	if v := metricValue(t, body, "dvfserved_batched_jobs_total"); v > sim1 {
		t.Errorf("dvfserved_batched_jobs_total = %d exceeds design runs %d", v, sim1)
	}
	checkTraceCacheMetrics(t, func() string { _, body := get("/metrics"); return body })

	// Bound-clamp wiring: force a clamp on the shard's predictor (an
	// absurd feature vector predicts far past the static maximum) and
	// the count must surface in the shard's stats snapshot.
	huge := make([]float64, len(e.Pred.Kept))
	for i := range huge {
		huge[i] = 1e12
	}
	e.Pred.PredFromSliceOrFloor(huge)
	if st := srv.Shard("aes").Stats(); st.BoundClamps == 0 {
		t.Error("stats BoundClamps = 0 after a forced clamp")
	}
}

// metricValue returns the value of an unlabeled counter in a metrics
// exposition, failing the test when the series is absent.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics missing %s", name)
	return 0
}

// checkTraceCacheMetrics asserts the trace-cache series are exported
// exactly when a cache is installed, with the cache's own counts.
func checkTraceCacheMetrics(t *testing.T, scrape func() string) {
	t.Helper()
	prev := core.TraceCache()
	defer core.SetTraceCache(prev)
	core.SetTraceCache(nil)
	if body := scrape(); strings.Contains(body, "dvfserved_trace_cache_") {
		t.Error("trace-cache series exported without a cache installed")
	}
	c, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTraceCache(c)
	var v []int
	c.Get("absent", &v) // one miss
	body := scrape()
	if got := metricValue(t, body, "dvfserved_trace_cache_hits_total"); got != 0 {
		t.Errorf("dvfserved_trace_cache_hits_total = %d, want 0", got)
	}
	if got := metricValue(t, body, "dvfserved_trace_cache_misses_total"); got != 1 {
		t.Errorf("dvfserved_trace_cache_misses_total = %d, want 1", got)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
