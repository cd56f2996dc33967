package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/serve"
	"repro/internal/tracecache"
)

// TestHTTPAPI drives the cluster-mode HTTP surface end to end against
// a live two-replica pool: submit a stream, drain, read stats, model
// and metrics (per-replica shard series, router counters, and the
// process-wide native-fallback, design-run and trace-cache counters),
// and exercise the error paths.
func TestHTTPAPI(t *testing.T) {
	p, err := core.Train(stencil.Spec(), core.Options{TrainJobs: stencil.JobsFrom(stencilImages(40, 40, 3), 3)})
	if err != nil {
		t.Fatal(err)
	}
	pm, spm := testModels()
	fleet := NewFleet()
	pool, err := fleet.AddPool(Config{
		Shard: serve.ShardConfig{
			Name: "stencil",
			Profile: serve.Profile{
				Pred:       p,
				Device:     dvfs.ASIC(p.Spec.NominalHz, false),
				Power:      pm,
				SlicePower: spm,
				Deadline:   testDeadline,
				Margin:     testMargin,
			},
			QueueDepth: 64,
		},
		Replicas: 2,
		Policy:   PolicyHash{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	source := func(bench string, n int, seed int64) ([]accel.Job, error) {
		return stencil.JobsFrom(stencilImages(n, 40, seed), seed), nil
	}
	ts := httptest.NewServer(NewAPI(fleet, source).Handler())
	defer ts.Close()

	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}

	if code, body := do("GET", "/healthz", ""); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := do("GET", "/v1/benchmarks", ""); code != 200 || !strings.Contains(body, `"stencil"`) {
		t.Fatalf("benchmarks: %d %q", code, body)
	}
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/jobs", "{not json", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"bench":"nope","count":1}`, http.StatusNotFound},
		{"POST", "/v1/jobs", `{"bench":"stencil","count":0}`, http.StatusBadRequest},
		{"GET", "/v1/drain", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/retire", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/retire", "{not json", http.StatusBadRequest},
		{"POST", "/v1/retire", `{"bench":"nope","replica":"nope/0"}`, http.StatusNotFound},
		{"POST", "/v1/retire", `{"bench":"stencil","replica":"stencil/9"}`, http.StatusConflict},
	} {
		if code, body := do(tc.method, tc.path, tc.body); code != tc.want {
			t.Errorf("%s %s %q = %d %q, want %d", tc.method, tc.path, tc.body, code, body, tc.want)
		}
	}

	code, body := do("POST", "/v1/jobs", `{"bench":"stencil","count":12,"seed":5}`)
	if code != 200 {
		t.Fatalf("jobs: %d %q", code, body)
	}
	var jr JobsResponse
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Accepted+jr.Shed != 12 || jr.Last <= jr.First {
		t.Fatalf("jobs response = %+v", jr)
	}
	if code, body := do("POST", "/v1/drain", ""); code != 200 || !strings.Contains(body, "drained") {
		t.Fatalf("drain: %d %q", code, body)
	}

	code, body = do("GET", "/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var stats []PoolStats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Submitted != 12 {
		t.Fatalf("stats = %+v", stats)
	}
	if code, body := do("GET", "/v1/model", ""); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("model: %d %q", code, body)
	}

	code, body = do("GET", "/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`dvfserved_jobs_done_total{shard="stencil/0"}`,
		`dvfserved_jobs_done_total{shard="stencil/1"}`,
		"# TYPE dvfscluster_jobs_submitted_total counter",
		"# TYPE dvfserved_native_fallbacks_total counter",
		"\ndvfserved_native_fallbacks_total ",
		"# TYPE dvfserved_simulated_jobs_total counter",
		"\ndvfserved_simulated_jobs_total ",
		"# TYPE dvfserved_batched_jobs_total counter",
		"\ndvfserved_batched_jobs_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "dvfserved_trace_cache_") != (core.TraceCache() != nil) {
		t.Error("trace-cache series must be exported exactly when a cache is installed")
	}
	// With a cache installed, its hit and miss counts are exported.
	c, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := core.TraceCache()
	core.SetTraceCache(c)
	defer core.SetTraceCache(prev)
	var miss []int
	c.Get("absent", &miss)
	_, body = do("GET", "/metrics", "")
	for _, want := range []string{"\ndvfserved_trace_cache_hits_total 0\n", "\ndvfserved_trace_cache_misses_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if code, body := do("POST", "/v1/retire", `{"bench":"stencil","replica":"stencil/1"}`); code != 200 || !strings.Contains(body, "retired") {
		t.Fatalf("retire: %d %q", code, body)
	}
}
