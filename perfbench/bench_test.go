package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/exp"
	"repro/internal/serve"
)

// inputBytes serializes a workload's generated input, so tests can
// compare streams byte for byte. The offline workloads' input does not
// depend on the seed: it is dvfsim's own flow, every experiment in
// paper order at the lab seed, whose tables the correctness gate pins.
func inputBytes(workload string, seed int64) ([]byte, error) {
	switch workload {
	case "offline-cold", "offline-replay":
		return json.Marshal(exp.ExperimentIDs)
	case "serve-frames":
		return json.Marshal(frameStreams(seed))
	case "fleet-drift":
		return json.Marshal(driftStreams(seed))
	}
	return nil, errUnknownWorkload(workload)
}

// TestInputsAreSeeded: the same seed gives byte-identical job streams
// and arrivals, and a different seed gives a different stream. The
// offline workloads' input is seed-independent by design.
func TestInputsAreSeeded(t *testing.T) {
	for _, w := range []string{"serve-frames", "fleet-drift"} {
		a, err := inputBytes(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inputBytes(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", w)
		}
		c, err := inputBytes(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w)
		}
	}
	if _, err := inputBytes("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestStreamShapes: streams are the declared sizes and arrivals are
// nondecreasing.
func TestStreamShapes(t *testing.T) {
	check := func(st stream, n int) {
		if len(st.Jobs) != n || len(st.Arrivals) != n {
			t.Errorf("%s: %d jobs, %d arrivals, want %d", st.Name, len(st.Jobs), len(st.Arrivals), n)
		}
		for i := 1; i < len(st.Arrivals); i++ {
			if st.Arrivals[i] < st.Arrivals[i-1] {
				t.Fatalf("%s: arrival %d goes back in time", st.Name, i)
			}
		}
	}
	frames := frameStreams(3)
	if len(frames) != 7 {
		t.Fatalf("%d frame streams, want 7", len(frames))
	}
	for _, st := range frames {
		check(st, framesPerShard)
	}
	drift := driftStreams(3)
	check(drift[0], driftPhases*driftPhaseLen)
	check(drift[1], h264Jobs)
	for i, ph := range drift[0].Phases {
		if want := []int{40, 8}[i%2]; ph.Cols != want || ph.End-ph.Start != driftPhaseLen {
			t.Errorf("phase %d: %+v", i, ph)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON: BENCHMARK.json declares exactly the workloads and
// metrics this program reports, with valid names and units, a one-line
// reason for every workload, and setup_s carrying the largest bound.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range b.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || strings.ContainsAny(w.Why, "\n\r") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", workloads, workloadNames)
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if i >= len(endToEnd) || endToEnd[i].Name != m.Name || endToEnd[i].Unit != m.Unit {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json", i, m.Name, m.Unit)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
		if i >= len(perLayer) || perLayer[i].Name != m.Name || perLayer[i].Unit != m.Unit {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json", i, m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !slices.Equal(b.Paths, []string{"perfbench"}) {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestExpectedRecorded: the gates have a table digest, the Figure 11
// headline, and outcomes for the first hundred seeds of both serving
// workloads.
func TestExpectedRecorded(t *testing.T) {
	e := loadExpected()
	if len(e.OfflineDigest) != 64 || e.Fig11Energy != "63.6" || e.Fig11Miss != "1.1" {
		t.Errorf("offline record: %q %q %q", e.OfflineDigest, e.Fig11Energy, e.Fig11Miss)
	}
	for _, w := range []string{"serve-frames", "fleet-drift"} {
		if n := len(e.Serving[w]); n < recordSeeds {
			t.Errorf("%s: %d recorded seeds", w, n)
		}
		for seed, o := range e.Serving[w] {
			if o.Done == 0 || o.Energy <= 0 || o.Shed != 0 {
				t.Errorf("%s seed %s: %+v", w, seed, o)
			}
		}
	}
}

// TestSelfTimes: a span's self time excludes the union of its children,
// overlapping or not.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a", Start: 30, End: 50, Parent: 0},
		{Name: "b", Start: 90, End: 120, Parent: 0},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"root": 50e-9, "a": 50e-9, "b": 30e-9}
	for n, w := range want {
		if d := self[n] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %g, want %g", n, self[n], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if median(xs) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.25) != 2 {
		t.Errorf("quantiles of %v wrong", xs)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

// TestDriveClosedLoop: the generator submits every job once, never has
// more than window jobs of a stream outstanding, times every delivered
// Outcome, and counts refused submissions and Outcome errors.
func TestDriveClosedLoop(t *testing.T) {
	streams := make([]stream, 3)
	for s := range streams {
		streams[s] = stream{Jobs: make([]accel.Job, 50), Arrivals: make([]float64, 50)}
		for i := range streams[s].Arrivals {
			streams[s].Arrivals[i] = float64(i) * float64(s+1)
		}
	}
	const window = 3
	var mu sync.Mutex
	inFlight := make([]int, len(streams))
	submitted := make([][]bool, len(streams))
	for s := range submitted {
		submitted[s] = make([]bool, len(streams[s].Jobs))
	}
	var wg sync.WaitGroup
	submit := func(s, i int, result chan<- serve.Outcome) error {
		mu.Lock()
		defer mu.Unlock()
		if submitted[s][i] {
			t.Errorf("job %d of stream %d submitted twice", i, s)
		}
		submitted[s][i] = true
		if i%10 == 9 {
			return errors.New("refused")
		}
		if inFlight[s]++; inFlight[s] > window {
			t.Errorf("stream %d has %d jobs outstanding", s, inFlight[s])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			var err error
			if i%10 == 4 {
				err = errors.New("failed")
			}
			mu.Lock()
			inFlight[s]--
			mu.Unlock()
			result <- serve.Outcome{Err: err}
		}()
		return nil
	}
	res := drive(streams, window, submit, newTracer(), "job", "submit")
	wg.Wait()
	if res.attempted != 150 || res.refused != 15 || res.errored != 15 || len(res.latencies) != 135 {
		t.Errorf("attempted %d refused %d errored %d latencies %d", res.attempted, res.refused, res.errored, len(res.latencies))
	}
	for s := range submitted {
		for i, ok := range submitted[s] {
			if !ok {
				t.Errorf("job %d of stream %d never submitted", i, s)
			}
		}
	}
}

// TestRecvAnySlots: recvAny reports the slot whose channel delivered,
// for every slot, and -1 for the wake channel.
func TestRecvAnySlots(t *testing.T) {
	var chs [maxOutstanding]chan serve.Outcome
	for k := range chs {
		chs[k] = make(chan serve.Outcome, 1)
	}
	wake := make(chan struct{}, 1)
	for k := range chs {
		chs[k] <- serve.Outcome{Stalls: k}
		if got, o := recvAny(&chs, wake); got != k || o.Stalls != k {
			t.Errorf("slot %d: recvAny returned slot %d with Stalls %d", k, got, o.Stalls)
		}
	}
	wake <- struct{}{}
	if got, _ := recvAny(&chs, wake); got != -1 {
		t.Errorf("wake: recvAny returned slot %d", got)
	}
}

// TestMeter: the reference is deterministic, an interval is calibrated
// from the rounds sampled in it (or just before a short one), and the
// meter's own CPU time is kept out of workCPU.
func TestMeter(t *testing.T) {
	if refRound() != refRound() {
		t.Fatal("reference round is not deterministic")
	}
	if k := scale(time.Now(), time.Now()); k != 1 {
		t.Fatalf("scale without a meter = %g, want 1", k)
	}
	speed = startMeter()
	defer func() { speed.close(); speed = nil }()
	from := time.Now()
	for time.Since(from) < 5*samplePeriod {
		refRound()
	}
	to := time.Now()
	n, med, _, _ := speed.sampleStats()
	if n < 3 {
		t.Fatalf("%d rounds sampled over %v", n, to.Sub(from))
	}
	want := refNominal.Seconds() / med.Seconds()
	for _, k := range []float64{scale(from, to), scale(to, to)} {
		if k <= 0 || k > 100*want || k < want/100 {
			t.Errorf("scale = %g, median round %v gives %g", k, med, want)
		}
	}
	own := time.Duration(speed.own.Load())
	if own <= 0 || workCPU() > clockNow(clockProcessCPUTime)-own {
		t.Errorf("meter's own CPU time %v not taken out of workCPU", own)
	}
}
