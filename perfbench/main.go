// Command perfbench is the repository benchmark: it measures the two
// paths users wait on — the offline flow that ends in dvfsim's 20
// tables, and the dvfserved serving loop — end to end with tracing off,
// and layer by layer in a separate traced run. BENCHMARK.json at the
// repository root declares its workloads and metrics.
//
// Usage (from the repository root, normally through run.py, which
// builds this program and pins the environment):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones. Lines before
// it report the environment, sample counts and the virtual-time
// outcomes. A traced run writes its spans under .bench_build.
// A failed correctness gate prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rtl"
)

// metric is one declared output: its name and unit.
type metric struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
//
// Host times are calibrated CPU times (see cputime.go), not wall-clock
// times: on a shared host the wall time of the same work moves by up to
// twice from run to run with what else the machine runs. suite_cpu_s is
// the calibrated CPU seconds a pass costs, jobs_per_cpu_s the jobs it
// serves per calibrated CPU second, and a job's latency, job_cpu_p50_us
// and job_cpu_p90_us, the calibrated CPU time the whole process spent
// between the job's submission and its completion: its own work and
// that of every job it waited behind; each is the median over passes of
// the pass's percentile. The tail reported is the 90th percentile: the
// 99th, which on fleet-drift depends on how many jobs an online refit
// happens to overlap, moved by a quarter from pass to pass within one
// run, so it is printed per pass but not bounded. setup_s is the
// calibrated CPU seconds of set-up.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"suite_cpu_s", "s"},
	{"jobs_per_cpu_s", "1/s"},
	{"job_cpu_p50_us", "us"},
	{"job_cpu_p90_us", "us"},
	{"energy_mj_per_job", "mJ"},
	{"peak_rss_mb", "MB"},
}

// layerMetric is one per-layer metric: its name and unit, and the
// end-to-end metric and workload a change to that layer should move.
type layerMetric struct{ Name, Unit, Moves string }

// perLayer are the traced run's per-layer metrics, named
// "<layer>.<quantity>". A layer a workload leaves idle reports 0.
var perLayer = []layerMetric{
	{"rtl.full_sim_us.p50", "us", "jobs_per_cpu_s, job_cpu_p50_us on serve-frames"},
	{"rtl.full_sim_us.p99", "us", "job_cpu_p90_us on serve-frames"},
	{"rtl.slice_sim_us.p50", "us", "jobs_per_cpu_s, job_cpu_p50_us on serve-frames"},
	{"rtl.slice_sim_us.p99", "us", "job_cpu_p90_us on serve-frames"},
	{"rtl.ns_per_cycle", "ns", "suite_cpu_s on offline-cold"},
	{"rtl.native_fallbacks", "count", "suite_cpu_s on offline-cold (a fallback costs the native speed-up)"},
	{"core.analyze_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.lint_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.instrument_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.bounds_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.prune_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.train_sim_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.slice_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.train_residual_s", "s", "suite_cpu_s on offline-cold; setup_s on serve-frames, fleet-drift"},
	{"core.collect_traces_s", "s", "suite_cpu_s on offline-cold"},
	{"core.jobs_simulated", "count", "suite_cpu_s on offline-cold (0 on offline-replay)"},
	{"core.predict_us.p50", "us", "job_cpu_p50_us on serve-frames (expected negligible)"},
	{"model.fit_s", "s", "suite_cpu_s on offline-replay"},
	{"model.refit_s", "s", "job_cpu_p90_us on fleet-drift"},
	{"tracecache.get_s", "s", "suite_cpu_s on offline-replay"},
	{"tracecache.hits", "count", "suite_cpu_s on offline-replay"},
	{"tracecache.misses", "count", "suite_cpu_s on offline-replay"},
	{"tracecache.bytes", "bytes", "suite_cpu_s on offline-replay"},
	{"exp.warm_s", "s", "suite_cpu_s on offline-cold, offline-replay"},
	{"exp.replay_s", "s", "suite_cpu_s on offline-replay"},
	{"sim.step_us.p50", "us", "job_cpu_p50_us on serve-frames"},
	{"sim.step_us.p99", "us", "job_cpu_p90_us on serve-frames"},
	{"serve.degraded", "count", "degraded_pct on serve-frames, fleet-drift"},
	{"serve.shed", "count", "failed_pct on serve-frames"},
	{"serve.errors", "count", "failed_pct on serve-frames, fleet-drift"},
	{"serve.switches", "count", "energy_mj_per_job on serve-frames, fleet-drift"},
	{"serve.bound_clamps", "count", "energy_mj_per_job on serve-frames, fleet-drift"},
	{"cluster.submit_us.p50", "us", "jobs_per_cpu_s on fleet-drift"},
	{"cluster.submit_us.p99", "us", "job_cpu_p90_us on fleet-drift"},
	{"cluster.place_us.p50", "us", "jobs_per_cpu_s on fleet-drift"},
	{"cluster.place_us.p99", "us", "job_cpu_p90_us on fleet-drift"},
	{"cluster.shed", "count", "failed_pct on fleet-drift"},
	{"online.observe_us.p50", "us", "job_cpu_p50_us on fleet-drift"},
	{"online.observe_us.p99", "us", "job_cpu_p90_us on fleet-drift"},
	{"online.drift_events", "count", "energy_mj_per_job on fleet-drift"},
	{"online.retrains", "count", "job_cpu_p90_us on fleet-drift"},
	{"online.promotions", "count", "energy_mj_per_job on fleet-drift"},
	{"online.canary_rejects", "count", "energy_mj_per_job on fleet-drift"},
	{"trace.overhead_pct", "%", "none: traced minus untraced pass time, over untraced"},
	{"trace.spans", "count", "none: spans recorded in the traced run"},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"offline-cold", "offline-replay", "serve-frames", "fleet-drift"}

// Set-up repetition: a run sets its workload up at least setupReps
// times and reports the median as setup_s; a cheap set-up repeats until
// minSetupTotal has been spent (at most maxSetupReps times), so its
// median rests on enough repetitions, and its calibration on enough
// reference rounds (one per samplePeriod), to be steady.
const (
	setupReps     = 3
	maxSetupReps  = 10000
	minSetupTotal = time.Second
)

// passLog is what measurePasses records of each pass: whether it was
// traced, its peak RSS in MiB, and the factor that converts its CPU
// time into calibrated time (see scale).
type passLog struct {
	traced []bool
	peaks  []float64
	scales []float64
}

// measurePasses calls pass until --seconds is spent, and at least
// minPasses times. In the traced run every second pass records spans
// into tr, so traced and untraced passes interleave and their times give
// the tracing overhead (see overheadPct). Each pass starts from a
// collected heap, as a fresh process would, with the resident-set
// high-water mark reset, so the peak it leaves is that pass's own.
func measurePasses(cfg runConfig, tr *tracer, pass func(pt *tracer) error) (*passLog, error) {
	log := &passLog{}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		var pt *tracer
		if i%2 == 1 {
			pt = tr
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := pass(pt); err != nil {
			return nil, err
		}
		log.scales = append(log.scales, scale(t0, time.Now()))
		log.peaks = append(log.peaks, peakRSSMB())
		log.traced = append(log.traced, pt != nil)
	}
	return log, nil
}

// overheadPct is how much more CPU time, in percent, the median traced
// pass took than the median untraced one.
func overheadPct(times []float64, traced []bool) float64 {
	var on, off []float64
	for i, t := range times {
		if traced[i] {
			on = append(on, t)
		} else {
			off = append(off, t)
		}
	}
	return 100 * (median(on) - median(off)) / median(off)
}

// repeatSetup runs once per the rule above and returns the calibrated
// CPU seconds of each run; the last set-up is the one the run measures.
func repeatSetup(once func() error) ([]float64, error) {
	var out []float64
	var total time.Duration
	for len(out) < setupReps || (total < minSetupTotal && len(out) < maxSetupReps) {
		w0, t0 := time.Now(), workCPU()
		if err := once(); err != nil {
			return nil, err
		}
		d := workCPU() - t0
		total += d
		out = append(out, d.Seconds()*scale(w0, time.Now()))
	}
	return out, nil
}

// minPasses is the fewest measured passes a run makes, whatever
// --seconds says: the virtual-time outcome of every pass must match
// the first, so one pass would check nothing.
const minPasses = 2

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are report lines printed before the JSON line: sample
	// counts and the virtual-time outcomes that are gated rather than
	// bounded.
	notes []string
	// gateErrs lists failed correctness gates; any entry fails the run.
	gateErrs []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	}
}

type errUnknownWorkload string

func (e errUnknownWorkload) Error() string { return fmt.Sprintf("unknown workload %q", string(e)) }

func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case "offline-cold":
		return runOffline(cfg, false)
	case "offline-replay":
		return runOffline(cfg, true)
	case "serve-frames":
		return runFrames(cfg)
	case "fleet-drift":
		return runFleet(cfg)
	}
	return nil, errUnknownWorkload(cfg.workload)
}

func main() {
	name := flag.String("workload", "", "workload: offline-cold, offline-replay, serve-frames, fleet-drift")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch caches")
	record := flag.String("record", "", "write the recorded outputs the correctness gates compare against to this file and exit")
	flag.Parse()

	if err := checkEnv(); err != nil {
		fail(err)
	}
	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fail(err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}

	simBefore, batchBefore, fallBefore := core.SimulatedJobs(), core.BatchedJobs(), rtl.NativeFallbacks()
	speed = startMeter()
	res, err := runWorkload(cfg)
	speed.close()
	if err != nil {
		fail(err)
	}
	if cfg.trace {
		res.metrics["rtl.native_fallbacks"] = float64(rtl.NativeFallbacks() - fallBefore)
	}
	env := fmt.Sprintf("env: GOMAXPROCS=%d nproc=%d go=%s engine=%s workers=%d simulated_jobs=%d batched_jobs=%d native_fallbacks=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rtl.DefaultEngine(), core.Workers(),
		core.SimulatedJobs()-simBefore, core.BatchedJobs()-batchBefore, rtl.NativeFallbacks()-fallBefore)

	declared := endToEnd
	if cfg.trace {
		declared = nil
		for _, m := range perLayer {
			declared = append(declared, metric{m.Name, m.Unit})
		}
	}
	out := map[string]any{}
	for _, m := range declared {
		v, ok := res.metrics[m.Name]
		if !ok {
			fail(fmt.Errorf("workload %s did not report %s", cfg.workload, m.Name))
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	correct := len(res.gateErrs) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *traceFlag)
	fmt.Println(env)
	n, med, lo, hi := speed.sampleStats()
	fmt.Printf("calibration: %d reference rounds, median %v, min %v, max %v; nominal %v\n", n, med, lo, hi, refNominal)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, g := range res.gateErrs {
		fmt.Println("GATE FAILED:", g)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// checkEnv pins the measured configuration. An inherited trace-cache
// directory would silently turn offline-cold into a replay, and an
// inherited engine would measure a non-default configuration; rtl reads
// REPRO_ENGINE when the process starts, so it must be unset before.
func checkEnv() error {
	for _, v := range []string{"REPRO_CACHE_DIR", "REPRO_ENGINE"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; measured runs use the default configuration, unset it", v)
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
