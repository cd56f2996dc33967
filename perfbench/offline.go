package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/tracecache"
)

// offlinePass is one run of dvfsim's flow: exp.Lab.Warm, then every
// experiment table.
type offlinePass struct {
	// suite and warm are wall times; cpu is the pass's CPU time.
	suite, warm, cpu time.Duration
	// tables holds each exp.Run's wall duration; ready, each table's
	// completion in CPU time from the start of the pass — when dvfsim
	// would print it, all 20 having been asked for at invocation.
	tables, ready []time.Duration
	digest        string
	simJobs       uint64
	cache         tracecache.Stats
	// lab is the pass's lab; measured runs keep only the first pass's,
	// so that labs do not pile up in memory pass after pass.
	lab *exp.Lab
}

// runOfflinePass runs dvfsim's flow on a fresh lab: Warm, then the 20
// experiments in paper order. The digest covers the rendered tables
// exactly as dvfsim prints them, minus its timing and job-count lines.
func runOfflinePass(tr *tracer) (*offlinePass, error) {
	p := &offlinePass{}
	sim0 := core.SimulatedJobs()
	cache0 := cacheStats()
	h := sha256.New()
	start, cpu0 := time.Now(), workCPU()
	root := tr.begin("exp.suite", -1, -1)
	lab := exp.NewLab(labSeed)
	w := tr.begin("exp.warm", root, -1)
	err := lab.Warm()
	tr.end(w)
	p.warm = time.Since(start)
	if err != nil {
		return nil, err
	}
	for _, id := range exp.ExperimentIDs {
		t0 := time.Now()
		s := tr.begin("exp.run", root, -1)
		t, err := exp.Run(lab, id)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		p.tables = append(p.tables, time.Since(t0))
		p.ready = append(p.ready, workCPU()-cpu0)
		fmt.Fprintln(h, t.Render())
	}
	tr.end(root)
	p.suite = time.Since(start)
	p.cpu = workCPU() - cpu0
	p.simJobs = core.SimulatedJobs() - sim0
	cache1 := cacheStats()
	p.cache = tracecache.Stats{Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses}
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.lab = lab
	return p, nil
}

func cacheStats() tracecache.Stats {
	if c := core.TraceCache(); c != nil {
		return c.Stats()
	}
	return tracecache.Stats{}
}

// runOffline measures offline-cold (trace cache off: every job is
// simulated) or offline-replay (every trace is decoded from a cache
// primed during set-up).
func runOffline(cfg runConfig, replay bool) (*result, error) {
	res := &result{metrics: map[string]float64{}}

	// Set-up. Replay primes a fresh trace cache with a whole suite (some
	// experiments train and collect beyond what Warm does); cold
	// elaborates every benchmark netlist and builds its default-engine
	// simulator, the first thing any offline flow does.
	core.SetTraceCache(nil)
	var dirs []string
	setups, err := repeatSetup(func() error {
		if !replay {
			for _, spec := range suite.All() {
				rtl.NewSim(spec.Build())
			}
			return nil
		}
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("cache-%d", len(dirs)))
		dirs = append(dirs, dir)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		c, err := tracecache.Open(dir)
		if err != nil {
			return err
		}
		core.SetTraceCache(c)
		defer core.SetTraceCache(nil)
		_, err = runOfflinePass(nil)
		return err
	})
	for _, dir := range dirs {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	if replay {
		c, err := tracecache.Open(dirs[len(dirs)-1])
		if err != nil {
			return nil, err
		}
		core.SetTraceCache(c)
		defer core.SetTraceCache(nil)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var passes []*offlinePass
	log, err := measurePasses(cfg, tr, func(pt *tracer) error {
		p, err := runOfflinePass(pt)
		if err != nil {
			return err
		}
		if len(passes) > 0 {
			p.lab = nil
		}
		passes = append(passes, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.attempted = len(passes) * len(exp.ExperimentIDs)

	// End-to-end metrics.
	first := passes[0]
	var walls, cpus, rates, p50s, p90s []float64
	jobs := labJobs(first.lab)
	for i, p := range passes {
		k := log.scales[i]
		walls = append(walls, p.suite.Seconds())
		cpus = append(cpus, p.cpu.Seconds()*k)
		rates = append(rates, float64(jobs)/(p.cpu.Seconds()*k))
		us := scaled(durationsUS(p.ready), k)
		p50s = append(p50s, quantile(us, 0.50))
		p90s = append(p90s, quantile(us, 0.90))
	}
	energy, energyJobs, err := predictiveEnergy(first.lab)
	if err != nil {
		return nil, err
	}
	fig11, err := expFigure11(first)
	if err != nil {
		return nil, err
	}
	norm, miss := fig11[0], fig11[1]
	res.metrics["setup_s"] = median(setups)
	res.metrics["suite_cpu_s"] = median(cpus)
	res.metrics["jobs_per_cpu_s"] = median(rates)
	res.metrics["job_cpu_p50_us"] = median(p50s)
	res.metrics["job_cpu_p90_us"] = median(p90s)
	res.metrics["energy_mj_per_job"] = energy / float64(energyJobs) * 1e3
	res.metrics["peak_rss_mb"] = median(log.peaks)
	res.note("samples: setup_s min=%.4g median=%.4g max=%.4g; pass_cpu_s (calibrated)=%.4g; pass_wall_s=%.4g; peak_rss_mb=%.4g",
		slices.Min(setups), median(setups), slices.Max(setups), cpus, walls, log.peaks)
	res.note("samples: setups=%d passes=%d tables_per_pass=%d (job_cpu_p*_us: pass start to table ready, medians over passes of each pass's percentile) lab_jobs=%d",
		len(setups), len(passes), len(exp.ExperimentIDs), jobs)
	res.note("virtual: miss_pct=%.1f %% energy_savings_pct=%.1f %% (fig11 prediction averages) failed_pct=0 %% energy_mj_per_job over %d test jobs", miss, 100-norm, energyJobs)

	// Correctness gates.
	want := loadExpected()
	for i, p := range passes {
		res.gate(p.digest == want.OfflineDigest, "pass %d: tables digest %s, recorded %s", i, p.digest, want.OfflineDigest)
		if replay {
			res.gate(p.simJobs == 0, "pass %d: replay simulated %d jobs; the primed cache must serve every trace", i, p.simJobs)
			res.gate(p.cache.Misses == 0 && p.cache.Hits > 0, "pass %d: trace cache hits=%d misses=%d", i, p.cache.Hits, p.cache.Misses)
		} else {
			res.gate(p.simJobs > 0 && p.simJobs == first.simJobs, "pass %d: simulated %d jobs, first pass %d", i, p.simJobs, first.simJobs)
		}
	}
	res.gate(fmt.Sprintf("%.1f", norm) == want.Fig11Energy, "fig11 prediction energy %.1f, recorded %s", norm, want.Fig11Energy)
	res.gate(fmt.Sprintf("%.1f", miss) == want.Fig11Miss, "fig11 prediction misses %.1f%%, recorded %s%%", miss, want.Fig11Miss)

	if !cfg.trace {
		return res, nil
	}

	// Per-layer metrics from the traced passes and the probes.
	var warms, replays []float64
	var last *offlinePass
	for i, p := range passes {
		if log.traced[i] {
			warms = append(warms, p.warm.Seconds())
			replays = append(replays, sum(durationsUS(p.tables))/1e6)
			last = p
		}
	}
	res.metrics["exp.warm_s"] = median(warms)
	res.metrics["exp.replay_s"] = median(replays)
	res.metrics["core.jobs_simulated"] = float64(last.simJobs)
	res.metrics["tracecache.hits"] = float64(last.cache.Hits)
	res.metrics["tracecache.misses"] = float64(last.cache.Misses)
	res.metrics["trace.overhead_pct"] = overheadPct(cpus, log.traced)
	var inputs []trainJob
	for _, spec := range suite.All() {
		train := spec.TrainJobs(labSeed)
		inputs = append(inputs, trainJob{spec: spec, jobs: train, collect: [][]accel.Job{train, spec.TestJobs(labSeed + 1)}})
	}
	residual, err := trainProbe(tr, inputs, !replay)
	if err != nil {
		return nil, err
	}
	var ticks uint64
	for _, spec := range suite.All() {
		e, err := first.lab.Entry(spec.Name)
		if err != nil {
			return nil, err
		}
		test := spec.TestJobs(labSeed + 1)
		n, err := jobProbe(tr, profileFor(e.Pred, e.Power, e.SlicePower), test[:min(len(test), offlineProbeJobs)])
		if err != nil {
			return nil, err
		}
		ticks += n
	}
	if replay {
		c := core.TraceCache()
		if err := cacheProbe(tr, c); err != nil {
			return nil, err
		}
		res.metrics["tracecache.get_s"] = tr.totalSeconds("tracecache.get")
		res.metrics["tracecache.bytes"] = dirBytes(c.Dir())
	}
	layerMetrics(res, tr, ticks, residual)
	return finishTrace(res, tr, cfg)
}

// expFigure11 returns the Figure 11 prediction-scheme averages of a
// pass's lab: normalized energy and deadline misses, both in percent.
func expFigure11(p *offlinePass) ([2]float64, error) {
	r, err := exp.Figure11(p.lab)
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{r.AvgNormalized["prediction"], 100 * r.AvgMiss["prediction"]}, nil
}

// offlineProbeJobs is how many test jobs per benchmark the offline job
// probe times.
const offlineProbeJobs = 40

// labJobs counts the training and test jobs the lab's Warm turns into
// traces (simulated cold, decoded on replay).
func labJobs(lab *exp.Lab) int {
	n := 0
	for _, name := range lab.Names() {
		e, err := lab.Entry(name)
		if err == nil {
			n += len(e.Train) + len(e.Test)
		}
	}
	return n
}

// predictiveEnergy replays every benchmark's test traces under the
// prediction scheme of Figure 11 and returns the total energy in
// joules and the job count.
func predictiveEnergy(lab *exp.Lab) (float64, int, error) {
	total, jobs := 0.0, 0
	for _, name := range lab.Names() {
		e, err := lab.Entry(name)
		if err != nil {
			return 0, 0, err
		}
		r, err := sim.Run(e.Test, sim.Config{
			Device:     dvfs.ASIC(e.Pred.Spec.NominalHz, false),
			Power:      e.Power,
			SlicePower: e.SlicePower,
			Deadline:   exp.Deadline,
			Controller: control.NewPredictive(exp.PredictiveMargin, false),
		})
		if err != nil {
			return 0, 0, err
		}
		total += r.Energy
		jobs += r.Jobs
	}
	return total, jobs, nil
}

// cacheProbe decodes every cache entry through tracecache.Get, one
// span per entry, into the payload types core stores: trace sets and
// training matrices. It fails unless every file of the cache directory
// decodes as an entry, so a change of the cache's layout cannot leave
// tracecache.get_s silently measuring nothing.
func cacheProbe(tr *tracer, c *tracecache.Cache) error {
	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		return err
	}
	files, decoded := 0, 0
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		files++
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		var out cachedEntry
		var hit bool
		tr.timed("tracecache.get", -1, -1, func() { hit = c.Get(key, &out) })
		if !hit {
			return fmt.Errorf("tracecache: entry %s did not decode", key)
		}
		decoded++
	}
	if decoded == 0 || decoded < files {
		return fmt.Errorf("tracecache: decoded %d entries of the %d files in %s", decoded, files, c.Dir())
	}
	return nil
}

// cachedEntry decodes either payload core stores: a JSON array of
// traces (CollectTraces) or an object of training matrices (Train).
type cachedEntry struct {
	traces []core.JobTrace
	train  struct {
		X [][]float64
		Y []float64
	}
}

func (c *cachedEntry) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		return json.Unmarshal(b, &c.traces)
	}
	return json.Unmarshal(b, &c.train)
}
