package main

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/accel"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/online"
	"repro/internal/serve"
)

// passer is a serving workload's trained state: it serves one pass of
// the streams on fresh shards or pools.
type passer interface {
	pass(streams []stream, tr *tracer) (*servePass, error)
}

// servingRun is the part of a serving run both workloads share: set-up
// repeated (see repeatSetup), measured passes until --seconds is spent,
// the end-to-end metrics and the correctness gates.
type servingRun struct {
	env    passer
	passes []*servePass
	log    *passLog
	tr     *tracer
}

func measureServing(cfg runConfig, res *result, streams []stream, setup func() (passer, error)) (*servingRun, error) {
	run := &servingRun{}
	setups, err := repeatSetup(func() error {
		env, err := setup()
		run.env = env
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		run.tr = newTracer()
	}
	run.log, err = measurePasses(cfg, run.tr, func(pt *tracer) error {
		sim0 := core.SimulatedJobs()
		p, err := run.env.pass(streams, pt)
		if err != nil {
			return err
		}
		p.simJobs = core.SimulatedJobs() - sim0
		run.passes = append(run.passes, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var walls, cpus, rates, p50s, p90s, p99s []float64
	for i, p := range run.passes {
		d, k := p.drive, run.log.scales[i]
		walls = append(walls, d.wall.Seconds())
		cpus = append(cpus, d.cpu.Seconds()*k)
		rates = append(rates, float64(p.virt.Done)/(d.cpu.Seconds()*k))
		us := scaled(durationsUS(d.latencies), k)
		p50s = append(p50s, quantile(us, 0.50))
		p90s = append(p90s, quantile(us, 0.90))

		p99s = append(p99s, quantile(us, 0.99))
		res.attempted += d.attempted
		res.failed += d.refused + d.errored
	}
	first := run.passes[0]
	v := first.virt
	res.metrics["setup_s"] = median(setups)
	res.metrics["suite_cpu_s"] = median(cpus)
	res.metrics["jobs_per_cpu_s"] = median(rates)
	res.metrics["job_cpu_p50_us"] = median(p50s)
	res.metrics["job_cpu_p90_us"] = median(p90s)
	res.metrics["energy_mj_per_job"] = v.Energy / float64(v.Done) * 1e3
	res.metrics["peak_rss_mb"] = median(run.log.peaks)
	d := first.drive
	res.note("samples: setups=%d passes=%d latencies_per_pass=%d (submit to Outcome in process CPU time, closed loop; job_cpu_p*_us are medians over passes of each pass's percentile)",
		len(setups), len(run.passes), len(d.latencies))
	res.note("samples: setup_s min=%.4g median=%.4g max=%.4g; pass_cpu_s (calibrated)=%.4g; pass_wall_s=%.4g; peak_rss_mb=%.4g",
		slices.Min(setups), median(setups), slices.Max(setups), cpus, walls, run.log.peaks)
	res.note("samples: job_cpu_p50_us per pass=%.4g; job_cpu_p90_us per pass=%.4g; 99th percentile per pass (not bounded)=%.4g", p50s, p90s, p99s)
	res.note("virtual: done=%d miss_pct=%.3f %% degraded_pct=%.3f %% failed_pct=%.3f %% shed=%d model_version=%d promotions=%d drift_events=%d retrains=%d canary_rejects=%d energy_j=%.6f",
		v.Done, pct(v.Misses, v.Done), pct(v.Degraded, v.Done), 100*float64(d.refused+d.errored)/float64(d.attempted),
		v.Shed, v.ModelVersion, v.Promotions, v.DriftEvents, v.Retrains, v.CanaryRejects, v.Energy)

	for _, line := range first.detail {
		res.note("virtual: %s", line)
	}
	want, recorded := loadExpected().Serving[cfg.workload][strconv.FormatInt(cfg.seed, 10)]
	if recorded {
		res.gate(v == want, "virtual outcome %+v, recorded for seed %d %+v", v, cfg.seed, want)
	} else {
		res.note("gate: no outcome recorded for seed %d; checked pass-to-pass equality and invariants only", cfg.seed)
	}
	for i, p := range run.passes {
		res.gate(p.virt == v, "pass %d virtual outcome %+v differs from pass 0 %+v", i, p.virt, v)
		for _, msg := range p.invariant {
			res.gate(false, "pass %d: %s", i, msg)
		}
		res.gate(p.errors == 0, "pass %d: %d Outcome errors", i, p.errors)
	}
	return run, nil
}

func pct(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// tracedLayerCounts sets the per-layer counts of the last traced pass
// and the tracing overhead.
func (run *servingRun) tracedLayerCounts(res *result) {
	var cpus []float64
	var last *servePass
	for i, p := range run.passes {
		cpus = append(cpus, p.drive.cpu.Seconds()*run.log.scales[i])
		if run.log.traced[i] {
			last = p
		}
	}
	res.metrics["trace.overhead_pct"] = overheadPct(cpus, run.log.traced)
	res.metrics["core.jobs_simulated"] = float64(last.simJobs)
	res.metrics["serve.degraded"] = float64(last.virt.Degraded)
	res.metrics["serve.errors"] = float64(last.errors)
	res.metrics["serve.switches"] = float64(last.virt.Switches)
	res.metrics["serve.bound_clamps"] = float64(last.boundClamps)
	res.metrics["online.drift_events"] = float64(last.virt.DriftEvents)
	res.metrics["online.retrains"] = float64(last.virt.Retrains)
	res.metrics["online.promotions"] = float64(last.virt.Promotions)
	res.metrics["online.canary_rejects"] = float64(last.virt.CanaryRejects)
}

// runFrames measures serve-frames.
func runFrames(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	streams := frameStreams(cfg.seed)
	run, err := measureServing(cfg, res, streams, func() (passer, error) { return setupFrames() })
	if err != nil || !cfg.trace {
		return res, err
	}
	run.tracedLayerCounts(res)
	res.metrics["serve.shed"] = float64(run.passes[len(run.passes)-1].virt.Shed)
	env := run.env.(*framesEnv)
	tr := run.tr
	var inputs []trainJob
	var ticks uint64
	for i, e := range env.entries {
		spec := e.Pred.Spec
		train := spec.TrainJobs(labSeed)
		inputs = append(inputs, trainJob{spec: spec, jobs: train, collect: [][]accel.Job{train, spec.TestJobs(labSeed + 1)}})
		n, err := jobProbe(tr, profileFor(e.Pred, e.Power, e.SlicePower), streams[i].Jobs[:servingProbeJobs])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		ticks += n
	}
	residual, err := trainProbe(tr, inputs, true)
	if err != nil {
		return nil, err
	}
	layerMetrics(res, tr, ticks, residual)
	return finishTrace(res, tr, cfg)
}

// servingProbeJobs is how many jobs of each stream the job probe times.
const servingProbeJobs = 60

// runFleet measures fleet-drift.
func runFleet(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	streams := driftStreams(cfg.seed)
	run, err := measureServing(cfg, res, streams, func() (passer, error) { return setupFleet() })
	if err != nil || !cfg.trace {
		return res, err
	}
	run.tracedLayerCounts(res)
	res.metrics["cluster.shed"] = float64(run.passes[len(run.passes)-1].virt.Shed)
	env := run.env.(*fleetEnv)
	tr := run.tr
	if _, err := env.resetModels(); err != nil {
		return nil, err
	}
	sub := durationsUS(tr.durations("cluster.submit"))
	res.metrics["cluster.submit_us.p50"] = quantile(sub, 0.50)
	res.metrics["cluster.submit_us.p99"] = quantile(sub, 0.99)
	res.note("samples: cluster.submit=%d", len(sub))

	var ticks uint64
	for i, prof := range env.profs {
		n, err := jobProbe(tr, prof, streams[i].Jobs[:servingProbeJobs])
		if err != nil {
			return nil, err
		}
		ticks += n
		if err := placeProbe(tr, streams[i], prof); err != nil {
			return nil, err
		}
	}
	place := durationsUS(tr.durations("cluster.place"))
	res.metrics["cluster.place_us.p50"] = quantile(place, 0.50)
	res.metrics["cluster.place_us.p99"] = quantile(place, 0.99)
	if err := observeProbe(tr, streams[0], env.profs[0]); err != nil {
		return nil, err
	}
	if _, err := env.resetModels(); err != nil {
		return nil, err
	}
	obs := durationsUS(tr.durations("online.observe"))
	res.metrics["online.observe_us.p50"] = quantile(obs, 0.50)
	res.metrics["online.observe_us.p99"] = quantile(obs, 0.99)
	res.metrics["model.refit_s"] = median(secondsOf(tr.durations("model.refit")))
	res.note("samples: cluster.place=%d online.observe=%d model.refit=%d", len(place), len(obs), len(tr.durations("model.refit")))

	h := env.preds[1].Spec
	train := h.TrainJobs(labSeed)
	residual, err := trainProbe(tr, []trainJob{
		{spec: env.preds[0].Spec, jobs: stencilTrainingJobs()},
		{spec: h, jobs: train, collect: [][]accel.Job{train, h.TestJobs(labSeed + 1)}},
	}, true)
	if err != nil {
		return nil, err
	}
	layerMetrics(res, tr, ticks, residual)
	return finishTrace(res, tr, cfg)
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// placeProbe times cluster.Pool.Submit of pre-simulated traces on a
// twin of the stream's pool (online learning off): the router's
// projection and placement without its prediction.
func placeProbe(tr *tracer, st stream, prof serve.Profile) error {
	js := prof.Pred.NewJobSimulator()
	traces := make([]core.JobTrace, len(st.Jobs))
	for i, job := range st.Jobs {
		t, err := js.Trace(job)
		if err != nil {
			return err
		}
		traces[i] = t
	}
	twin, err := cluster.NewPool(poolConfig(st.Name, prof, false))
	if err != nil {
		return err
	}
	defer twin.Close()
	for i := range traces {
		var serr error
		tr.timed("cluster.place", -1, int64(i), func() {
			serr = twin.Submit(cluster.Job{Arrival: st.Arrivals[i], Trace: &traces[i]})
		})
		if serr != nil && serr != cluster.ErrShed {
			return serr
		}
	}
	return nil
}

// observeProbe feeds the drift stream, job by job, through a private
// online trainer on the stream's predictor, timing each
// online.Trainer.Observe, and times model.FitWarm on a ring-sized
// snapshot at the end of every phase, warm-started from the offline β
// as the trainer's refit is.
func observeProbe(tr *tracer, st stream, prof serve.Profile) error {
	pred := prof.Pred
	trainer, err := online.NewTrainer(pred, prof.Stepper, prof.Deadline, onlineConfig)
	if err != nil {
		return err
	}
	defer trainer.Close()
	stepper, err := prof.Stepper()
	if err != nil {
		return err
	}
	js := pred.NewJobSimulator()
	traces := make([]core.JobTrace, len(st.Jobs))
	for i, job := range st.Jobs {
		t, err := js.Trace(job)
		if err != nil {
			return err
		}
		traces[i] = t
		jr := stepper.Step(t, prof.Deadline)
		tr.timed("online.observe", -1, int64(i), func() { trainer.Observe(t, jr.Missed) })
	}
	for _, ph := range st.Phases {
		lo := max(ph.Start, ph.End-onlineConfig.RingSize)
		X := make([][]float64, 0, ph.End-lo)
		y := make([]float64, 0, ph.End-lo)
		for _, t := range traces[lo:ph.End] {
			X = append(X, t.SliceFeatures)
			y = append(y, t.Seconds)
		}
		init := &model.Predictor{Coef: make([]float64, len(pred.Kept)), Intercept: pred.Model.Intercept}
		for i, k := range pred.Kept {
			init.Coef[i] = pred.Model.Coef[k]
		}
		tr.timed("model.refit", -1, -1, func() { _, err = model.FitWarm(X, y, model.DefaultConfig(), init) })
		if err != nil {
			return err
		}
	}
	return nil
}
