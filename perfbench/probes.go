package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/slice"
)

// The probes run only in the traced pass. They call each layer's
// public functions on the workload's own inputs and record a span
// around every call; program internals stay untraced.

// trainStages are the spans a training probe records for one
// benchmark, in core.Train's order; core.train_residual_s is core.Train
// minus their sum.
var trainStages = []string{
	"core.analyze", "core.lint", "core.instrument", "core.bounds",
	"core.prune", "core.train_sim", "model.fit", "core.slice",
}

// trainJob is one benchmark's training input.
type trainJob struct {
	spec accel.Spec
	jobs []accel.Job
	// collect lists the job sets whose traces the workload's real flow
	// collects after training (exp.Lab collects train and test).
	collect [][]accel.Job
}

// trainProbe re-runs core.Train's stages one public call at a time,
// then core.Train itself and any trace collection, per benchmark. With
// simulate false the training simulation is the trace cache's job (the
// replay workload): its features are still computed, untimed, to feed
// the fit, and core.train_sim records nothing. The staged copy must fit
// the same model core.Train returns (same coefficients, intercept and
// kept features), or the probe fails: its stage times would no longer
// describe core.Train.
func trainProbe(tr *tracer, inputs []trainJob, simulate bool) (residual float64, err error) {
	for _, in := range inputs {
		root := tr.begin("core.train_probe", -1, -1)
		stages, fit, kept, err := stageProbe(tr, root, in.spec, in.jobs, simulate)
		if err != nil {
			return 0, err
		}
		var pred *core.Predictor
		d := tr.timed("core.train", root, -1, func() {
			pred, err = core.Train(in.spec, core.Options{Seed: labSeed, TrainJobs: in.jobs})
		})
		if err != nil {
			return 0, err
		}
		if !slices.Equal(fit.Coef, pred.Model.Coef) || fit.Intercept != pred.Model.Intercept || !slices.Equal(kept, pred.Kept) {
			return 0, fmt.Errorf("%s: the staged training probe fit coef %v intercept %v kept %v; core.Train fit coef %v intercept %v kept %v",
				in.spec.Name, fit.Coef, fit.Intercept, kept, pred.Model.Coef, pred.Model.Intercept, pred.Kept)
		}
		residual += d.Seconds() - stages
		for _, jobs := range in.collect {
			tr.timed("core.collect_traces", root, -1, func() {
				_, err = pred.CollectTraces(jobs)
			})
			if err != nil {
				return 0, err
			}
		}
		tr.end(root)
	}
	return residual, nil
}

// stageProbe runs one benchmark's training stages and returns the
// summed duration of the stage spans, in seconds, with the fitted model
// and its kept features.
func stageProbe(tr *tracer, parent int, spec accel.Spec, jobs []accel.Job, simulate bool) (float64, *model.Predictor, []int, error) {
	total := 0.0
	stage := func(name string, f func()) {
		total += tr.timed(name, parent, -1, f).Seconds()
	}
	m := spec.Build()
	var a *analyze.Analysis
	stage("core.analyze", func() { a = analyze.Analyze(m) })
	var rep *lint.Report
	stage("core.lint", func() { rep = lint.RunAnalyzed(m, a, lint.Config{}) })
	if rep.HasErrors() {
		return 0, nil, nil, fmt.Errorf("%s: lint: %w", spec.Name, rep.Err())
	}
	var ins *instrument.Instrumented
	var err error
	stage("core.instrument", func() { ins, err = instrument.WithAnalysis(m, a) })
	if err != nil {
		return 0, nil, nil, err
	}
	stage("core.bounds", func() { absint.Bounds(ins.M) })
	fullM := ins.M
	featRegs := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		featRegs[i] = f.Witness
	}
	if core.PruningEnabled() {
		var regMap map[int]int
		stage("core.prune", func() { fullM, regMap = absint.Prune(ins.M, featRegs) })
		for i, ri := range featRegs {
			featRegs[i] = regMap[ri]
		}
	}
	var X [][]float64
	var y []float64
	collect := func() { X, y, err = simulateFeatures(spec, fullM, featRegs, jobs) }
	if simulate {
		stage("core.train_sim", collect)
	} else {
		collect()
	}
	if err != nil {
		return 0, nil, nil, err
	}
	var p *model.Predictor
	stage("model.fit", func() { p, _, err = model.SelectGamma(X, y, 0.25, model.DefaultConfig(), nil) })
	if err != nil {
		return 0, nil, nil, err
	}
	kept := p.NonZero()
	if len(kept) == 0 {
		kept = []int{0}
	}
	so := slice.DefaultOptions()
	so.Prune = core.PruningEnabled()
	stage("core.slice", func() { _, err = slice.Slice(ins, kept, so) })
	return total, p, kept, err
}

// simulateFeatures runs the training jobs on the (pruned) instrumented
// design with core.Workers() goroutines taking jobs in index order, as
// core.Train does, and
// returns the feature matrix and execution seconds.
func simulateFeatures(spec accel.Spec, m *rtl.Module, featRegs []int, jobs []accel.Job) ([][]float64, []float64, error) {
	X := make([][]float64, len(jobs))
	y := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	base := rtl.NewSim(m)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(core.Workers(), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := base.Clone()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				ticks, err := accel.RunJob(s, jobs[i], spec.MaxTicks)
				if err != nil {
					errs[i] = err
					continue
				}
				row := make([]float64, len(featRegs))
				for f, ri := range featRegs {
					row[f] = float64(s.RegValue(ri))
				}
				X[i], y[i] = row, spec.Seconds(ticks)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return X, y, nil
}

// jobProbe times each job through the serving path's layers, one
// public call at a time: the full-design simulation
// (JobSimulator.Execute), the slice simulation (accel.RunJob on a
// simulator of the predictor's slice), the model evaluation and clamp,
// and one step of the profile's governor. It returns the summed
// full-design ticks for rtl.ns_per_cycle.
func jobProbe(tr *tracer, prof serve.Profile, jobs []accel.Job) (uint64, error) {
	pred := prof.Pred
	js := pred.NewJobSimulator()
	sliceSim := rtl.NewSim(pred.Slice.M)
	stepper, err := prof.Stepper()
	if err != nil {
		return 0, err
	}
	var ticks uint64
	for i, job := range jobs {
		var full core.JobTrace
		tr.timed("rtl.full_sim", -1, int64(i), func() { full, err = js.Execute(job) })
		if err != nil {
			return 0, err
		}
		ticks += full.Ticks
		tr.timed("rtl.slice_sim", -1, int64(i), func() { _, err = accel.RunJob(sliceSim, job, pred.Spec.MaxTicks) })
		if err != nil {
			return 0, err
		}
		feats := pred.Slice.ReadFeatures(sliceSim)
		tr.timed("core.predict", -1, int64(i), func() { pred.PredFromSliceOrFloor(feats) })
		trace, err := js.Trace(job)
		if err != nil {
			return 0, err
		}
		tr.timed("sim.step", -1, int64(i), func() { stepper.Step(trace, prof.Deadline) })
	}
	return ticks, nil
}

// layerMetrics fills the per-layer metrics derived from probe spans.
func layerMetrics(res *result, tr *tracer, fullTicks uint64, residual float64) {
	set := func(name string, v float64) { res.metrics[name] = v }
	pct := func(span, prefix string) {
		us := durationsUS(tr.durations(span))
		set(prefix+".p50", quantile(us, 0.50))
		set(prefix+".p99", quantile(us, 0.99))
		res.note("samples: %s=%d", span, len(us))
	}
	pct("rtl.full_sim", "rtl.full_sim_us")
	pct("rtl.slice_sim", "rtl.slice_sim_us")
	if fullTicks > 0 {
		set("rtl.ns_per_cycle", tr.totalSeconds("rtl.full_sim")*1e9/float64(fullTicks))
	} else {
		set("rtl.ns_per_cycle", 0)
	}
	set("core.predict_us.p50", quantile(durationsUS(tr.durations("core.predict")), 0.5))
	pct("sim.step", "sim.step_us")
	for _, s := range trainStages {
		if s == "model.fit" {
			set("model.fit_s", tr.totalSeconds(s))
			continue
		}
		set(s+"_s", tr.totalSeconds(s))
	}
	set("core.train_residual_s", residual)
	set("core.collect_traces_s", tr.totalSeconds("core.collect_traces"))
}

// zeroMetrics sets every per-layer metric a workload has not set to 0:
// the layer is idle on that workload.
func zeroMetrics(res *result) {
	for _, m := range perLayer {
		if _, ok := res.metrics[m.Name]; !ok {
			res.metrics[m.Name] = 0
		}
	}
}
