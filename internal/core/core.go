// Package core implements the paper's central contribution: an
// automated flow that, given an accelerator netlist and a training
// workload, produces an execution-time predictor consisting of
//
//  1. an instrumented design whose FSM/counter features are recorded in
//     witness registers (§3.2–§3.3),
//  2. a sparse linear model mapping features to execution time, trained
//     with the asymmetric Lasso objective (§3.4),
//  3. a hardware slice that computes exactly the model's selected
//     features in a fraction of the accelerator's time and area (§3.5).
//
// The Predictor produced here is what the DVFS controller of package
// control consults before each job (§3.6): run the slice on the job's
// input, evaluate the dot product, choose the lowest safe DVFS level.
//
// Everything is automatic: no stage receives benchmark-specific
// knowledge beyond the netlist and the job bytes.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/analyze"
	"repro/internal/instrument"
	"repro/internal/lint"
	"repro/internal/model"
	"repro/internal/rtl"

	// Register the pre-generated native simulators for the benchmark
	// suite: with this import, the default (native) engine resolves
	// suite netlists (full designs, pruned twins, predictor slices) to
	// specialized straight-line code in every flow built on core;
	// anything unregistered falls back to compiled, counted in
	// rtl.NativeFallbacks.
	_ "repro/internal/rtl/native"

	"repro/internal/slice"
)

// Options configures Train.
type Options struct {
	// Seed drives workload generation when TrainJobs is nil.
	Seed int64
	// TrainJobs overrides the spec's training workload.
	TrainJobs []accel.Job
	// Model holds solver hyper-parameters; zero value = defaults.
	Model model.Config
	// Gammas overrides the γ path for sparsity selection.
	Gammas []float64
	// Slice holds slicing options; zero value = DefaultOptions.
	Slice *slice.Options
	// SkipLint bypasses the pre-instrumentation lint gate (for
	// experiments on deliberately broken designs).
	SkipLint bool
}

// Predictor is a trained execution-time predictor for one accelerator.
type Predictor struct {
	// Spec is the accelerator this predictor was trained for.
	Spec accel.Spec
	// Ins is the instrumented full design (used for evaluation and for
	// collecting ground truth).
	Ins *instrument.Instrumented
	// Model maps full feature vectors to execution seconds at nominal
	// frequency.
	Model *model.Predictor
	// Gamma is the selected L1 weight.
	Gamma float64
	// Kept lists the feature indices with non-zero coefficients — the
	// features the hardware slice must compute.
	Kept []int
	// Slice is the generated hardware slice.
	Slice *slice.Result
	// TrainErr summarizes accuracy on the training set.
	TrainErr model.Errors
	// Bounds is the static cycles-to-done interval of the full
	// instrumented design, from abstract interpretation. Predictions are
	// clamped into it (a prediction outside the provable interval is
	// physically impossible), and every observed full-design run is
	// checked against it — an out-of-bounds trace means an engine or
	// analysis bug, and hard-errors. The zero value (Min 0, unbounded
	// Max) disables both, so hand-built predictors stay valid.
	Bounds absint.CycleBounds
	// SliceBounds is the same interval for the hardware slice; observed
	// slice runs are checked against it.
	SliceBounds absint.CycleBounds

	fullSim  *rtl.Sim
	sliceSim *rtl.Sim

	// boundClamps counts predictions pulled into Bounds (see
	// PredFromSliceOrFloor); exposed in serving metrics.
	boundClamps atomic.Uint64

	// live is the serving model: nil means Model (version 0, the
	// offline-trained β); after a SwapModel it points at the promoted
	// refit. An atomic pointer so the serving hot path never takes a
	// lock and a swap is one word store (see SwapModel).
	live atomic.Pointer[liveModel]

	// fullM is the module the full-design simulators actually run: the
	// instrumented design, or its absint-pruned twin when pruning is
	// enabled (see SetPruning). fullFeatRegs maps each feature index to
	// its witness register index in fullM; both default to the
	// instrumented design when unset.
	fullM        *rtl.Module
	fullFeatRegs []int

	// Batch-engine state, built lazily on first batched fan-out: the
	// plans are immutable and shared by every chunk's BatchSim; hints
	// carry the analyzer's FSM classification so the instrumented
	// design's control plane is bit-sliced (the slice's own plan
	// self-detects — its FSM survives slicing but the reg indices do
	// not).
	batchOnce           sync.Once
	batchHints          *rtl.BatchHints
	fullPlan, slicePlan *rtl.BatchPlan
}

// batchPlans returns (building on first use) the batch-simulation plans
// for the instrumented design and the slice.
func (p *Predictor) batchPlans() (full, sl *rtl.BatchPlan) {
	p.batchOnce.Do(func() {
		m := p.fullM
		if m == nil {
			m = p.Ins.M
		}
		p.fullPlan = rtl.PlanBatch(m, p.batchHints)
		p.slicePlan = rtl.PlanBatch(p.Slice.M, nil)
	})
	return p.fullPlan, p.slicePlan
}

// Train runs the full offline flow of Figure 6 for one accelerator.
func Train(spec accel.Spec, opt Options) (*Predictor, error) {
	p, _, err := train(spec, opt)
	return p, err
}

// TrainWithTraces runs Train and also returns the training jobs'
// traces, equal to what CollectTraces of those jobs returns on the
// trained predictor, without simulating any training job's full design
// a second time: each trace is built from the tick count and feature
// row Train's own run produced, and only the slice runs. The trace step
// keeps CollectTraces' trace-cache key, fault keys, retries, bounds
// checks and fan-out. When Train's rows came from the trace cache there
// are no runs to reuse, and the traces come from CollectTraces.
func TrainWithTraces(spec accel.Spec, opt Options) (*Predictor, []JobTrace, error) {
	p, runs, err := train(spec, opt)
	if err != nil {
		return nil, nil, err
	}
	full := &runs
	if runs.ticks == nil {
		full = nil // the rows came from the trace cache: no runs to reuse
	}
	traces, err := p.collectTraces(runs.jobs, full)
	if err != nil {
		return nil, nil, err
	}
	return p, traces, nil
}

// trainRuns is what Train's simulation of the training set yields
// besides the model: the jobs, each job's full-design feature row and
// tick count. ticks is nil when X came from the trace cache.
type trainRuns struct {
	jobs  []accel.Job
	X     [][]float64
	ticks []uint64
}

func train(spec accel.Spec, opt Options) (*Predictor, trainRuns, error) {
	if err := spec.Validate(); err != nil {
		return nil, trainRuns{}, err
	}
	m := spec.Build()
	// Lint before instrumenting (which appends witness hardware in
	// place): error-severity findings are violations of obligations the
	// rest of the flow silently depends on — an unqualified counter load
	// or an escaping wait counter would corrupt features, not crash.
	// The structural analysis is shared with the instrumenter.
	a := analyze.Analyze(m)
	if !opt.SkipLint {
		if rep := lint.RunAnalyzed(m, a, lint.Config{}); rep.HasErrors() {
			return nil, trainRuns{}, fmt.Errorf("core: %s failed pre-train lint: %w", spec.Name, rep.Err())
		}
	}
	ins, err := instrument.WithAnalysis(m, a)
	if err != nil {
		return nil, trainRuns{}, fmt.Errorf("core: instrument %s: %w", spec.Name, err)
	}
	jobs := opt.TrainJobs
	if jobs == nil {
		jobs = spec.TrainJobs(opt.Seed)
	}
	if len(jobs) < 8 {
		return nil, trainRuns{}, fmt.Errorf("core: %s: %d training jobs is too few", spec.Name, len(jobs))
	}

	// RTL simulation of the training set: features + execution time.
	// The (X, y) pair is a pure function of the instrumented netlist,
	// the workload bytes, and the spec's tick constants, so it is
	// served from the persistent trace cache when one is installed.
	// On a miss, jobs are independent and fan out across worker
	// goroutines, each owning a private Sim clone; results land in
	// index-addressed slots and are identical to a serial run.
	// The full-design simulators run the pruned twin when pruning is
	// enabled: identical cycle-for-cycle on done and every witness
	// register, with proven-constant logic folded away and the datapath
	// feeding write-only memories dropped.
	fullM, featRegs, hints, err := bindFull(ins, analyze.BatchHints(a))
	if err != nil {
		return nil, trainRuns{}, err
	}
	// Static cycle bounds of the instrumented design double as a free
	// engine-bug tripwire: any observed run outside the provable
	// interval is a hard error, not a bad sample. (The bounds hold for
	// the pruned twin too — pruning is behavior-preserving.)
	bounds := absint.Bounds(ins.M)
	checkTicks := func(i int, ticks uint64) error {
		if !bounds.Contains(ticks) {
			return fmt.Errorf("core: %s train job %d: observed %d ticks outside static bounds %s — engine or analysis bug",
				spec.Name, i, ticks, bounds)
		}
		return nil
	}
	readFeats := func(s rtl.RegReader) []float64 {
		out := make([]float64, len(featRegs))
		for i, ri := range featRegs {
			out[i] = float64(s.RegValue(ri))
		}
		return out
	}
	sim := rtl.NewSim(fullM)
	var X [][]float64
	var y []float64
	var ticks []uint64
	var cacheKey string
	if c := TraceCache(); c != nil {
		cacheKey = trainKey(&spec, rtl.Fingerprint(ins.M), jobs)
		var art trainArtifact
		if c.Get(cacheKey, &art) && len(art.X) == len(jobs) && len(art.Y) == len(jobs) {
			X, y = art.X, art.Y
		}
	}
	if X == nil {
		simJobs.Add(uint64(len(jobs)))
		X = make([][]float64, len(jobs))
		y = make([]float64, len(jobs))
		ticks = make([]uint64, len(jobs))
		newState := func() *rtl.Sim { return sim.Clone() }
		runJob := func(s *rtl.Sim, i, attempt int) error {
			if err := FaultInjector().ErrN(FaultJob, fmt.Sprintf("train/%s/%d", spec.Name, i), attempt); err != nil {
				return fmt.Errorf("core: %s train job %d: %w", spec.Name, i, err)
			}
			t, err := accel.RunJob(s, jobs[i], spec.MaxTicks)
			if err != nil {
				return fmt.Errorf("core: %s train job %d: %w", spec.Name, i, err)
			}
			if err := checkTicks(i, t); err != nil {
				return err
			}
			X[i] = readFeats(s)
			y[i] = spec.Seconds(t)
			ticks[i] = t
			return nil
		}
		if rtl.DefaultEngine() == rtl.EngineBatch {
			// Batched fan-out: same-netlist jobs pack into lanes of one
			// BatchSim per chunk. Jobs with an attempt-0 injected fault are
			// excluded before lane packing and — like any lane that fails —
			// retried via runJob on a fresh scalar clone (sim is the
			// compiled fallback under the batch default engine).
			plan := rtl.PlanBatch(fullM, hints)
			err = runBatchedChunks(len(jobs), newState, runJob,
				func(lo, hi int) []error {
					errs := make([]error, hi-lo)
					packed := make([]int, 0, hi-lo)
					for i := lo; i < hi; i++ {
						if ferr := FaultInjector().ErrN(FaultJob, fmt.Sprintf("train/%s/%d", spec.Name, i), 0); ferr != nil {
							errs[i-lo] = fmt.Errorf("core: %s train job %d: %w", spec.Name, i, ferr)
							continue
						}
						packed = append(packed, i)
					}
					if len(packed) == 0 {
						return errs
					}
					batch := make([]accel.Job, len(packed))
					for l, i := range packed {
						batch[l] = jobs[i]
					}
					batchedJobs.Add(uint64(len(packed)))
					bs := plan.NewBatchSim(len(packed))
					lt, jerrs := accel.RunJobs(bs, batch, spec.MaxTicks)
					for l, i := range packed {
						if jerrs[l] != nil {
							errs[i-lo] = fmt.Errorf("core: %s train job %d: %w", spec.Name, i, jerrs[l])
							continue
						}
						if berr := checkTicks(i, lt[l]); berr != nil {
							errs[i-lo] = berr
							continue
						}
						X[i] = readFeats(bs.Lane(l))
						y[i] = spec.Seconds(lt[l])
						ticks[i] = lt[l]
					}
					return errs
				})
		} else {
			err = runParallel(len(jobs), newState, runJob)
		}
		if err != nil {
			return nil, trainRuns{}, err
		}
		if c := TraceCache(); c != nil {
			c.Put(cacheKey, trainArtifact{X: X, Y: y}) // best effort; tracked in Stats
		}
	}

	cfg := opt.Model
	if cfg.Alpha == 0 {
		cfg = model.DefaultConfig()
	}
	p, gamma, err := model.SelectGamma(X, y, 0.25, cfg, opt.Gammas)
	if err != nil {
		return nil, trainRuns{}, fmt.Errorf("core: %s: %w", spec.Name, err)
	}
	kept := p.NonZero()
	if len(kept) == 0 {
		// Constant-time accelerator: the model is its intercept. The
		// slice still needs one witness so the flow stays uniform; keep
		// the cheapest (first) feature.
		kept = []int{0}
	}

	so := slice.DefaultOptions()
	so.Prune = PruningEnabled()
	if opt.Slice != nil {
		so = *opt.Slice
	}
	sl, err := slice.Slice(ins, kept, so)
	if err != nil {
		return nil, trainRuns{}, fmt.Errorf("core: %s: %w", spec.Name, err)
	}

	pred := &Predictor{
		Spec:         spec,
		Ins:          ins,
		Model:        p,
		Gamma:        gamma,
		Kept:         kept,
		Slice:        sl,
		TrainErr:     model.Evaluate(p, X, y),
		Bounds:       bounds,
		SliceBounds:  absint.Bounds(sl.M),
		fullSim:      sim,
		sliceSim:     rtl.NewSim(sl.M),
		fullM:        fullM,
		fullFeatRegs: featRegs,
		batchHints:   hints,
	}
	return pred, trainRuns{jobs: jobs, X: X, ticks: ticks}, nil
}

// liveModel pairs a hot-swapped β with its monotonically increasing
// version so readers observe both atomically.
type liveModel struct {
	m       *model.Predictor
	version uint64
}

// LiveModel returns the model predictions are currently served from:
// the training-time Model until a SwapModel, the latest promoted refit
// after. Safe for concurrent use.
func (p *Predictor) LiveModel() *model.Predictor {
	if lm := p.live.Load(); lm != nil {
		return lm.m
	}
	return p.Model
}

// ModelVersion returns the live model's version: 0 for the offline
// training-time β, incremented once per promoted swap. Safe for
// concurrent use.
func (p *Predictor) ModelVersion() uint64 {
	if lm := p.live.Load(); lm != nil {
		return lm.version
	}
	return 0
}

// SwapModel atomically replaces the serving model with m and returns
// the new version. The model must be full-width (one coefficient per
// instrumented feature, like Model) and finite; the slice hardware is
// fixed, so a swapped model may only use the Kept features — any
// non-zero coefficient outside Kept is rejected, because the serving
// path would silently read garbage for features the slice never
// computes.
//
// Version assignment assumes one swapping owner (the online trainer);
// readers are fully concurrent-safe, but two goroutines swapping at
// once could mint the same version.
func (p *Predictor) SwapModel(m *model.Predictor) (uint64, error) {
	if m == nil {
		return 0, fmt.Errorf("core: %s: swap of nil model", p.Spec.Name)
	}
	if len(m.Coef) != len(p.Model.Coef) {
		return 0, fmt.Errorf("core: %s: swapped model has %d coefficients, predictor has %d",
			p.Spec.Name, len(m.Coef), len(p.Model.Coef))
	}
	if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
		return 0, fmt.Errorf("core: %s: swapped model has non-finite intercept", p.Spec.Name)
	}
	kept := make(map[int]bool, len(p.Kept))
	for _, k := range p.Kept {
		kept[k] = true
	}
	for j, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("core: %s: swapped model has non-finite coefficient at %d", p.Spec.Name, j)
		}
		if c != 0 && !kept[j] {
			return 0, fmt.Errorf("core: %s: swapped model uses feature %d outside the hardware slice", p.Spec.Name, j)
		}
	}
	version := p.ModelVersion() + 1
	p.live.Store(&liveModel{m: m, version: version})
	return version, nil
}

// PredictFromSlice evaluates the live model given the slice's feature
// values (aligned with Kept). This is the runtime dot product of §3.4.
func (p *Predictor) PredictFromSlice(sliceFeats []float64) float64 {
	return predictSlice(p.LiveModel(), p.Kept, sliceFeats)
}

func predictSlice(m *model.Predictor, kept []int, sliceFeats []float64) float64 {
	yhat := m.Intercept
	for i, k := range kept {
		yhat += m.Coef[k] * sliceFeats[i]
	}
	return yhat
}

// JobTrace records one test job's ground truth and predictor outputs.
// Controllers and experiments replay traces: cycle counts are
// frequency-independent (T = C/f, §3.6), so each job's RTL simulation
// runs once no matter how many schemes and deadlines are evaluated.
type JobTrace struct {
	// Ticks and Seconds are the full design's execution at nominal.
	Ticks   uint64
	Seconds float64
	// Cycles is Ticks scaled to hardware cycles.
	Cycles float64
	// PredSeconds is the slice-driven model prediction of Seconds.
	PredSeconds float64
	// SliceTicks and SliceSeconds are the slice's own execution time.
	SliceTicks   uint64
	SliceSeconds float64
	// SliceFeatures are the kept features' values (aligned with
	// Predictor.Kept); equal to the full design's values by the slicing
	// invariant.
	SliceFeatures []float64
	// Items is the job's work-item count, read as the largest counter
	// initialization count (IC) across all instrumented features — the
	// number of iterations any feature-computing loop must make. Used
	// by the HLS slicing extension's cost model (§4.5).
	Items float64
	// Class is the job's coarse parameter (for table-based control).
	Class string
}

// JobSimulator owns private simulator clones and turns individual jobs
// into JobTraces — the per-job, online analogue of CollectTraces. A
// JobSimulator is NOT safe for concurrent use; each goroutine (worker,
// serving shard) creates its own, which is cheap because the compiled
// programs and ROM images are shared read-only through Clone.
type JobSimulator struct {
	p           *Predictor
	full, slice *rtl.Sim
	stages      Stages
}

// Stages is the wall-clock split of a JobSimulator's last Trace or
// Execute call: the full-design run (Exec), the slice run (Slice), and
// the prediction from the slice's features — reading them, the model's
// dot product and the clamp (Predict). Execute runs no slice and
// predicts nothing, so it leaves those two zero. Wall-clock time never
// enters a JobTrace, so traces stay deterministic.
type Stages struct {
	Exec, Slice, Predict time.Duration
}

// Stages reports the stage times of the last Trace or Execute call.
func (js *JobSimulator) Stages() Stages { return js.stages }

// NewJobSimulator returns a simulator bound to this predictor with
// private clones of the instrumented design and the slice.
func (p *Predictor) NewJobSimulator() *JobSimulator {
	return &JobSimulator{p: p, full: p.fullSim.Clone(), slice: p.sliceSim.Clone()}
}

// SliceEngine and ExecEngine report the engines actually executing the
// slice and the full design. When the default engine is native but a
// netlist has no registered generated run function, they report the
// compiled fallback, making a silently stale registry observable (see
// rtl.NativeFallbacks).
func (js *JobSimulator) SliceEngine() rtl.Engine { return js.slice.Engine() }

// ExecEngine: see SliceEngine.
func (js *JobSimulator) ExecEngine() rtl.Engine { return js.full.Engine() }

// Trace runs one job on both the instrumented full design and the
// hardware slice, returning its complete trace (ground-truth cycles
// plus the slice-driven prediction).
func (js *JobSimulator) Trace(job accel.Job) (JobTrace, error) {
	simJobs.Add(1)
	p := js.p
	start := time.Now() //detlint:allow stage timing for metrics; never enters a trace
	ticks, err := accel.RunJob(js.full, job, p.Spec.MaxTicks)
	js.stages = Stages{Exec: time.Since(start)}
	if err != nil {
		return JobTrace{}, fmt.Errorf("core: %s job: %w", p.Spec.Name, err)
	}
	return js.traceSlice(job, ticks, p.readFullFeatures(js.full))
}

// traceSlice completes the trace of a job whose full-design run already
// finished with the given ticks and feature values: it runs the slice
// only.
func (js *JobSimulator) traceSlice(job accel.Job, ticks uint64, fullFeats []float64) (JobTrace, error) {
	simJobs.Add(1)
	p := js.p
	start := time.Now() //detlint:allow stage timing for metrics; never enters a trace
	sliceTicks, err := accel.RunJob(js.slice, job, p.Spec.MaxTicks)
	predStart := time.Now() //detlint:allow stage timing for metrics; never enters a trace
	js.stages.Slice = predStart.Sub(start)
	if err != nil {
		return JobTrace{}, fmt.Errorf("core: %s slice job: %w", p.Spec.Name, err)
	}
	if err := p.checkObserved(ticks, sliceTicks); err != nil {
		return JobTrace{}, err
	}
	tr := p.buildTrace(job, ticks, sliceTicks, fullFeats, p.Slice.ReadFeatures(js.slice))
	js.stages.Predict = time.Since(predStart)
	return tr, nil
}

// buildTrace assembles one JobTrace from a finished full-design run and
// a finished slice run, given as tick counts and feature values (the
// full design's in catalog order, the slice's aligned with Kept). Every
// collection path — scalar, batch lanes, or Train's own full-design
// runs — goes through it, so their traces are byte-identical by
// construction.
func (p *Predictor) buildTrace(job accel.Job, ticks, sliceTicks uint64, fullFeats, sliceFeats []float64) JobTrace {
	var items float64
	for fi, f := range p.Ins.Features {
		if f.Kind == instrument.IC && fullFeats[fi] > items {
			items = fullFeats[fi]
		}
	}
	return JobTrace{
		Items:         items,
		Ticks:         ticks,
		Seconds:       p.Spec.Seconds(ticks),
		Cycles:        p.Spec.Cycles(ticks),
		PredSeconds:   p.PredFromSliceOrFloor(sliceFeats),
		SliceTicks:    sliceTicks,
		SliceSeconds:  p.Spec.Seconds(sliceTicks),
		SliceFeatures: sliceFeats,
		Class:         job.Class,
	}
}

// readFullFeatures extracts the witness values from a full-design
// simulator in catalog order, going through the pruned register remap
// when the predictor simulates the pruned twin.
func (p *Predictor) readFullFeatures(s rtl.RegReader) []float64 {
	if p.fullFeatRegs == nil {
		return p.Ins.ReadFeatures(s)
	}
	out := make([]float64, len(p.fullFeatRegs))
	for i, ri := range p.fullFeatRegs {
		out[i] = float64(s.RegValue(ri))
	}
	return out
}

// Execute runs one job on the full design only, skipping the slice and
// the prediction — the serving layer's degraded path, where the job
// runs at maximum frequency and the predictor is bypassed entirely.
// Prediction fields are zero.
func (js *JobSimulator) Execute(job accel.Job) (JobTrace, error) {
	simJobs.Add(1)
	p := js.p
	start := time.Now() //detlint:allow stage timing for metrics; never enters a trace
	ticks, err := accel.RunJob(js.full, job, p.Spec.MaxTicks)
	js.stages = Stages{Exec: time.Since(start)}
	if err != nil {
		return JobTrace{}, fmt.Errorf("core: %s job: %w", p.Spec.Name, err)
	}
	if !p.Bounds.Contains(ticks) {
		return JobTrace{}, fmt.Errorf("core: %s: observed %d ticks outside static bounds %s — engine or analysis bug",
			p.Spec.Name, ticks, p.Bounds)
	}
	return JobTrace{
		Ticks:   ticks,
		Seconds: p.Spec.Seconds(ticks),
		Cycles:  p.Spec.Cycles(ticks),
		Class:   job.Class,
	}, nil
}

// CollectTraces runs each job on both the instrumented design and the
// slice, returning per-job traces. When a persistent cache is
// installed (SetTraceCache) the whole trace set is served from disk if
// the netlists, model, spec constants, and workload bytes all match a
// previous run. On a miss, jobs fan out across worker goroutines (see
// SetWorkers), each with a private JobSimulator; trace slots are
// index-addressed, so the result is byte-identical to a serial run.
func (p *Predictor) CollectTraces(jobs []accel.Job) ([]JobTrace, error) {
	return p.collectTraces(jobs, nil)
}

// collectTraces is CollectTraces; full, when non-nil, holds every job's
// finished full-design run (Train's), so only the slices run.
func (p *Predictor) collectTraces(jobs []accel.Job, full *trainRuns) ([]JobTrace, error) {
	var cacheKey string
	if c := TraceCache(); c != nil {
		cacheKey = traceKey(p, jobs)
		var cached []JobTrace
		if c.Get(cacheKey, &cached) && len(cached) == len(jobs) {
			return cached, nil
		}
	}
	traces := make([]JobTrace, len(jobs))
	runJob := func(js *JobSimulator, i, attempt int) error {
		if err := FaultInjector().ErrN(FaultJob, fmt.Sprintf("traces/%s/%d", p.Spec.Name, i), attempt); err != nil {
			return fmt.Errorf("core: job %d: %w", i, err)
		}
		var tr JobTrace
		var err error
		if full != nil {
			tr, err = js.traceSlice(jobs[i], full.ticks[i], full.X[i])
		} else {
			tr, err = js.Trace(jobs[i])
		}
		if err != nil {
			return fmt.Errorf("core: job %d: %w", i, err)
		}
		traces[i] = tr
		return nil
	}
	// With Train's runs in hand only the slices run, a few percent of
	// the full design's cost, so they stay on scalar clones under every
	// engine.
	var err error
	if full == nil && rtl.DefaultEngine() == rtl.EngineBatch {
		// Batched fan-out: each chunk runs the instrumented design and
		// the slice once for all its lanes. Fault injection happens per
		// job before lane packing (same keys and attempt numbers as the
		// scalar path); any failed job — injected, load error, stuck
		// lane — retries on a fresh scalar JobSimulator via runJob.
		err = runBatchedChunks(len(jobs), p.NewJobSimulator, runJob,
			func(lo, hi int) []error {
				errs := make([]error, hi-lo)
				packed := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					if ferr := FaultInjector().ErrN(FaultJob, fmt.Sprintf("traces/%s/%d", p.Spec.Name, i), 0); ferr != nil {
						errs[i-lo] = fmt.Errorf("core: job %d: %w", i, ferr)
						continue
					}
					packed = append(packed, i)
				}
				if len(packed) == 0 {
					return errs
				}
				batch := make([]accel.Job, len(packed))
				for l, i := range packed {
					batch[l] = jobs[i]
				}
				// The full design and the slice each run once per job,
				// mirroring JobSimulator.Trace's accounting.
				simJobs.Add(2 * uint64(len(packed)))
				batchedJobs.Add(2 * uint64(len(packed)))
				fullPlan, slicePlan := p.batchPlans()
				fbs := fullPlan.NewBatchSim(len(packed))
				ticks, ferrs := accel.RunJobs(fbs, batch, p.Spec.MaxTicks)
				sbs := slicePlan.NewBatchSim(len(packed))
				sliceTicks, serrs := accel.RunJobs(sbs, batch, p.Spec.MaxTicks)
				for l, i := range packed {
					if ferrs[l] != nil {
						errs[i-lo] = fmt.Errorf("core: job %d: core: %s job: %w", i, p.Spec.Name, ferrs[l])
						continue
					}
					if serrs[l] != nil {
						errs[i-lo] = fmt.Errorf("core: job %d: core: %s slice job: %w", i, p.Spec.Name, serrs[l])
						continue
					}
					if berr := p.checkObserved(ticks[l], sliceTicks[l]); berr != nil {
						errs[i-lo] = fmt.Errorf("core: job %d: %w", i, berr)
						continue
					}
					traces[i] = p.buildTrace(jobs[i], ticks[l], sliceTicks[l],
						p.readFullFeatures(fbs.Lane(l)), p.Slice.ReadFeatures(sbs.Lane(l)))
				}
				return errs
			})
	} else {
		err = runParallel(len(jobs), p.NewJobSimulator, runJob)
	}
	if err != nil {
		return nil, err
	}
	if c := TraceCache(); c != nil {
		c.Put(cacheKey, traces) // best effort; tracked in Stats
	}
	return traces, nil
}

// PredFromSliceOrFloor clamps predictions at a small positive floor so
// downstream frequency demands stay meaningful. A NaN prediction (a
// poisoned model row) maps to +Inf — an unbounded demand the DVFS layer
// resolves to "infeasible, run at the highest permitted level" — rather
// than comparing false against the floor and escaping unclamped.
//
// Finite predictions are additionally clamped into the full design's
// static cycle bounds: a prediction below Seconds(Bounds.Min) claims a
// run the hardware provably cannot finish that fast, and one above
// Seconds(Bounds.Max) (when bounded) claims a run the design provably
// never takes — moving either to the nearest bound is strictly more
// accurate and keeps the under-prediction guarantee sound. Each clamp
// increments the BoundClamps counter.
func (p *Predictor) PredFromSliceOrFloor(sliceFeats []float64) float64 {
	return p.clamp(p.PredictFromSlice(sliceFeats), true)
}

// PredictClamped evaluates an arbitrary full-width model — typically an
// online-refit canary candidate that is not (yet) the live model — on
// slice feature values, with the same NaN/bounds/floor clamps as the
// serving path. Candidate predictions go through the identical safety
// envelope the incumbent enjoys, so a pathological refit can never emit
// values outside the provable cycle interval even while only
// shadow-predicting. Clamps here do not count toward BoundClamps: the
// counter tracks the served model only.
func (p *Predictor) PredictClamped(m *model.Predictor, sliceFeats []float64) float64 {
	return p.clamp(predictSlice(m, p.Kept, sliceFeats), false)
}

func (p *Predictor) clamp(yhat float64, count bool) float64 {
	if math.IsNaN(yhat) {
		return math.Inf(1)
	}
	if lo := p.Spec.Seconds(p.Bounds.Min); yhat < lo {
		yhat = lo
		if count {
			p.boundClamps.Add(1)
		}
	} else if p.Bounds.MaxBounded {
		if hi := p.Spec.Seconds(p.Bounds.Max); yhat > hi {
			yhat = hi
			if count {
				p.boundClamps.Add(1)
			}
		}
	}
	if yhat < 1e-6 {
		yhat = 1e-6
	}
	return yhat
}

// BoundClamps returns how many predictions have been pulled into the
// static cycle bounds since training. Safe to read concurrently.
func (p *Predictor) BoundClamps() uint64 { return p.boundClamps.Load() }

// checkObserved is the runtime half of the static-bounds tripwire: a
// finished run whose tick count escapes the provable interval can only
// mean a simulation-engine or analysis bug, never a legitimate sample.
func (p *Predictor) checkObserved(ticks, sliceTicks uint64) error {
	if !p.Bounds.Contains(ticks) {
		return fmt.Errorf("core: %s: observed %d ticks outside static bounds %s — engine or analysis bug",
			p.Spec.Name, ticks, p.Bounds)
	}
	if !p.SliceBounds.Contains(sliceTicks) {
		return fmt.Errorf("core: %s: observed %d slice ticks outside static bounds %s — engine or analysis bug",
			p.Spec.Name, sliceTicks, p.SliceBounds)
	}
	return nil
}

// EvaluateTest computes prediction-error statistics over test jobs,
// comparing slice-driven predictions against full-design ground truth
// (the data behind the paper's Figure 10).
func (p *Predictor) EvaluateTest(jobs []accel.Job) (model.Errors, error) {
	traces, err := p.CollectTraces(jobs)
	if err != nil {
		return model.Errors{}, err
	}
	return TraceErrors(traces), nil
}

// TraceErrors derives error statistics from collected traces.
func TraceErrors(traces []JobTrace) model.Errors {
	X := make([][]float64, len(traces))
	y := make([]float64, len(traces))
	for i, t := range traces {
		X[i] = []float64{t.PredSeconds}
		y[i] = t.Seconds
	}
	ident := &model.Predictor{Coef: []float64{1}}
	return model.Evaluate(ident, X, y)
}

// FeatureNames returns the names of the kept features.
func (p *Predictor) FeatureNames() []string {
	names := make([]string, len(p.Kept))
	all := p.Ins.Names()
	for i, k := range p.Kept {
		names[i] = all[k]
	}
	return names
}

// Report renders a human-readable training summary.
func (p *Predictor) Report() string {
	return fmt.Sprintf(
		"%s: %d features detected, %d kept (gamma=%.3g)\n%s  train error: median %+.2f%%, worst under %+.2f%%, worst over %+.2f%%\n",
		p.Spec.Name, len(p.Ins.Features), len(p.Kept), p.Gamma,
		p.Model.Report(p.Ins.Names()),
		100*p.TrainErr.Median, 100*p.TrainErr.WorstUnder, 100*p.TrainErr.WorstOver)
}
