// Command simbench measures the simulation engines and writes a
// machine-readable BENCH_sim.json so the performance trajectory can be
// tracked across changes.
//
// Usage:
//
//	simbench [-out BENCH_sim.json] [-workers N] [-seed N] [-reps N]
//	         [-designs a,b,...] [-engine E] [-warm] [-cachedir dir]
//
// It reports four things:
//
//  1. engine throughput (Mevals/s, ns/cycle) for all four engines —
//     interp, compiled, native (pre-generated straight-line code, the
//     default), and batch (measured as 64 lanes of the same job,
//     aggregate) — on the Toy design and on every benchmark of the
//     suite, with per-design speedup ratios. Toy has no generated
//     native sim by design, so its native row measures the compiled
//     fallback,
//  2. CollectTraces wall-clock swept across worker counts
//     (1, 2, 4, 8, capped at GOMAXPROCS) under the compiled, batch,
//     and native engines (retraining per engine, since Train binds
//     the predictor's simulators to the engine current at that time),
//  3. trace-collection throughput (instrumented design + hardware
//     slice per job, the work core.CollectTraces does) per benchmark:
//     scalar compiled jobs/s vs batched jobs/s vs native jobs/s and
//     their ratios,
//  4. the cost of dvfsim's offline flow — warming the full experiment
//     lab (TrainWithTraces plus the test set's CollectTraces on all
//     seven benchmarks, trace cache detached) — under the default
//     native engine and under its compiled fallback: suiteReps
//     interleaved repetitions per engine, reported as the median and
//     quartiles of wall time and of process CPU time, with the
//     fallbacks counted (skipped with -warm=false).
//
// The report also records the command line, GOMAXPROCS, the worker
// count and the default engine it ran under. -designs restricts
// sections 1 and 3 to a comma-separated subset of benchmarks (CI smoke
// runs use this). -engine sets the process-wide default RTL engine,
// which any cache-miss simulation in Train picks up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/absint"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/instrument"
	"repro/internal/rtl"
	"repro/internal/slice"
	"repro/internal/suite"
	"repro/internal/testdesigns"
	"repro/internal/tracecache"
)

// EngineResult is one engine's throughput on one design.
type EngineResult struct {
	Engine     string  `json:"engine"`
	Cycles     uint64  `json:"cycles"`
	Seconds    float64 `json:"seconds"`
	MevalsPerS float64 `json:"mevals_per_s"`
	NsPerCycle float64 `json:"ns_per_cycle"`
}

// DesignResult groups the engines' numbers on one design plus the
// headline ratios.
type DesignResult struct {
	Design  string         `json:"design"`
	Nodes   int            `json:"nodes"`
	Engines []EngineResult `json:"engines"`
	// Speedup ratios in Mevals/s (equivalently wall-clock, same work).
	CompiledVsInterp float64 `json:"compiled_vs_interp"`
	// NativeVsCompiled compares the pre-generated native code against
	// the compiled instruction stream on the same single job. For
	// designs without a registered native sim (toy) the native row is
	// the compiled fallback and this ratio sits near 1.
	NativeVsCompiled float64 `json:"native_vs_compiled"`
	// BatchVsCompiled compares aggregate batch throughput (64 lanes
	// of the same job) against one scalar compiled run of it.
	BatchVsCompiled float64 `json:"batch_vs_compiled"`
}

// TraceResult reports the job fan-out measurement at one worker count
// under one engine.
type TraceResult struct {
	Benchmark string  `json:"benchmark"`
	Engine    string  `json:"engine"`
	Jobs      int     `json:"jobs"`
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"seconds"`
	// Speedup is relative to the 1-worker entry of the same engine's
	// sweep.
	Speedup float64 `json:"speedup"`
}

// ThroughputResult is one benchmark's trace-collection throughput:
// scalar compiled engine vs the 64-lane batch engine on the same
// work (one instrumented full-design job plus one slice job).
type ThroughputResult struct {
	Benchmark       string  `json:"benchmark"`
	ScalarJobsPerS  float64 `json:"scalar_jobs_per_s"`
	BatchJobsPerS   float64 `json:"batch_jobs_per_s"`
	BatchVsCompiled float64 `json:"batch_vs_compiled"`
	// NativeJobsPerS measures the same per-job work on the generated
	// native sims — the single-job latency story, where batch's lane
	// amortization does not apply.
	NativeJobsPerS   float64 `json:"native_jobs_per_s"`
	NativeVsCompiled float64 `json:"native_vs_compiled"`
}

// PruneResult records the static win of absint pruning on one
// benchmark: compiled instructions per cycle for the instrumented full
// design and its hardware slice, unpruned vs pruned. Every engine's
// per-cycle work scales with this stream.
type PruneResult struct {
	Benchmark        string  `json:"benchmark"`
	FullInstr        int     `json:"full_instr"`
	FullInstrPruned  int     `json:"full_instr_pruned"`
	FullReductionPct float64 `json:"full_reduction_pct"`
	SliceInstr       int     `json:"slice_instr"`
	SliceInstrPruned int     `json:"slice_instr_pruned"`
}

// Quartiles summarizes repeated measurements: the median and the
// quartiles around it.
type Quartiles struct {
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
}

// quartiles sorts xs in place and interpolates its quartiles linearly.
func quartiles(xs []float64) Quartiles {
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo+1 >= len(xs) {
			return xs[lo]
		}
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return Quartiles{P25: at(0.25), Median: at(0.5), P75: at(0.75)}
}

// suiteReps is how many timed repetitions of the offline flow each
// engine gets. A single wall-clock run moved by ±30% between
// back-to-back invocations on a shared 2-vCPU host; the median of five
// interleaved runs, next to its quartiles, shows how far to trust it.
const suiteReps = 5

// SuiteResult summarizes the timed repetitions of the offline flow (the
// full seed lab's TrainWithTraces plus test-set CollectTraces on every
// benchmark) under one engine. JobsSimulated is per repetition;
// NativeFallbacks is summed over all of them.
type SuiteResult struct {
	Engine          string    `json:"engine"`
	Reps            int       `json:"reps"`
	WallSeconds     Quartiles `json:"wall_s"`
	CPUSeconds      Quartiles `json:"cpu_s"`
	JobsSimulated   uint64    `json:"jobs_simulated"`
	NativeFallbacks uint64    `json:"native_fallbacks"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Generated     string `json:"generated"`
	Command       string `json:"command"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	DefaultEngine string `json:"default_engine"`
	// MaxWorkers caps the worker sweep; Workers is the job fan-out the
	// other sections ran with (core.Workers).
	MaxWorkers      int                `json:"max_workers"`
	Workers         int                `json:"workers"`
	Designs         []DesignResult     `json:"designs"`
	Prune           []PruneResult      `json:"prune"`
	WorkerSweep     []TraceResult      `json:"worker_sweep"`
	TraceThroughput []ThroughputResult `json:"trace_throughput"`
	// Suite times the offline flow under the default engine and its
	// compiled fallback; NativeSuiteSpeedup and NativeSuiteCPUSpeedup
	// are the ratios of their median wall and CPU times.
	Suite                 []SuiteResult `json:"suite"`
	NativeSuiteSpeedup    float64       `json:"native_suite_speedup"`
	NativeSuiteCPUSpeedup float64       `json:"native_suite_cpu_speedup"`
}

// engineOrder fixes the measurement and report order; interp first so
// every ratio reads engines[i] vs engines[0].
var engineOrder = []rtl.Engine{rtl.EngineInterp, rtl.EngineCompiled, rtl.EngineNative}

// measurePasses splits each engine measurement into this many timed
// passes and reports the fastest one, so a transient background blip
// hitting one engine's slice of wall-clock does not skew the ratios.
const measurePasses = 3

// measure runs fn reps times in measurePasses timed passes and
// returns the cycles and seconds of the fastest pass.
func measure(reps int, fn func() (uint64, error)) (uint64, float64, error) {
	per := reps / measurePasses
	if per < 1 {
		per = 1
	}
	var bestCycles uint64
	bestSecs := 0.0
	for p := 0; p < measurePasses; p++ {
		var cycles uint64
		start := time.Now() //detlint:allow simbench measures wall-clock throughput by design
		for i := 0; i < per; i++ {
			c, err := fn()
			if err != nil {
				return 0, 0, err
			}
			cycles += c
		}
		secs := time.Since(start).Seconds()
		if bestSecs == 0 || secs*float64(bestCycles) < bestSecs*float64(cycles) {
			bestCycles, bestSecs = cycles, secs
		}
	}
	return bestCycles, bestSecs, nil
}

// measureDesign runs one job on a design under the three scalar
// engines, then the same job on all 64 lanes of the batch engine
// (whose cycles and Mevals/s are therefore aggregate numbers).
func measureDesign(design string, m *rtl.Module, job accel.Job, maxTicks uint64, reps int,
	runner func(*rtl.Sim) func() (uint64, error)) (DesignResult, error) {
	dr := DesignResult{Design: design, Nodes: m.NumNodes()}
	for _, eng := range engineOrder {
		cycles, secs, err := measure(reps, runner(rtl.NewSimEngine(m, eng)))
		if err != nil {
			return dr, fmt.Errorf("%s/%s: %w", design, eng, err)
		}
		dr.Engines = append(dr.Engines, EngineResult{
			Engine:     string(eng),
			Cycles:     cycles,
			Seconds:    secs,
			MevalsPerS: float64(cycles*uint64(m.NumNodes())) / secs / 1e6,
			NsPerCycle: secs * 1e9 / float64(cycles),
		})
	}
	jobs := make([]accel.Job, rtl.MaxBatchLanes)
	for l := range jobs {
		jobs[l] = job
	}
	bs := rtl.NewBatchSim(m, len(jobs))
	batchReps := reps / len(jobs)
	if batchReps < measurePasses {
		batchReps = measurePasses
	}
	cycles, secs, err := measure(batchReps, func() (uint64, error) {
		ticks, errs := accel.RunJobs(bs, jobs, maxTicks)
		total := uint64(0)
		for l, e := range errs {
			if e != nil {
				return 0, e
			}
			total += ticks[l]
		}
		return total, nil
	})
	if err != nil {
		return dr, fmt.Errorf("%s/batch: %w", design, err)
	}
	dr.Engines = append(dr.Engines, EngineResult{
		Engine:     string(rtl.EngineBatch),
		Cycles:     cycles,
		Seconds:    secs,
		MevalsPerS: float64(cycles*uint64(m.NumNodes())) / secs / 1e6,
		NsPerCycle: secs * 1e9 / float64(cycles),
	})
	interp, compiled := dr.Engines[0].MevalsPerS, dr.Engines[1].MevalsPerS
	dr.CompiledVsInterp = compiled / interp
	dr.NativeVsCompiled = dr.Engines[2].MevalsPerS / compiled
	dr.BatchVsCompiled = dr.Engines[3].MevalsPerS / compiled
	return dr, nil
}

func run() error {
	out := flag.String("out", "BENCH_sim.json", "output path for the JSON report")
	workers := flag.Int("workers", 0, "max parallel job-simulation workers for the sweep (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 42, "workload generation seed")
	reps := flag.Int("reps", 60, "jobs per engine measurement")
	designs := flag.String("designs", "", "comma-separated benchmark subset for the throughput sections (default: all)")
	engine := flag.String("engine", "", "process-wide default RTL engine: native (default), compiled, interp, or batch")
	warm := flag.Bool("warm", true, "measure the offline flow's wall-clock under the native and compiled engines")
	cacheDir := flag.String("cachedir", os.Getenv("REPRO_CACHE_DIR"),
		"persistent trace cache directory (default: $REPRO_CACHE_DIR; empty disables)")
	flag.Parse()

	if *engine != "" {
		e, err := rtl.ParseEngine(*engine)
		if err != nil {
			return err
		}
		if err := rtl.SetDefaultEngine(e); err != nil {
			return err
		}
	}
	specs := suite.All()
	if *designs != "" {
		var picked []accel.Spec
		for _, name := range strings.Split(*designs, ",") {
			spec, err := suite.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			picked = append(picked, spec)
		}
		specs = picked
	}

	if *cacheDir != "" {
		c, err := tracecache.Open(*cacheDir)
		if err != nil {
			return err
		}
		core.SetTraceCache(c)
	}
	maxWorkers := *workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	core.SetWorkers(*workers)
	rep := Report{
		Generated:     time.Now().UTC().Format(time.RFC3339), //detlint:allow simbench measures wall-clock throughput by design
		Command:       strings.Join(append([]string{"simbench"}, os.Args[1:]...), " "),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		DefaultEngine: string(rtl.DefaultEngine()),
		MaxWorkers:    maxWorkers,
		Workers:       core.Workers(),
	}

	// 1. Engine throughput: Toy plus every benchmark, every engine.
	toy := testdesigns.Toy()
	items := make([]uint64, 100)
	for i := range items {
		items[i] = testdesigns.ToyItem(i%2 == 0, 20)
	}
	toyJob := testdesigns.ToyJob(items)
	toyBatchJob := accel.Job{Mems: map[string][]uint64{"in": toyJob}}
	dr, err := measureDesign("toy", toy.M, toyBatchJob, 1<<20, *reps, func(s *rtl.Sim) func() (uint64, error) {
		return func() (uint64, error) {
			s.Reset()
			if err := s.LoadMem("in", toyJob); err != nil {
				return 0, err
			}
			return s.Run(1 << 20)
		}
	})
	if err != nil {
		return err
	}
	rep.Designs = append(rep.Designs, dr)
	for _, spec := range specs {
		spec := spec
		m := spec.Build()
		job := spec.TestJobs(3)[0]
		dr, err := measureDesign(spec.Name, m, job, spec.MaxTicks, *reps, func(s *rtl.Sim) func() (uint64, error) {
			return func() (uint64, error) { return accel.RunJob(s, job, spec.MaxTicks) }
		})
		if err != nil {
			return err
		}
		rep.Designs = append(rep.Designs, dr)
	}

	// 1b. Static pruning win: compiled instructions per cycle, unpruned
	// vs absint-pruned, for each benchmark's instrumented design and its
	// hardware slice.
	for _, spec := range specs {
		pr, err := measurePrune(spec)
		if err != nil {
			return err
		}
		rep.Prune = append(rep.Prune, pr)
	}

	// 2. CollectTraces fan-out: sweep worker counts 1, 2, 4, 8 (capped
	// at GOMAXPROCS) under the compiled, batch, and native engines.
	// Train binds the predictor's simulators to the engine current at
	// train time, so each engine gets its own (cheap, cache-served)
	// Train call before its sweep.
	spec, err := suite.ByName("stencil")
	if err != nil {
		return err
	}
	jobs := spec.TestJobs(*seed + 1)
	counts := []int{}
	for w := 1; w < maxWorkers && w < 8; w *= 2 {
		counts = append(counts, w)
	}
	if cap := min(maxWorkers, 8); len(counts) == 0 || counts[len(counts)-1] != cap {
		counts = append(counts, cap)
	}
	// The sweep times real simulation: detach the cache so every pass
	// actually runs RTL, then restore it for the lab warm-up below.
	sweepCache := core.TraceCache()
	sweepDefault := rtl.DefaultEngine()
	for _, eng := range []rtl.Engine{rtl.EngineCompiled, rtl.EngineBatch, rtl.EngineNative} {
		if err := rtl.SetDefaultEngine(eng); err != nil {
			return err
		}
		core.SetTraceCache(sweepCache)
		pred, err := core.Train(spec, core.Options{Seed: *seed})
		if err != nil {
			return err
		}
		core.SetTraceCache(nil)
		var oneWorkerS float64
		for _, w := range counts {
			core.SetWorkers(w)
			start := time.Now() //detlint:allow simbench measures wall-clock throughput by design
			if _, err := pred.CollectTraces(jobs); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			if w == counts[0] {
				oneWorkerS = secs
			}
			rep.WorkerSweep = append(rep.WorkerSweep, TraceResult{
				Benchmark: spec.Name,
				Engine:    string(eng),
				Jobs:      len(jobs),
				Workers:   w,
				Seconds:   secs,
				Speedup:   oneWorkerS / secs,
			})
		}
	}
	if err := rtl.SetDefaultEngine(sweepDefault); err != nil {
		return err
	}
	core.SetWorkers(*workers)
	core.SetTraceCache(sweepCache)

	// 3. Trace-collection throughput per benchmark: the work one
	// CollectTraces job does (instrumented full design + hardware
	// slice), scalar compiled vs 64 batch lanes, in jobs/s.
	for _, spec := range specs {
		tr, err := measureTraceThroughput(spec)
		if err != nil {
			return err
		}
		rep.TraceThroughput = append(rep.TraceThroughput, tr)
	}

	// 4. The offline flow (train + trace all seven benchmarks), the
	// end-to-end work dvfsim does, under the default engine and its
	// compiled fallback. Like the sweep it times real simulation, so
	// the cache is detached.
	if *warm {
		core.SetTraceCache(nil)
		suite, err := measureSuite(*seed)
		if err != nil {
			return err
		}
		rep.Suite = suite
		rep.NativeSuiteSpeedup = suite[1].WallSeconds.Median / suite[0].WallSeconds.Median
		rep.NativeSuiteCPUSpeedup = suite[1].CPUSeconds.Median / suite[0].CPUSeconds.Median
		if err := rtl.SetDefaultEngine(sweepDefault); err != nil {
			return err
		}
		core.SetTraceCache(sweepCache)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	nativeThreeX := 0
	for _, d := range rep.Designs {
		if d.Design == "toy" {
			continue
		}
		if d.NativeVsCompiled >= 3 {
			nativeThreeX++
		}
	}
	fourX := 0
	for _, tr := range rep.TraceThroughput {
		if tr.BatchVsCompiled >= 4 {
			fourX++
		}
	}
	last := rep.WorkerSweep[len(rep.WorkerSweep)-1]
	fmt.Printf("simbench: native>=3x compiled on %d/%d benchmarks, batch>=4x compiled traces on %d/%d, traces %.2fx with %d workers (%s), offline flow native vs compiled %.2fx -> %s\n",
		nativeThreeX, len(rep.Designs)-1, fourX, len(rep.TraceThroughput), last.Speedup, last.Workers, last.Engine, rep.NativeSuiteSpeedup, *out)
	fmt.Printf("jobs batched: %d; jobs simulated: %d; native fallbacks: %d\n",
		core.BatchedJobs(), core.SimulatedJobs(), rtl.NativeFallbacks())
	return nil
}

// measureSuite warms a fresh experiment lab suiteReps times under the
// native engine and under the compiled engine, interleaved and
// alternating which engine goes first so drift in the host's speed
// lands on both, and summarizes each engine's wall and process CPU
// times (native first).
func measureSuite(seed int64) ([]SuiteResult, error) {
	engines := []rtl.Engine{rtl.EngineNative, rtl.EngineCompiled}
	wall := make([][]float64, len(engines))
	cpu := make([][]float64, len(engines))
	out := make([]SuiteResult, len(engines))
	for r := 0; r < suiteReps; r++ {
		for k := range engines {
			ei := (k + r) % len(engines)
			if err := rtl.SetDefaultEngine(engines[ei]); err != nil {
				return nil, err
			}
			runtime.GC()
			simBefore, fallBefore := core.SimulatedJobs(), rtl.NativeFallbacks()
			cpuBefore, err := processCPU()
			if err != nil {
				return nil, err
			}
			start := time.Now() //detlint:allow simbench measures wall-clock throughput by design
			if err := exp.NewLab(seed).Warm(); err != nil {
				return nil, err
			}
			secs := time.Since(start).Seconds()
			cpuAfter, err := processCPU()
			if err != nil {
				return nil, err
			}
			wall[ei] = append(wall[ei], secs)
			cpu[ei] = append(cpu[ei], cpuAfter-cpuBefore)
			out[ei].JobsSimulated = core.SimulatedJobs() - simBefore
			out[ei].NativeFallbacks += rtl.NativeFallbacks() - fallBefore
		}
	}
	for ei, eng := range engines {
		out[ei].Engine = string(eng)
		out[ei].Reps = suiteReps
		out[ei].WallSeconds = quartiles(wall[ei])
		out[ei].CPUSeconds = quartiles(cpu[ei])
	}
	return out, nil
}

// processCPU returns the user plus system CPU time this process has
// used so far, in seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime), nil
}

// measurePrune compiles each benchmark's instrumented design and slice
// with and without absint pruning and records the instruction counts.
func measurePrune(spec accel.Spec) (PruneResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return PruneResult{}, err
	}
	keep := make([]int, len(ins.Features))
	kept := make([]int, len(ins.Features))
	for i, f := range ins.Features {
		keep[i] = f.Witness
		kept[i] = i
	}
	pm, _ := absint.Prune(ins.M, keep)
	plain := slice.DefaultOptions()
	plain.Prune = false
	slP, err := slice.Slice(ins, kept, plain)
	if err != nil {
		return PruneResult{}, err
	}
	slA, err := slice.Slice(ins, kept, slice.DefaultOptions())
	if err != nil {
		return PruneResult{}, err
	}
	fi := rtl.Compile(ins.M).Instructions()
	pi := rtl.Compile(pm).Instructions()
	return PruneResult{
		Benchmark:        spec.Name,
		FullInstr:        fi,
		FullInstrPruned:  pi,
		FullReductionPct: 100 * float64(fi-pi) / float64(fi),
		SliceInstr:       rtl.Compile(slP.M).Instructions(),
		SliceInstrPruned: rtl.Compile(slA.M).Instructions(),
	}, nil
}

// measureTraceThroughput times the per-job work of CollectTraces —
// one instrumented full-design simulation plus one slice simulation —
// on the scalar compiled engine and as 64 batch lanes, best of three
// passes each.
func measureTraceThroughput(spec accel.Spec) (ThroughputResult, error) {
	ins, err := instrument.Instrument(spec.Build())
	if err != nil {
		return ThroughputResult{}, err
	}
	keep := make([]int, len(ins.Features))
	for i := range keep {
		keep[i] = i
	}
	sl, err := slice.Slice(ins, keep, slice.DefaultOptions())
	if err != nil {
		return ThroughputResult{}, err
	}
	job := spec.TestJobs(3)[0]
	jobs := make([]accel.Job, rtl.MaxBatchLanes)
	for l := range jobs {
		jobs[l] = job
	}
	fullS := rtl.NewSimEngine(ins.M, rtl.EngineCompiled)
	sliceS := rtl.NewSimEngine(sl.M, rtl.EngineCompiled)
	// The sections before this one leave a large heap behind; collect
	// now so background GC does not tax one engine's timed window.
	runtime.GC()
	const scalarReps = 24
	_, scalarSecs, err := measure(scalarReps, func() (uint64, error) {
		for _, s := range []*rtl.Sim{fullS, sliceS} {
			if _, err := accel.RunJob(s, job, spec.MaxTicks); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	if err != nil {
		return ThroughputResult{}, err
	}
	fbs := rtl.NewBatchSim(ins.M, len(jobs))
	sbs := rtl.NewBatchSim(sl.M, len(jobs))
	_, batchSecs, err := measure(measurePasses, func() (uint64, error) {
		for _, bs := range []*rtl.BatchSim{fbs, sbs} {
			_, errs := accel.RunJobs(bs, jobs, spec.MaxTicks)
			for _, e := range errs {
				if e != nil {
					return 0, e
				}
			}
		}
		return 1, nil
	})
	if err != nil {
		return ThroughputResult{}, err
	}
	nativeFull := rtl.NewSimEngine(ins.M, rtl.EngineNative)
	nativeSlice := rtl.NewSimEngine(sl.M, rtl.EngineNative)
	_, nativeSecs, err := measure(scalarReps, func() (uint64, error) {
		for _, s := range []*rtl.Sim{nativeFull, nativeSlice} {
			if _, err := accel.RunJob(s, job, spec.MaxTicks); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	if err != nil {
		return ThroughputResult{}, err
	}
	scalarJPS := float64(scalarReps/measurePasses) / scalarSecs
	batchJPS := float64(len(jobs)) / batchSecs
	nativeJPS := float64(scalarReps/measurePasses) / nativeSecs
	return ThroughputResult{
		Benchmark:        spec.Name,
		ScalarJobsPerS:   scalarJPS,
		BatchJobsPerS:    batchJPS,
		BatchVsCompiled:  batchJPS / scalarJPS,
		NativeJobsPerS:   nativeJPS,
		NativeVsCompiled: nativeJPS / scalarJPS,
	}, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
}
