package main

import (
	"fmt"
	"time"

	"repro/internal/accel/stencil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/exp"
	"repro/internal/online"
	"repro/internal/power"
	"repro/internal/rtl"
	"repro/internal/serve"
	"repro/internal/suite"
)

// Generator windows: outstanding jobs per shard (serve-frames) and per
// pool (fleet-drift), both below serve.DefaultQueueDepth. A pool's
// router simulates and predicts each job inside Submit, one job at a
// time, so one job in flight per pool keeps it busy; with two per pool
// a job's CPU latency took in parts of the next jobs' submissions and
// cross-processor wake-ups, whose share moved with the host's load
// (over 10 seeds the 90th percentile's spread was 0.13 of its median,
// against 0.03 with one).
const (
	frameWindow = 4
	fleetWindow = 1
)

// onlineConfig is fleet-drift's online-learning configuration: the
// covariate-shift soak's small windows, so each phase of the stencil
// stream can run a whole detect → refit → canary → promote cycle.
var onlineConfig = online.Config{RingSize: 64, MinObservations: 64, DriftWindow: 32, CanaryWindow: 32}

// outcome is a pass's virtual-time result, summed over shards or
// pools. It is a pure function of the seed's job stream: every pass
// must reproduce it exactly, and recorded seeds must match the record.
type outcome struct {
	Done, Misses, Degraded, Shed, Switches uint64
	Energy                                 float64
	// ModelVersion is the summed live-model version advance over the
	// pass (0 without online learning); Promotions, DriftEvents,
	// Retrains and CanaryRejects are the online trainers' counters.
	ModelVersion, Promotions, DriftEvents, Retrains, CanaryRejects uint64
}

// servePass is one measured pass over a serving workload's streams.
type servePass struct {
	drive       driveResult
	virt        outcome
	errors      uint64
	boundClamps uint64
	simJobs     uint64
	// invariant lists placement-invariant violations.
	invariant []string
	// detail is one line per shard or pool.
	detail []string
}

// profileFor builds a serving profile the way cmd/dvfserved does.
func profileFor(pred *core.Predictor, pm, spm power.Model) serve.Profile {
	return serve.Profile{
		Pred:       pred,
		Device:     dvfs.ASIC(pred.Spec.NominalHz, false),
		Power:      pm,
		SlicePower: spm,
		Deadline:   exp.Deadline,
		Margin:     exp.PredictiveMargin,
	}
}

// shardConfig is cmd/dvfserved's single-server shard with every flag at
// its default.
func shardConfig(name string, prof serve.Profile) serve.ShardConfig {
	return serve.ShardConfig{
		Name:         name,
		Profile:      prof,
		QueueDepth:   serve.DefaultQueueDepth,
		Overflow:     serve.OverflowShed,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
	}
}

// framesEnv is serve-frames' trained state: one lab entry per
// benchmark, in suite order.
type framesEnv struct {
	entries []*exp.Entry
}

// setupFrames trains every benchmark through an exp.Lab, one
// lab.Entry at a time as dvfserved does, and builds (then closes) the
// seven shards once.
func setupFrames() (*framesEnv, error) {
	lab := exp.NewLab(labSeed)
	env := &framesEnv{}
	for _, name := range suite.Names() {
		e, err := lab.Entry(name)
		if err != nil {
			return nil, err
		}
		env.entries = append(env.entries, e)
	}
	shards, err := env.shards()
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		sh.Close()
	}
	return env, nil
}

func (env *framesEnv) shards() ([]*serve.Shard, error) {
	var out []*serve.Shard
	for i, name := range suite.Names() {
		e := env.entries[i]
		sh, err := serve.NewShard(shardConfig(name, profileFor(e.Pred, e.Power, e.SlicePower)))
		if err != nil {
			return nil, err
		}
		out = append(out, sh)
	}
	return out, nil
}

func (env *framesEnv) clamps() uint64 {
	var n uint64
	for _, e := range env.entries {
		n += e.Pred.BoundClamps()
	}
	return n
}

// pass serves the streams through seven fresh shards.
func (env *framesEnv) pass(streams []stream, tr *tracer) (*servePass, error) {
	shards, err := env.shards()
	if err != nil {
		return nil, err
	}
	clamps0 := env.clamps()
	submit := func(s, i int, result chan<- serve.Outcome) error {
		return shards[s].Submit(serve.Job{Arrival: streams[s].Arrivals[i], Payload: streams[s].Jobs[i], Result: result})
	}
	p := &servePass{drive: drive(streams, frameWindow, submit, tr, "serve.job", "serve.submit")}
	for i, sh := range shards {
		sh.Close()
		st := sh.Stats()
		n := uint64(len(streams[i].Jobs))
		if st.Done+st.Shed != n || st.HandedOff != 0 {
			p.invariant = append(p.invariant, fmt.Sprintf("%s: done %d + shed %d != attempted %d, handed off %d", st.Name, st.Done, st.Shed, n, st.HandedOff))
		}
		p.detail = append(p.detail, fmt.Sprintf("%s done=%d misses=%d degraded=%d shed=%d", st.Name, st.Done, st.Misses, st.Degraded, st.Shed))
		p.virt.Done += st.Done
		p.virt.Misses += st.Misses
		p.virt.Degraded += st.Degraded
		p.virt.Shed += st.Shed
		p.virt.Switches += st.Switches
		p.virt.Energy += st.Energy
		p.virt.Promotions += st.Promotions
		p.virt.DriftEvents += st.DriftEvents
		p.virt.Retrains += st.Retrains
		p.virt.CanaryRejects += st.CanaryRejects
		p.errors += st.Errors
	}
	p.boundClamps = env.clamps() - clamps0
	return p, nil
}

// fleetEnv is fleet-drift's trained state: per pool (stencil, then
// h264, in stream order), its name, predictor and serving profile.
type fleetEnv struct {
	names []string
	preds []*core.Predictor
	profs []serve.Profile
}

// setupFleet trains the drift pool's stencil predictor at 40 columns
// and the h264 pool's predictor through an exp.Lab, and builds (then
// closes) both pools once.
func setupFleet() (*fleetEnv, error) {
	h, err := exp.NewLab(labSeed).Entry("h264")
	if err != nil {
		return nil, err
	}
	sp, err := core.Train(stencil.Spec(), core.Options{TrainJobs: stencilTrainingJobs()})
	if err != nil {
		return nil, err
	}
	pm, spm := powerModels(sp)
	env := &fleetEnv{
		names: []string{"stencil", "h264"},
		preds: []*core.Predictor{sp, h.Pred},
		profs: []serve.Profile{profileFor(sp, pm, spm), profileFor(h.Pred, h.Power, h.SlicePower)},
	}
	pools, err := env.pools()
	if err != nil {
		return nil, err
	}
	for _, p := range pools {
		p.Close()
	}
	return env, nil
}

// powerModels calibrates energy models the way exp.Lab does: the clean
// design for the accelerator, the slice's logic for the predictor.
func powerModels(p *core.Predictor) (power.Model, power.Model) {
	params := power.DefaultParams(p.Spec.NominalHz)
	params.MemFraction = p.Spec.MemFraction
	pm := power.FromStats(rtl.Stats(p.Spec.Build()), params)
	ss := rtl.Stats(p.Slice.M)
	sliceParams := power.DefaultParams(p.Spec.NominalHz)
	sliceParams.MemFraction = 0.1
	spm := power.FromStats(rtl.AreaStats{LogicGates: ss.LogicGates, RegGates: ss.RegGates, Nodes: ss.Nodes, Regs: ss.Regs}, sliceParams)
	return pm, spm
}

// poolConfig is one fleet-drift pool: 3 replicas behind the
// predict-then-place router, online learning at the router.
func poolConfig(name string, prof serve.Profile, learn bool) cluster.Config {
	cfg := cluster.Config{
		Shard:    shardConfig(name, prof),
		Replicas: 3,
		Policy:   cluster.PolicyPredict{},
	}
	if learn {
		oc := onlineConfig
		cfg.Shard.Online = &oc
	}
	return cfg
}

func (env *fleetEnv) pools() ([]*cluster.Pool, error) {
	var out []*cluster.Pool
	for i, prof := range env.profs {
		p, err := cluster.NewPool(poolConfig(env.names[i], prof, true))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// resetModels restores each predictor's offline-trained β after a pass
// that promoted online refits, so every pass starts from the same
// model. It returns the versions the next pass starts from.
func (env *fleetEnv) resetModels() ([]uint64, error) {
	var base []uint64
	for _, p := range env.preds {
		if p.LiveModel() != p.Model {
			if _, err := p.SwapModel(p.Model); err != nil {
				return nil, err
			}
		}
		base = append(base, p.ModelVersion())
	}
	return base, nil
}

// pass routes the two streams through fresh pools.
func (env *fleetEnv) pass(streams []stream, tr *tracer) (*servePass, error) {
	base, err := env.resetModels()
	if err != nil {
		return nil, err
	}
	pools, err := env.pools()
	if err != nil {
		return nil, err
	}
	clamps0 := env.clamps()
	submit := func(s, i int, result chan<- serve.Outcome) error {
		return pools[s].Submit(cluster.Job{Arrival: streams[s].Arrivals[i], Payload: streams[s].Jobs[i], Result: result})
	}
	p := &servePass{drive: drive(streams, fleetWindow, submit, tr, "cluster.job", "cluster.submit")}
	for i, pool := range pools {
		pool.Close()
		st := pool.Stats()
		n := uint64(len(streams[i].Jobs))
		if st.Fleet.Done+st.Shed != n || st.Submitted != n || st.Fleet.HandedOff != 0 || st.Lost != 0 {
			p.invariant = append(p.invariant, fmt.Sprintf("%s: done %d + shed %d != attempted %d (submitted %d), handed off %d, lost %d",
				st.Name, st.Fleet.Done, st.Shed, n, st.Submitted, st.Fleet.HandedOff, st.Lost))
		}
		p.detail = append(p.detail, fmt.Sprintf("%s done=%d misses=%d degraded=%d shed=%d intrinsic=%d promotions=%d",
			st.Name, st.Fleet.Done, st.Fleet.Misses, st.Fleet.Degraded, st.Shed, st.Intrinsic, st.Online.Promotions))
		p.virt.Done += st.Fleet.Done
		p.virt.Misses += st.Fleet.Misses
		p.virt.Degraded += st.Fleet.Degraded
		p.virt.Shed += st.Shed
		p.virt.Switches += st.Fleet.Switches
		p.virt.Energy += st.Fleet.Energy
		p.virt.ModelVersion += env.preds[i].ModelVersion() - base[i]
		p.virt.Promotions += st.Online.Promotions
		p.virt.DriftEvents += st.Online.DriftEvents
		p.virt.Retrains += st.Online.Retrains
		p.virt.CanaryRejects += st.Online.CanaryRejects
		for _, r := range st.Replicas {
			p.errors += r.Errors
		}
	}
	p.boundClamps = env.clamps() - clamps0
	return p, nil
}

func (env *fleetEnv) clamps() uint64 {
	var n uint64
	for _, p := range env.preds {
		n += p.BoundClamps()
	}
	return n
}
