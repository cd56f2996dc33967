package main

import (
	"math/rand"

	"repro/internal/accel"
	"repro/internal/accel/stencil"
	"repro/internal/suite"
	"repro/internal/workload"
)

// Stream sizes. A serve-frames pass feeds every shard framesPerShard
// frames of 60 fps video time; a fleet-drift pass feeds the stencil
// pool driftPhases alternating phases of driftPhaseLen jobs and the
// h264 pool h264Jobs periodic arrivals.
const (
	framesPerShard = 200
	frameRate      = 60.0
	driftPhases    = 4
	driftPhaseLen  = 128
	driftSpacing   = 0.02
	// h264Jobs outnumbers the stencil stream so the job-latency median
	// falls inside h264's own distribution, not on the gap between it
	// and the much shorter stencil jobs, where it would jump run to run.
	h264Jobs = 1000
	// h264Rate is the h264 pool's arrival rate in jobs per virtual
	// second: about 1.5x what one replica serves at nominal frequency (a
	// 7.6 ms mean job), so placement must spread over replicas. The
	// arrivals are periodic: under Poisson arrivals the predict router
	// sheds jobs at every rate from 40/s up, and the benchmark's
	// workloads must complete every job they submit.
	h264Rate = 200.0
)

// labSeed is the training and offline-suite seed every workload uses:
// the seed the golden tables and the headline numbers are recorded at.
const labSeed = 42

// stream is one pool's (or shard's) generated input: payload jobs and
// nondecreasing virtual arrival times.
type stream struct {
	Name     string       `json:"name"`
	Jobs     []accel.Job  `json:"jobs"`
	Arrivals []float64    `json:"arrivals"`
	Phases   []driftPhase `json:"phases,omitempty"`
}

// driftPhase marks a run of stencil jobs at one column count.
type driftPhase struct {
	Start, End, Cols int
}

// subSeed derives an independent per-stream seed from the run seed.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i)*104729 + 1 }

// sample draws n jobs from pool: seeded shuffles of the whole pool, back
// to back. Every job of the pool is used before any repeats, so a
// stream's mix (h264's three clips, the image sizes) does not depend on
// where the generator happens to start.
func sample(pool []accel.Job, n int, seed int64) []accel.Job {
	rng := rand.New(rand.NewSource(seed))
	out := make([]accel.Job, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(pool)) {
			if len(out) == n {
				break
			}
			out = append(out, pool[i])
		}
	}
	return out
}

// frameStreams builds serve-frames' input: for every benchmark, a seeded
// draw from the lab's test jobs (the jobs the offline tables evaluate)
// at 60 fps periodic arrivals. framesPerShard is a whole number of
// passes over every test set except h264's, so the seed changes the
// order of the work far more than its amount.
func frameStreams(seed int64) []stream {
	var out []stream
	for i, name := range suite.Names() {
		spec, err := suite.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, stream{
			Name:     name,
			Jobs:     sample(spec.TestJobs(labSeed+1), framesPerShard, subSeed(seed, i)),
			Arrivals: workload.PeriodicArrivals(framesPerShard, 1/frameRate),
		})
	}
	return out
}

// driftStreams builds fleet-drift's input: a stencil stream that
// alternates the training distribution (40 columns) with a covariate
// shift (8 columns), and an h264 stream drawn from the lab's test jobs.
func driftStreams(seed int64) []stream {
	rng := rand.New(rand.NewSource(subSeed(seed, 100)))
	var imgs []workload.StencilImage
	var phases []driftPhase
	for p := 0; p < driftPhases; p++ {
		cols := 40
		if p%2 == 1 {
			cols = 8
		}
		start := len(imgs)
		for i := 0; i < driftPhaseLen; i++ {
			imgs = append(imgs, workload.StencilImage{Rows: 8 + rng.Intn(37), Cols: cols, Class: "drift"})
		}
		phases = append(phases, driftPhase{Start: start, End: len(imgs), Cols: cols})
	}
	st := stream{
		Name:     "stencil",
		Jobs:     stencil.JobsFrom(imgs, subSeed(seed, 101)),
		Arrivals: make([]float64, len(imgs)),
		Phases:   phases,
	}
	for i := range st.Arrivals {
		st.Arrivals[i] = float64(i) * driftSpacing
	}
	spec, err := suite.ByName("h264")
	if err != nil {
		panic(err)
	}
	h := stream{
		Name:     "h264",
		Jobs:     sample(spec.TestJobs(labSeed+1), h264Jobs, subSeed(seed, 102)),
		Arrivals: workload.PeriodicArrivals(h264Jobs, 1/h264Rate),
	}
	return []stream{st, h}
}

// stencilTrainingJobs is the drift pool's training set: 40 images at 40
// columns, the covariate-shift recipe of the online soak tests.
func stencilTrainingJobs() []accel.Job {
	imgs := make([]workload.StencilImage, 40)
	for i := range imgs {
		imgs[i] = workload.StencilImage{Rows: 8 + (i*7+3)%37, Cols: 40, Class: "drift"}
	}
	return stencil.JobsFrom(imgs, 3)
}
