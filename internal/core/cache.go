package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/rtl"
	"repro/internal/tracecache"
)

// traceCache is the process-wide persistent cache consulted by Train
// and CollectTraces. Nil (the default) disables caching entirely.
var traceCache atomic.Pointer[tracecache.Cache]

// SetTraceCache installs (or, with nil, removes) the persistent cache.
// Commands wire this to their -cachedir flag.
func SetTraceCache(c *tracecache.Cache) { traceCache.Store(c) }

// TraceCache returns the installed cache, or nil.
func TraceCache() *tracecache.Cache { return traceCache.Load() }

// simJobs counts design runs actually executed (cache misses and
// uncached runs): one per simulation of a job on one netlist, so a
// JobSimulator.Trace counts two (full design and slice), Execute and a
// Train job one each, and a TrainWithTraces job two (Train's full
// design, then only the slice). A warm-cache pipeline run must leave
// this at zero — that is the acceptance check commands print as
// "jobs simulated: N".
var simJobs atomic.Uint64

// SimulatedJobs returns the number of design runs (one per full-design
// or slice simulation of a job) executed by this process so far.
func SimulatedJobs() uint64 { return simJobs.Load() }

// batchedJobs counts the subset of simJobs that ran inside batch lanes
// rather than on a scalar engine. Scalar retries of failed lanes are
// not batched, so BatchedJobs < SimulatedJobs under injected faults.
var batchedJobs atomic.Uint64

// BatchedJobs returns the number of RTL job simulations executed in
// batch lanes by this process so far.
func BatchedJobs() uint64 { return batchedJobs.Load() }

// keyHasher accumulates the inputs that determine a cached artifact.
// Every field is length- or tag-delimited so distinct input sequences
// can never produce the same stream.
type keyHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyHasher(kind string) *keyHasher {
	k := &keyHasher{h: sha256.New()}
	k.str(kind)
	return k
}

func (k *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(k.buf[:], v)
	k.h.Write(k.buf[:])
}

func (k *keyHasher) f64(v float64) { k.u64(math.Float64bits(v)) }

func (k *keyHasher) str(s string) {
	k.u64(uint64(len(s)))
	k.h.Write([]byte(s))
}

func (k *keyHasher) sum() string { return hex.EncodeToString(k.h.Sum(nil)) }

// jobs hashes a workload: every scratchpad image (memories visited in
// sorted-name order for determinism) plus the class tag, which reaches
// JobTrace.Class and therefore the cached artifact.
func (k *keyHasher) jobs(jobs []accel.Job) {
	k.u64(uint64(len(jobs)))
	for _, j := range jobs {
		names := make([]string, 0, len(j.Mems))
		for name := range j.Mems { //detlint:allow keys are sorted before hashing
			names = append(names, name)
		}
		sort.Strings(names)
		k.u64(uint64(len(names)))
		for _, name := range names {
			k.str(name)
			data := j.Mems[name]
			k.u64(uint64(len(data)))
			for _, w := range data {
				k.u64(w)
			}
		}
		k.str(j.Class)
	}
}

// spec hashes the constants that convert ticks to the seconds stored
// in cached artifacts, plus the simulation bound.
func (k *keyHasher) spec(spec *accel.Spec) {
	k.f64(spec.NominalHz)
	k.f64(spec.CycleScale)
	k.u64(spec.MaxTicks)
}

// trainKey identifies Train's simulation artifact: the feature matrix
// and target vector are pure functions of the instrumented netlist,
// the workload bytes, and the tick/seconds constants. The netlist
// fingerprint covers the instrumentation configuration, because
// witness hardware is part of the instrumented module.
func trainKey(spec *accel.Spec, insFP string, jobs []accel.Job) string {
	k := newKeyHasher("train")
	k.str(insFP)
	k.spec(spec)
	k.jobs(jobs)
	return k.sum()
}

// trainArtifact is the cached product of Train's simulation phase.
type trainArtifact struct {
	X [][]float64
	Y []float64
}

// traceKey identifies CollectTraces' artifact. Beyond the netlists and
// workload it must cover the trained model (coefficients, intercept,
// kept set), because PredSeconds is baked into each trace.
func traceKey(p *Predictor, jobs []accel.Job) string {
	k := newKeyHasher("traces")
	k.str(rtl.Fingerprint(p.Ins.M))
	k.str(rtl.Fingerprint(p.Slice.M))
	k.f64(p.Model.Intercept)
	k.u64(uint64(len(p.Model.Coef)))
	for _, c := range p.Model.Coef {
		k.f64(c)
	}
	k.u64(uint64(len(p.Kept)))
	for _, kept := range p.Kept {
		k.u64(uint64(kept))
	}
	k.spec(&p.Spec)
	k.jobs(jobs)
	return k.sum()
}
