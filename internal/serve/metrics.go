package serve

import (
	"math"
	"sync/atomic"
)

// Lock-free metrics primitives for the serving layer. Shard workers
// update them on the hot path; the stats and metrics endpoints read
// them concurrently, so every field is atomic. The histogram uses
// fixed logarithmic buckets, which keeps updates allocation-free and
// makes quantile estimates cheap enough to compute on every scrape.

// counter is a monotonically increasing event count.
type counter struct{ v atomic.Uint64 }

func (c *counter) Add(n uint64)  { c.v.Add(n) }
func (c *counter) Value() uint64 { return c.v.Load() }
func (c *counter) Inc()          { c.v.Add(1) }

// gauge is an instantaneous level (queue depth).
type gauge struct{ v atomic.Int64 }

func (g *gauge) Add(d int64)  { g.v.Add(d) }
func (g *gauge) Value() int64 { return g.v.Load() }

// afloat is an atomically accumulated float64 (energy totals).
type afloat struct{ bits atomic.Uint64 }

func (a *afloat) Add(d float64) {
	for {
		old := a.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (a *afloat) Value() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *afloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// histBuckets are the upper bounds (seconds) of the latency histogram:
// 24 logarithmic buckets from 10 µs to ~1.3 s plus a +Inf overflow.
// Serving latencies of interest sit between a slice runtime (~100 µs)
// and a few deadlines (~50 ms), which this range brackets comfortably.
var histBuckets = logBuckets(10e-6)

// simBuckets are the upper bounds (nanoseconds) of the simulation
// stage histograms: 24 logarithmic buckets from 1 µs to ~50 ms plus a
// +Inf overflow, bracketing a native slice run (a few µs) up to a
// compiled full-design run.
var simBuckets = logBuckets(1000)

// predictBuckets are the prediction stage's: 10 ns to ~0.5 ms, since
// a dot product over the kept features takes well under a microsecond.
var predictBuckets = logBuckets(10)

// logBuckets returns 24 logarithmic bucket bounds growing ×1.6 from lo.
func logBuckets(lo float64) []float64 {
	b := make([]float64, 24)
	for i := range b {
		b[i] = lo
		lo *= 1.6
	}
	return b
}

// histogram counts observations into 24 logarithmic buckets plus
// overflow. The zero value uses histBuckets (seconds); set buckets
// before the first Observe to use another scale with the same ×1.6
// growth (logBuckets).
type histogram struct {
	counts  [25]atomic.Uint64 // len(bkts()) + overflow
	total   atomic.Uint64
	sum     afloat
	buckets []float64
}

// bkts returns the bucket bounds this histogram counts into.
func (h *histogram) bkts() []float64 {
	if h.buckets == nil {
		return histBuckets
	}
	return h.buckets
}

func (h *histogram) Observe(v float64) {
	buckets := h.bkts()
	i := 0
	for i < len(buckets) && v > buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from bucket counts,
// interpolating linearly within the chosen bucket. Returns 0 with no
// observations.
func (h *histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	buckets := h.bkts()
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = buckets[i-1]
			}
			hi := lo * 1.6
			if i < len(buckets) {
				hi = buckets[i]
			}
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return buckets[len(buckets)-1]
}

// Mean returns the average observation, or 0 with none.
func (h *histogram) Mean() float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return h.sum.Value() / float64(total)
}

// Count returns the number of observations.
func (h *histogram) Count() uint64 { return h.total.Load() }

// Snapshot returns cumulative bucket counts aligned with Buckets() and
// the observation sum, for the metrics exposition format.
func (h *histogram) Snapshot() (cum []uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.sum.Value()
}

// Buckets returns the histogram's upper bounds in seconds.
func Buckets() []float64 { return histBuckets }
