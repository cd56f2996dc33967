package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host time is measured on CPU clocks and calibrated against a fixed
// reference computation, because a shared host moves the wall time of
// the same work by up to twice from run to run:
//
//   - Time the process waits for a processor, held by another process
//     or taken by the hypervisor (steal time), is not CPU time: the
//     kernel charges a thread only while it runs.
//   - What remains is the speed of the processor itself, which a busy
//     host also moves (shared cores and caches, clock frequency), within
//     a run as well as between runs. So while a run measures, a meter
//     times one round of a reference computation every samplePeriod on
//     a thread of its own, and each measured interval's CPU time is
//     scaled by refNominal over the median round time sampled during it.
//
// A calibrated time is therefore the CPU time the work would take on a
// processor that runs one reference round in refNominal. The reference
// is the benchmark's own code and calls nothing in the program, so a
// change to the program moves calibrated times exactly as it moves CPU
// times. The meter's own CPU time is taken out of every reading
// (workCPU).

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// Reference: refIters runs of a fixed 256-instruction register-machine
// program, interpreted through a switch — a branchy loop like the RTL
// engines' stepping. refNominal is about one round's CPU time on an
// unloaded 2-vCPU Xeon VM. A round every samplePeriod costs the meter
// about 2% of one processor.
const (
	refIters     = 1000
	refNominal   = 650 * time.Microsecond
	samplePeriod = 40 * time.Millisecond
)

type refInstr struct{ op, a, b, d uint8 }

var refProgram = func() (p [256]refInstr) {
	x := uint64(88172645463325252)
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = refInstr{uint8(x % 6), uint8(x >> 8 % 64), uint8(x >> 16 % 64), uint8(x >> 24 % 64)}
	}
	return p
}()

// refRound runs the reference once and returns a value that depends on
// every step, so the compiler cannot drop any.
func refRound() uint64 {
	var r [64]uint64
	for it := uint64(0); it < refIters; it++ {
		for _, in := range &refProgram {
			switch in.op {
			case 0:
				r[in.d] = r[in.a] + r[in.b]
			case 1:
				r[in.d] = r[in.a] ^ r[in.b]<<1
			case 2:
				r[in.d] = r[in.a]&r[in.b] | 1
			case 3:
				if r[in.a] > r[in.b] {
					r[in.d] = r[in.a]
				} else {
					r[in.d] = r[in.b] + 3
				}
			case 4:
				r[in.d] = r[in.a] >> (r[in.b] & 7)
			default:
				r[in.d] = r[in.a]*7 + it
			}
		}
	}
	return r[0]
}

// refSample is one timed reference round: when it ended, and its
// thread CPU time.
type refSample struct {
	at time.Time
	d  time.Duration
}

// meter samples the processor's speed (see above).
type meter struct {
	stop, done chan struct{}
	own        atomic.Int64 // CPU nanoseconds the meter has spent
	mu         sync.Mutex
	samples    []refSample
	sink       uint64
}

// speed is the run's meter; nil (as in unit tests) leaves CPU times
// uncalibrated.
var speed *meter

// startMeter starts sampling; the first round is timed before it
// returns.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		defer close(m.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			t0 := clockNow(clockThreadCPUTime)
			m.sink += refRound()
			d := clockNow(clockThreadCPUTime) - t0
			m.mu.Lock()
			m.samples = append(m.samples, refSample{at: time.Now(), d: d})
			m.mu.Unlock()
			m.own.Add(int64(d))
			if first != nil {
				close(first)
				first = nil
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	<-first
	return m
}

// close stops the meter and waits for its goroutine to end.
func (m *meter) close() {
	close(m.stop)
	<-m.done
}

// workCPU reads the CPU time the process has used so far, over all its
// threads, less the meter's.
func workCPU() time.Duration {
	t := clockNow(clockProcessCPUTime)
	if speed != nil {
		t -= time.Duration(speed.own.Load())
	}
	return t
}

// scale returns the factor that converts CPU time spent in the wall
// interval [from, to] into calibrated time: refNominal over the median
// round sampled in it. An interval shorter than the sampling period
// also takes the rounds of the two periods before it, so it always has
// one. Without a meter the factor is 1.
func scale(from, to time.Time) float64 {
	if speed == nil {
		return 1
	}
	from = from.Add(-2 * samplePeriod)
	speed.mu.Lock()
	var ds []float64
	for _, s := range speed.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			ds = append(ds, s.d.Seconds())
		}
	}
	if len(ds) == 0 {
		ds = append(ds, speed.samples[len(speed.samples)-1].d.Seconds())
	}
	speed.mu.Unlock()
	return refNominal.Seconds() / median(ds)
}

// sampleStats summarizes the meter's rounds for the run's report: their
// count and median, minimum and maximum CPU time.
func (m *meter) sampleStats() (n int, med, lo, hi time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds := make([]float64, len(m.samples))
	for i, s := range m.samples {
		ds[i] = s.d.Seconds()
	}
	return len(ds), time.Duration(median(ds) * 1e9), time.Duration(slices.Min(ds) * 1e9), time.Duration(slices.Max(ds) * 1e9)
}
