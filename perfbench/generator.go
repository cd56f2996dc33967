package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
)

// The load generator submits from the calling goroutine and keeps at
// most window jobs of a stream outstanding (a closed loop: a stream's
// next job goes out only when an earlier one has completed); among
// streams with a free slot, the one whose next job arrives earliest in
// virtual time goes first. A second goroutine receives Outcomes and
// timestamps each as it arrives, so a job is timed from just before its
// submission until its Outcome is delivered, whatever the submitter is
// doing then. Job latencies are read on the process's CPU clock
// (workCPU); wall instants only bound the trace spans. Window is kept
// below the serving queue depth, so host speed can never make a queue
// overflow. The generator never runs more than two goroutines, so it
// fits beside the serving workers on a two-core machine.
//
// Outstanding jobs occupy fixed slots, each with a reusable result
// channel, and the receiver waits on all of them in one select
// statement (recvAny). reflect.Select would allocate a value per
// channel on every call, kilobytes per job, and the garbage collection
// that paid for it landed in the very latencies being measured.

// maxOutstanding is the most jobs the generator can have outstanding
// over all its streams: streams × window must not exceed it.
const maxOutstanding = 32

// submitFunc submits job i of stream s with a one-slot result channel.
// It returns an error for a job that was refused or failed to submit;
// such a job delivers no Outcome.
type submitFunc func(s, i int, result chan<- serve.Outcome) error

// outstanding is a submitted job awaiting its Outcome.
type outstanding struct {
	stream   int
	startCPU time.Duration
	span     int
}

// driveResult is what one generator run observed.
type driveResult struct {
	// latencies are in process CPU time.
	latencies []time.Duration
	attempted int
	// refused counts submit errors; errored counts Outcomes whose Err
	// is set.
	refused, errored int
	wall, cpu        time.Duration
}

// collector tracks outstanding jobs by slot. Its fields are guarded by
// mu. Only the submitter marks a slot busy, and only the receiver frees
// it, so the submitter may use a free slot's channel without the lock.
type collector struct {
	mu        sync.Mutex
	slots     [maxOutstanding]chan serve.Outcome
	busy      [maxOutstanding]bool
	jobs      [maxOutstanding]outstanding
	n         int // busy slots
	perStream []int
	finished  bool // every job is submitted
	res       *driveResult
	tr        *tracer
}

// take records the Outcome o of the job in slot k, received at wall
// instant at and process CPU time atCPU, and frees the slot.
func (c *collector) take(k int, o serve.Outcome, at time.Time, atCPU time.Duration) {
	j := c.jobs[k]
	c.res.latencies = append(c.res.latencies, atCPU-j.startCPU)
	if o.Err != nil {
		c.res.errored++
	}
	c.perStream[j.stream]--
	c.busy[k] = false
	c.n--
	c.tr.endAt(j.span, at)
}

// drive feeds every stream through submit and collects the Outcomes
// (see above). jobSpan and submitSpan name the spans recorded around
// each job and each submit call.
func drive(streams []stream, window int, submit submitFunc, tr *tracer, jobSpan, submitSpan string) driveResult {
	if len(streams)*window > maxOutstanding {
		panic(fmt.Sprintf("perfbench: %d streams × window %d exceed %d outstanding jobs", len(streams), window, maxOutstanding))
	}
	total := 0
	for _, st := range streams {
		total += len(st.Jobs)
	}
	res := driveResult{latencies: make([]time.Duration, 0, total)}
	c := &collector{perStream: make([]int, len(streams)), res: &res, tr: tr}
	for k := range c.slots {
		c.slots[k] = make(chan serve.Outcome, 1)
	}
	var (
		added  = make(chan struct{}, 1) // a slot turned busy, or submitting ended
		freed  = make(chan struct{}, 1) // a slot was freed
		closed = make(chan struct{})    // the receiver has exited
	)
	signal := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	start, cpu0 := time.Now(), workCPU()
	go func() {
		defer close(closed)
		for {
			var chs [maxOutstanding]chan serve.Outcome // nil: blocks forever
			c.mu.Lock()
			if c.finished && c.n == 0 {
				c.mu.Unlock()
				return
			}
			for k, b := range c.busy {
				if b {
					chs[k] = c.slots[k]
				}
			}
			c.mu.Unlock()
			k, o := recvAny(&chs, added)
			if k < 0 {
				continue
			}
			at, atCPU := time.Now(), workCPU()
			c.mu.Lock()
			c.take(k, o, at, atCPU)
			c.mu.Unlock()
			signal(freed)
		}
	}()

	next := make([]int, len(streams))
	var seq int64
	for {
		c.mu.Lock()
		pick, pending, slot := -1, false, -1
		for s, st := range streams {
			if next[s] >= len(st.Jobs) {
				continue
			}
			pending = true
			if c.perStream[s] < window && (pick < 0 || st.Arrivals[next[s]] < streams[pick].Arrivals[next[pick]]) {
				pick = s
			}
		}
		if pick >= 0 {
			for k, b := range c.busy {
				if !b {
					slot = k
					break
				}
			}
		}
		c.mu.Unlock()
		if !pending {
			break
		}
		if pick < 0 {
			<-freed
			continue
		}
		i := next[pick]
		next[pick]++
		res.attempted++
		id := seq
		seq++
		span := tr.begin(jobSpan, -1, id)
		t0 := workCPU()
		sub := tr.begin(submitSpan, span, id)
		err := submit(pick, i, c.slots[slot])
		tr.end(sub)
		if err != nil {
			res.refused++
			tr.end(span)
			continue
		}
		c.mu.Lock()
		c.jobs[slot] = outstanding{stream: pick, startCPU: t0, span: span}
		c.busy[slot] = true
		c.n++
		c.perStream[pick]++
		c.mu.Unlock()
		signal(added)
	}
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
	signal(added)
	<-closed
	res.wall = time.Since(start)
	res.cpu = workCPU() - cpu0
	return res
}

// recvAny waits for an Outcome on any non-nil channel of chs and
// returns its slot, or -1 when wake fires first. A select statement
// receives into the caller's frame and allocates nothing.
func recvAny(chs *[maxOutstanding]chan serve.Outcome, wake <-chan struct{}) (int, serve.Outcome) {
	var o serve.Outcome
	select {
	case <-wake:
		return -1, o
	case o = <-chs[0]:
		return 0, o
	case o = <-chs[1]:
		return 1, o
	case o = <-chs[2]:
		return 2, o
	case o = <-chs[3]:
		return 3, o
	case o = <-chs[4]:
		return 4, o
	case o = <-chs[5]:
		return 5, o
	case o = <-chs[6]:
		return 6, o
	case o = <-chs[7]:
		return 7, o
	case o = <-chs[8]:
		return 8, o
	case o = <-chs[9]:
		return 9, o
	case o = <-chs[10]:
		return 10, o
	case o = <-chs[11]:
		return 11, o
	case o = <-chs[12]:
		return 12, o
	case o = <-chs[13]:
		return 13, o
	case o = <-chs[14]:
		return 14, o
	case o = <-chs[15]:
		return 15, o
	case o = <-chs[16]:
		return 16, o
	case o = <-chs[17]:
		return 17, o
	case o = <-chs[18]:
		return 18, o
	case o = <-chs[19]:
		return 19, o
	case o = <-chs[20]:
		return 20, o
	case o = <-chs[21]:
		return 21, o
	case o = <-chs[22]:
		return 22, o
	case o = <-chs[23]:
		return 23, o
	case o = <-chs[24]:
		return 24, o
	case o = <-chs[25]:
		return 25, o
	case o = <-chs[26]:
		return 26, o
	case o = <-chs[27]:
		return 27, o
	case o = <-chs[28]:
		return 28, o
	case o = <-chs[29]:
		return 29, o
	case o = <-chs[30]:
		return 30, o
	case o = <-chs[31]:
		return 31, o
	}
}
