package engine

import (
	"container/heap"
	"sync"
	"time"

	"schedsearch/internal/job"
)

// Clock is the engine's source of time and timers, in simulation
// seconds (job.Time). Two implementations exist: RealClock maps the
// timeline onto the wall clock (optionally sped up), VirtualClock is
// deterministic and steppable so the engine can be unit-tested and can
// replay traces faster than real time.
//
// Implementations must be goroutine-safe. Callbacks run without any
// clock lock held, so they may call Now and AfterFunc freely.
type Clock interface {
	// Now returns the current time on the engine timeline.
	Now() job.Time
	// AfterFunc arranges for f to run once d seconds of engine time
	// have elapsed (d <= 0 means as soon as possible). On a RealClock
	// f runs on its own goroutine; on a VirtualClock f runs inside the
	// driver's RunDue/AdvanceTo/Run call.
	AfterFunc(d job.Duration, f func()) Timer
}

// Timer is a pending AfterFunc callback. Stop cancels it and reports
// whether it was still pending.
type Timer interface {
	Stop() bool
}

// RealClock maps the engine timeline onto the wall clock: time zero is
// the moment the clock was created, and one engine second corresponds
// to 1/Speedup wall seconds.
type RealClock struct {
	origin  time.Time
	start   job.Time
	speedup float64
}

// NewRealClock returns a wall clock starting at engine time zero.
// speedup is engine seconds per wall second; values <= 0 mean 1 (real
// time). A speedup of 3600 replays an hour of engine time per wall
// second.
func NewRealClock(speedup float64) *RealClock {
	return NewRealClockAt(0, speedup)
}

// NewRealClockAt returns a wall clock whose timeline starts at `start`
// engine seconds instead of zero. A daemon rebuilding from a journal
// resumes its clock at the last committed timestamp, so replayed
// history stays in the past (a rebuilt engine whose clock restarted at
// zero would violate start-before-arrival on every recovered job).
func NewRealClockAt(start job.Time, speedup float64) *RealClock {
	if speedup <= 0 {
		speedup = 1
	}
	return &RealClock{origin: time.Now(), start: start, speedup: speedup}
}

// Now implements Clock.
func (c *RealClock) Now() job.Time {
	return c.start + job.Time(time.Since(c.origin).Seconds()*c.speedup)
}

// AfterFunc implements Clock via time.AfterFunc.
func (c *RealClock) AfterFunc(d job.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	wall := time.Duration(float64(d) / c.speedup * float64(time.Second))
	return realTimer{t: time.AfterFunc(wall, f)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// VirtualClock is a deterministic, steppable clock. Time only moves
// when the driver calls AdvanceTo, RunDue or Run; timers fire in
// (time, scheduling order) sequence inside those calls, on the
// driver's goroutine. AfterFunc and Stop may be called concurrently
// from any goroutine (timer callbacks typically schedule new timers),
// but only one goroutine may drive AdvanceTo/RunDue/Run at a time.
type VirtualClock struct {
	mu   sync.Mutex
	now  job.Time
	seq  int64
	heap vtimerHeap
}

// NewVirtualClock returns a virtual clock at time zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() job.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements Clock; the timer fires at now+d when the driver
// advances past it.
func (c *VirtualClock) AfterFunc(d job.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &vtimer{at: c.now + d, seq: c.seq, f: f, c: c}
	c.seq++
	heap.Push(&c.heap, t)
	return t
}

// NextAt returns the due time of the earliest pending timer.
func (c *VirtualClock) NextAt() (job.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.heap.Len() > 0 {
		if !c.heap.ts[0].stopped {
			return c.heap.ts[0].at, true
		}
		heap.Pop(&c.heap)
	}
	return 0, false
}

// popDue removes and returns the earliest live timer due at or before
// limit, advancing now to its due time.
func (c *VirtualClock) popDue(limit job.Time) *vtimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.heap.Len() > 0 {
		t := c.heap.ts[0]
		if t.stopped {
			heap.Pop(&c.heap)
			continue
		}
		if t.at > limit {
			return nil
		}
		heap.Pop(&c.heap)
		t.fired = true
		if t.at > c.now {
			c.now = t.at
		}
		return t
	}
	return nil
}

// RunDue fires every timer due at the current time, including timers
// they schedule, and returns how many fired.
func (c *VirtualClock) RunDue() int { return c.AdvanceTo(c.Now()) }

// AdvanceTo moves time forward to t, firing due timers in (time,
// scheduling order) along the way, and returns how many fired. Time
// ends at t even if no timer was due. Advancing backwards is a no-op.
func (c *VirtualClock) AdvanceTo(t job.Time) int {
	n := 0
	for {
		tm := c.popDue(t)
		if tm == nil {
			break
		}
		tm.f()
		n++
	}
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
	return n
}

// Run fires all pending timers (including newly scheduled ones) in
// order until none remain, and returns how many fired. Time ends at
// the last timer's due time.
func (c *VirtualClock) Run() int {
	n := 0
	for {
		tm := c.popDue(job.Time(1) << 62)
		if tm == nil {
			return n
		}
		tm.f()
		n++
	}
}

// vtimer is one pending virtual timer; stopped timers stay in the heap
// and are discarded lazily.
type vtimer struct {
	at      job.Time
	seq     int64
	f       func()
	stopped bool
	fired   bool
	c       *VirtualClock
}

// Stop implements Timer. A stopped timer stays in the heap and is
// discarded lazily when it reaches the top.
func (t *vtimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

// vtimerHeap orders timers by (at, seq).
type vtimerHeap struct{ ts []*vtimer }

func (h *vtimerHeap) Len() int { return len(h.ts) }
func (h *vtimerHeap) Less(i, k int) bool {
	if h.ts[i].at != h.ts[k].at {
		return h.ts[i].at < h.ts[k].at
	}
	return h.ts[i].seq < h.ts[k].seq
}
func (h *vtimerHeap) Swap(i, k int) { h.ts[i], h.ts[k] = h.ts[k], h.ts[i] }
func (h *vtimerHeap) Push(x any)    { h.ts = append(h.ts, x.(*vtimer)) }
func (h *vtimerHeap) Pop() any {
	last := len(h.ts) - 1
	t := h.ts[last]
	h.ts = h.ts[:last]
	return t
}
