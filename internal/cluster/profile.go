// Package cluster models the space-shared machine: a pool of
// interchangeable whole nodes and an availability profile — free
// capacity as a step function of time — supporting earliest-fit queries
// and undoable placements. The profile is the inner-loop data structure
// of both the backfill policies and the search-based scheduler: a search
// visiting 100K tree nodes performs one PlaceEarliest per node, and one
// Undo per node it branches at. The steps hold changes in free capacity,
// not free counts, so a placement and its undo each write two steps, the
// job's start and its end, however many steps it spans; every walk
// starts at the origin and sums the changes as it goes. PlaceEarliest is
// one pass over the steps with no restart, and EarliestFit is that pass
// without the reservation; FitsAt asks only "can it start at t?".
// EarliestFit and Place remain for planners that place elsewhere than the
// earliest fit. A caller that places a whole run of jobs and keeps none
// of them — a plan evaluation, the search's heuristic tail — brackets the
// run with Save and Restore instead of undoing it step by step.
package cluster

import "fmt"

// Time and Duration are seconds, matching package job.
type (
	Time     = int64
	Duration = int64
)

// Forever is the effective end of time for the profile: the last step
// extends to Forever.
const Forever Time = 1 << 60

// step is one piece of the free-capacity step function, kept as a
// change: from At until the next step's At (the last step extends to
// Forever) the free count is the sum of Delta over this step and every
// step before it, so steps[0].Delta is the free count at the origin. A
// reservation then writes two steps, where it starts and where it ends,
// whatever it spans, and a walk from the origin keeps the running sum.
type step struct {
	At    Time
	Delta int
}

// Profile is the free-capacity-over-time step function. The zero value
// is not usable; construct with New.
type Profile struct {
	capacity int
	steps    []step
	saved    []step // Save's copy of steps, storage reused
}

// New returns a profile for a machine with the given node capacity,
// fully free from the origin time onward.
func New(capacity int, origin Time) *Profile {
	if capacity < 1 {
		panic("cluster: capacity must be positive")
	}
	return &Profile{
		capacity: capacity,
		steps:    []step{{At: origin, Delta: capacity}},
	}
}

// Reset reinitializes the profile in place to a fully free machine of
// the given capacity from origin onward, reusing the step storage. It
// makes the zero Profile usable and lets hot paths (one profile rebuild
// per scheduling decision per search worker) avoid reallocating.
func (p *Profile) Reset(capacity int, origin Time) {
	if capacity < 1 {
		panic("cluster: capacity must be positive")
	}
	p.capacity = capacity
	p.steps = append(p.steps[:0], step{At: origin, Delta: capacity})
}

// FreeAt returns the free capacity at time t, which must not precede
// the profile's origin.
func (p *Profile) FreeAt(t Time) int {
	i, free := p.find(t)
	return free + p.steps[i].Delta
}

// Clone returns an independent copy of the profile.
func (p *Profile) Clone() *Profile {
	c := &Profile{capacity: p.capacity, steps: make([]step, len(p.steps))}
	copy(c.steps, p.steps)
	return c
}

// Save remembers the profile as it stands, replacing any earlier Save;
// Restore returns to it, whatever was placed or undone in between. The
// copy goes into storage the profile keeps, so a steady caller allocates
// nothing.
func (p *Profile) Save() { p.saved = append(p.saved[:0], p.steps...) }

// Restore brings back the steps of the most recent Save. The capacity
// must not have been Reset since.
func (p *Profile) Restore() { p.steps = append(p.steps[:0], p.saved...) }

// find returns the index i of the step covering time t — the greatest i
// with steps[i].At <= t — and the free count before it, the sum of the
// changes of steps[:i]. It walks from the origin, since the free count
// is a running sum; t must not precede steps[0].At.
func (p *Profile) find(t Time) (i, free int) {
	if t < p.steps[0].At {
		panic(fmt.Sprintf("cluster: time %d precedes profile origin %d", t, p.steps[0].At))
	}
	for i+1 < len(p.steps) && p.steps[i+1].At <= t {
		free += p.steps[i].Delta
		i++
	}
	return i, free
}

// EarliestFit returns the earliest time t >= after at which nodes free
// capacity is at least n for the full duration d. For d == 0 it returns
// the earliest time with free capacity >= n. n must be in [1, capacity].
// It is PlaceEarliest's scan without the reservation; times are whole
// seconds, so a fit for d == 0 is a fit for d == 1.
func (p *Profile) EarliestFit(after Time, n int, d Duration) Time {
	if n < 1 || n > p.capacity {
		panic(fmt.Sprintf("cluster: EarliestFit n=%d outside [1,%d]", n, p.capacity))
	}
	if d < 0 {
		panic("cluster: EarliestFit negative duration")
	}
	t, _, _ := p.scan(after, n, max(d, 1))
	return t
}

// Placement is the undo record for one Place call. It is valid only
// until the next Place or Undo on the profile (placements undo in LIFO
// order).
type Placement struct {
	lo, hi int   // the steps where the reservation starts and ends
	n      int   // nodes subtracted
	ins    uint8 // insLo|insHi: the boundaries where a step was inserted
}

// The bits of Placement.ins.
const (
	insLo = 1 << iota // a step was inserted at the start boundary
	insHi             // a step was inserted at the end boundary
)

// Place reserves n nodes during [t, t+d), decreasing free capacity, and
// returns an undo record. It panics, leaving the profile untouched, if
// the interval is not fully feasible (callers must place only at times
// returned by EarliestFit) or if d == 0 (an empty reservation is
// meaningless).
func (p *Profile) Place(t Time, n int, d Duration) Placement {
	if d <= 0 {
		panic("cluster: Place with non-positive duration")
	}
	if n < 1 || n > p.capacity {
		panic(fmt.Sprintf("cluster: Place n=%d outside [1,%d]", n, p.capacity))
	}
	end := t + d
	lo, free := p.find(t)
	// The region ends at the first step with At >= end.
	hi := lo
	for hi < len(p.steps) && p.steps[hi].At < end {
		if free += p.steps[hi].Delta; free < n {
			panic(fmt.Sprintf("cluster: Place(%d, n=%d, d=%d) infeasible at step %d (free %d)",
				t, n, d, hi, free))
		}
		hi++
	}
	return p.reserve(lo, hi, t, end, n)
}

// reserve subtracts n nodes over [t, end), given that steps[lo] covers
// t, steps[hi] is the first step with At >= end (len(steps) if none)
// and every step in [lo, hi) has at least n free. A boundary that falls
// inside a step splits it with a step of no change; then steps[lo]
// starts at t, steps[hi] at end, and the reservation is their two
// changes.
func (p *Profile) reserve(lo, hi int, t, end Time, n int) Placement {
	var ins uint8
	if p.steps[lo].At < t {
		p.steps = append(p.steps, step{})
		copy(p.steps[lo+2:], p.steps[lo+1:])
		p.steps[lo+1] = step{At: t}
		lo++
		hi++
		ins = insLo
	}
	// The step hi-1 extends past end unless one already starts there.
	if hi == len(p.steps) || p.steps[hi].At > end {
		p.steps = append(p.steps, step{})
		copy(p.steps[hi+1:], p.steps[hi:])
		p.steps[hi] = step{At: end}
		ins |= insHi
	}
	p.steps[lo].Delta -= n
	p.steps[hi].Delta += n
	return Placement{lo, hi, n, ins}
}

// Undo reverts the most recent Place. Placements must be undone in
// strict LIFO order; undoing out of order corrupts the profile.
func (p *Profile) Undo(pl Placement) {
	p.steps[pl.lo].Delta += pl.n
	p.steps[pl.hi].Delta -= pl.n
	// Remove inserted boundary steps (end first so indices stay valid).
	if pl.ins&insHi != 0 {
		copy(p.steps[pl.hi:], p.steps[pl.hi+1:])
		p.steps = p.steps[:len(p.steps)-1]
	}
	if pl.ins&insLo != 0 {
		copy(p.steps[pl.lo:], p.steps[pl.lo+1:])
		p.steps = p.steps[:len(p.steps)-1]
	}
}

// PlaceEarliest finds the earliest fit at or after `after` and places
// the job there, returning the chosen start time and the undo record. It
// is EarliestFit followed by Place in one pass: the feasibility scan
// ends knowing which steps [t, t+d) covers, so nothing is searched for
// or scanned twice, and a query from the origin (every search node: the
// profile is rebuilt at the decision instant) starts scanning at once,
// with no walk to a later start. d must be positive.
func (p *Profile) PlaceEarliest(after Time, n int, d Duration) (Time, Placement) {
	if n < 1 || n > p.capacity {
		panic(fmt.Sprintf("cluster: PlaceEarliest n=%d outside [1,%d]", n, p.capacity))
	}
	if d <= 0 {
		panic("cluster: PlaceEarliest with non-positive duration")
	}
	t, lo, hi := p.scan(after, n, d)
	return t, p.reserve(lo, hi, t, t+d, n)
}

// scan returns the earliest fit t >= after of n nodes for d > 0 seconds,
// the step lo covering t and the first step hi with At >= t+d
// (len(steps) if none). It is one pass with no restart: it adds each
// step's change to the free count, a step narrower than n moves the
// candidate to the next step's start — two conditional moves, not a
// branch — and the one exit that depends on the data is taken once. The
// last step is free at full capacity, so a pass that reaches it fits
// there.
func (p *Profile) scan(after Time, n int, d Duration) (t Time, lo, hi int) {
	steps := p.steps
	lo, t = 0, steps[0].At
	free := 0
	if after > t {
		lo, free = p.find(after)
		t = after
	}
	base := lo
	cur := steps[base : len(steps)-1]
	next := steps[base+1:][:len(cur)]
	for i := range cur {
		at := next[i].At
		if free += cur[i].Delta; free < n {
			lo, t = base+i+1, at
		}
		if at-t >= d {
			return t, lo, base + i + 1
		}
	}
	return t, lo, len(steps)
}

// FitsAt reports whether EarliestFit(t, n, d) == t: whether n nodes are
// free throughout [t, t+d). It walks only to t and across the interval,
// and stops at the first step narrower than n.
func (p *Profile) FitsAt(t Time, n int, d Duration) bool {
	end := t + max(d, 1)
	i, free := p.find(t)
	for ; i < len(p.steps) && p.steps[i].At < end; i++ {
		if free += p.steps[i].Delta; free < n {
			return false
		}
	}
	return true
}

// CheckInvariants verifies structural invariants; tests call it after
// mutation sequences. It returns an error describing the first violation.
func (p *Profile) CheckInvariants() error {
	if len(p.steps) == 0 {
		return fmt.Errorf("empty profile")
	}
	free := 0
	for i, s := range p.steps {
		if free += s.Delta; free < 0 || free > p.capacity {
			return fmt.Errorf("step %d free %d outside [0,%d]", i, free, p.capacity)
		}
		if i > 0 && p.steps[i-1].At >= s.At {
			return fmt.Errorf("steps not strictly increasing at %d: %d >= %d",
				i, p.steps[i-1].At, s.At)
		}
	}
	if free != p.capacity {
		return fmt.Errorf("final step free %d != capacity %d", free, p.capacity)
	}
	return nil
}
