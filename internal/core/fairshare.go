package core

import (
	"math"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Fairshare wraps a search scheduler with the paper's third future-work
// direction: incorporating fairshare into the scheduling objective. It
// tracks each user's recent machine usage (an exponentially decayed
// node-seconds integral) and discounts the slowdown cost of jobs whose
// user is over-served, so the search more willingly delays them in
// favour of under-served users. The first-level goal (excessive wait)
// is untouched: fairshare never starves anyone past the wait bound.
type Fairshare struct {
	// Inner is the wrapped search scheduler.
	Inner *Scheduler
	// Alpha is the discount strength: a user at k times their fair
	// share has their jobs' slowdown cost divided by 1 + Alpha*(k-1).
	// It must be non-negative, so that every divisor is at least 1 and
	// the cost stays non-negative and monotone (hierarchicalCost).
	Alpha float64

	usage   map[int]float64 // user -> decayed node-seconds
	lastNow job.Time
	users   map[int]struct{} // scratch: the users queued at a decision
	div     []float64        // scratch: the decision's slowdown divisors
}

// fairshareHalflife is the half-life of the usage decay.
const fairshareHalflife = 24 * job.Hour

// NewFairshare wraps the scheduler with discount strength alpha.
func NewFairshare(inner *Scheduler, alpha float64) *Fairshare {
	return &Fairshare{Inner: inner, Alpha: alpha}
}

// Name implements sim.Policy.
func (f *Fairshare) Name() string { return f.Inner.Name() + "+fs" }

// Unwrap returns the wrapped scheduler (see PolicyAs).
func (f *Fairshare) Unwrap() sim.Policy { return f.Inner }

// Decide implements sim.Policy: the inner search decides with one
// slowdown divisor per queued job, exactly 1 for a job whose user is not
// over-served.
func (f *Fairshare) Decide(snap *sim.Snapshot) []int {
	f.update(snap)

	// The fair share is an equal split over the users queued at this
	// decision.
	if f.users == nil {
		f.users = make(map[int]struct{})
	}
	clear(f.users)
	for i := range snap.Queue {
		f.users[snap.Queue[i].Job.User] = struct{}{}
	}
	var total float64
	for _, u := range f.usage {
		total += u
	}
	active := float64(len(f.users))
	f.div = Resize(f.div, len(snap.Queue))
	for i := range snap.Queue {
		w := &snap.Queue[i]
		f.div[w.QueuePos] = 1
		if total <= 0 || w.Job.User == 0 {
			continue
		}
		if over := f.usage[w.Job.User] / total * active; over > 1 { // 1 = exactly fair
			f.div[w.QueuePos] = 1 + f.Alpha*(over-1)
		}
	}
	return f.Inner.decide(snap, f.div)
}

// update decays the usage integral and accrues the running jobs' usage
// since the previous decision.
func (f *Fairshare) update(snap *sim.Snapshot) {
	if f.usage == nil {
		f.usage = make(map[int]float64)
	}
	dt := snap.Now - f.lastNow
	if f.lastNow == 0 {
		dt = 0
	}
	f.lastNow = snap.Now
	if dt <= 0 {
		return
	}
	decay := math.Exp2(-float64(dt) / float64(fairshareHalflife))
	for u := range f.usage {
		f.usage[u] *= decay
		if f.usage[u] < 1e-6 {
			delete(f.usage, u)
		}
	}
	// Accrue usage for the interval just elapsed. Decisions happen at
	// every start and completion, so integrating running jobs over
	// [lastNow, now] captures the full usage up to boundary overlaps.
	for _, r := range snap.Running {
		span := dt
		if r.Start > snap.Now-dt {
			span = snap.Now - r.Start
		}
		if span > 0 && r.User != 0 {
			f.usage[r.User] += float64(r.Nodes) * float64(span)
		}
	}
}
