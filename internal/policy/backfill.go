// Package policy implements the priority-backfill scheduling policies
// the paper compares against (Section 3.2): EASY-style backfill with a
// configurable number of reservations and pluggable priority functions
// (FCFS, SJF, LXF, LXF&W), plus the published variants Selective-,
// Slack-, and Relaxed-backfill and the Lookahead scheduler.
package policy

import (
	"slices"

	"schedsearch/internal/cluster"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Priority scores a waiting job at a decision instant; larger scores
// schedule first. Implementations must be deterministic and never NaN.
type Priority interface {
	// Name is the short priority tag used in policy names ("FCFS").
	Name() string
	// Score returns the job's priority at time now. It reads the job
	// through the pointer, so scoring a deep queue copies no job.
	Score(w *sim.WaitingJob, now job.Time) float64
}

// FCFS prioritizes by arrival order (earlier submit = higher priority).
type FCFS struct{}

func (FCFS) Name() string { return "FCFS" }
func (FCFS) Score(w *sim.WaitingJob, _ job.Time) float64 {
	return -float64(w.Job.Submit)
}

// SJF prioritizes the shortest estimated runtime first.
type SJF struct{}

func (SJF) Name() string { return "SJF" }
func (SJF) Score(w *sim.WaitingJob, _ job.Time) float64 {
	return -float64(w.Estimate)
}

// LXF prioritizes the largest current bounded slowdown ("expansion
// factor") first, computed with the runtime estimate the policy sees.
type LXF struct{}

func (LXF) Name() string { return "LXF" }
func (LXF) Score(w *sim.WaitingJob, now job.Time) float64 {
	return job.BoundedSlowdownAt(w.Job.Submit, w.Estimate, now)
}

// LXFW is LXF plus a small weight on the current wait time (LXF&W in the
// paper's terminology), which bounds starvation of long jobs.
type LXFW struct {
	// WaitWeight is the priority added per hour of waiting; the paper's
	// prior work uses a very small weight (default 0.02/h via NewLXFW).
	WaitWeight float64
}

// NewLXFW returns LXF&W with the conventional small wait weight.
func NewLXFW() LXFW { return LXFW{WaitWeight: 0.02} }

func (LXFW) Name() string { return "LXF&W" }
func (p LXFW) Score(w *sim.WaitingJob, now job.Time) float64 {
	waitHours := float64(now-w.Job.Submit) / float64(job.Hour)
	return job.BoundedSlowdownAt(w.Job.Submit, w.Estimate, now) + p.WaitWeight*waitHours
}

// Backfill is an EASY-style priority backfill policy: jobs are
// considered in priority order; the first Reservations jobs that cannot
// start now are given scheduled start times (reservations) at their
// earliest fit; lower-priority jobs may start now only if they do not
// delay any reservation. The paper's FCFS-backfill and LXF-backfill use
// one reservation.
type Backfill struct {
	Priority     Priority
	Reservations int
	name         string
	scratch
}

// NewBackfill returns a backfill policy with one reservation, matching
// the paper's configuration.
func NewBackfill(p Priority) *Backfill { return &Backfill{Priority: p, Reservations: 1} }

// FCFSBackfill returns the paper's FCFS-backfill baseline.
func FCFSBackfill() *Backfill { return NewBackfill(FCFS{}) }

// ConservativeBackfill returns conservative backfill: every queued job
// holds a reservation, so no backfill move can delay any higher-priority
// job's planned start.
func ConservativeBackfill(p Priority) *Backfill {
	b := &Backfill{Priority: p, Reservations: int(^uint(0) >> 1)}
	b.name = "Conservative-backfill(" + p.Name() + ")"
	return b
}

// LXFBackfill returns the paper's LXF-backfill baseline.
func LXFBackfill() *Backfill { return NewBackfill(LXF{}) }

// Name implements sim.Policy.
func (b *Backfill) Name() string {
	if b.name != "" {
		return b.name
	}
	return b.Priority.Name() + "-backfill"
}

// WithName overrides the report name (for ablation variants).
func (b *Backfill) WithName(name string) *Backfill {
	b.name = name
	return b
}

// Decide implements sim.Policy. While reservations remain, one
// PlaceEarliest answers both "now?" and "where to reserve"; once they
// are spent, FitsAt is the only test, and only for a job no wider than
// the nodes still free now. A full machine ends the pass: no later job
// can start, and a reservation matters only to later starts.
func (b *Backfill) Decide(snap *sim.Snapshot) []int {
	reserved := 0
	order, free := b.begin(snap, b.Priority)
	for _, r := range order {
		qi := r.qi
		w := &snap.Queue[qi]
		n, est := w.Job.Nodes, w.PlanEstimate()
		switch {
		case reserved < b.Reservations:
			if t, _ := b.prof.PlaceEarliest(snap.Now, n, est); t == snap.Now {
				b.starts = append(b.starts, qi)
				free -= n
			} else {
				reserved++
			}
		case n <= free && b.prof.FitsAt(snap.Now, n, est):
			b.prof.Place(snap.Now, n, est)
			b.starts = append(b.starts, qi)
			free -= n
		}
		if free == 0 {
			break
		}
	}
	return b.starts
}

// scratch is what a policy keeps between decisions, so a steady one
// allocates nothing: its profile, its priority order and the starts it
// returns, which its next Decide reuses.
type scratch struct {
	prof   cluster.Profile
	ranked []ranked
	starts []int
}

// ranked is one queued job's sort key; qi is its queue position.
type ranked struct {
	score  float64
	submit job.Time
	id, qi int
}

// begin fills the profile, empties the starts and returns the priority
// order with the nodes free now. A pass that looks for starts subtracts
// each start from free and stops at 0. With nothing free, no job can
// start, so the order is left empty and the queue is not scored.
func (s *scratch) begin(snap *sim.Snapshot, p Priority) (order []ranked, free int) {
	snap.FillProfile(&s.prof)
	s.starts = s.starts[:0]
	if free = s.prof.FreeAt(snap.Now); free == 0 {
		return nil, 0
	}
	return s.priorityOrder(snap, p), free
}

// priorityOrder returns the queue's keys sorted by descending priority,
// ties broken by submit time, then job ID, then queue position: no two
// keys tie, so the sort needs no stability to give the stable order. The
// keys are checked as they are scored, and a queue already in that order
// (FCFS over the ledger's arrival order) is not sorted at all.
func (s *scratch) priorityOrder(snap *sim.Snapshot, p Priority) []ranked {
	s.ranked = s.ranked[:0]
	sorted := true
	for i := range snap.Queue {
		w := &snap.Queue[i]
		r := ranked{p.Score(w, snap.Now), w.Job.Submit, w.Job.ID, i}
		sorted = sorted && (i == 0 || byPriority(s.ranked[i-1], r) < 0)
		s.ranked = append(s.ranked, r)
	}
	if !sorted {
		slices.SortFunc(s.ranked, byPriority)
	}
	return s.ranked
}

// byPriority compares two keys in priorityOrder's order. Scores are never
// NaN, so plain comparisons order them, and the function is small enough
// to inline into the check that the keys are already in order.
func byPriority(a, c ranked) int {
	switch {
	case a.score != c.score:
		return later(a.score < c.score)
	case a.submit != c.submit:
		return later(a.submit > c.submit)
	case a.id != c.id:
		return later(a.id > c.id)
	}
	return a.qi - c.qi
}

// later is a comparison's result for keys that differ: 1 if the first
// goes after the second, -1 if before.
func later(after bool) int {
	if after {
		return 1
	}
	return -1
}

// BuildProfile constructs the availability profile implied by the
// snapshot: capacity minus each running job until its predicted end.
func BuildProfile(snap *sim.Snapshot) *cluster.Profile {
	prof := new(cluster.Profile)
	snap.FillProfile(prof)
	return prof
}
