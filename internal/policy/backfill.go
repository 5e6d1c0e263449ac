// Package policy implements the priority-backfill scheduling policies
// the paper compares against (Section 3.2): EASY-style backfill with a
// configurable number of reservations and pluggable priority functions
// (FCFS, SJF, LXF, LXF&W), plus the published variants Selective-,
// Slack-, and Relaxed-backfill and the Lookahead scheduler.
package policy

import (
	"cmp"
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
	// Score returns the job's priority at time now.
	Score(w sim.WaitingJob, now job.Time) float64
}

// FCFS prioritizes by arrival order (earlier submit = higher priority).
type FCFS struct{}

func (FCFS) Name() string { return "FCFS" }
func (FCFS) Score(w sim.WaitingJob, _ job.Time) float64 {
	return -float64(w.Job.Submit)
}

// SJF prioritizes the shortest estimated runtime first.
type SJF struct{}

func (SJF) Name() string { return "SJF" }
func (SJF) Score(w sim.WaitingJob, _ job.Time) float64 {
	return -float64(w.Estimate)
}

// LXF prioritizes the largest current bounded slowdown ("expansion
// factor") first, computed with the runtime estimate the policy sees.
type LXF struct{}

func (LXF) Name() string { return "LXF" }
func (LXF) Score(w sim.WaitingJob, now job.Time) float64 {
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
func (p LXFW) Score(w sim.WaitingJob, now job.Time) float64 {
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
// are spent, FitsAt is the only test.
func (b *Backfill) Decide(snap *sim.Snapshot) []int {
	reserved := 0
	for _, qi := range b.begin(snap, b.Priority) {
		w := &snap.Queue[qi]
		n, est := w.Job.Nodes, w.PlanEstimate()
		switch {
		case reserved < b.Reservations:
			if t, _ := b.prof.PlaceEarliest(snap.Now, n, est); t == snap.Now {
				b.starts = append(b.starts, qi)
			} else {
				reserved++
			}
		case b.prof.FitsAt(snap.Now, n, est):
			b.prof.Place(snap.Now, n, est)
			b.starts = append(b.starts, qi)
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
	order  []int
	starts []int
}

// ranked is one queued job's sort key.
type ranked struct {
	score  float64
	submit job.Time
	id, qi int
}

// begin fills the profile, empties the starts and returns the order.
func (s *scratch) begin(snap *sim.Snapshot, p Priority) []int {
	snap.FillProfile(&s.prof)
	s.starts = s.starts[:0]
	return s.priorityOrder(snap, p)
}

// priorityOrder returns queue indices sorted by descending priority, ties
// broken by submit time, then job ID, then queue position: no two keys
// tie, so the sort needs no stability to give the stable order.
func (s *scratch) priorityOrder(snap *sim.Snapshot, p Priority) []int {
	s.ranked = s.ranked[:0]
	for i, w := range snap.Queue {
		s.ranked = append(s.ranked, ranked{p.Score(w, snap.Now), w.Job.Submit, w.Job.ID, i})
	}
	slices.SortFunc(s.ranked, func(a, c ranked) int {
		if a.score != c.score {
			return cmp.Compare(c.score, a.score) // descending
		}
		return cmp.Or(cmp.Compare(a.submit, c.submit), cmp.Compare(a.id, c.id), cmp.Compare(a.qi, c.qi))
	})
	s.order = s.order[:0]
	for _, r := range s.ranked {
		s.order = append(s.order, r.qi)
	}
	return s.order
}

// BuildProfile constructs the availability profile implied by the
// snapshot: capacity minus each running job until its predicted end.
func BuildProfile(snap *sim.Snapshot) *cluster.Profile {
	prof := new(cluster.Profile)
	snap.FillProfile(prof)
	return prof
}
