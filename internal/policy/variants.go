package policy

import (
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// SelectiveBackfill implements the Selective-backfill strategy of
// Srinivasan et al. (JSSPP 2002): jobs are backfilled freely until their
// expansion factor ((wait + estimate)/estimate) crosses an adaptive
// threshold, at which point they are granted a reservation. The paper
// (Section 3.2) found it to behave like LXF-backfill on these workloads.
type SelectiveBackfill struct {
	// Threshold is the starting expansion-factor threshold; the policy
	// adapts it toward the running average expansion factor of started
	// jobs.
	Threshold float64

	startedXF  float64 // sum of expansion factors at start
	startedCnt int
	scratch
}

// NewSelectiveBackfill returns a Selective-backfill policy with the
// conventional initial threshold.
func NewSelectiveBackfill() *SelectiveBackfill { return &SelectiveBackfill{Threshold: 2} }

// Name implements sim.Policy.
func (s *SelectiveBackfill) Name() string { return "Selective-backfill" }

func (s *SelectiveBackfill) threshold() float64 {
	if s.startedCnt == 0 {
		return s.Threshold
	}
	avg := s.startedXF / float64(s.startedCnt)
	if avg < 1 {
		avg = 1
	}
	return avg
}

// Decide implements sim.Policy. The pass stops at a full machine: the
// started expansion factors change only at a start, and a reservation
// matters only to later starts.
func (s *SelectiveBackfill) Decide(snap *sim.Snapshot) []int {
	// Jobs whose expansion factor exceeds the threshold get
	// reservations, most-expanded first; the rest backfill in LXF
	// order.
	thr := s.threshold()
	order, free := s.begin(snap, LXF{})
	for _, r := range order {
		qi := r.qi
		w := &snap.Queue[qi]
		n, est := w.Job.Nodes, w.PlanEstimate()
		xf := job.BoundedSlowdownAt(w.Job.Submit, est, snap.Now)
		switch {
		case n <= free && s.prof.FitsAt(snap.Now, n, est):
			s.prof.Place(snap.Now, n, est)
			s.starts = append(s.starts, qi)
			s.startedXF += xf
			s.startedCnt++
			free -= n
		case xf >= thr:
			// Expanded past the threshold: hold a reservation.
			s.prof.PlaceEarliest(snap.Now, n, est)
		}
		if free == 0 {
			break
		}
	}
	return s.starts
}

// RelaxedBackfill implements the relaxed backfill strategy of Ward,
// Mahood & West (JSSPP 2002): backfilling a lower-priority job is
// permitted even if it delays the highest-priority waiting job, as long
// as the delay stays within Relax times that job's runtime estimate.
type RelaxedBackfill struct {
	Priority Priority
	// Relax is the tolerated delay of the head job as a fraction of its
	// runtime estimate (Ward et al. study factors around 0.5-2).
	Relax float64
	scratch
}

// NewRelaxedBackfill returns relaxed backfill over FCFS priority with a
// relaxation factor of 1.
func NewRelaxedBackfill() *RelaxedBackfill {
	return &RelaxedBackfill{Priority: FCFS{}, Relax: 1}
}

// Name implements sim.Policy.
func (r *RelaxedBackfill) Name() string { return "Relaxed-backfill" }

// Decide implements sim.Policy. Both passes stop at a full machine.
func (r *RelaxedBackfill) Decide(snap *sim.Snapshot) []int {
	order, free := r.begin(snap, r.Priority)

	// The head job is the highest-priority job that cannot start now.
	headIdx := -1 // index into order
	var headLimit job.Time
	for oi, o := range order {
		w := &snap.Queue[o.qi]
		n, est := w.Job.Nodes, w.PlanEstimate()
		if n <= free && r.prof.FitsAt(snap.Now, n, est) {
			r.prof.Place(snap.Now, n, est)
			r.starts = append(r.starts, o.qi)
			if free -= n; free == 0 {
				return r.starts
			}
			continue
		}
		headIdx = oi
		headLimit = r.prof.EarliestFit(snap.Now, w.Job.Nodes, est) + job.Duration(r.Relax*float64(est))
		break
	}
	if headIdx < 0 {
		return r.starts
	}
	head := &snap.Queue[order[headIdx].qi]
	headEst := head.PlanEstimate()

	// Try to start each remaining job now, accepting the move only if
	// the head job's earliest fit stays within its relaxed limit.
	for _, o := range order[headIdx+1:] {
		w := &snap.Queue[o.qi]
		n, est := w.Job.Nodes, w.PlanEstimate()
		if n > free || !r.prof.FitsAt(snap.Now, n, est) {
			continue
		}
		pl := r.prof.Place(snap.Now, n, est)
		if r.prof.EarliestFit(snap.Now, head.Job.Nodes, headEst) > headLimit {
			r.prof.Undo(pl)
			continue
		}
		r.starts = append(r.starts, o.qi)
		if free -= n; free == 0 {
			break
		}
	}
	// Note the head job holds no hard reservation: its protection is
	// the relaxed limit test above, re-evaluated at every decision.
	return r.starts
}

// SlackBackfill implements a slack-based backfill in the spirit of Talby
// & Feitelson (IPPS 1999): when a job first joins the queue it is
// promised a start time (its earliest fit at that moment) plus a slack
// proportional to its estimate; any backfill move is legal only if every
// queued job can still meet its promise.
type SlackBackfill struct {
	Priority Priority
	// SlackFactor scales each job's runtime estimate into its slack.
	SlackFactor float64
	// MinSlack is the slack floor so very short jobs keep a usable
	// promise window.
	MinSlack job.Duration

	promises map[int]job.Time // job ID -> latest allowed start
	scratch
}

// NewSlackBackfill returns slack-based backfill over FCFS priority.
func NewSlackBackfill() *SlackBackfill {
	return &SlackBackfill{Priority: FCFS{}, SlackFactor: 1, MinSlack: 2 * job.Hour}
}

// Name implements sim.Policy.
func (s *SlackBackfill) Name() string { return "Slack-backfill" }

// Decide implements sim.Policy. The promises are kept for every queued
// job, so their pass runs whole; the pass that starts jobs stops at a
// full machine.
func (s *SlackBackfill) Decide(snap *sim.Snapshot) []int {
	if s.promises == nil {
		s.promises = make(map[int]job.Time)
	}
	order, free := s.begin(snap, s.Priority)
	if free == 0 {
		order = s.priorityOrder(snap, s.Priority) // the promises need it
	}

	// Issue promises to newly seen jobs and renew promises that have
	// become unmeetable through load the policy did not control (e.g.
	// runtime-estimate shortfalls): a stale promise must not veto all
	// future backfilling.
	infos := make([]pinfo, 0, len(order))
	for _, r := range order {
		w := &snap.Queue[r.qi]
		est := w.PlanEstimate()
		fit := s.prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		infos = append(infos, pinfo{qi: r.qi, est: est, fit: fit})
		slack := job.Duration(s.SlackFactor * float64(est))
		if slack < s.MinSlack {
			slack = s.MinSlack
		}
		if p, ok := s.promises[w.Job.ID]; !ok || fit > p {
			s.promises[w.Job.ID] = fit + slack
		}
	}

	// Start jobs in priority order when they fit now, but accept a
	// backfill move only if it does not push any higher-priority held
	// job from meeting its promise to missing it.
	var held []pinfo
	for _, in := range infos {
		if free == 0 {
			break
		}
		n := snap.Queue[in.qi].Job.Nodes
		if n > free || !s.prof.FitsAt(snap.Now, n, in.est) {
			held = append(held, in) // its fit is taken before each move
			continue
		}
		// Record the held jobs' fits before the tentative placement.
		for hi := range held {
			hw := &snap.Queue[held[hi].qi]
			held[hi].fit = s.prof.EarliestFit(snap.Now, hw.Job.Nodes, held[hi].est)
		}
		pl := s.prof.Place(snap.Now, n, in.est)
		violated := false
		for _, h := range held {
			hw := &snap.Queue[h.qi]
			after := s.prof.EarliestFit(snap.Now, hw.Job.Nodes, h.est)
			promise := s.promises[hw.Job.ID]
			if after > promise && h.fit <= promise {
				violated = true
				break
			}
		}
		if violated {
			s.prof.Undo(pl)
			held = append(held, in)
			continue
		}
		s.starts = append(s.starts, in.qi)
		free -= n
	}

	// Garbage-collect promises for jobs no longer queued.
	live := make(map[int]bool, len(snap.Queue))
	for _, w := range snap.Queue {
		live[w.Job.ID] = true
	}
	for id := range s.promises {
		if !live[id] {
			delete(s.promises, id)
		}
	}
	return s.starts
}

// pinfo pairs a queue index with the runtime estimate the policy plans
// with and a scratch earliest-fit time.
type pinfo struct {
	qi  int
	est job.Duration
	fit job.Time
}
