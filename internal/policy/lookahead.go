package policy

import (
	"sort"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Lookahead implements a backfill scheduler in the spirit of Shmueli &
// Feitelson's LOS (JSSPP 2003): instead of backfilling jobs one at a
// time in priority order, it selects — by dynamic programming over the
// free nodes — the set of backfill candidates that maximizes immediate
// node utilization, while protecting the highest-priority waiting job
// with a reservation. The paper (Section 3.2) found it to behave like
// FCFS-backfill on these workloads.
type Lookahead struct {
	Priority Priority
	scratch
}

// NewLookahead returns a lookahead scheduler over FCFS priority.
func NewLookahead() *Lookahead { return &Lookahead{Priority: FCFS{}} }

// Name implements sim.Policy.
func (l *Lookahead) Name() string { return "Lookahead" }

// Decide implements sim.Policy. Each pass stops at a full machine.
func (l *Lookahead) Decide(snap *sim.Snapshot) []int {
	order, free := l.begin(snap, l.Priority)

	// Start priority jobs greedily until the first job that cannot
	// start now; reserve for it.
	rest := order
	for len(rest) > 0 && free > 0 {
		w := &snap.Queue[rest[0].qi]
		if t, _ := l.prof.PlaceEarliest(snap.Now, w.Job.Nodes, w.PlanEstimate()); t != snap.Now {
			break // the reservation for the head job is placed
		}
		l.starts = append(l.starts, rest[0].qi)
		free -= w.Job.Nodes
		rest = rest[1:]
	}
	if len(rest) == 0 || free == 0 {
		return l.starts
	}
	rest = rest[1:] // skip the reserved head job

	// Candidates: jobs that could individually start now without
	// delaying the reservation (the reservation is already in the
	// profile, so fitting now implies no conflict).
	type cand struct {
		qi    int
		nodes int
		est   job.Duration
	}
	var cands []cand
	for _, r := range rest {
		w := &snap.Queue[r.qi]
		est := w.PlanEstimate()
		if w.Job.Nodes <= free && l.prof.FitsAt(snap.Now, w.Job.Nodes, est) {
			cands = append(cands, cand{qi: r.qi, nodes: w.Job.Nodes, est: est})
		}
	}
	if len(cands) == 0 {
		return l.starts
	}

	// 0/1 knapsack over free nodes maximizing utilized nodes. choice
	// backtracking reconstructs the chosen set; ties resolve toward
	// higher-priority (earlier) candidates by iterating them first.
	best := make([]int, free+1) // best[u] = max nodes usable with budget u
	take := make([][]bool, len(cands))
	for i := range take {
		take[i] = make([]bool, free+1)
	}
	for i, c := range cands {
		for u := free; u >= c.nodes; u-- {
			if v := best[u-c.nodes] + c.nodes; v > best[u] {
				best[u] = v
				take[i][u] = true
			}
		}
	}
	// Reconstruct: walk candidates in reverse.
	chosen := make([]bool, len(cands))
	u := free
	for i := len(cands) - 1; i >= 0; i-- {
		if take[i][u] {
			chosen[i] = true
			u -= cands[i].nodes
		}
	}

	// Place the chosen set; the knapsack ignores the time dimension, so
	// each placement is re-verified and skipped if the combination of
	// earlier picks pushed it off "now".
	var picked []cand
	for i, c := range cands {
		if chosen[i] {
			picked = append(picked, c)
		}
	}
	sort.SliceStable(picked, func(a, b int) bool { return picked[a].nodes > picked[b].nodes })
	for _, c := range picked {
		if l.prof.FitsAt(snap.Now, c.nodes, c.est) {
			l.prof.Place(snap.Now, c.nodes, c.est)
			l.starts = append(l.starts, c.qi)
		}
	}
	return l.starts
}
