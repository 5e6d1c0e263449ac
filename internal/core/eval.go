package core

import (
	"slices"

	"schedsearch/internal/cluster"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// OrderEvaluator evaluates complete queue orderings on one decision's
// availability profile — the paper's basic operation, written once:
// place each job at its earliest fit in the given order, sum the
// placement costs, note which jobs start now, and restore the profile.
// The search enumerates on the same profile (searchState.tail is Eval
// from a partial path on, one node charged per job; visit is the
// branching step above it); local search and PlanScorer evaluate
// through Eval. The zero value is ready for Reset.
type OrderEvaluator struct {
	prof     cluster.Profile
	now      job.Time
	startNow []bool
}

// Reset points the evaluator at a new decision: the profile is rebuilt
// from the snapshot's running jobs, reusing its storage.
func (e *OrderEvaluator) Reset(snap *sim.Snapshot) {
	snap.FillProfile(&e.prof)
	e.now = snap.Now
}

// Eval places jobs[order[0]], jobs[order[1]], ... each at its earliest
// fit and returns the plan's summed cost plus, per index into jobs,
// whether that job starts now, under the paper's objective. The
// profile is restored before returning, so the last job is only fitted,
// not placed; the flags slice is reused by the next Eval.
func (e *OrderEvaluator) Eval(jobs []sim.WaitingJob, order []int, bound job.Duration) (Cost, []bool) {
	e.startNow = Resize(e.startNow, len(jobs))
	e.prof.Save()
	var total Cost
	for k, i := range order {
		w := &jobs[i]
		var start job.Time
		if k == len(order)-1 { // the last job: Restore drops it anyway
			start = e.prof.EarliestFit(e.now, w.Job.Nodes, w.PlanEstimate())
		} else {
			start, _ = e.prof.PlaceEarliest(e.now, w.Job.Nodes, w.PlanEstimate())
		}
		total = total.Add(hierarchicalCost(w, start, bound, nil))
		e.startNow[i] = start == e.now
	}
	e.prof.Restore()
	return total, e.startNow
}

// Resize returns xs with length n and every element zero, reusing the
// backing array when it is large enough.
func Resize[T any](xs []T, n int) []T {
	xs = slices.Grow(xs[:0], n)[:n]
	clear(xs)
	return xs
}
