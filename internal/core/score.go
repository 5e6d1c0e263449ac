package core

import "schedsearch/internal/sim"

// excessWeight is the scalarization weight PlanScorer applies to the
// first-level goal (excess wait seconds) relative to the second (sum of
// bounded slowdowns). A run's excess is typically orders of magnitude
// larger than a single job's slowdown, so the weight mostly preserves
// the lexicographic preference while keeping the second level as a
// tiebreak between excess-free plans.
const excessWeight = 1000

// PlanScorer scores one decision — a set of jobs started now — on the
// uniform objective the search policies optimize (dynB and the
// hierarchical cost), independent of which policy produced it. It is
// the common yardstick the meta-scheduler compares portfolio arms with.
//
// The score is the hierarchical cost of the induced plan: the started
// jobs placed at the decision time, every remaining queued job placed
// greedily at its earliest fit in arrival order (FCFS completion — the
// neutral continuation, favoring no arm's private ordering). Scoring
// is passive: it runs on its own profile scratch and never touches the
// ledger or any policy state. The zero value is ready to use.
type PlanScorer struct {
	ev      OrderEvaluator
	started []bool
	order   []int // scratch: started jobs, then the rest, as queue positions
}

// Score evaluates starting the given QueuePos set at snap.Now and
// returns the plan's hierarchical cost. starts must be feasible
// (distinct queue positions whose total width fits the free nodes);
// infeasibility shows up as a plan whose "started" jobs simply cost
// their earliest achievable start, not as an error — the ledger, not
// the scorer, is the feasibility authority.
func (ps *PlanScorer) Score(snap *sim.Snapshot, starts []int) Cost {
	bound := DynamicBound().At(snap)

	n := len(snap.Queue)
	ps.started = Resize(ps.started, n)
	for _, qi := range starts {
		if qi >= 0 && qi < n {
			ps.started[qi] = true
		}
	}
	// Started jobs first: with feasible starts their earliest fit IS
	// snap.Now, so they are charged their committed start.
	ps.order = ps.order[:0]
	for qi := 0; qi < n; qi++ {
		if ps.started[qi] {
			ps.order = append(ps.order, qi)
		}
	}
	for qi := 0; qi < n; qi++ {
		if !ps.started[qi] {
			ps.order = append(ps.order, qi)
		}
	}
	ps.ev.Reset(snap)
	total, _ := ps.ev.Eval(snap.Queue, ps.order, bound)
	return total
}

// Scalar collapses a hierarchical cost into one comparable number
// (lower is better) using excessWeight.
func (ps *PlanScorer) Scalar(c Cost) float64 { return c.Excess*excessWeight + c.Slowdown }
