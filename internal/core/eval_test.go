package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEvaluatorMatchesSearchLeaves pins the evaluator to the search it
// was merged out of: along every complete path the search enumerates,
// the incremental place/cost/undo in visit and a from-scratch
// OrderEvaluator.Eval of the same ordering must agree exactly — same
// cost (bit for bit: the additions happen in the same order) and the
// same start-now set. If a copy of the evaluation loop ever comes back
// with a different floor, fit or cost, this fails.
func TestEvaluatorMatchesSearchLeaves(t *testing.T) {
	type leaf struct {
		path     []int
		cost     Cost
		startNow []bool
	}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		snap := randomSnapshot(rng, n)
		for _, algo := range []Algorithm{LDS, DDS, DFS} {
			var s searchState
			var leaves []leaf
			s.leafHook = func(path []int, cost Cost) {
				leaves = append(leaves, leaf{slices.Clone(path), cost, slices.Clone(s.curStartNow)})
			}
			s.reset(snap, algo, HeuristicLXF, DynamicBound().At(snap), nil, 1, false)
			s.limit = satCap
			switch algo {
			case LDS:
				s.runLDS()
			case DDS:
				s.runDDS()
			case DFS:
				s.runDFS(0)
			}
			if len(leaves) == 0 {
				t.Fatalf("trial %d %s: no leaves", trial, algo)
			}
			var ev OrderEvaluator
			ev.Reset(snap)
			for _, lf := range leaves {
				cost, startNow := ev.Eval(s.ordered, lf.path, s.bound)
				if cost != lf.cost || !slices.Equal(startNow, lf.startNow) {
					t.Fatalf("trial %d %s path %v: evaluator (%v, %v), search leaf (%v, %v)",
						trial, algo, lf.path, cost, startNow, lf.cost, lf.startNow)
				}
			}
		}
	}
}

// TestPlanScorerIsStartedThenArrivalOrder: PlanScorer.Score of a
// committed start set is exactly the evaluator's cost of the ordering
// "started jobs, then the rest, both in queue order".
func TestPlanScorerIsStartedThenArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var ps PlanScorer
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		snap := randomSnapshot(rng, n)
		starts := slices.Clone(New(DDS, HeuristicLXF, DynamicBound(), 200).Decide(snap))

		var order []int
		for qi := range snap.Queue {
			if slices.Contains(starts, qi) {
				order = append(order, qi)
			}
		}
		for qi := range snap.Queue {
			if !slices.Contains(starts, qi) {
				order = append(order, qi)
			}
		}
		var ev OrderEvaluator
		ev.Reset(snap)
		want, startNow := ev.Eval(snap.Queue, order, DynamicBound().At(snap))
		if got := ps.Score(snap, starts); got != want {
			t.Errorf("trial %d: Score(%v) = %v, evaluator on %v = %v", trial, starts, got, order, want)
		}
		// The search committed these starts because they fit now.
		for _, qi := range starts {
			if !startNow[qi] {
				t.Errorf("trial %d: committed start %d does not start now under the scorer's plan", trial, qi)
			}
		}
	}
}
