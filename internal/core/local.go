package core

import (
	"fmt"

	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// LocalScheduler is the paper's first future-work direction: combining
// complete search with local search. It evaluates whole queue orderings
// (each evaluation costs one tree-node visit per queued job, so budgets
// are comparable with the complete-search policies) and hill-climbs by
// random pairwise swaps, optionally seeded with a truncated DDS pass
// (the hybrid of Crawford 1993 the paper cites).
type LocalScheduler struct {
	Heuristic Heuristic
	Bound     BoundSpec
	// NodeLimit is the shared budget L in tree-node visits.
	NodeLimit int
	// Hybrid spends half the budget on a DDS pass and starts the climb
	// from its best schedule instead of the heuristic ordering.
	Hybrid bool

	// SearchStats accumulates effort counters across the run.
	SearchStats Stats
	// LastBestCost is the objective value of the schedule committed at
	// the most recent decision (introspection and tests).
	LastBestCost Cost

	decisions uint64
	s         searchState
}

// NewLocal returns a pure local-search scheduler.
func NewLocal(h Heuristic, bound BoundSpec, nodeLimit int) *LocalScheduler {
	return &LocalScheduler{Heuristic: h, Bound: bound, NodeLimit: nodeLimit}
}

// NewHybrid returns the DDS-seeded local-search scheduler.
func NewHybrid(h Heuristic, bound BoundSpec, nodeLimit int) *LocalScheduler {
	ls := NewLocal(h, bound, nodeLimit)
	ls.Hybrid = true
	return ls
}

// Name implements sim.Policy.
func (ls *LocalScheduler) Name() string {
	algo := "LS"
	if ls.Hybrid {
		algo = "DDS+LS"
	}
	return fmt.Sprintf("%s/%s/%s", algo, ls.Heuristic, ls.Bound)
}

// Decide implements sim.Policy.
func (ls *LocalScheduler) Decide(snap *sim.Snapshot) []int {
	n := len(snap.Queue)
	if n == 0 {
		return nil
	}
	// Seed 1 with the decision count as the stream: the random walk is
	// deterministic and independent across decisions, skipped ones
	// included.
	ls.decisions++
	rng := stats.NewRNG(1, ls.decisions)

	// Current ordering: heuristic order by default, the best DDS path
	// in hybrid mode (the DDS pass consumes half the budget). Where
	// nothing fits the free nodes the budget is 1: the heuristic order,
	// evaluated once.
	s := &ls.s
	bound := ls.Bound.At(snap)
	skip := s.prepare(snap, DDS, ls.Heuristic, bound, nil, max(ls.NodeLimit, 1), false)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	budget := s.limit
	if ls.Hybrid && n > 1 && !skip {
		s.limit /= 2
		s.runDDS()
		budget -= s.nodes
		if len(s.bestPath) == n {
			copy(order, s.bestPath)
		}
		ls.SearchStats.Nodes += s.nodes
		ls.SearchStats.Leaves += s.leaves
	}

	// Orderings are evaluated on the search's own profile, which the
	// DDS pass (if any) has restored to the decision's starting state.
	c0, sn0 := s.ev.Eval(s.ordered, order, bound)
	bestCost := c0
	bestStartNow := append([]bool(nil), sn0...) // eval reuses its slice
	used := int64(n)
	cur := append([]int(nil), order...)
	curCost := bestCost

	// Hill climbing by pairwise swaps: accept improvements, revert the
	// rest. Each evaluation costs n node visits.
	for used+int64(n) <= budget && n > 1 {
		i, k := rng.IntN(n), rng.IntN(n)
		if i == k {
			k = (k + 1) % n
		}
		cur[i], cur[k] = cur[k], cur[i]
		c, startNow := s.ev.Eval(s.ordered, cur, bound)
		used += int64(n)
		if c.Less(curCost) {
			curCost = c
			if c.Less(bestCost) {
				bestCost = c
				copy(bestStartNow, startNow)
			}
		} else {
			cur[i], cur[k] = cur[k], cur[i] // revert
		}
	}

	ls.SearchStats.Decisions++
	if skip {
		ls.SearchStats.Skipped++
	}
	ls.SearchStats.Nodes += used
	ls.SearchStats.Leaves += used / int64(n)
	ls.LastBestCost = bestCost

	var starts []int
	for oi, now := range bestStartNow {
		if now {
			starts = append(starts, s.ordered[oi].QueuePos)
		}
	}
	return starts
}
