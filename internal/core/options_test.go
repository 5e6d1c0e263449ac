package core

import (
	"math/rand"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// TestDFSExploresInTreeOrder: plain DFS visits permutations in
// lexicographic branch order.
func TestDFSExploresInTreeOrder(t *testing.T) {
	paths := collectPathsAlgo(t, fourJobSnapshot(), func(s *searchState) { s.runDFS(0) })
	if len(paths) != 24 {
		t.Fatalf("DFS explored %d paths, want 24", len(paths))
	}
	want := []string{"1-2-3-4", "1-2-4-3", "1-3-2-4", "1-3-4-2", "1-4-2-3", "1-4-3-2", "2-1-3-4"}
	for i, w := range want {
		if got := pathIDs(paths[i]); got != w {
			t.Fatalf("DFS path %d = %s, want %s", i, got, w)
		}
	}
	// Last path is the full reversal.
	if got := pathIDs(paths[23]); got != "4-3-2-1" {
		t.Errorf("last DFS path = %s", got)
	}
}

// collectPathsAlgo mirrors collectPaths for a custom runner.
func collectPathsAlgo(t *testing.T, snap *sim.Snapshot, run func(*searchState)) [][]int {
	t.Helper()
	var s searchState
	var paths [][]int
	s.leafHook = func(path []int, _ Cost) {
		cp := make([]int, len(path))
		copy(cp, path)
		paths = append(paths, cp)
	}
	s.reset(snap, DFS, HeuristicFCFS, 0, nil, 1<<30, false)
	run(&s)
	return paths
}

// TestDFSWithinBudgetOnlyVariesTail: with a small budget, every path
// DFS explores shares the heuristic prefix — the weakness that
// motivates discrepancy search (Section 2.2's premise).
func TestDFSWithinBudgetOnlyVariesTail(t *testing.T) {
	snap := &sim.Snapshot{Now: 1000, Capacity: 100, FreeNodes: 100}
	n := 8
	for i := 0; i < n; i++ {
		j := job.Job{ID: i + 1, Submit: job.Time(i), Nodes: 1, Runtime: 60, Request: 60}
		snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 60, QueuePos: i})
	}
	var s searchState
	prefixIntact := true
	s.leafHook = func(path []int, _ Cost) {
		// With a 100-node budget over an 8-job tree, DFS cannot afford
		// to deviate in the first positions.
		if path[0] != 0 || path[1] != 1 {
			prefixIntact = false
		}
	}
	s.reset(snap, DFS, HeuristicFCFS, 0, nil, 100, false)
	s.runDFS(0)
	if !prefixIntact {
		t.Error("budgeted DFS deviated in the first two positions; expected tail-only variation")
	}
	// DDS with the same budget DOES vary the first position.
	var d searchState
	variedRoot := false
	d.leafHook = func(path []int, _ Cost) {
		if path[0] != 0 {
			variedRoot = true
		}
	}
	d.reset(snap, DDS, HeuristicFCFS, 0, nil, 100, false)
	d.runDDS()
	if !variedRoot {
		t.Error("budgeted DDS never varied the root branch")
	}
}

// TestSchedulerWithPruneAndBudget: pruning composes with the budget and
// still returns feasible decisions.
func TestSchedulerWithPruneAndBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		snap := randomSnapshot(rng, 4+rng.Intn(8))
		sch := New(DDS, HeuristicLXF, DynamicBound(), 50)
		sch.Prune = true
		starts := sch.Decide(snap)
		total := 0
		for _, qi := range starts {
			total += snap.Queue[qi].Job.Nodes
		}
		if total > snap.FreeNodes {
			t.Fatalf("trial %d: infeasible starts %v", trial, starts)
		}
	}
}

// TestFairshareWithFixedBound: the wrapper composes with any bound.
func TestFairshareWithFixedBound(t *testing.T) {
	fs := NewFairshare(New(DDS, HeuristicLXF, FixedBound(50*job.Hour), 300), 2)
	if got := fs.Name(); got != "DDS/lxf/fixB=50h+fs" {
		t.Errorf("Name = %q", got)
	}
	starts := fs.Decide(fourJobSnapshot())
	if len(starts) != 4 {
		t.Errorf("starts = %v", starts)
	}
}

// TestHybridSpendsBudgetInBothPhases: the hybrid's node accounting must
// cover the DDS pass plus the climb, within the limit.
func TestHybridBudgetAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	snap := randomSnapshot(rng, 8)
	ls := NewHybrid(HeuristicLXF, DynamicBound(), 400)
	ls.Decide(snap)
	if ls.SearchStats.Nodes > 400+8 { // one final evaluation may straddle
		t.Errorf("hybrid visited %d nodes with budget 400", ls.SearchStats.Nodes)
	}
	if ls.SearchStats.Nodes < 200 {
		t.Errorf("hybrid visited only %d nodes; the DDS pass alone should use ~200", ls.SearchStats.Nodes)
	}
}
