package core

import (
	"math/rand"
	"testing"
)

// branchRanks returns, per level, the rank of the chosen job among the
// jobs still unscheduled in heuristic order (rank 0 = the heuristic
// choice). flatQueueSnapshot's heuristic order is ascending index.
func branchRanks(path []int) []int {
	used := make([]bool, len(path))
	ranks := make([]int, 0, len(path))
	for _, oi := range path {
		rank := 0
		for i := 0; i < oi; i++ {
			if !used[i] {
				rank++
			}
		}
		ranks = append(ranks, rank)
		used[oi] = true
	}
	return ranks
}

// adjacentIteration classifies a permutation for ADDS: -1 if any branch
// rank exceeds 1 (outside the adjacent tree), otherwise the iteration
// the path belongs to (deepest rank-1 level + 1; the all-rank-0 path is
// iteration 0).
func adjacentIteration(path []int) int {
	deepest := -1
	for lvl, r := range branchRanks(path) {
		if r > 1 {
			return -1
		}
		if r == 1 {
			deepest = lvl
		}
	}
	return deepest + 1
}

// TestADDSIterationLeafSetsMatchBruteForce mirrors the LDS/DDS property
// test: ADDS iteration i must evaluate exactly the permutations whose
// branch ranks are all in {0, 1} with the deepest rank-1 choice at
// level i-1, each once, and the union over iterations must be the full
// 2^(n-1) adjacent tree.
func TestADDSIterationLeafSetsMatchBruteForce(t *testing.T) {
	for n := 1; n <= 6; n++ {
		want := map[int]map[string]bool{} // iter -> perm set
		adjacent := 0
		for _, p := range permutations(n) {
			i := adjacentIteration(p)
			if i < 0 {
				continue
			}
			adjacent++
			if want[i] == nil {
				want[i] = map[string]bool{}
			}
			want[i][permKey(p)] = true
		}
		if n >= 1 && adjacent != 1<<(n-1) {
			t.Fatalf("n=%d: %d adjacent permutations, want %d", n, adjacent, 1<<(n-1))
		}

		total := 0
		for iter := 0; iter <= n-1; iter++ {
			got := iterationLeaves(t, n, ADDS, iter)
			if len(got) != len(want[iter]) {
				t.Errorf("n=%d ADDS iter=%d: %d leaves, brute force %d",
					n, iter, len(got), len(want[iter]))
			}
			seen := map[string]bool{}
			for _, p := range got {
				key := permKey(p)
				if seen[key] {
					t.Errorf("n=%d ADDS iter=%d: leaf %v evaluated twice", n, iter, p)
				}
				seen[key] = true
				if !want[iter][key] {
					t.Errorf("n=%d ADDS iter=%d: leaf %v does not belong to this iteration",
						n, iter, p)
				}
			}
			total += len(got)
		}
		if total != adjacent {
			t.Errorf("n=%d: %d ADDS leaves across iterations, want %d", n, total, adjacent)
		}
	}
}

// TestADDSIterNodeCountsMatchSequential anchors the closed form the
// parallel budget shard uses to the sequential search's actual visits.
func TestADDSIterNodeCountsMatchSequential(t *testing.T) {
	for n := 1; n <= 8; n++ {
		snap := flatQueueSnapshot(n)
		for iter := 0; iter <= n-1; iter++ {
			if got, want := ddsIterNodes(n, iter, 2), seqIterNodes(snap, ADDS, iter); got != want {
				t.Errorf("ddsIterNodes(%d, %d, 2) = %d, sequential visits %d", n, iter, got, want)
			}
		}
	}
}

// TestCDDSLeafSetOnFlatQueue: with identical jobs every schedule costs
// the same, so CDDS never climbs and must evaluate exactly the adjacent
// tree — the same 2^(n-1) leaves ADDS does, each once.
func TestCDDSLeafSetOnFlatQueue(t *testing.T) {
	for n := 1; n <= 6; n++ {
		snap := flatQueueSnapshot(n)
		var s searchState
		seen := map[string]int{}
		leaves := 0
		s.leafHook = func(path []int, _ Cost) {
			if adjacentIteration(path) < 0 {
				t.Errorf("n=%d: CDDS evaluated %v, outside the adjacent tree", n, path)
			}
			seen[permKey(append([]int(nil), path...))]++
			leaves++
		}
		s.reset(snap, CDDS, HeuristicFCFS, 0, HierarchicalCost, 1, false)
		s.limit = satCap
		s.runCDDS()
		if s.aborted {
			t.Fatalf("n=%d: CDDS aborted with unlimited budget", n)
		}
		if leaves != 1<<(n-1) {
			t.Errorf("n=%d: CDDS evaluated %d leaves, want %d", n, leaves, 1<<(n-1))
		}
		for key, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: CDDS evaluated %s %d times", n, key, c)
			}
		}
	}
}

// TestCDDSLocalOptimum: at unlimited budget CDDS terminates at a local
// optimum of the adjacent neighborhood — no single adjacent swap of the
// committed ordering may cost strictly less.
func TestCDDSLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		snap := randomSnapshot(rng, n)
		sch := New(CDDS, HeuristicLXF, DynamicBound(), 1<<30)
		if starts := sch.Decide(snap); len(starts) == 0 && snap.FreeNodes > 0 {
			// fine: all queued jobs may be wider than the free nodes
			_ = starts
		}
		if sch.s.aborted {
			t.Fatalf("trial %d: CDDS aborted with unlimited budget", trial)
		}
		best := append([]int(nil), sch.s.bestPath...)
		bestCost := sch.s.bestCost

		var es searchState
		es.reset(snap, CDDS, HeuristicLXF, sch.Bound.At(snap), HierarchicalCost, 1, false)
		perm := make([]int, n)
		for l := 0; l < n-1; l++ {
			copy(perm, best)
			perm[l], perm[l+1] = perm[l+1], perm[l]
			if c, _ := es.ev.Eval(es.ordered, perm, es.cost, es.bound); c.Less(bestCost) {
				t.Errorf("trial %d: swap at level %d improves the CDDS optimum (%v < %v)",
					trial, l, c, bestCost)
			}
		}
	}
}

// TestCDDSNeverWorseThanHeuristic: climbing only replaces the incumbent
// on strict improvement, so the committed cost is never above the
// iteration-0 (pure heuristic) schedule's.
func TestCDDSNeverWorseThanHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		snap := randomSnapshot(rng, n)
		cdds := New(CDDS, HeuristicLXF, DynamicBound(), 1<<30)
		heur := New(DDS, HeuristicLXF, DynamicBound(), 1) // budget 1: heuristic path only
		cdds.Decide(snap)
		heur.Decide(snap)
		if heur.LastCost().Less(cdds.LastCost()) {
			t.Errorf("trial %d: heuristic schedule %v beats CDDS %v",
				trial, heur.LastCost(), cdds.LastCost())
		}
	}
}

// TestCDDSDeterministic: CDDS is sequential-only; two runs over the same
// decision sequence must agree exactly, including effort counters.
func TestCDDSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := New(CDDS, HeuristicLXF, DynamicBound(), 200)
	b := New(CDDS, HeuristicLXF, DynamicBound(), 200)
	b.Workers = 8 // must be ignored: CDDS runs sequentially
	for step := 0; step < 20; step++ {
		snap := randomSnapshot(rng, 1+rng.Intn(6))
		assertSameDecision(t, "cdds-det", snap, a, b)
	}
	sa, sb := a.SearchStats, b.SearchStats
	sa.WallNs, sa.BusyNs = 0, 0 // wall-clock noise
	sb.WallNs, sb.BusyNs = 0, 0
	if sa != sb {
		t.Errorf("stats diverged:\n%+v\n%+v", sa, sb)
	}
}

// TestADDSParallelMatchesSequential extends the parallel differential to
// the adjacent algorithm.
func TestADDSParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		snap := randomSnapshot(rng, 2+rng.Intn(6))
		limit := 1 + rng.Intn(80)
		seq := New(ADDS, HeuristicLXF, DynamicBound(), limit)
		par := New(ADDS, HeuristicLXF, DynamicBound(), limit)
		par.Workers = 4
		assertSameDecision(t, par.Name(), snap, seq, par)
	}
}
