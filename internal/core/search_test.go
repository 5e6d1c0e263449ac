package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// fourJobSnapshot builds the paper's running example: four waiting jobs
// whose fcfs order is 1-2-3-4 (ordered indices 0-3). Jobs are tiny
// one-node jobs on a large machine so every placement starts now and the
// search tree is explored in pure branch order.
func fourJobSnapshot() *sim.Snapshot {
	snap := &sim.Snapshot{Now: 1000, Capacity: 100, FreeNodes: 100}
	for i := 0; i < 4; i++ {
		j := job.Job{ID: i + 1, Submit: job.Time(i), Nodes: 1, Runtime: 60, Request: 60}
		snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 60, QueuePos: i})
	}
	return snap
}

// collectPaths runs one algorithm with unlimited budget and returns the
// explored complete paths (as ordered-index sequences) in exploration
// order.
func collectPaths(t *testing.T, snap *sim.Snapshot, algo Algorithm, limit int) [][]int {
	t.Helper()
	var s searchState
	var paths [][]int
	s.leafHook = func(path []int, _ Cost) {
		cp := make([]int, len(path))
		copy(cp, path)
		paths = append(paths, cp)
	}
	s.reset(snap, algo, HeuristicFCFS, 0, HierarchicalCost, limit, false)
	switch algo {
	case LDS:
		s.runLDS()
	case DDS:
		s.runDDS()
	}
	return paths
}

func pathIDs(path []int) string {
	// ordered indices equal job IDs - 1 in fourJobSnapshot (fcfs order).
	out := ""
	for i, oi := range path {
		if i > 0 {
			out += "-"
		}
		out += fmt.Sprintf("%d", oi+1)
	}
	return out
}

// TestLDSExplorationOrder verifies the LDS iteration structure of
// Section 2.2: iteration 0 is the heuristic path; iteration 1 holds the
// six 1-discrepancy paths; iteration 2 the eleven 2-discrepancy paths.
func TestLDSExplorationOrder(t *testing.T) {
	paths := collectPaths(t, fourJobSnapshot(), LDS, 1<<30)
	if len(paths) != 24 {
		t.Fatalf("LDS explored %d paths, want 24", len(paths))
	}
	if got := pathIDs(paths[0]); got != "1-2-3-4" {
		t.Errorf("iteration 0 path = %s, want 1-2-3-4", got)
	}
	// Paths 1..6 contain exactly one discrepancy each.
	for i := 1; i <= 6; i++ {
		if got := discrepancies(paths[i]); got != 1 {
			t.Errorf("path %d (%s) has %d discrepancies, want 1", i, pathIDs(paths[i]), got)
		}
	}
	// Paths 7..17 contain exactly two discrepancies each.
	for i := 7; i <= 17; i++ {
		if got := discrepancies(paths[i]); got != 2 {
			t.Errorf("path %d (%s) has %d discrepancies, want 2", i, pathIDs(paths[i]), got)
		}
	}
	// The example from the paper: 0-4-3-1-2 is the 18th path explored
	// under LDS (index 17 within iterations 0..2... it has two
	// discrepancies and is the last of them).
	if got := pathIDs(paths[17]); got != "4-3-1-2" {
		t.Errorf("18th LDS path = %s, want 4-3-1-2", got)
	}
	// No duplicates across iterations.
	seen := map[string]bool{}
	for _, p := range paths {
		id := pathIDs(p)
		if seen[id] {
			t.Errorf("path %s explored twice", id)
		}
		seen[id] = true
	}
}

// TestDDSExplorationOrder verifies the DDS iteration structure:
// iteration 0 = heuristic path (1 path), iteration 1 = 3 paths with the
// discrepancy at the root branch, iteration 2 = 8 paths.
func TestDDSExplorationOrder(t *testing.T) {
	paths := collectPaths(t, fourJobSnapshot(), DDS, 1<<30)
	if len(paths) != 1+3+8+12 {
		t.Fatalf("DDS explored %d paths, want 24", len(paths))
	}
	if got := pathIDs(paths[0]); got != "1-2-3-4" {
		t.Errorf("iteration 0 path = %s, want 1-2-3-4", got)
	}
	// Iteration 1: discrepancy at the root, heuristic below:
	// 2-1-3-4, 3-1-2-4, 4-1-2-3.
	want1 := []string{"2-1-3-4", "3-1-2-4", "4-1-2-3"}
	for i, w := range want1 {
		if got := pathIDs(paths[1+i]); got != w {
			t.Errorf("iteration 1 path %d = %s, want %s", i, got, w)
		}
	}
	// The paper's example: 4-3-1-2 is the 12th path explored under DDS.
	if got := pathIDs(paths[11]); got != "4-3-1-2" {
		t.Errorf("12th DDS path = %s, want 4-3-1-2", got)
	}
	// Iteration 2 paths (indices 4..11) all have their deepest
	// discrepancy at depth 2.
	for i := 4; i <= 11; i++ {
		if got := deepestDiscrepancy(paths[i]); got != 1 {
			t.Errorf("iteration-2 path %s deepest discrepancy at level %d, want 1",
				pathIDs(paths[i]), got)
		}
	}
	seen := map[string]bool{}
	for _, p := range paths {
		id := pathIDs(p)
		if seen[id] {
			t.Errorf("path %s explored twice", id)
		}
		seen[id] = true
	}
}

// discrepancies counts non-leftmost branch choices along a path of
// ordered indices: at each level the leftmost branch is the smallest
// remaining index.
func discrepancies(path []int) int {
	used := make([]bool, len(path))
	count := 0
	for _, oi := range path {
		smallest := -1
		for i := range used {
			if !used[i] {
				smallest = i
				break
			}
		}
		if oi != smallest {
			count++
		}
		used[oi] = true
	}
	return count
}

// deepestDiscrepancy returns the deepest level (0-based branch level)
// at which the path deviates from the heuristic, or -1 for the leftmost
// path.
func deepestDiscrepancy(path []int) int {
	used := make([]bool, len(path))
	deepest := -1
	for lvl, oi := range path {
		smallest := -1
		for i := range used {
			if !used[i] {
				smallest = i
				break
			}
		}
		if oi != smallest {
			deepest = lvl
		}
		used[oi] = true
	}
	return deepest
}

// TestIterationPathCountsMatchFormulas cross-checks the closed-form
// counts against actual exploration for several tree sizes.
func TestIterationPathCountsMatchFormulas(t *testing.T) {
	for n := 1; n <= 6; n++ {
		snap := &sim.Snapshot{Now: 1000, Capacity: 100, FreeNodes: 100}
		for i := 0; i < n; i++ {
			j := job.Job{ID: i + 1, Submit: job.Time(i), Nodes: 1, Runtime: 60, Request: 60}
			snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 60, QueuePos: i})
		}
		ldsPaths := collectPaths(t, snap, LDS, 1<<30)
		ddsPaths := collectPaths(t, snap, DDS, 1<<30)
		want := SizeOfTree(n).Paths
		if int64(len(ldsPaths)) != want {
			t.Errorf("n=%d: LDS explored %d paths, want %d", n, len(ldsPaths), want)
		}
		if int64(len(ddsPaths)) != want {
			t.Errorf("n=%d: DDS explored %d paths, want %d", n, len(ddsPaths), want)
		}
		// Per-iteration counts.
		byK := map[int]int64{}
		for _, p := range ldsPaths {
			byK[discrepancies(p)]++
		}
		for k := 0; k <= n-1; k++ {
			if byK[k] != CountLDSPaths(n, k) {
				t.Errorf("n=%d k=%d: %d LDS paths, want %d", n, k, byK[k], CountLDSPaths(n, k))
			}
		}
		byI := map[int]int64{}
		for _, p := range ddsPaths {
			byI[deepestDiscrepancy(p)+1]++ // iteration = deepest level + 1; leftmost = iteration 0
		}
		for i := 0; i <= n-1; i++ {
			if byI[i] != CountDDSPaths(n, i) {
				t.Errorf("n=%d iter=%d: %d DDS paths, want %d", n, i, byI[i], CountDDSPaths(n, i))
			}
		}
	}
}

// TestNodeCountMatchesTreeSize verifies that full enumeration visits
// every tree node the closed form predicts... once per iteration pass
// it appears in, for DDS (iterations share prefixes), so we check LDS
// leaf count and the scheduler's node accounting instead: iteration 0
// visits exactly n nodes.
func TestBudgetStopsSearch(t *testing.T) {
	snap := fourJobSnapshot()
	var s searchState
	s.reset(snap, DDS, HeuristicFCFS, 0, HierarchicalCost, 4, false)
	s.runDDS()
	if !s.aborted {
		t.Error("search with L=4 over a 64-node tree did not abort")
	}
	if !s.bestFound {
		t.Error("aborted search has no best schedule")
	}
	if s.nodes < 4 || s.nodes > 8 {
		t.Errorf("visited %d nodes with L=4, want a handful past the first full path", s.nodes)
	}
}

// TestFirstScheduleAlwaysCompletes: even with L=1 the iteration-0 path
// must complete so a schedule can be committed.
func TestFirstScheduleAlwaysCompletes(t *testing.T) {
	snap := fourJobSnapshot()
	var s searchState
	s.reset(snap, LDS, HeuristicFCFS, 0, HierarchicalCost, 1, false)
	s.runLDS()
	if !s.bestFound {
		t.Fatal("no schedule found with L=1")
	}
	if s.leaves < 1 {
		t.Fatal("no leaf evaluated with L=1")
	}
}

// TestSchedulerDecideStartsFeasibleSet runs Decide on a contended
// snapshot and verifies the returned set fits in the free nodes.
func TestSchedulerDecideStartsFeasibleSet(t *testing.T) {
	snap := &sim.Snapshot{Now: 500, Capacity: 8, FreeNodes: 5}
	snap.Running = []sim.RunningJob{{ID: 99, Nodes: 3, Start: 0, PredictedEnd: 1000}}
	sizes := []int{4, 3, 2, 1}
	for i, n := range sizes {
		j := job.Job{ID: i + 1, Submit: job.Time(i * 10), Nodes: n, Runtime: 600, Request: 600}
		snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 600, QueuePos: i})
	}
	for _, algo := range []Algorithm{LDS, DDS} {
		for _, h := range []Heuristic{HeuristicFCFS, HeuristicLXF} {
			sch := New(algo, h, DynamicBound(), 1000)
			starts := sch.Decide(snap)
			total := 0
			seen := map[int]bool{}
			for _, qi := range starts {
				if qi < 0 || qi >= len(snap.Queue) {
					t.Fatalf("%s: invalid queue index %d", sch.Name(), qi)
				}
				if seen[qi] {
					t.Fatalf("%s: duplicate queue index %d", sch.Name(), qi)
				}
				seen[qi] = true
				total += snap.Queue[qi].Job.Nodes
			}
			if total > snap.FreeNodes {
				t.Errorf("%s: started %d nodes with %d free", sch.Name(), total, snap.FreeNodes)
			}
			if len(starts) == 0 {
				t.Errorf("%s: started nothing although the 4-node job fits", sch.Name())
			}
		}
	}
}

// TestSchedulerFindsBackfillPackingBeyondHeuristic builds a case where
// the heuristic order wastes the machine but one discrepancy packs it:
// job A (8 nodes) blocked behind running load, jobs B, C (4 nodes each)
// could run now. FCFS order A-B-C starts B and C only if the search
// branches past A... with earliest-fit placement B and C start now even
// on the heuristic path, so instead check the search prefers the
// schedule that starts more work when the objective says so.
func TestSchedulerEmptyQueue(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 100)
	snap := &sim.Snapshot{Now: 0, Capacity: 4, FreeNodes: 4}
	if starts := sch.Decide(snap); len(starts) != 0 {
		t.Errorf("Decide on empty queue = %v, want empty", starts)
	}
}

// TestSchedulerSingleJob starts the only queued job immediately when it
// fits.
func TestSchedulerSingleJob(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 100)
	snap := &sim.Snapshot{Now: 100, Capacity: 4, FreeNodes: 4}
	j := job.Job{ID: 1, Submit: 0, Nodes: 2, Runtime: 60, Request: 60}
	snap.Queue = []sim.WaitingJob{{Job: j, Estimate: 60, QueuePos: 0}}
	starts := sch.Decide(snap)
	if !reflect.DeepEqual(starts, []int{0}) {
		t.Errorf("Decide = %v, want [0]", starts)
	}
}

// TestSchedulerNames checks the paper's naming scheme.
func TestSchedulerNames(t *testing.T) {
	cases := []struct {
		sch  *Scheduler
		want string
	}{
		{New(DDS, HeuristicLXF, DynamicBound(), 1000), "DDS/lxf/dynB"},
		{New(LDS, HeuristicFCFS, FixedBound(100*job.Hour), 1000), "LDS/fcfs/fixB=100h"},
	}
	for _, c := range cases {
		if got := c.sch.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestSchedulerEmptyQueueClearsState is the regression for the stale
// LastPlan/LastCost bug: after a decision over a non-empty queue, a
// decision over an empty queue must not keep reporting the previous
// plan and cost.
func TestSchedulerEmptyQueueClearsState(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 100)
	sch.Decide(fourJobSnapshot())
	if len(sch.LastPlan()) != 4 || sch.LastCost() == (Cost{}) {
		t.Fatalf("precondition: first decision planned %d jobs at cost %v",
			len(sch.LastPlan()), sch.LastCost())
	}
	empty := &sim.Snapshot{Now: 2000, Capacity: 100, FreeNodes: 100}
	if starts := sch.Decide(empty); len(starts) != 0 {
		t.Fatalf("Decide on empty queue = %v, want empty", starts)
	}
	if got := sch.LastPlan(); len(got) != 0 {
		t.Errorf("LastPlan after empty decision = %v, want empty", got)
	}
	if got := sch.LastCost(); got != (Cost{}) {
		t.Errorf("LastCost after empty decision = %v, want zero", got)
	}
}

// TestOrderJobsLXFKeysBitIdentical: the precomputed-key LXF sort must
// order exactly as the direct recomputing comparator did.
func TestOrderJobsLXFKeysBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 50; trial++ {
		now := job.Time(10000 + rng.Intn(50000))
		n := 1 + rng.Intn(10)
		mk := func() []sim.WaitingJob {
			rj := rand.New(rand.NewSource(int64(trial)))
			var jobs []sim.WaitingJob
			for i := 0; i < n; i++ {
				est := job.Duration(1 + rj.Intn(14400))
				jobs = append(jobs, sim.WaitingJob{
					Job: job.Job{
						ID:     i + 1,
						Submit: now - job.Time(rj.Intn(40000)),
					},
					Estimate: est, QueuePos: i,
				})
			}
			return jobs
		}
		got := mk()
		orderJobs(got, HeuristicLXF, now, nil)

		// Reference: the original insertion sort recomputing the key in
		// every comparison.
		want := mk()
		for i := 1; i < len(want); i++ {
			for k := i; k > 0; k-- {
				a, b := &want[k], &want[k-1]
				sa := job.BoundedSlowdownAt(a.Job.Submit, a.Estimate, now)
				sb := job.BoundedSlowdownAt(b.Job.Submit, b.Estimate, now)
				if !(sa != sb && sa > sb ||
					sa == sb && (a.Job.Submit < b.Job.Submit ||
						a.Job.Submit == b.Job.Submit && a.Job.ID < b.Job.ID)) {
					break
				}
				want[k], want[k-1] = want[k-1], want[k]
			}
		}
		for i := range want {
			if got[i].Job.ID != want[i].Job.ID {
				t.Fatalf("trial %d: order %v, want %v at %d", trial, got[i].Job.ID, want[i].Job.ID, i)
			}
		}
	}
}

// TestDecideSteadyStateAllocFree: the sequential search — LXF keys and
// all — must not allocate per decision once its scratch is sized.
func TestDecideSteadyStateAllocFree(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 200)
	snap := fourJobSnapshot()
	sch.Decide(snap) // size the scratch
	sch.Decide(snap)
	if avg := testing.AllocsPerRun(20, func() { sch.Decide(snap) }); avg > 0 {
		t.Errorf("Decide allocates %.1f times per decision in steady state", avg)
	}
	if sch.SearchStats.TableNodes == 0 {
		t.Error("the transposition table served nothing: its arena and index went unmeasured")
	}
}

// TestStatsAccumulate verifies the search effort counters.
func TestStatsAccumulate(t *testing.T) {
	sch := New(DDS, HeuristicFCFS, DynamicBound(), 1<<30)
	snap := fourJobSnapshot()
	sch.Decide(snap)
	st := sch.SearchStats
	if st.Decisions != 1 {
		t.Errorf("Decisions = %d, want 1", st.Decisions)
	}
	if st.Leaves != 24 {
		t.Errorf("Leaves = %d, want 24 (full enumeration)", st.Leaves)
	}
	if st.Exhausted != 1 || st.BudgetHits != 0 {
		t.Errorf("Exhausted/BudgetHits = %d/%d, want 1/0", st.Exhausted, st.BudgetHits)
	}
	if st.Nodes < 24 {
		t.Errorf("Nodes = %d, want >= 24", st.Nodes)
	}
}
