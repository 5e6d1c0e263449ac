package core

import (
	"math/rand"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// flatQueueSnapshot builds an uncontended n-job queue whose fcfs branch
// order equals queue order (ordered index i = job i), so search-tree
// shape is the full n! permutation tree.
func flatQueueSnapshot(n int) *sim.Snapshot {
	snap := &sim.Snapshot{Now: 1000, Capacity: 100, FreeNodes: 100}
	for i := 0; i < n; i++ {
		j := job.Job{ID: i + 1, Submit: job.Time(i), Nodes: 1, Runtime: 60, Request: 60}
		snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 60, QueuePos: i})
	}
	return snap
}

// seqIterNodes runs one discrepancy iteration sequentially with an
// unlimited budget and returns the number of nodes it visits.
func seqIterNodes(snap *sim.Snapshot, algo Algorithm, iter int) int64 {
	var s searchState
	s.reset(snap, algo, HeuristicFCFS, 0, HierarchicalCost, 1, false)
	s.limit = satCap
	switch algo {
	case LDS:
		s.ldsDFS(0, iter)
	case DDS, ADDS:
		s.ddsDFS(0, iter)
	}
	return s.nodes
}

// TestIterNodeCountsMatchSequential is the foundation of the budget
// shard: the closed-form per-iteration node counts must equal the
// sequential search's actual visit counts for every iteration.
func TestIterNodeCountsMatchSequential(t *testing.T) {
	var sc shardScratch
	for n := 1; n <= 8; n++ {
		snap := flatQueueSnapshot(n)
		for iter := 0; iter <= n-1; iter++ {
			if got, want := sc.ldsIterNodes(n, iter), seqIterNodes(snap, LDS, iter); got != want {
				t.Errorf("ldsIterNodes(%d, %d) = %d, sequential visits %d", n, iter, got, want)
			}
			if got, want := ddsIterNodes(n, iter, n), seqIterNodes(snap, DDS, iter); got != want {
				t.Errorf("ddsIterNodes(%d, %d, %d) = %d, sequential visits %d", n, iter, n, got, want)
			}
			if got, want := ddsIterNodes(n, iter, 2), seqIterNodes(snap, ADDS, iter); got != want {
				t.Errorf("ddsIterNodes(%d, %d, 2) = %d, sequential visits %d", n, iter, got, want)
			}
		}
	}
}

// TestIterNodeCountsShapeOnly: the counts are a pure function of the
// tree shape, so a contended snapshot (different placements, same n)
// must yield identical per-iteration visit counts.
func TestIterNodeCountsShapeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc shardScratch
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		snap := randomSnapshot(rng, n)
		for iter := 0; iter <= n-1; iter++ {
			if got, want := sc.ldsIterNodes(n, iter), seqIterNodes(snap, LDS, iter); got != want {
				t.Errorf("trial %d: ldsIterNodes(%d, %d) = %d, sequential visits %d",
					trial, n, iter, got, want)
			}
			if got, want := ddsIterNodes(n, iter, n), seqIterNodes(snap, DDS, iter); got != want {
				t.Errorf("trial %d: ddsIterNodes(%d, %d) = %d, sequential visits %d",
					trial, n, iter, got, want)
			}
		}
	}
}

// TestIterNodeCountsSaturate: factorial node counts overflow int64
// around n=20; the saturating arithmetic must clamp, never wrap.
func TestIterNodeCountsSaturate(t *testing.T) {
	var sc shardScratch
	for n := 2; n <= 64; n++ {
		for iter := 0; iter <= n-1; iter++ {
			if c := sc.ldsIterNodes(n, iter); c < int64(n) || c > satCap {
				t.Fatalf("ldsIterNodes(%d, %d) = %d out of range", n, iter, c)
			}
			for _, width := range []int{n, 2} {
				if c := ddsIterNodes(n, iter, width); c <= 0 || c > satCap {
					t.Fatalf("ddsIterNodes(%d, %d, %d) = %d out of range", n, iter, width, c)
				}
			}
		}
	}
	if got := satAdd(satCap-1, satCap-1); got != satCap {
		t.Errorf("satAdd near cap = %d, want %d", got, satCap)
	}
	if got := satMul(1<<31, 1<<31); got != satCap {
		t.Errorf("satMul overflow = %d, want %d", got, satCap)
	}
	if got := satMul(0, satCap); got != 0 {
		t.Errorf("satMul(0, cap) = %d, want 0", got)
	}
}

// assertSameDecision runs one decision on both schedulers and requires
// bit-identical outcomes: committed starts, best cost, planned starts,
// and all effort counters, nodes-to-best included.
func assertSameDecision(t *testing.T, tag string, snap *sim.Snapshot, seq, par *Scheduler) {
	t.Helper()
	seqStarts := append([]int(nil), seq.Decide(snap)...)
	parStarts := append([]int(nil), par.Decide(snap)...)

	if len(seqStarts) != len(parStarts) {
		t.Fatalf("%s: starts %v parallel, %v sequential", tag, parStarts, seqStarts)
	}
	for i := range seqStarts {
		if seqStarts[i] != parStarts[i] {
			t.Fatalf("%s: starts %v parallel, %v sequential", tag, parStarts, seqStarts)
		}
	}
	if seq.LastCost() != par.LastCost() {
		t.Fatalf("%s: best cost %v parallel, %v sequential", tag, par.LastCost(), seq.LastCost())
	}
	seqPlan, parPlan := seq.LastPlan(), par.LastPlan()
	if len(seqPlan) != len(parPlan) {
		t.Fatalf("%s: plan length %d parallel, %d sequential", tag, len(parPlan), len(seqPlan))
	}
	for i := range seqPlan {
		if seqPlan[i] != parPlan[i] {
			t.Fatalf("%s: plan[%d] %+v parallel, %+v sequential", tag, i, parPlan[i], seqPlan[i])
		}
	}
	ss, ps := seq.SearchStats, par.SearchStats
	if ss.Nodes != ps.Nodes || ss.Leaves != ps.Leaves {
		t.Fatalf("%s: nodes/leaves %d/%d parallel, %d/%d sequential",
			tag, ps.Nodes, ps.Leaves, ss.Nodes, ss.Leaves)
	}
	if ss.BudgetHits != ps.BudgetHits || ss.Exhausted != ps.Exhausted {
		t.Fatalf("%s: budgetHits/exhausted %d/%d parallel, %d/%d sequential",
			tag, ps.BudgetHits, ps.Exhausted, ss.BudgetHits, ss.Exhausted)
	}
	if ss.NodesToBest != ps.NodesToBest {
		t.Fatalf("%s: nodes-to-best %d parallel, %d sequential", tag, ps.NodesToBest, ss.NodesToBest)
	}
}

// TestParallelDecideMatchesSequential is the tentpole guarantee: over
// random contended decision points, random budgets (from heuristic-only
// up to full enumeration), both algorithms and both heuristics, the
// parallel search must commit bit-identical schedules with identical
// effort accounting. Run under -race this also exercises the worker
// pool for data races.
func TestParallelDecideMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		snap := randomSnapshot(rng, 2+rng.Intn(6))
		limit := 1 + rng.Intn(400)
		for _, algo := range []Algorithm{LDS, DDS} {
			for _, h := range []Heuristic{HeuristicFCFS, HeuristicLXF} {
				seq := New(algo, h, DynamicBound(), limit)
				par := New(algo, h, DynamicBound(), limit)
				par.Workers = 4
				tag := par.Name()
				assertSameDecision(t, tag, snap, seq, par)
			}
		}
	}
}

// TestParallelWorkerCountIndependence: the committed schedule must not
// depend on the worker count.
func TestParallelWorkerCountIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		snap := randomSnapshot(rng, 3+rng.Intn(4))
		limit := 20 + rng.Intn(200)
		for _, algo := range []Algorithm{LDS, DDS} {
			for _, workers := range []int{2, 3, 4, 8} {
				seq := New(algo, HeuristicLXF, DynamicBound(), limit)
				par := New(algo, HeuristicLXF, DynamicBound(), limit)
				par.Workers = workers
				assertSameDecision(t, par.Name(), snap, seq, par)
			}
		}
	}
}

// TestParallelSchedulerReuse: the parallel scratch (worker states, task
// and result slots) is reused across decisions; a sequence of decisions
// with varying queue sizes on ONE scheduler pair must stay identical.
func TestParallelSchedulerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, algo := range []Algorithm{LDS, DDS} {
		seq := New(algo, HeuristicLXF, DynamicBound(), 150)
		par := New(algo, HeuristicLXF, DynamicBound(), 150)
		par.Workers = 3
		for step := 0; step < 25; step++ {
			snap := randomSnapshot(rng, 1+rng.Intn(7))
			assertSameDecision(t, par.Name(), snap, seq, par)
		}
	}
}

// TestParallelPathActuallyRuns guards against the parallel branch
// silently falling back to sequential: with enough budget for several
// iterations the shard must produce multiple tasks and record worker
// busy time.
func TestParallelPathActuallyRuns(t *testing.T) {
	sch := New(DDS, HeuristicFCFS, DynamicBound(), 1<<20)
	sch.Workers = 2
	sch.Decide(flatQueueSnapshot(5))
	if len(sch.tasks) < 2 {
		t.Fatalf("shard produced %d tasks, want every iteration", len(sch.tasks))
	}
	if sch.SearchStats.BusyNs <= 0 {
		t.Error("no worker busy time recorded")
	}
	if sch.SearchStats.WallNs <= 0 {
		t.Error("no search wall time recorded")
	}
}

// TestSequentialFallbacks: configurations the parallel path must refuse
// (DFS, pruning, tiny queues, budget confined to iteration 0) still
// decide correctly via the sequential search.
func TestSequentialFallbacks(t *testing.T) {
	cases := []struct {
		name string
		sch  *Scheduler
		snap *sim.Snapshot
	}{
		{"dfs", func() *Scheduler {
			s := New(DFS, HeuristicFCFS, DynamicBound(), 100)
			s.Workers = 4
			return s
		}(), flatQueueSnapshot(4)},
		{"prune", func() *Scheduler {
			s := New(DDS, HeuristicFCFS, DynamicBound(), 100)
			s.Workers = 4
			s.Prune = true
			return s
		}(), flatQueueSnapshot(4)},
		{"single job", func() *Scheduler {
			s := New(DDS, HeuristicFCFS, DynamicBound(), 100)
			s.Workers = 4
			return s
		}(), flatQueueSnapshot(1)},
		{"budget below iteration 0", func() *Scheduler {
			s := New(LDS, HeuristicFCFS, DynamicBound(), 3)
			s.Workers = 4
			return s
		}(), flatQueueSnapshot(6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			starts := c.sch.Decide(c.snap)
			if len(starts) == 0 {
				t.Fatalf("%s committed nothing", c.sch.Name())
			}
			if !c.sch.s.bestFound {
				t.Fatal("no best schedule recorded")
			}
		})
	}
}

// TestAutoWorkersMatchesSequential: AutoWorkers resolves to GOMAXPROCS;
// whatever that is on the test machine, the outcome must equal the
// sequential scheduler's.
func TestAutoWorkersMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		snap := randomSnapshot(rng, 2+rng.Intn(5))
		seq := New(DDS, HeuristicLXF, DynamicBound(), 200)
		par := New(DDS, HeuristicLXF, DynamicBound(), 200)
		par.Workers = AutoWorkers
		assertSameDecision(t, "auto", snap, seq, par)
	}
}

// TestSpeedup covers the Stats.Speedup accessor.
func TestSpeedup(t *testing.T) {
	if got := (Stats{}).Speedup(); got != 1 {
		t.Errorf("zero stats speedup = %v, want 1", got)
	}
	if got := (Stats{WallNs: 100, BusyNs: 300}).Speedup(); got != 3 {
		t.Errorf("speedup = %v, want 3", got)
	}
	if got := (Stats{WallNs: 200, BusyNs: 200}).Speedup(); got != 1 {
		t.Errorf("sequential speedup = %v, want 1", got)
	}
}

// TestShardBudgetAccounting replays shardBudget against instrumented
// sequential runs: summing each task's actual node spend must reproduce
// the sequential total, and the aborted flag the budget-hit outcome.
func TestShardBudgetAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6)
		snap := flatQueueSnapshot(n)
		limit := 1 + rng.Intn(300)
		for _, algo := range []Algorithm{LDS, DDS} {
			var s searchState
			s.reset(snap, algo, HeuristicFCFS, 0, HierarchicalCost, limit, false)
			switch algo {
			case LDS:
				s.runLDS()
			case DDS:
				s.runDDS()
			}

			sch := New(algo, HeuristicFCFS, DynamicBound(), limit)
			tasks, aborted := sch.shardBudget(n, int64(limit))
			var total int64
			for _, task := range tasks {
				full := sch.iterNodes(n, task.iter)
				if full < task.budget {
					total += full
				} else {
					total += task.budget
				}
			}
			if total != s.nodes {
				t.Errorf("trial %d %s n=%d L=%d: shard spends %d nodes, sequential %d",
					trial, algo, n, limit, total, s.nodes)
			}
			if aborted != s.aborted {
				t.Errorf("trial %d %s n=%d L=%d: shard aborted=%v, sequential %v",
					trial, algo, n, limit, aborted, s.aborted)
			}
		}
	}
}
