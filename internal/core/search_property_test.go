package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// blockedSnapshot builds a random decision point at which nothing can
// start: running jobs, some already past their estimate, hold all but
// free nodes, and every queued job is wider than free. FreeNodes claims
// the whole machine, so a guard that read it instead of the search's
// profile would search.
func blockedSnapshot(rng *rand.Rand, queueLen int) *sim.Snapshot {
	capacity := 8 + rng.Intn(24)
	now := job.Time(50000)
	snap := &sim.Snapshot{Now: now, Capacity: capacity, FreeNodes: capacity}
	free := rng.Intn(capacity)
	for used := 0; used < capacity-free; {
		n := 1 + rng.Intn(capacity-free-used)
		snap.Running = append(snap.Running, sim.RunningJob{
			ID: 100 + len(snap.Running), Nodes: n,
			PredictedEnd: now - 600 + job.Duration(rng.Intn(7800)),
		})
		used += n
	}
	for i := 0; i < queueLen; i++ {
		est := job.Duration(60 + rng.Intn(14400))
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job: job.Job{
				ID:      i + 1,
				Submit:  now - job.Time(rng.Intn(40000)),
				Nodes:   free + 1 + rng.Intn(capacity-free),
				Runtime: est, Request: est,
			},
			Estimate: est,
			QueuePos: i,
		})
	}
	return snap
}

// TestSkipIsAShortcut: where no queued job is as narrow as the free
// nodes, the unguarded walk over the whole tree — every algorithm, plain
// and pruned — completes no schedule that starts a job now. So the
// guarded Decide loses nothing by walking only the heuristic schedule:
// it returns nil, marks the decision skipped (budget 1, no budget hit)
// and plans exactly the walk's iteration-0 starts, with one worker or
// two. The local-search policies skip the same decisions.
func TestSkipIsAShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		snap := blockedSnapshot(rng, 1+rng.Intn(5))
		n := len(snap.Queue)
		for _, algo := range []Algorithm{LDS, DDS, DFS} {
			for _, prune := range []bool{false, true} {
				tag := fmt.Sprintf("trial %d %s prune=%v", trial, algo, prune)
				var s searchState
				var first []job.Time // iteration 0's planned starts
				s.leafHook = func(path []int, _ Cost) {
					for _, oi := range path {
						if s.curStartNow[oi] {
							t.Errorf("%s: schedule %v starts job %d now", tag, path, s.ordered[oi].Job.ID)
						}
					}
					if first == nil {
						first = slices.Clone(s.curStart)
					}
				}
				s.reset(snap, algo, HeuristicLXF, DynamicBound().At(snap), nil, 1<<30, prune)
				switch algo {
				case LDS:
					s.runLDS()
				case DDS:
					s.runDDS()
				case DFS:
					s.runDFS(0)
				}
				if s.aborted || slices.Contains(s.bestStartNow, true) {
					t.Fatalf("%s: unguarded walk aborted=%v, best starts now %v", tag, s.aborted, s.bestStartNow)
				}

				for _, workers := range []int{1, 2} {
					sch := New(algo, HeuristicLXF, DynamicBound(), 1<<30)
					sch.Prune, sch.Workers = prune, workers
					if starts := sch.Decide(snap); starts != nil {
						t.Errorf("%s workers=%d: Decide = %v, want nil", tag, workers, starts)
					}
					d, st := sch.LastDecision(), sch.SearchStats
					if d.EffectiveLimit != 1 || d.BudgetHit || d.Nodes != int64(n) || d.Leaves != 1 ||
						st.Skipped != 1 || st.BudgetHits != 0 || st.Exhausted != 0 {
						t.Errorf("%s workers=%d: decision %+v, stats %+v: want skipped, %d nodes, 1 leaf",
							tag, workers, d, st, n)
					}
					plan := sch.LastPlan()
					if len(plan) != n {
						t.Fatalf("%s workers=%d: plan of %d jobs, want %d", tag, workers, len(plan), n)
					}
					for oi, p := range plan {
						if p.JobID != s.ordered[oi].Job.ID || p.Planned != first[oi] {
							t.Errorf("%s workers=%d: plan[%d] = %+v, iteration 0 planned job %d at %d",
								tag, workers, oi, p, s.ordered[oi].Job.ID, first[oi])
						}
					}
				}
			}
		}
		for _, ls := range []*LocalScheduler{NewLocal(HeuristicLXF, DynamicBound(), 1000), NewHybrid(HeuristicLXF, DynamicBound(), 1000)} {
			if starts := ls.Decide(snap); len(starts) != 0 {
				t.Errorf("trial %d %s: Decide = %v, want none", trial, ls.Name(), starts)
			}
			if st := ls.SearchStats; st.Skipped != 1 || st.Nodes != int64(n) || st.Leaves != 1 {
				t.Errorf("trial %d %s: stats %+v, want skipped with %d nodes, 1 leaf", trial, ls.Name(), st, n)
			}
		}
	}
}

// permutations returns all permutations of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, i)
			rec()
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// iterationLeaves runs one discrepancy iteration with unlimited budget
// and returns the complete paths it evaluates, in exploration order.
func iterationLeaves(t *testing.T, n int, algo Algorithm, iter int) [][]int {
	t.Helper()
	snap := flatQueueSnapshot(n)
	var s searchState
	var paths [][]int
	s.leafHook = func(path []int, _ Cost) {
		paths = append(paths, append([]int(nil), path...))
	}
	s.reset(snap, algo, HeuristicFCFS, 0, nil, 1, false)
	s.limit = satCap
	switch algo {
	case LDS:
		s.ldsDFS(0, iter)
	case DDS:
		s.ddsDFS(0, iter)
	}
	if s.aborted {
		t.Fatalf("n=%d %s iter=%d aborted with unlimited budget", n, algo, iter)
	}
	return paths
}

func permKey(p []int) string {
	return fmt.Sprint(p)
}

// TestIterationLeafSetsMatchBruteForce cross-checks the leaf
// enumeration of every LDS and DDS iteration against brute-force
// permutation enumeration: LDS iteration k must evaluate exactly the
// permutations carrying k discrepancies, DDS iteration i exactly those
// whose deepest discrepancy sits at level i-1 (iteration 0 = the
// heuristic path), each exactly once, and the union over iterations
// must be all n! permutations.
func TestIterationLeafSetsMatchBruteForce(t *testing.T) {
	for n := 1; n <= 6; n++ {
		perms := permutations(n)
		wantLDS := make(map[int]map[string]bool) // k -> perm set
		wantDDS := make(map[int]map[string]bool) // iter -> perm set
		for _, p := range perms {
			k := discrepancies(p)
			if wantLDS[k] == nil {
				wantLDS[k] = map[string]bool{}
			}
			wantLDS[k][permKey(p)] = true
			i := deepestDiscrepancy(p) + 1 // leftmost path (-1) is iteration 0
			if wantDDS[i] == nil {
				wantDDS[i] = map[string]bool{}
			}
			wantDDS[i][permKey(p)] = true
		}

		for _, tc := range []struct {
			algo Algorithm
			want map[int]map[string]bool
		}{{LDS, wantLDS}, {DDS, wantDDS}} {
			total := 0
			for iter := 0; iter <= n-1; iter++ {
				got := iterationLeaves(t, n, tc.algo, iter)
				want := tc.want[iter]
				if len(got) != len(want) {
					t.Errorf("n=%d %s iter=%d: %d leaves, brute force %d",
						n, tc.algo, iter, len(got), len(want))
				}
				seen := map[string]bool{}
				for _, p := range got {
					key := permKey(p)
					if seen[key] {
						t.Errorf("n=%d %s iter=%d: leaf %v evaluated twice", n, tc.algo, iter, p)
					}
					seen[key] = true
					if !want[key] {
						t.Errorf("n=%d %s iter=%d: leaf %v does not belong to this iteration",
							n, tc.algo, iter, p)
					}
				}
				total += len(got)
			}
			if want := len(perms); total != want {
				t.Errorf("n=%d %s: %d leaves across iterations, want %d (all permutations)",
					n, tc.algo, total, want)
			}
		}
	}
}
