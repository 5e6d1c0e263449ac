package core

import (
	"fmt"
	"testing"
)

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
	s.reset(snap, algo, HeuristicFCFS, 0, HierarchicalCost, 1, false)
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
