package core

import (
	"runtime"
	"sync"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Parallel complete search across discrepancy iterations.
//
// LDS's exact-k passes and DDS's forced-depth-i passes explore disjoint
// leaf sets, so the iterations can run concurrently on independent
// search states. Sequential equivalence is preserved by construction:
//
//   - The per-iteration node-visit counts of an n-job tree are a pure
//     function of (algorithm, n, iteration) when pruning is off, so the
//     sequential run's budget consumption can be replayed exactly:
//     iteration 0 always completes, later iterations receive the
//     remaining budget in order, and the iteration that exhausts it
//     gets exactly the node shard the sequential search would have
//     spent there (shardBudget).
//   - Within an iteration the exploration order is the sequential one
//     (same code), so each iteration's best schedule — first strictly
//     better wins — matches the sequential pass over that iteration.
//   - The merge scans iterations in ascending order and replaces only
//     on strictly lower cost, so ties keep the lowest iteration and
//     (within it) the earliest path, exactly like the sequential scan.
//
// The result: identical committed starts, best cost, planned starts,
// node/leaf counts, and budget-hit accounting, independent of worker
// count and goroutine scheduling. (The one theoretical exception:
// Cost.Less is an epsilon comparison, so two schedules whose costs
// differ by ~epsilon across different iterations are "incomparable" and
// order-dependent chains of such near-ties could diverge; the
// differential tests run the whole workload suite without hitting one.)

// iterTask is one discrepancy iteration to run, with its node shard.
type iterTask struct {
	iter int
	// budget is the maximum number of nodes this iteration may visit.
	// Full iterations get an effectively unlimited budget; the cutoff
	// iteration gets the sequential search's remaining nodes.
	budget int64
}

// iterResult is one iteration's outcome, merged deterministically.
type iterResult struct {
	run      bool
	found    bool
	cost     Cost
	startNow []bool
	start    []job.Time
	path     []int
	nodes    int64
	leaves   int64
	// improv logs the iteration-local incumbent improvements (cost and
	// local node counter); the merge threads the global incumbent
	// through these logs in ascending iteration order, reproducing the
	// sequential nodesToBest exactly.
	improv []improvement
}

// satCap is the saturation ceiling for tree-node counts: any count at
// or above it is treated as "larger than any realistic node budget".
const satCap int64 = 1 << 60

func satAdd(a, b int64) int64 {
	if a >= satCap || b >= satCap || a > satCap-b {
		return satCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= satCap || b >= satCap || a > satCap/b {
		return satCap
	}
	return a * b
}

// shardScratch holds reusable buffers for the budget shard computation.
type shardScratch struct {
	e []int64 // elementary symmetric polynomial DP row (LDS)
}

// ldsIterNodes returns the number of visit() calls exact-k LDS performs
// on an n-job tree (saturating at satCap). A node at depth d whose path
// carries j discrepancies is visited iff j <= k and the remaining k-j
// discrepancies fit below: k-j <= max(0, n-1-d). The number of depth-d
// prefixes with j discrepancies is the elementary symmetric polynomial
// e_j(c_0..c_{d-1}) over the per-level discrepancy choice counts
// c_l = n-l-1.
func (sc *shardScratch) ldsIterNodes(n, k int) int64 {
	if n <= 0 {
		return 0
	}
	if cap(sc.e) < k+1 {
		sc.e = make([]int64, k+1)
	}
	e := sc.e[:k+1]
	e[0] = 1
	for j := 1; j <= k; j++ {
		e[j] = 0
	}
	var total int64
	for d := 1; d <= n; d++ {
		c := int64(n - d) // c_{d-1}: discrepancy choices at level d-1
		jmax := k
		if d < jmax {
			jmax = d
		}
		for j := jmax; j >= 1; j-- {
			e[j] = satAdd(e[j], satMul(e[j-1], c))
		}
		cb := n - 1 - d
		if cb < 0 {
			cb = 0
		}
		lo := k - cb
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= jmax; j++ {
			total = satAdd(total, e[j])
		}
	}
	return total
}

// ddsIterNodes returns the number of visit() calls DDS iteration i
// performs on an n-job tree (saturating at satCap). Level l offers n-l
// branches: free branching above the forced depth multiplies them up,
// P(n,d) nodes at depth d < i, the forced level takes all but the
// heuristic one, and each resulting path runs heuristically to depth n.
// Iteration 0 is the heuristic path.
func ddsIterNodes(n, i int) int64 {
	if n <= 0 {
		return 0
	}
	if i == 0 {
		return int64(n)
	}
	var total int64
	p := int64(1) // prefixes reaching the current level
	for l := 0; l <= i-2; l++ {
		p = satMul(p, int64(n-l))
		total = satAdd(total, p)
	}
	paths := satMul(p, int64(n-i)) // forced level i-1
	// Depths i..n: one node per path per depth.
	total = satAdd(total, satMul(paths, int64(n-i+1)))
	return total
}

// iterNodes dispatches the per-iteration node count for the algorithm.
func (sch *Scheduler) iterNodes(n, iter int) int64 {
	switch sch.Algorithm {
	case LDS:
		return sch.shard.ldsIterNodes(n, iter)
	case DDS:
		return ddsIterNodes(n, iter)
	default:
		panic("core: iterNodes on non-iterative algorithm")
	}
}

// shardBudget replays the sequential budget consumption over the
// iterations of an n-job tree: iteration 0 always completes (the search
// must always commit a schedule); each later iteration receives the
// remaining budget in order; the iteration that exhausts it gets
// exactly the remaining node count and everything after it is skipped.
// It returns the tasks to run and whether the sequential search would
// have aborted on budget (BudgetHits accounting).
func (sch *Scheduler) shardBudget(n int, limit int64) (tasks []iterTask, aborted bool) {
	tasks = sch.tasks[:0]
	spent := int64(0)
	for i := 0; i <= n-1; i++ {
		full := sch.iterNodes(n, i)
		if i == 0 {
			tasks = append(tasks, iterTask{iter: 0, budget: satCap})
			spent = full
			continue
		}
		rem := limit - spent
		if rem <= 0 {
			// The sequential search would enter this iteration and
			// abort on its first visit without spending a node.
			aborted = true
			break
		}
		if full <= rem {
			tasks = append(tasks, iterTask{iter: i, budget: satCap})
			spent += full
			continue
		}
		tasks = append(tasks, iterTask{iter: i, budget: rem})
		aborted = true
		break
	}
	sch.tasks = tasks
	return tasks, aborted
}

// parallelWorkers resolves the worker count for a decision over an
// n-job queue: 0 for sequential-only configurations.
func (sch *Scheduler) parallelWorkers(n int) int {
	w := sch.Workers
	if w == AutoWorkers {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 {
		return 1
	}
	if sch.Prune || sch.Algorithm == DFS || n < 2 {
		// Pruning couples iterations; DFS has no iteration structure; one
		// job has only iteration 0.
		return 1
	}
	return w
}

// runParallel runs the discrepancy iterations of the current decision
// on a worker pool and merges the per-iteration results into the master
// state sch.s, which must already be prepared. It reports whether the
// parallel path ran (false falls back to sequential search).
func (sch *Scheduler) runParallel(snap *sim.Snapshot, workers int) bool {
	s := &sch.s
	n := len(s.ordered)
	tasks, aborted := sch.shardBudget(n, s.limit)
	if len(tasks) < 2 {
		return false // budget confined to iteration 0: nothing to overlap
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// Per-iteration result slots, indexed by iteration, reused across
	// decisions.
	for len(sch.results) < n {
		sch.results = append(sch.results, iterResult{})
	}
	results := sch.results[:n]
	for i := range results {
		results[i].run = false
	}

	for len(sch.wstates) < workers {
		sch.wstates = append(sch.wstates, &searchState{})
	}

	taskCh := make(chan iterTask)
	busy := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := sch.wstates[w]
		ws.resetWorker(snap, s)
		wg.Add(1)
		go func(w int, ws *searchState) {
			defer wg.Done()
			for t := range taskCh {
				t0 := time.Now()
				ws.runIteration(sch.Algorithm, t, &results[t.iter])
				busy[w] += time.Since(t0).Nanoseconds()
			}
		}(w, ws)
	}
	for _, t := range tasks {
		taskCh <- t
	}
	close(taskCh)
	wg.Wait()

	// Deterministic merge: ascending iteration order, strict
	// improvement only — ties keep the lowest iteration, matching the
	// sequential scan. The nodes-to-best incumbent is threaded through
	// the per-iteration improvement logs the same way: an improvement
	// counts only if it beats everything from earlier iterations, and its
	// node position is the sum of the preceding iterations' spend plus
	// its local counter — exactly the sequential node counter.
	s.nodes, s.leaves = 0, 0
	s.bestFound = false
	s.aborted = aborted
	var ntb Cost
	ntbSet := false
	for i := range results {
		r := &results[i]
		if !r.run {
			continue
		}
		for _, im := range r.improv {
			if !ntbSet || im.cost.Less(ntb) {
				ntb, ntbSet = im.cost, true
				s.nodesToBest = s.nodes + im.nodes
				if s.recordImprov {
					// Thread the accepted improvement into the master's log
					// with its global node position, so the trajectory
					// matches the sequential run's.
					s.improv = append(s.improv, improvement{cost: im.cost, nodes: s.nodes + im.nodes})
				}
			}
		}
		s.nodes += r.nodes
		s.leaves += r.leaves
		if !r.found {
			continue
		}
		if !s.bestFound || r.cost.Less(s.bestCost) {
			s.bestFound = true
			s.bestCost = r.cost
			copy(s.bestStartNow, r.startNow)
			copy(s.bestStart, r.start)
			s.bestPath = append(s.bestPath[:0], r.path...)
		}
	}
	for w, b := range busy {
		sch.SearchStats.BusyNs += b
		s.tab.servedNodes += sch.wstates[w].tab.servedNodes
		s.tab.hits += sch.wstates[w].tab.hits
		s.tab.settledNodes += sch.wstates[w].tab.settledNodes
	}
	return true
}

// runIteration runs one discrepancy iteration on a worker state whose
// profile and branch order are already prepared, recording the outcome
// into r. The state's free list and profile are fully restored on
// return (backtracking is LIFO even on abort), so the same worker can
// run further iterations.
func (ws *searchState) runIteration(algo Algorithm, t iterTask, r *iterResult) {
	ws.nodes, ws.leaves, ws.pruned = 0, 0, 0
	ws.bestFound = false
	ws.aborted = false
	ws.curCost = Cost{}
	ws.curPath = ws.curPath[:0]
	ws.limit = t.budget
	// Iterations past 0 abort purely on their node shard: the
	// sequential run they replay already holds the iteration-0 schedule
	// when the budget trips.
	ws.hardBudget = t.iter > 0
	// Log iteration-local incumbent improvements for the merge's
	// nodes-to-best replay.
	ws.nodesToBest = 0
	ws.recordImprov = true
	ws.improv = ws.improv[:0]

	switch algo {
	case LDS:
		ws.ldsDFS(0, t.iter)
	case DDS:
		ws.ddsDFS(0, t.iter)
	default:
		panic("core: runIteration on non-iterative algorithm")
	}

	r.run = true
	r.nodes = ws.nodes
	r.leaves = ws.leaves
	r.found = ws.bestFound
	r.improv = append(r.improv[:0], ws.improv...)
	if ws.bestFound {
		r.cost = ws.bestCost
		r.startNow = append(r.startNow[:0], ws.bestStartNow...)
		r.start = append(r.start[:0], ws.bestStart...)
		r.path = append(r.path[:0], ws.bestPath...)
	}
}
