package core

import (
	"fmt"
	"slices"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Algorithm selects the complete search algorithm.
type Algorithm int

const (
	// LDS is limited discrepancy search (Harvey & Ginsberg 1995, with
	// Korf's exact-k iteration improvement): iteration k explores all
	// paths containing exactly k discrepancies, fewest first.
	LDS Algorithm = iota
	// DDS is depth-bounded discrepancy search (Walsh 1997): iteration
	// i explores paths whose deepest discrepancy is exactly at depth i,
	// with free branching above, biasing search toward discrepancies
	// high in the tree.
	DDS
	// DFS is plain chronological depth-first enumeration — the naive
	// baseline: within a budget it only ever varies the END of the
	// heuristic schedule, which is why the paper uses discrepancy
	// search instead (demonstrated by the ext-dfs experiment).
	DFS
)

// String returns the paper's tag for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case LDS:
		return "LDS"
	case DDS:
		return "DDS"
	case DFS:
		return "DFS"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Heuristic selects the branching heuristic that orders the branches at
// every search-tree node (the left-most branch follows the heuristic;
// every other branch is a discrepancy).
type Heuristic int

const (
	// HeuristicFCFS orders jobs by arrival (first come first served).
	HeuristicFCFS Heuristic = iota
	// HeuristicLXF orders jobs by largest current bounded slowdown
	// first.
	HeuristicLXF
)

// String returns the paper's tag for the heuristic.
func (h Heuristic) String() string {
	switch h {
	case HeuristicFCFS:
		return "fcfs"
	case HeuristicLXF:
		return "lxf"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Stats aggregates search effort over a simulation run.
type Stats struct {
	// Decisions counts non-empty-queue calls: Exhausted + BudgetHits +
	// Skipped for the complete search.
	Decisions int
	// Nodes counts search-tree nodes visited (job placements).
	Nodes int64
	// Leaves counts complete schedules evaluated.
	Leaves int64
	// Exhausted counts decisions where the whole tree was enumerated
	// within the budget.
	Exhausted int
	// BudgetHits counts decisions cut off by the node limit.
	BudgetHits int
	// Skipped counts decisions where no queued job fit the free nodes,
	// so only the heuristic schedule was walked (budget 1).
	Skipped int
	// Pruned counts subtrees cut by branch-and-bound (zero unless
	// Prune is enabled).
	Pruned int64
	// WallNs is the total wall-clock time spent searching, in
	// nanoseconds, across all decisions.
	WallNs int64
	// BusyNs is the summed per-worker search time in nanoseconds. For
	// sequential search it equals WallNs; for parallel search the ratio
	// BusyNs/WallNs is the effective parallelism (see Speedup).
	BusyNs int64
	// NodesToBest sums, over decisions, the node count at which the
	// search last improved its incumbent. Lower means the best schedule
	// was in hand earlier; NodesToBest/Decisions is the average search
	// effort actually needed per decision.
	NodesToBest int64
	// TableNodes is the part of Nodes that was counted from the
	// per-decision transposition table instead of walked — subtrees
	// below a set of (job, start) pairs the same decision had already
	// placed in another order — and TableHits the number of subtrees so
	// served. Both are zero where the table is off (Prune, DFS).
	TableNodes int64
	TableHits  int64
	// SettledNodes is the part of Nodes counted, not walked, in tails
	// that could no longer beat the incumbent (searchState.settle); it is
	// zero where the table is off.
	SettledNodes int64
}

// Speedup returns the effective search parallelism: summed worker busy
// time over wall time. It is 1.0 for sequential runs and approaches the
// worker count when the parallel search scales.
func (st Stats) Speedup() float64 {
	if st.WallNs <= 0 || st.BusyNs <= 0 {
		return 1
	}
	return float64(st.BusyNs) / float64(st.WallNs)
}

// AutoWorkers selects one search worker per available CPU (GOMAXPROCS)
// when assigned to Scheduler.Workers.
const AutoWorkers = -1

// Scheduler is the search-based scheduling policy (sim.Policy). The
// zero value is not valid; use New or populate all fields.
type Scheduler struct {
	Algorithm Algorithm
	Heuristic Heuristic
	Bound     BoundSpec
	// NodeLimit is L, the maximum search-tree nodes visited per
	// decision point. The heuristic (iteration-0) schedule is always
	// completed even if it alone exceeds the limit, so the policy can
	// always commit a schedule.
	NodeLimit int
	// Workers selects search parallelism across discrepancy iterations:
	// 0 or 1 runs the sequential search; AutoWorkers (-1) uses one
	// worker per CPU (GOMAXPROCS); any other positive value is used as
	// given (values above GOMAXPROCS add no speed but remain
	// deterministic). Parallel search commits the same schedules as
	// sequential search: iterations carry deterministic node-budget
	// shards and the merge prefers lowest cost, then lowest iteration.
	// DFS and Prune runs are always sequential.
	Workers int
	// Prune enables branch-and-bound pruning (the paper's future-work
	// suggestion): a subtree is cut as soon as the partial schedule's
	// cost is already no better than the best complete schedule, which
	// is admissible because every placement's cost is non-negative
	// (hierarchicalCost). Off by default (paper-faithful search: every
	// node counted).
	Prune bool

	// SearchStats accumulates effort counters across the run.
	SearchStats Stats

	lastPlan     []PlannedStart
	lastDecision DecisionSummary
	startsBuf    []int
	s            searchState // reusable scratch (sequential search + merge target)

	// Parallel-search scratch, reused across decisions.
	wstates []*searchState
	tasks   []iterTask
	results []iterResult
	shard   shardScratch
}

// New returns a search-based scheduler; the paper's best policy is
// New(DDS, HeuristicLXF, DynamicBound(), 1000).
func New(algo Algorithm, h Heuristic, bound BoundSpec, nodeLimit int) *Scheduler {
	return &Scheduler{Algorithm: algo, Heuristic: h, Bound: bound, NodeLimit: nodeLimit}
}

// PolicyAs walks a chain of single-inner policy wrappers — anything
// with an Unwrap() sim.Policy method: Fairshare, chaos.FlakyPolicy —
// and returns the first policy on it, p included, that is a T. Readers
// of a policy's optional surfaces (SearchStats, the decision summaries
// engine.Audit reports) go through it so they do not vanish behind a
// wrapper.
func PolicyAs[T any](p sim.Policy) (T, bool) {
	for p != nil {
		if t, ok := p.(T); ok {
			return t, true
		}
		w, ok := p.(interface{ Unwrap() sim.Policy })
		if !ok {
			break
		}
		p = w.Unwrap()
	}
	var zero T
	return zero, false
}

// SchedulerOf returns the search scheduler under p's wrappers, or nil
// when the chain ends in anything else (see PolicyAs).
func SchedulerOf(p sim.Policy) *Scheduler {
	sch, _ := PolicyAs[*Scheduler](p)
	return sch
}

// Name implements sim.Policy, producing the paper's naming scheme, e.g.
// "DDS/lxf/dynB".
func (sch *Scheduler) Name() string {
	return fmt.Sprintf("%s/%s/%s", sch.Algorithm, sch.Heuristic, sch.Bound)
}

// Decide implements sim.Policy. The returned slice is reused by the
// next Decide.
func (sch *Scheduler) Decide(snap *sim.Snapshot) []int { return sch.decide(snap, nil) }

// decide is Decide with the slowdown divisors of hierarchicalCost, nil
// for the paper's objective (Fairshare passes its own).
func (sch *Scheduler) decide(snap *sim.Snapshot, div []float64) []int {
	n := len(snap.Queue)
	if n == 0 {
		// Nothing to schedule — and nothing from the previous decision
		// is still planned, so LastPlan/LastCost must not report stale
		// data.
		sch.lastPlan = sch.lastPlan[:0]
		sch.s.bestCost = Cost{}
		sch.s.bestFound = false
		sch.lastDecision = DecisionSummary{Trajectory: sch.lastDecision.Trajectory[:0]}
		return nil
	}

	t0 := time.Now()
	s := &sch.s
	skip := s.prepare(snap, sch.Algorithm, sch.Heuristic, sch.Bound.At(snap), div, max(sch.NodeLimit, 1), sch.Prune)
	// The incumbent-improvement log feeds LastDecision's cost
	// trajectory (engine.Audit). Recording is strictly passive: leaf
	// and the parallel merge append to a reused slice exactly at the
	// improvements they already track, so enabling it unconditionally
	// cannot perturb the search (the inertness differentials pin this).
	s.recordImprov = true
	parallel := false
	if workers := sch.parallelWorkers(n); workers > 1 {
		parallel = sch.runParallel(snap, workers)
	}
	if !parallel {
		switch sch.Algorithm {
		case LDS:
			s.runLDS()
		case DDS:
			s.runDDS()
		case DFS:
			s.runDFS(0)
		default:
			panic(fmt.Sprintf("core: unknown algorithm %d", sch.Algorithm))
		}
	}
	wall := time.Since(t0).Nanoseconds()

	sch.SearchStats.Decisions++
	sch.SearchStats.Nodes += s.nodes
	sch.SearchStats.Leaves += s.leaves
	sch.SearchStats.Pruned += s.pruned
	sch.SearchStats.WallNs += wall
	sch.SearchStats.NodesToBest += s.nodesToBest
	sch.SearchStats.TableNodes += s.tab.servedNodes
	sch.SearchStats.TableHits += s.tab.hits
	sch.SearchStats.SettledNodes += s.tab.settledNodes
	if !parallel {
		sch.SearchStats.BusyNs += wall
	}
	switch {
	case skip:
		sch.SearchStats.Skipped++
	case s.aborted:
		sch.SearchStats.BudgetHits++
	default:
		sch.SearchStats.Exhausted++
	}

	traj := sch.lastDecision.Trajectory[:0]
	for _, im := range s.improv {
		traj = append(traj, CostPoint{Nodes: im.nodes, Cost: im.cost})
	}
	sch.lastDecision = DecisionSummary{
		QueueDepth:     n,
		EffectiveLimit: s.limit,
		Nodes:          s.nodes,
		Leaves:         s.leaves,
		Pruned:         s.pruned,
		NodesToBest:    s.nodesToBest,
		TableNodes:     s.tab.servedNodes,
		TableHits:      s.tab.hits,
		BudgetHit:      s.aborted && !skip,
		Parallel:       parallel,
		BestFound:      s.bestFound,
		BestCost:       s.bestCost,
		Trajectory:     traj,
	}

	starts := sch.startsBuf[:0]
	sch.lastPlan = sch.lastPlan[:0]
	for oi, now := range s.bestStartNow {
		if now {
			starts = append(starts, s.ordered[oi].QueuePos)
		}
		sch.lastPlan = append(sch.lastPlan, PlannedStart{
			JobID:   s.ordered[oi].Job.ID,
			User:    s.ordered[oi].Job.User,
			Nodes:   s.ordered[oi].Job.Nodes,
			Planned: s.bestStart[oi],
		})
	}
	sch.startsBuf = starts
	return starts
}

// PlannedStart is one queued job's planned start time under the best
// schedule found at the most recent decision — the "estimated start
// time" a production scheduler would show users. Plans are advisory:
// they are recomputed (and typically improve) at every later decision.
type PlannedStart struct {
	JobID   int
	User    int
	Nodes   int
	Planned job.Time
}

// LastPlan returns the planned start of every job queued at the most
// recent decision, in the heuristic's branch order. The slice is reused
// by the next Decide.
func (sch *Scheduler) LastPlan() []PlannedStart { return sch.lastPlan }

// LastCost returns the objective value of the schedule committed at the
// most recent decision.
func (sch *Scheduler) LastCost() Cost { return sch.s.bestCost }

// CostPoint is one incumbent improvement during a decision's search:
// after Nodes placements the incumbent cost dropped to Cost.
type CostPoint struct {
	Nodes int64
	Cost  Cost
}

// DecisionSummary describes the most recent Decide call for the
// observability layer (the records engine.Audit reports). It is
// assembled from state the search already tracks; producing it never
// perturbs a decision. A skipped decision (no queued job fit the free
// nodes) has EffectiveLimit 1 and is never a BudgetHit.
type DecisionSummary struct {
	QueueDepth     int
	EffectiveLimit int64
	Nodes          int64
	Leaves         int64
	Pruned         int64
	NodesToBest    int64
	TableNodes     int64
	TableHits      int64
	BudgetHit      bool
	Parallel       bool
	BestFound      bool
	BestCost       Cost
	Trajectory     []CostPoint
}

// LastDecision returns the summary of the most recent decision. The
// Trajectory slice is reused by the next Decide.
func (sch *Scheduler) LastDecision() DecisionSummary { return sch.lastDecision }

// searchState holds the per-decision search machinery; it is reused
// across decisions (and per worker, across iterations) to avoid
// allocation churn.
type searchState struct {
	bound job.Duration
	div   []float64 // hierarchicalCost's slowdown divisors; nil: the paper's
	// limit is the node budget for this state's run; parallel workers
	// receive per-iteration shards here (possibly unbounded).
	limit  int64
	nodes  int64
	leaves int64

	// ev owns the decision's instant and availability profile: visit
	// places and undoes on it, tail places a run and restores it, and
	// whole orderings (local search) are evaluated on it between
	// enumerations.
	ev        OrderEvaluator
	ordered   []sim.WaitingJob // heuristic branch order
	orderKeys []float64        // scratch: precomputed heuristic sort keys

	// Unused jobs form a doubly-linked free list over ordered indices,
	// so enumerating and claiming the b-th unused job is O(1) instead
	// of an O(n) scan per node visit. Unlinking keeps the removed
	// entry's own pointers intact (dancing links), so LIFO relinking on
	// backtrack is O(1) too.
	freeHead int
	freeNext []int
	freePrev []int

	curCost      Cost
	curPath      []int // ordered indices along the current partial path
	curStartNow  []bool
	curStart     []job.Time // planned start per ordered index (current path)
	bestCost     Cost
	bestStartNow []bool
	bestStart    []job.Time // planned start per ordered index (best schedule)
	bestPath     []int      // ordered indices of the best complete schedule
	bestFound    bool
	aborted      bool
	prune        bool
	pruned       int64
	// hardBudget makes overBudget ignore bestFound: parallel workers on
	// iterations > 0 abort purely on their node shard, because in the
	// equivalent sequential run the iteration-0 schedule already exists.
	hardBudget bool

	// nodesToBest is the node counter at the incumbent's last
	// improvement.
	nodesToBest int64
	// recordImprov makes leaf() log every incumbent improvement. Decide
	// sets it for every decision (the log is LastDecision's trajectory);
	// parallel workers set it too, and the merge threads the global
	// incumbent through their per-iteration logs to reproduce the
	// sequential nodesToBest exactly.
	recordImprov bool
	improv       []improvement

	// tab is the decision's transposition table (table.go). It is off
	// where a subtree is not a function of the placed set and ctx, or
	// must be seen: under Prune (what is explored depends on the
	// incumbent), for DFS (the ablation baseline stays naive) and with a
	// leafHook. noTable (tests only) turns it off to compare with a walk.
	tab     table
	noTable bool

	// leafHook, when set (tests only), observes every complete path in
	// exploration order.
	leafHook func(path []int, cost Cost)
	// tailHook, when set (tests only), walks every tail in place of tail:
	// the reference tail is compared with.
	tailHook func(s *searchState)
}

// improvement is one incumbent improvement inside a single iteration:
// the cost reached and the iteration-local node counter at that leaf.
type improvement struct {
	cost  Cost
	nodes int64
}

// prepare readies the state for one decision under a budget of limit
// nodes; algo and prune decide whether the table is on (the only thing
// read from algo). Where no queued job is as narrow as the nodes free now
// on the search's own profile, no ordering starts a job now: skip, and
// the budget is 1 (parallel path included) — the heuristic schedule,
// which iteration 0 always completes.
func (s *searchState) prepare(snap *sim.Snapshot, algo Algorithm, h Heuristic, bound job.Duration, div []float64, limit int, prune bool) (skip bool) {
	s.load(snap, h)
	free := s.ev.prof.FreeAt(snap.Now)
	skip = !slices.ContainsFunc(s.ordered, func(w sim.WaitingJob) bool { return w.Job.Nodes <= free })
	if skip {
		limit = 1
	}
	s.arm(algo, bound, div, limit, prune)
	return skip
}

// load takes the decision's queue in branch order and builds its profile.
func (s *searchState) load(snap *sim.Snapshot, h Heuristic) {
	s.ordered = append(s.ordered[:0], snap.Queue...)
	s.orderKeys = orderJobs(s.ordered, h, snap.Now, s.orderKeys)
	s.ev.Reset(snap)
}

// arm sets the decision's objective and budget and clears the search.
func (s *searchState) arm(algo Algorithm, bound job.Duration, div []float64, limit int, prune bool) {
	s.bound, s.div, s.limit, s.prune, s.hardBudget = bound, div, int64(limit), prune, false
	s.resetSearch()
	s.tab.reset(algo != DFS && !prune && s.leafHook == nil && !s.noTable, len(s.ordered), s.limit)
}

// resetWorker prepares a parallel worker state from the master state:
// same decision parameters and branch order, its own profile copy and
// its own table, kept across the iterations it runs for this decision.
func (s *searchState) resetWorker(snap *sim.Snapshot, master *searchState) {
	s.bound = master.bound
	s.div = master.div
	s.limit = master.limit
	s.prune = false
	s.hardBudget = false
	s.leafHook = nil
	s.tailHook = master.tailHook

	s.ordered = append(s.ordered[:0], master.ordered...)

	s.resetSearch()
	s.tab.reset(master.tab.on, len(s.ordered), s.limit)
	s.ev.Reset(snap)
}

// resetSearch reinitializes the per-run search buffers (free list,
// path, best/current schedules) for the current ordered set.
func (s *searchState) resetSearch() {
	n := len(s.ordered)
	s.nodes = 0
	s.leaves = 0
	s.pruned = 0
	s.bestFound = false
	s.aborted = false
	s.curCost = Cost{}
	s.nodesToBest = 0
	s.recordImprov = false
	s.improv = s.improv[:0]

	s.freeNext = Resize(s.freeNext, n)
	s.freePrev = Resize(s.freePrev, n)
	for i := 0; i < n; i++ {
		s.freeNext[i] = i + 1
		s.freePrev[i] = i - 1
	}
	if n > 0 {
		s.freeNext[n-1] = -1
		s.freeHead = 0
	} else {
		s.freeHead = -1
	}

	s.curStartNow = Resize(s.curStartNow, n)
	s.bestStartNow = Resize(s.bestStartNow, n)
	s.curStart = Resize(s.curStart, n)
	s.bestStart = Resize(s.bestStart, n)
	s.curPath = s.curPath[:0]
}

// orderJobs sorts jobs into the heuristic's branch order with
// deterministic tiebreaks, reusing (and returning) keys as scratch for
// the precomputed sort keys. Insertion sort keeps the hot path
// allocation-free (sort.SliceStable allocates for its closure and
// reflection swapper); queues are tens of jobs, and both orders are
// total (ID tiebreak), so the result matches any stable sort. The LXF
// slowdown key is computed once per job, not once per comparison — the
// key is a pure function of (submit, estimate, now), so the order is
// bit-identical to recomputing inside the comparator.
func orderJobs(jobs []sim.WaitingJob, h Heuristic, now job.Time, keys []float64) []float64 {
	switch h {
	case HeuristicFCFS:
		for i := 1; i < len(jobs); i++ {
			for k := i; k > 0 && fcfsLess(&jobs[k], &jobs[k-1]); k-- {
				jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
			}
		}
	case HeuristicLXF:
		keys = keys[:0]
		for i := range jobs {
			keys = append(keys, job.BoundedSlowdownAt(jobs[i].Job.Submit, jobs[i].Estimate, now))
		}
		for i := 1; i < len(jobs); i++ {
			for k := i; k > 0 && lxfLess(keys[k], keys[k-1], &jobs[k], &jobs[k-1]); k-- {
				jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
				keys[k], keys[k-1] = keys[k-1], keys[k]
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown heuristic %d", h))
	}
	return keys
}

func fcfsLess(a, b *sim.WaitingJob) bool {
	if a.Job.Submit != b.Job.Submit {
		return a.Job.Submit < b.Job.Submit
	}
	return a.Job.ID < b.Job.ID
}

func lxfLess(sa, sb float64, a, b *sim.WaitingJob) bool {
	if sa != sb {
		return sa > sb
	}
	return fcfsLess(a, b)
}

// overBudget reports whether the node budget is spent; the search keeps
// going until at least one complete schedule exists, so a decision can
// always be committed (parallel iteration shards waive that via
// hardBudget: their iteration-0 sibling guarantees the schedule).
func (s *searchState) overBudget() bool {
	if s.nodes < s.limit {
		return false
	}
	return s.hardBudget || s.bestFound
}

// unlink removes ordered index oi from the free list. oi's own pointers
// are left intact so relink can restore it in O(1) (LIFO order).
func (s *searchState) unlink(oi int) {
	p, nx := s.freePrev[oi], s.freeNext[oi]
	if p >= 0 {
		s.freeNext[p] = nx
	} else {
		s.freeHead = nx
	}
	if nx >= 0 {
		s.freePrev[nx] = p
	}
}

// relink restores ordered index oi into the free list (inverse of the
// most recent unlink of oi).
func (s *searchState) relink(oi int) {
	p, nx := s.freePrev[oi], s.freeNext[oi]
	if p >= 0 {
		s.freeNext[p] = oi
	} else {
		s.freeHead = oi
	}
	if nx >= 0 {
		s.freePrev[nx] = oi
	}
}

// visit places the job at ordered index oi (which must be on the free
// list), recurses via down, and undoes the placement: one branching step
// of an enumerator. ctx is what the subtree below depends on besides the
// placed set (see table.go): 0 when it is the heuristic tail. It returns
// false when the search aborted on budget.
func (s *searchState) visit(oi int, ctx int32, down func()) bool {
	if s.overBudget() {
		s.aborted = true
		return false
	}
	s.nodes++

	w := &s.ordered[oi]
	now := s.ev.now
	start, pl := s.ev.prof.PlaceEarliest(now, w.Job.Nodes, w.PlanEstimate())
	prevCost := s.curCost
	s.curCost = prevCost.Add(hierarchicalCost(w, start, s.bound, s.div))
	s.unlink(oi)
	s.curStartNow[oi] = start == now
	s.curStart[oi] = start
	s.curPath = append(s.curPath, oi)

	switch {
	case s.prune && s.bestFound && !s.curCost.Less(s.bestCost):
		// Branch and bound: per-job costs are non-negative, so the
		// partial cost lower-bounds every completion of this path (the
		// first leaf is exempt so a complete schedule can always be
		// committed).
		s.pruned++
	case s.tab.on && len(s.curPath) < len(s.ordered):
		// (Below the last job there is only the leaf: nothing to serve.)
		s.tableDown(oi, start, ctx, down)
	default:
		down()
	}

	s.curPath = s.curPath[:len(s.curPath)-1]
	s.relink(oi)
	s.curCost = prevCost
	s.ev.prof.Undo(pl)
	return !s.aborted
}

// tail walks the heuristic completion of the current path — every free
// job in free-list order, each at its earliest fit, then the leaf. Both
// enumerators end every path this way, and most of a budget's nodes are
// tail nodes. Per node it is settle where the path has lost, otherwise
// visit (budget, place, cost, prune, table), but a tail node has one
// child and is never come back to: the free list is walked, not
// unlinked, nothing is undone on its own, and the way out restores the
// profile, cost, path and table position whole. The last job only needs
// its start, so it is fitted, not placed: it is still charged and
// costed as a node.
func (s *searchState) tail() {
	if s.tailHook != nil {
		s.tailHook(s)
		return
	}
	n, base := len(s.ordered), len(s.curPath)
	prof, tb, now := &s.ev.prof, &s.tab, s.ev.now
	cost, hash, cur := s.curCost, tb.hash, tb.cur
	prof.Save()
	// A tail the budget covers whole is walked to its leaf, so what lies
	// below each of its nodes is known on arrival: the rest of the tail
	// and one leaf. One that aborts leaves its entries incomplete.
	whole := !(s.hardBudget || s.bestFound) || s.nodes+int64(n-base) <= s.limit
	oi := s.freeHead
	for ; oi >= 0; oi = s.freeNext[oi] {
		if s.lost() {
			s.settle()
			break
		}
		if s.overBudget() {
			s.aborted = true
			break
		}
		s.nodes++
		w := &s.ordered[oi]
		var start job.Time
		if s.freeNext[oi] < 0 { // the last job: Restore drops it anyway
			start = prof.EarliestFit(now, w.Job.Nodes, w.PlanEstimate())
		} else {
			start, _ = prof.PlaceEarliest(now, w.Job.Nodes, w.PlanEstimate())
		}
		s.curCost = s.curCost.Add(hierarchicalCost(w, start, s.bound, s.div))
		s.curStartNow[oi] = start == now
		s.curStart[oi] = start
		s.curPath = append(s.curPath, oi)
		if s.prune && s.bestFound && !s.curCost.Less(s.bestCost) {
			s.pruned++
			break
		}
		if below := int64(n - len(s.curPath)); tb.on && below > 0 {
			if s.tableEnter(oi, start, 0) {
				break
			}
			if whole && tb.cur > 0 {
				e := &tb.entries[tb.cur]
				e.nodes, e.leaves = below, 1
			}
		}
	}
	if oi < 0 {
		s.leaf()
	}
	if tb.on {
		for _, oi := range s.curPath[base:] {
			tb.placed[oi] = false
		}
		tb.hash, tb.cur = hash, cur
	}
	s.curPath = s.curPath[:base]
	s.curCost = cost
	prof.Restore()
}

// lost reports whether the path can no longer beat the incumbent, where
// counting instead of walking is on (the table's switch): costs are
// non-negative and added prefix first, so no completion of a partial
// cost not Less than the incumbent is Less either (DESIGN §10). It is
// kept apart from settle so that both fit the inliner's budget: a call
// per tail node cost deep_decide about a tenth of its throughput.
func (s *searchState) lost() bool {
	return s.tab.on && s.bestFound && !s.curCost.Less(s.bestCost)
}

// settle counts the rest of a lost tail instead of walking it: its nodes
// and its leaf, or, where the budget ends inside it, nodes up to the
// limit and an abort, as a walk's overBudget would.
func (s *searchState) settle() {
	rest := int64(len(s.ordered) - len(s.curPath))
	if s.nodes+rest > s.limit {
		rest, s.aborted = s.limit-s.nodes, true
	} else {
		s.leaves++
	}
	s.nodes += rest
	s.tab.settledNodes += rest
}

// leaf records the completed schedule if it beats the best so far.
func (s *searchState) leaf() {
	s.leaves++
	if s.leafHook != nil {
		s.leafHook(s.curPath, s.curCost)
	}
	if !s.bestFound || s.curCost.Less(s.bestCost) {
		s.bestFound = true
		s.bestCost = s.curCost
		copy(s.bestStartNow, s.curStartNow)
		copy(s.bestStart, s.curStart)
		s.bestPath = append(s.bestPath[:0], s.curPath...)
		s.nodesToBest = s.nodes
		if s.recordImprov {
			s.improv = append(s.improv, improvement{cost: s.curCost, nodes: s.nodes})
		}
	}
}

// runLDS runs exact-k limited discrepancy search, k = 0, 1, ... until
// the budget is spent or the tree is exhausted.
func (s *searchState) runLDS() {
	n := len(s.ordered)
	maxK := n - 1 // at most one discrepancy per level with >= 2 branches
	if maxK < 0 {
		maxK = 0
	}
	for k := 0; k <= maxK && !s.aborted; k++ {
		s.ldsDFS(0, k)
	}
}

// ldsDFS explores, below the current partial path, all completions that
// consume exactly rem further discrepancies: with none left, the tail.
func (s *searchState) ldsDFS(depth, rem int) {
	if rem == 0 {
		s.tail()
		return
	}
	// Levels strictly below this one that can still host a discrepancy
	// (a level needs at least two branches).
	choiceBelow := len(s.ordered) - 2 - depth
	if choiceBelow < 0 {
		choiceBelow = 0
	}
	b := 0
	for oi := s.freeHead; oi >= 0; oi = s.freeNext[oi] {
		if b == 0 {
			b++
			if rem > choiceBelow {
				continue // cannot consume all remaining discrepancies below
			}
			if !s.visit(oi, int32(rem), func() { s.ldsDFS(depth+1, rem) }) {
				return
			}
			continue
		}
		b++
		if !s.visit(oi, int32(rem-1), func() { s.ldsDFS(depth+1, rem-1) }) {
			return
		}
	}
}

// runDDS runs depth-bounded discrepancy search: iteration 0 is the pure
// heuristic path; iteration i forces a discrepancy exactly at depth i,
// allows any branch above, and follows the heuristic below.
func (s *searchState) runDDS() {
	n := len(s.ordered)
	s.ddsDFS(0, 0)
	for i := 1; i <= n-1 && !s.aborted; i++ {
		s.ddsDFS(0, i)
	}
}

// runDFS explores the whole tree in plain left-to-right depth-first
// order (every branch allowed at every level).
func (s *searchState) runDFS(level int) {
	n := len(s.ordered)
	if level == n {
		s.leaf()
		return
	}
	for oi := s.freeHead; oi >= 0; oi = s.freeNext[oi] {
		if !s.visit(oi, 0, func() { s.runDFS(level + 1) }) {
			return
		}
	}
}

// ddsDFS explores iteration iter of DDS from the given level. Level l
// chooses the node at tree depth l+1, so iteration iter forces the
// discrepancy at level iter-1: free branching above it, every branch but
// the heuristic one at it, and below it — everywhere, in iteration 0 —
// the tail.
func (s *searchState) ddsDFS(level, iter int) {
	if iter == 0 || level > iter-1 {
		s.tail()
		return
	}
	// Below this level's nodes the enumerator still branches only while
	// above the forced level; from it down the subtree is the tail.
	forced := level == iter-1
	ctx := int32(iter)
	if forced {
		ctx = 0
	}
	b := 0
	for oi := s.freeHead; oi >= 0; oi = s.freeNext[oi] {
		if forced && b == 0 {
			b++
			continue
		}
		b++
		if !s.visit(oi, ctx, func() { s.ddsDFS(level+1, iter) }) {
			return
		}
	}
}
