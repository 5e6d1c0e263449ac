package obs

// TrajectoryPoint is one improvement of the incumbent during a search
// decision: after Nodes expansions the best cost dropped to
// (Excess, Slowdown).
type TrajectoryPoint struct {
	Nodes    int64   `json:"nodes"`
	Excess   float64 `json:"excess_wait_s"`
	Slowdown float64 `json:"bounded_slowdown"`
}

// DecisionRecord is one scheduling decision as engine.Audit re-decides
// it from a journal: what the policy saw, how hard the search worked,
// how the incumbent evolved, and what was committed.
type DecisionRecord struct {
	// Seq numbers the audited decisions from 1 (on a compacted journal,
	// from its base).
	Seq int64 `json:"seq"`
	// NowS is the engine-clock instant of the decision.
	NowS int64 `json:"now_s"`
	// Policy is the deciding policy's name.
	Policy string `json:"policy"`
	// QueueDepth is the waiting-queue length the policy saw.
	QueueDepth int `json:"queue_depth"`
	// EffectiveLimit is the node budget the decision ran under (search
	// policies; 0 for heuristic baselines).
	EffectiveLimit int64 `json:"effective_limit,omitempty"`
	// Nodes/Leaves/Pruned count search-tree work this decision.
	Nodes  int64 `json:"nodes,omitempty"`
	Leaves int64 `json:"leaves,omitempty"`
	Pruned int64 `json:"pruned,omitempty"`
	// NodesToBest is how deep into the expansion the final incumbent
	// was found.
	NodesToBest int64 `json:"nodes_to_best,omitempty"`
	// TableNodes is the part of Nodes counted from the search's
	// transposition table instead of walked, over TableHits subtrees.
	TableNodes int64 `json:"table_nodes,omitempty"`
	TableHits  int64 `json:"table_hits,omitempty"`
	// BudgetHit marks a search cut off by its node budget.
	BudgetHit bool `json:"budget_hit,omitempty"`
	// Parallel marks a multi-worker search.
	Parallel bool `json:"parallel,omitempty"`
	// BestExcess/BestSlowdown are the committed plan's objective
	// (hierarchical cost levels).
	BestExcess   float64 `json:"best_excess_wait_s,omitempty"`
	BestSlowdown float64 `json:"best_bounded_slowdown,omitempty"`
	// Trajectory is the incumbent-cost improvement sequence.
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
	// ChosenPolicy is the portfolio member a meta-scheduler committed
	// this decision (empty for fixed policies); MetaRegret is its
	// per-decision regret estimate — the chosen plan's score minus the
	// best shadow plan's.
	ChosenPolicy string  `json:"chosen_policy,omitempty"`
	MetaRegret   float64 `json:"meta_regret,omitempty"`
	// Started lists the job IDs the decision started, in commit order.
	Started []int `json:"started,omitempty"`
	// WallUs is the decision's wall time in microseconds.
	WallUs int64 `json:"wall_us"`
}
