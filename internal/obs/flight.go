package obs

import "sync"

// TrajectoryPoint is one improvement of the incumbent during a search
// decision: after Nodes expansions the best cost dropped to
// (Excess, Slowdown).
type TrajectoryPoint struct {
	Nodes    int64   `json:"nodes"`
	Excess   float64 `json:"excess_wait_s"`
	Slowdown float64 `json:"bounded_slowdown"`
}

// DecisionRecord is one scheduling decision as the flight recorder
// keeps it: what the policy saw, how hard the search worked, how the
// incumbent evolved, and what was committed.
type DecisionRecord struct {
	// Seq numbers decisions since process start (assigned by the ring).
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

// FlightRecorder is a bounded ring of the most recent decisions.
// Record copies into a reused slot (no per-decision allocation once
// the ring has wrapped), so it is cheap enough to leave on in
// production. A nil *FlightRecorder no-ops.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []DecisionRecord
	next int
	n    int
	seq  int64
}

// NewFlightRecorder builds a ring keeping the last size decisions
// (minimum 16; size <= 0 gets the 256 default).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = 256
	}
	if size < 16 {
		size = 16
	}
	return &FlightRecorder{ring: make([]DecisionRecord, size)}
}

// Record captures one decision. rec's slices are copied into the
// slot's reused backing arrays; the caller may reuse rec freely.
func (f *FlightRecorder) Record(rec *DecisionRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	slot := &f.ring[f.next]
	started := slot.Started[:0]
	traj := slot.Trajectory[:0]
	*slot = *rec
	slot.Seq = f.seq
	slot.Started = append(started, rec.Started...)
	slot.Trajectory = append(traj, rec.Trajectory...)
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
}

// Total reports how many decisions have ever been recorded.
func (f *FlightRecorder) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot returns the held records oldest-first, deep-copied.
func (f *FlightRecorder) Snapshot() []DecisionRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]DecisionRecord, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.n; i++ {
		rec := f.ring[(start+i)%len(f.ring)]
		rec.Started = append([]int(nil), rec.Started...)
		rec.Trajectory = append([]TrajectoryPoint(nil), rec.Trajectory...)
		out = append(out, rec)
	}
	return out
}
