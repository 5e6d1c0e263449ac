package engine

import (
	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// Counters are the engine's scheduling-effort counters.
type Counters struct {
	// Decisions counts decision points (policy consultations with a
	// non-empty queue).
	Decisions int64 `json:"decisions"`
	// PolicyPanics counts recovered policy panics; each one fell back
	// to a strict-FCFS decision (see Config.Policy).
	PolicyPanics int64 `json:"policy_panics,omitempty"`
	// SearchNodes/SearchLeaves/BudgetHits mirror the search policy's
	// effort stats (zero for backfill policies).
	SearchNodes  int64 `json:"search_nodes"`
	SearchLeaves int64 `json:"search_leaves"`
	BudgetHits   int64 `json:"budget_hits"`
	// SearchWallMs is the wall-clock time spent inside the search across
	// all decisions; SearchSpeedup is the effective search parallelism
	// (worker busy time over wall time, 1.0 for sequential search).
	// Both are zero for backfill policies.
	SearchWallMs  float64 `json:"search_wall_ms"`
	SearchSpeedup float64 `json:"search_speedup"`
	// SearchTableNodes is the part of SearchNodes the search counted
	// from its per-decision transposition table instead of walking
	// (zero, and absent, for policies that search without it).
	SearchTableNodes int64 `json:"search_table_nodes,omitempty"`
	// AvgDecideMs and MaxDecideMs are wall-clock decision latencies in
	// milliseconds (always wall time, even on a virtual clock), over the
	// decisions this incarnation of the engine made.
	AvgDecideMs float64 `json:"avg_decide_ms"`
	MaxDecideMs float64 `json:"max_decide_ms"`
	// SearchNodesToBest sums the node count at each decision's last
	// incumbent improvement (zero, and absent, for backfill policies).
	SearchNodesToBest int64 `json:"search_nodes_to_best,omitempty"`
	// JournalTail is the in-memory event-tail length since the last
	// compaction; Compactions counts journal compactions. When a
	// persistent sink reports stats, JournalAppends and JournalSyncs
	// meter group-commit effectiveness (events per fsync is their
	// ratio).
	JournalTail    int64 `json:"journal_tail,omitempty"`
	Compactions    int64 `json:"journal_compactions,omitempty"`
	JournalAppends int64 `json:"journal_appends,omitempty"`
	JournalSyncs   int64 `json:"journal_syncs,omitempty"`
	// JournalFsync is the flush+fsync latency distribution of the
	// journal's group-commit boundaries, present only when the sink
	// reports it (FileJournal does).
	JournalFsync *obs.HistSnapshot `json:"journal_fsync,omitempty"`
}

// JobCounts breaks the admitted jobs down by state.
type JobCounts struct {
	Waiting int `json:"waiting"`
	Running int `json:"running"`
	Done    int `json:"done"`
}

// Metrics is the engine's running report: the paper's Summary measures
// over the completions so far plus serving counters. It is also the
// schema `schedsim -json` emits, so offline runs and the daemon's
// GET /v1/metrics are directly comparable.
type Metrics struct {
	Policy   string    `json:"policy"`
	NowS     job.Time  `json:"now_s"`
	Capacity int       `json:"capacity"`
	Draining bool      `json:"draining"`
	Jobs     JobCounts `json:"jobs"`
	// Summary covers completed measured jobs only; utilization and
	// queue length are taken over the measurement window, or without
	// one from the first arrival to the last event.
	Summary metrics.Summary `json:"summary"`
	Engine  Counters        `json:"engine"`
	Error   string          `json:"error,omitempty"`
}

// Metrics computes the engine's running metrics.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	// The first arrival and the last event: a queue change (submit,
	// start or withdraw) or the last completion.
	first, last := now, e.q.Last
	for _, st := range e.jobs {
		first = min(first, st.Job.Submit)
	}
	if n := len(e.records); n > 0 {
		last = max(last, e.records[n-1].End)
	}
	start, end := e.q.Window(first, last)
	res := &sim.Result{
		Policy:       e.policy,
		Records:      e.records,
		Decisions:    int(e.decisions),
		AvgQueueLen:  e.q.AvgQueueLen(now, start, end, e.l.QueueLen()),
		Capacity:     e.l.Capacity(),
		MeasureStart: start,
		MeasureEnd:   end,
	}

	m := Metrics{
		Policy:   res.Policy,
		NowS:     now,
		Capacity: res.Capacity,
		Draining: e.draining,
		Jobs: JobCounts{
			Waiting: e.l.QueueLen(),
			Running: e.l.RunningLen(),
			Done:    len(e.records),
		},
		Summary: metrics.Summarize(res),
		Engine:  e.countersLocked(),
	}
	if e.fatal != nil {
		m.Error = e.fatal.Error()
	}
	return m
}

func (e *Engine) countersLocked() Counters {
	c := Counters{Decisions: e.decisions, PolicyPanics: e.policyPanics}
	if live := e.decisions - e.replayed; live > 0 {
		c.AvgDecideMs = float64(e.decideDur.Microseconds()) / 1000 / float64(live)
	}
	c.MaxDecideMs = float64(e.decideMax.Microseconds()) / 1000
	c.JournalTail = int64(e.journal.n)
	c.Compactions = e.compactions
	if sr, ok := e.cfg.Journal.(StatsReporter); ok {
		st := sr.Stats()
		c.JournalAppends = st.Appends
		c.JournalSyncs = st.Syncs
	}
	if lr, ok := e.cfg.Journal.(SyncLatencyReporter); ok {
		if snap := lr.SyncLatency(); snap.Count > 0 {
			c.JournalFsync = &snap
		}
	}
	if sch := core.SchedulerOf(e.cfg.Policy); sch != nil {
		c.fillSearch(sch)
	}
	return c
}

// fillSearch copies a search policy's effort stats into the counters.
func (c *Counters) fillSearch(sch *core.Scheduler) {
	st := sch.SearchStats
	c.SearchNodes = st.Nodes
	c.SearchLeaves = st.Leaves
	c.BudgetHits = int64(st.BudgetHits)
	c.SearchWallMs = float64(st.WallNs) / 1e6
	c.SearchSpeedup = st.Speedup()
	c.SearchTableNodes = st.TableNodes
	c.SearchNodesToBest = st.NodesToBest
}

// ShardStatus is one shard's slice of a federation report.
type ShardStatus struct {
	// Shard is the shard index; NodeBase is the first global node ID of
	// the shard's partition (its local node IDs map to
	// [NodeBase, NodeBase+Capacity)).
	Shard    int `json:"shard"`
	Capacity int `json:"capacity"`
	NodeBase int `json:"node_base"`
	// Util is the shard's utilized load over its own measurement
	// window (its Summary.UtilizedLoad).
	Util float64   `json:"util"`
	Jobs JobCounts `json:"jobs"`
	// Metrics is the shard engine's full running report.
	Metrics Metrics `json:"metrics"`
}

// FederationMetrics is the aggregated report of a sharded federation
// (internal/federation): per-shard state plus the router's own
// counters. The server's GET /v1/federation serves it.
type FederationMetrics struct {
	Shards    int    `json:"shards"`
	Placement string `json:"placement"`
	// Migrations counts queued jobs moved between shards by rebalance
	// passes; RebalancePasses counts the passes themselves.
	Migrations      int64 `json:"migrations"`
	RebalancePasses int64 `json:"rebalance_passes"`
	// Reroutes counts submissions re-placed after an unreachable
	// shard refused delivery (remote federations only).
	Reroutes int64 `json:"reroutes,omitempty"`
	// RoutingDecisions and RoutingNs meter the router's placement cost:
	// calls to the placement policy and total wall time spent choosing
	// a shard (load collection included).
	RoutingDecisions int64 `json:"routing_decisions"`
	RoutingNs        int64 `json:"routing_ns"`
	// PerShardUtil is each shard's utilized load, indexed by shard.
	PerShardUtil []float64     `json:"per_shard_util"`
	PerShard     []ShardStatus `json:"per_shard"`
	// Global is the whole-machine view in the ordinary metrics schema
	// (the same report a federated GET /v1/metrics serves).
	Global Metrics `json:"global"`
}

// ShardHealth is one shard's reachability as seen from the federation
// router. For in-process shards Healthy mirrors Err() == nil; for
// remote shards it reflects the last wire interaction (a shard whose
// last call failed — connection refused, timeout, dropped response —
// is unhealthy until a call succeeds again). The server's
// GET /v1/readyz reports the per-shard breakdown and answers 503 while
// any shard is unhealthy.
type ShardHealth struct {
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// AggregateShards fills the per-shard portion of a FederationMetrics
// from the shards' own metrics and the partition geometry; the caller
// (the federation router) adds its routing counters and the global
// view.
func AggregateShards(per []Metrics, caps, bases []int) FederationMetrics {
	fm := FederationMetrics{Shards: len(per)}
	for i, m := range per {
		fm.PerShardUtil = append(fm.PerShardUtil, m.Summary.UtilizedLoad)
		fm.PerShard = append(fm.PerShard, ShardStatus{
			Shard:    i,
			Capacity: caps[i],
			NodeBase: bases[i],
			Util:     m.Summary.UtilizedLoad,
			Jobs:     m.Jobs,
			Metrics:  m,
		})
	}
	return fm
}
