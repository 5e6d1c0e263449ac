package engine

import (
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// decisionSummarizer is the optional policy surface Audit reads
// per-decision search detail from, through any policy wrappers
// (core.PolicyAs). core.Scheduler implements it; heuristic
// baselines simply lack it and get generic records.
type decisionSummarizer interface {
	LastDecision() core.DecisionSummary
}

// metaSummarizer is the optional surface meta-schedulers expose: which
// portfolio member the last decision committed and its regret estimate.
// metasched.Meta implements it.
type metaSummarizer interface {
	LastMetaDecision() (policy string, regret float64, ok bool)
}

// fillDecisionRecord overwrites rec with one decision's summary as
// Audit reports it: search policies expose the full search story,
// heuristics get the generic record. Started comes back empty; the
// caller appends the started job IDs. It only reads state the decision
// already produced.
func fillDecisionRecord(rec *obs.DecisionRecord, pol sim.Policy, name string, now job.Time, queueDepth int, wall time.Duration) {
	*rec = obs.DecisionRecord{
		NowS:       int64(now),
		Policy:     name,
		QueueDepth: queueDepth,
		WallUs:     wall.Microseconds(),
	}
	if ms, ok := core.PolicyAs[metaSummarizer](pol); ok {
		if name, regret, ok := ms.LastMetaDecision(); ok {
			rec.ChosenPolicy = name
			rec.MetaRegret = regret
		}
	}
	if ds, ok := core.PolicyAs[decisionSummarizer](pol); ok {
		sum := ds.LastDecision()
		rec.EffectiveLimit = sum.EffectiveLimit
		rec.Nodes = sum.Nodes
		rec.Leaves = sum.Leaves
		rec.Pruned = sum.Pruned
		rec.NodesToBest = sum.NodesToBest
		rec.TableNodes = sum.TableNodes
		rec.TableHits = sum.TableHits
		rec.BudgetHit = sum.BudgetHit
		rec.Parallel = sum.Parallel
		if sum.BestFound {
			rec.BestExcess = sum.BestCost.Excess
			rec.BestSlowdown = sum.BestCost.Slowdown
		}
		for _, p := range sum.Trajectory {
			rec.Trajectory = append(rec.Trajectory, obs.TrajectoryPoint{
				Nodes: p.Nodes, Excess: p.Cost.Excess, Slowdown: p.Cost.Slowdown,
			})
		}
	}
}

// traceDecision records a "decide" span for every started job whose
// submission was traced. It runs with the engine lock held, after the
// commit, and only reads state the decision already produced, so
// tracing on vs. off is bit-identical (the inertness differentials pin
// this down).
func (e *Engine) traceDecision(wall time.Duration, started []sim.Started) {
	tr := e.cfg.Tracer
	end := tr.Now()
	start := end.Add(-wall)
	for _, s := range started {
		if tc, ok := tr.Lookup(s.Job.ID); ok {
			tr.Record("decide", tc, s.Job.ID, e.cfg.TraceShard, start, wall)
		}
	}
}
