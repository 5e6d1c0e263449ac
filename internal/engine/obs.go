package engine

import (
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// decisionSummarizer is the optional policy surface the flight
// recorder reads per-decision search detail from. core.Scheduler
// implements it; chaos.FlakyPolicy forwards it to its inner policy;
// heuristic baselines simply lack it and get generic records.
type decisionSummarizer interface {
	LastDecision() core.DecisionSummary
}

// metaSummarizer is the optional surface meta-schedulers expose: which
// portfolio member the last decision committed and its regret estimate.
// metasched.Meta implements it.
type metaSummarizer interface {
	LastMetaDecision() (policy string, regret float64, ok bool)
}

// FillDecisionRecord overwrites rec with one decision's summary as the
// flight recorder keeps it, reusing rec's Started and Trajectory
// buffers: search policies expose the full search story, heuristics get
// the generic record. Started comes back empty; the caller appends the
// started job IDs. It only reads state the decision already produced.
func FillDecisionRecord(rec *obs.DecisionRecord, pol sim.Policy, now job.Time, queueDepth int, wall time.Duration) {
	startedBuf := rec.Started[:0]
	trajBuf := rec.Trajectory[:0]
	*rec = obs.DecisionRecord{
		NowS:       int64(now),
		Policy:     pol.Name(),
		QueueDepth: queueDepth,
		WallUs:     wall.Microseconds(),
		Started:    startedBuf,
	}
	if ms, ok := pol.(metaSummarizer); ok {
		if name, regret, ok := ms.LastMetaDecision(); ok {
			rec.ChosenPolicy = name
			rec.MetaRegret = regret
		}
	}
	if ds, ok := pol.(decisionSummarizer); ok {
		sum := ds.LastDecision()
		rec.EffectiveLimit = sum.EffectiveLimit
		rec.Nodes = sum.Nodes
		rec.Leaves = sum.Leaves
		rec.Pruned = sum.Pruned
		rec.NodesToBest = sum.NodesToBest
		rec.TableNodes = sum.TableNodes
		rec.TableHits = sum.TableHits
		rec.BudgetHit = sum.BudgetHit
		rec.WarmSeeded = sum.WarmSeeded
		rec.SeedHeld = sum.SeedHeld
		rec.Parallel = sum.Parallel
		if sum.BestFound {
			rec.BestExcess = sum.BestCost[0]
			rec.BestSlowdown = sum.BestCost[1]
		}
		for _, p := range sum.Trajectory {
			trajBuf = append(trajBuf, obs.TrajectoryPoint{
				Nodes: p.Nodes, Excess: p.Cost[0], Slowdown: p.Cost[1],
			})
		}
	}
	rec.Trajectory = trajBuf
}

// observeDecision captures one committed decision into the flight
// recorder and the tracer. It runs with the engine lock held, after
// the commit, and only reads state the decision already produced —
// instrumentation on vs. off is bit-identical (the inertness
// differentials pin this down).
func (e *Engine) observeDecision(now job.Time, queueDepth int, wall time.Duration, started []sim.Started) {
	if f := e.cfg.Flight; f != nil {
		rec := &e.flightScratch
		FillDecisionRecord(rec, e.cfg.Policy, now, queueDepth, wall)
		for _, s := range started {
			rec.Started = append(rec.Started, s.Job.ID)
		}
		f.Record(rec)
	}
	if tr := e.cfg.Tracer; tr != nil {
		end := tr.Now()
		start := end.Add(-wall)
		for _, s := range started {
			if tc, ok := tr.Lookup(s.Job.ID); ok {
				tr.Record("decide", tc, s.Job.ID, e.cfg.TraceShard, start, wall)
			}
		}
	}
}
