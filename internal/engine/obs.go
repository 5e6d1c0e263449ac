package engine

import (
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// decisionSummarizer is the optional policy surface the flight
// recorder reads per-decision search detail from, through any policy
// wrappers (core.PolicyAs). core.Scheduler implements it; heuristic
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

// Recorded wraps pol so that each decision it makes is recorded in f,
// the one place a flight record is built (the online engine, the
// offline simulator and every federation shard all decide through
// sim.Policy). With a nil f it returns pol itself. The wrapper only
// reads what the decision produced and returns its starts untouched,
// so a recorded run schedules exactly as an unrecorded one. A decision
// that panics passes through and leaves no record. Like any policy, a
// wrapper serves one driver at a time; several may share one f.
func Recorded(pol sim.Policy, f *obs.FlightRecorder) sim.Policy {
	if f == nil {
		return pol
	}
	return &recorded{inner: pol, f: f}
}

type recorded struct {
	inner sim.Policy
	f     *obs.FlightRecorder
	rec   obs.DecisionRecord // reused: Record copies it into the ring
}

func (p *recorded) Name() string { return p.inner.Name() }

// Unwrap returns the recorded policy (see core.PolicyAs).
func (p *recorded) Unwrap() sim.Policy { return p.inner }

func (p *recorded) Decide(snap *sim.Snapshot) []int {
	t0 := time.Now()
	starts := p.inner.Decide(snap)
	rec := &p.rec
	fillDecisionRecord(rec, p.inner, snap.Now, len(snap.Queue), time.Since(t0))
	for _, qi := range starts {
		rec.Started = append(rec.Started, snap.Queue[qi].Job.ID)
	}
	p.f.Record(rec)
	return starts
}

// fillDecisionRecord overwrites rec with one decision's summary as the
// flight recorder keeps it, reusing rec's Started and Trajectory
// buffers: search policies expose the full search story, heuristics get
// the generic record. Started comes back empty; the caller appends the
// started job IDs. It only reads state the decision already produced.
func fillDecisionRecord(rec *obs.DecisionRecord, pol sim.Policy, now job.Time, queueDepth int, wall time.Duration) {
	startedBuf := rec.Started[:0]
	trajBuf := rec.Trajectory[:0]
	*rec = obs.DecisionRecord{
		NowS:       int64(now),
		Policy:     pol.Name(),
		QueueDepth: queueDepth,
		WallUs:     wall.Microseconds(),
		Started:    startedBuf,
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
