package federation

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/sim"
)

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// ShardCapacities returns a copy of the partition sizes, by shard.
func (r *Router) ShardCapacities() []int {
	return append([]int(nil), r.caps...)
}

// ShardRecords returns shard i's completion records with shard-local
// node IDs (oracle.CheckFederation consumes these).
func (r *Router) ShardRecords(i int) []sim.Record {
	return r.shardList()[i].Records()
}

// Job returns the job's current status, with node IDs mapped to the
// global node space. Its error says a shard that may hold the job could
// not be asked: "not found" is then not an answer.
func (r *Router) Job(id int) (engine.JobStatus, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	si, st, ok, err := r.holderLocked(id)
	if !ok {
		return engine.JobStatus{}, false, err
	}
	for k := range st.NodeIDs {
		st.NodeIDs[k] += r.bases[si]
	}
	return st, true, nil
}

// holderLocked returns the shard that holds the job and the job's
// shard-local status. An ID below firstID that the directory lacks may
// be held by a shard all the same (a front restarted over running
// shards did not route it): the shards are asked in order, and the one
// that holds it is recorded. When no shard holds it but one that might
// could not be asked, the error says so: "not held" is then not certain.
func (r *Router) holderLocked(id int) (int, engine.JobStatus, bool, error) {
	if si, ok := r.dir[id]; ok {
		st, ok, err := r.shards[si].Job(id)
		if err != nil {
			err = unasked(si, err)
		}
		return si, st, ok, err
	}
	var err error
	if id > 0 && id < r.firstID {
		for si, s := range r.shards {
			st, ok, serr := s.Job(id)
			if ok {
				r.dir[id] = si
				return si, st, true, nil
			}
			if serr != nil && err == nil {
				err = unasked(si, serr)
			}
		}
	}
	return 0, engine.JobStatus{}, false, err
}

// unasked marks shard i's failed read as ErrUnreachable: a view that
// needed the shard is not an answer, and the server answers it 503.
func unasked(i int, err error) error {
	if !errors.Is(err, ErrUnreachable) {
		err = fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// JobShard returns the shard currently (or finally) responsible for the
// job.
func (r *Router) JobShard(id int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	si, ok := r.dir[id]
	return si, ok
}

// Queue returns every waiting job across the shards, in global arrival
// order (submit time, then ID); it fails if any shard cannot be asked.
func (r *Router) Queue() ([]engine.JobStatus, error) {
	var out []engine.JobStatus
	for i, s := range r.shardList() {
		q, err := s.Queue()
		if err != nil {
			return nil, unasked(i, err)
		}
		out = append(out, q...)
	}
	slices.SortFunc(out, func(a, b engine.JobStatus) int {
		return cmp.Or(cmp.Compare(a.Job.Submit, b.Job.Submit), cmp.Compare(a.Job.ID, b.Job.ID))
	})
	return out, nil
}

// Machine returns the whole-machine occupancy snapshot: total capacity
// and free nodes, and the running set merged across shards in (start,
// ID) order; it fails if any shard cannot be asked.
func (r *Router) Machine() (engine.Machine, error) {
	m := engine.Machine{Now: r.cfg.Clock.Now(), Capacity: r.cfg.Capacity}
	for i, s := range r.shardList() {
		sm, err := s.Machine()
		if err != nil {
			return engine.Machine{}, unasked(i, err)
		}
		m.FreeNodes += sm.FreeNodes
		m.Running = append(m.Running, sm.Running...)
	}
	slices.SortFunc(m.Running, func(a, b sim.RunningJob) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	return m, nil
}

// Records returns the federation's completion records merged into
// global (end time, job ID) order, with node IDs mapped to the global
// node space — the same shape a standalone engine of the whole machine
// emits.
func (r *Router) Records() []sim.Record {
	var merged []sim.Record
	for i, s := range r.shardList() {
		for _, rec := range s.Records() {
			if len(rec.NodeIDs) > 0 {
				ids := make([]int, len(rec.NodeIDs))
				for k, n := range rec.NodeIDs {
					ids[k] = n + r.bases[i]
				}
				rec.NodeIDs = ids
			}
			merged = append(merged, rec)
		}
	}
	slices.SortFunc(merged, func(a, b sim.Record) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Job.ID, b.Job.ID))
	})
	return merged
}

// Metrics returns the whole-machine running report in the ordinary
// engine.Metrics schema: the summary is computed over the merged global
// records, counters are aggregated across shards. A federated
// GET /v1/metrics is therefore directly comparable with a standalone
// engine's.
func (r *Router) Metrics() engine.Metrics {
	per := r.shardMetrics()
	now := r.cfg.Clock.Now()
	records := r.Records()
	res := &sim.Result{
		Policy:   r.polName,
		Records:  records,
		Capacity: r.cfg.Capacity,
	}
	// Shards share an explicit window, so their averages add up; without
	// one each shard's span is its own, and the federation's queue
	// integral is rebuilt from the jobs over the federation's span.
	var first, last job.Time
	var queued int64
	if !r.window.Explicit {
		first, last, queued = r.activity(records, per)
	}
	res.MeasureStart, res.MeasureEnd = r.window.Window(first, last)
	if !r.window.Explicit && res.MeasureEnd > res.MeasureStart {
		res.AvgQueueLen = float64(queued) / float64(res.MeasureEnd-res.MeasureStart)
	}
	m := engine.Metrics{
		Policy:   r.polName,
		NowS:     now,
		Capacity: r.cfg.Capacity,
	}
	var wallMs, busyMs, decideMsSum float64
	for _, pm := range per {
		res.Decisions += int(pm.Engine.Decisions)
		if r.window.Explicit {
			res.AvgQueueLen += pm.Summary.AvgQueueLen
		}
		m.Jobs.Waiting += pm.Jobs.Waiting
		m.Jobs.Running += pm.Jobs.Running
		m.Jobs.Done += pm.Jobs.Done
		m.Draining = m.Draining || pm.Draining
		c := &m.Engine
		c.Decisions += pm.Engine.Decisions
		c.PolicyPanics += pm.Engine.PolicyPanics
		c.SearchNodes += pm.Engine.SearchNodes
		c.SearchLeaves += pm.Engine.SearchLeaves
		c.BudgetHits += pm.Engine.BudgetHits
		c.SearchTableNodes += pm.Engine.SearchTableNodes
		c.SearchNodesToBest += pm.Engine.SearchNodesToBest
		wallMs += pm.Engine.SearchWallMs
		busyMs += pm.Engine.SearchWallMs * pm.Engine.SearchSpeedup
		decideMsSum += pm.Engine.AvgDecideMs * float64(pm.Engine.Decisions)
		if pm.Engine.MaxDecideMs > m.Engine.MaxDecideMs {
			m.Engine.MaxDecideMs = pm.Engine.MaxDecideMs
		}
		if pm.Error != "" && m.Error == "" {
			m.Error = pm.Error
		}
	}
	m.Engine.SearchWallMs = wallMs
	if wallMs > 0 {
		m.Engine.SearchSpeedup = busyMs / wallMs
	}
	if m.Engine.Decisions > 0 {
		m.Engine.AvgDecideMs = decideMsSum / float64(m.Engine.Decisions)
	}
	m.Summary = metrics.Summarize(res)
	r.mu.Lock()
	if r.failure != nil && m.Error == "" {
		m.Error = r.failure.Error()
	}
	m.Draining = m.Draining || r.draining
	r.mu.Unlock()
	return m
}

// Federation returns the sharded detail report: per-shard metrics and
// partition geometry plus the router's placement/rebalance counters.
func (r *Router) Federation() engine.FederationMetrics {
	per := r.shardMetrics()
	fm := engine.AggregateShards(per, r.caps, r.bases)
	r.mu.Lock()
	fm.Placement = r.cfg.Placement.Name()
	fm.Migrations = r.migrations
	fm.RebalancePasses = r.rebalances
	fm.RoutingDecisions = r.routingDecisions
	fm.RoutingNs = r.routingNs
	fm.Reroutes = r.reroutes
	r.mu.Unlock()
	fm.Global = r.Metrics()
	return fm
}

// activity returns the federation's first arrival, its last event and
// the job-seconds spent queued up to that event: a job is queued from
// its submit time, which a migration keeps, to its start. That is the
// integral of the federation's queue length, which a shard's own books
// only hold for the jobs it had. per, the shards' metrics, spares the
// reads of an empty queue or machine. Like Metrics, it merges what the
// shards answer (DESIGN §11).
func (r *Router) activity(records []sim.Record, per []engine.Metrics) (first, last job.Time, queued int64) {
	first = r.cfg.Clock.Now()
	for _, rec := range records {
		first, last = min(first, rec.Job.Submit), max(last, rec.End)
		queued += rec.Start - rec.Job.Submit
	}
	var waiting, submits int64
	for i, s := range r.shardList() {
		if per[i].Jobs.Running > 0 {
			m, _ := s.Machine()
			for _, rj := range m.Running {
				if st, ok, _ := s.Job(rj.ID); ok {
					first, last = min(first, st.Job.Submit), max(last, st.Start)
					queued += st.Start - st.Job.Submit
				}
			}
		}
		if per[i].Jobs.Waiting > 0 {
			q, _ := s.Queue()
			for _, st := range q {
				first, last = min(first, st.Job.Submit), max(last, st.Job.Submit)
				waiting++
				submits += st.Job.Submit
			}
		}
	}
	return first, last, queued + waiting*last - submits
}

func (r *Router) shardMetrics() []engine.Metrics {
	shards := r.shardList()
	per := make([]engine.Metrics, len(shards))
	for i, s := range shards {
		per[i] = s.Metrics()
	}
	return per
}
