package engine

import (
	"cmp"
	"fmt"
	"slices"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Base is the folded prefix of a compacted checkpoint: the complete
// committed state of the engine at the compaction instant, captured so
// the event tail can be truncated. Rebuild restores a base directly —
// completed jobs into the records, running jobs onto their exact
// recorded nodes (allocation is lowest-free-first, a pure function of
// the allocated set, so the tail replays onto identical allocations),
// waiting jobs in queue order — and then replays the tail as usual.
// The queue-length integral rides along so the running Summary stays
// bit-identical with a full-journal replay.
type Base struct {
	// At is the compaction instant.
	At job.Time `json:"at"`
	// NextID is the engine's next auto-assigned job ID.
	NextID int `json:"next_id"`
	// Done holds the completion records so far, in completion order
	// (the estimator re-observes them in this order on rebuild).
	Done []BaseRecord `json:"done,omitempty"`
	// Running holds the running set in ledger slot order — the order
	// policies see in snapshots — with concrete node assignments.
	Running []BaseRunning `json:"running,omitempty"`
	// Waiting holds the queue in arrival order; Estimate 0 means the
	// job had not been estimated yet.
	Waiting []BaseWaiting `json:"waiting,omitempty"`
	// Withdrawn holds the withdraw tombstones no later admit has
	// cleared, sorted by ID, so a restarted shard still answers a
	// retried withdraw with the job (Engine.Withdrawn).
	Withdrawn []job.Job `json:"withdrawn,omitempty"`
	// QlenInt and QlenLast carry the queue-length integral, and
	// Decisions the count of decisions, for metrics continuity.
	QlenInt   float64  `json:"qlen_int"`
	QlenLast  job.Time `json:"qlen_last"`
	Decisions int64    `json:"decisions,omitempty"`
}

// BaseRecord is one completed job in a Base.
type BaseRecord struct {
	Job     job.Job  `json:"job"`
	Start   job.Time `json:"start"`
	End     job.Time `json:"end"`
	NodeIDs []int    `json:"nodes,omitempty"`
}

// BaseRunning is one running job in a Base.
type BaseRunning struct {
	Job          job.Job  `json:"job"`
	Start        job.Time `json:"start"`
	PredictedEnd job.Time `json:"pend"`
	NodeIDs      []int    `json:"nodes"`
}

// BaseWaiting is one queued job in a Base.
type BaseWaiting struct {
	Job      job.Job      `json:"job"`
	Estimate job.Duration `json:"est,omitempty"`
}

// Compact folds the committed event journal into a Base snapshot and
// truncates the in-memory tail (and the persistent journal, when a
// sink is configured), bounding Rebuild cost by the live state instead
// of the full history. It can be taken at any time; the engine also
// compacts itself automatically when Config.CompactEvery is set.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compactLocked()
}

func (e *Engine) compactLocked() error {
	if e.fatal != nil {
		return e.fatal
	}
	base := e.captureBaseLocked()
	if e.cfg.Journal != nil {
		if err := e.cfg.Journal.Compact(base); err != nil {
			e.setFatal(fmt.Errorf("engine: journal compact: %w", err))
			return e.fatal
		}
	}
	e.base = &base
	e.journal.reset()
	e.compactions++
	return nil
}

// captureBaseLocked snapshots the committed state. The running set is
// captured in ledger slot order and the queue in arrival order so a
// restore reproduces the exact layout policies observe.
func (e *Engine) captureBaseLocked() Base {
	b := Base{
		At:        e.clock.Now(),
		NextID:    e.nextID,
		QlenInt:   e.q.Area,
		QlenLast:  e.q.Last,
		Decisions: e.decisions,
	}
	for _, r := range e.records {
		b.Done = append(b.Done, BaseRecord{Job: r.Job, Start: r.Start, End: r.End, NodeIDs: r.NodeIDs})
	}
	for _, rs := range e.l.RunningStates() {
		b.Running = append(b.Running, BaseRunning{
			Job: rs.Job, Start: rs.Start, PredictedEnd: rs.PredictedEnd, NodeIDs: rs.NodeIDs,
		})
	}
	snap := e.l.Snapshot(b.At)
	for _, w := range snap.Queue {
		b.Waiting = append(b.Waiting, BaseWaiting{Job: w.Job, Estimate: w.Estimate})
	}
	for _, j := range e.withdrawn {
		b.Withdrawn = append(b.Withdrawn, j)
	}
	slices.SortFunc(b.Withdrawn, func(x, y job.Job) int { return cmp.Compare(x.ID, y.ID) })
	return b
}

// restoreBaseLocked rebuilds the engine's committed state from a base
// snapshot. It runs with the ledger observer detached: a base is
// already-observed history, and replaying it through an Observer would
// violate the oracle's monotonicity and conservation checks (see
// Rebuild). Compacted rebuilds are verified offline with
// oracle.CheckRecords instead.
func (e *Engine) restoreBaseLocked(b Base) error {
	if b.NextID > e.nextID {
		e.nextID = b.NextID
	}
	note := func(id int) error {
		if _, dup := e.jobs[id]; dup {
			return fmt.Errorf("engine: rebuild: base: job %d appears twice", id)
		}
		if id >= e.nextID {
			e.nextID = id + 1
		}
		return nil
	}
	for _, r := range b.Done {
		if err := note(r.Job.ID); err != nil {
			return err
		}
		e.jobs[r.Job.ID] = &JobStatus{Job: r.Job, Start: r.Start, NodeIDs: r.NodeIDs}
		e.recordFinish(sim.Finished{Job: r.Job, Start: r.Start, End: r.End, NodeIDs: r.NodeIDs})
	}
	for _, r := range b.Running {
		if err := note(r.Job.ID); err != nil {
			return err
		}
		if err := r.Job.Validate(e.l.Capacity()); err != nil {
			return fmt.Errorf("engine: rebuild: base: %w", err)
		}
		if err := e.l.Place(r.Job, r.Start, r.PredictedEnd, r.NodeIDs); err != nil {
			return fmt.Errorf("engine: rebuild: base: %w", err)
		}
		e.jobs[r.Job.ID] = &JobStatus{
			Job: r.Job, State: StateRunning, Start: r.Start,
			Estimate: r.PredictedEnd - r.Start,
			NodeIDs:  append([]int(nil), r.NodeIDs...),
		}
	}
	for _, w := range b.Waiting {
		if err := note(w.Job.ID); err != nil {
			return err
		}
		if err := w.Job.Validate(e.l.Capacity()); err != nil {
			return fmt.Errorf("engine: rebuild: base: %w", err)
		}
		e.l.Enqueue(w.Job, w.Estimate)
		e.jobs[w.Job.ID] = &JobStatus{Job: w.Job, State: StateWaiting, Estimate: w.Estimate}
	}
	for _, j := range b.Withdrawn {
		e.withdrawn[j.ID] = j
	}
	e.q.Area, e.q.Last = b.QlenInt, b.QlenLast
	e.decisions, e.replayed = b.Decisions, b.Decisions
	return nil
}
