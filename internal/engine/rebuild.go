package engine

import (
	"fmt"
	"slices"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// EventKind tags one committed engine event in the journal. The
// numbers are the on-disk format: 1 and 2 are retired (a journal that
// holds them predates EvDecide and is refused at replay, never read
// as something else) and are not reused.
type EventKind uint8

const (
	// EvSubmit is a job admission; Job carries the admitted job with
	// its stamped submit time.
	EvSubmit EventKind = 0
	// EvFinish completes job ID at time At.
	EvFinish EventKind = 3
	// EvWithdraw removes still-waiting job ID from the queue without
	// starting it (a federation migration moved it to another shard).
	EvWithdraw EventKind = 4
	// EvDecide is one policy decision at instant At: the planning
	// estimates it fixed and the jobs it started, in order, with their
	// concrete nodes. Every decision the engine makes writes one,
	// including one that starts nothing.
	EvDecide EventKind = 5
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvFinish:
		return "finish"
	case EvWithdraw:
		return "withdraw"
	case EvDecide:
		return "decide"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the engine's committed-history journal. Which
// fields are meaningful depends on Kind (see the kind constants).
type Event struct {
	Kind EventKind
	At   job.Time
	// Job is the admitted job (EvSubmit only).
	Job job.Job
	// ID identifies the job (EvFinish and EvWithdraw).
	ID int
	// Estimates and Starts are the decision (EvDecide only).
	Estimates []Estimate
	Starts    []Start
}

// Estimate is one planning estimate a decision fixed for a queued job
// (at the first decision point after its arrival).
type Estimate struct {
	ID       int          `json:"id"`
	Estimate job.Duration `json:"est"`
}

// Start is one job a decision started, with the concrete nodes it was
// given; replay requires the job to land on the same nodes.
type Start struct {
	ID      int   `json:"id"`
	NodeIDs []int `json:"nodes"`
}

// eventLog is the engine's in-memory journal tail: events in commit
// order, held in fixed chunks of logChunk, so an append never copies or
// re-clears the events before it.
type eventLog struct {
	chunks [][]Event // full before chunk n/logChunk, empty after it
	n      int
}

const logChunk = 1024

func (l *eventLog) append(ev Event) {
	c := l.n / logChunk
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]Event, 0, logChunk))
	}
	l.chunks[c] = append(l.chunks[c], ev)
	l.n++
}

// events returns a copy of the log, nil when it is empty.
func (l *eventLog) events() []Event { return slices.Concat(l.chunks...) }

// reset empties the log and keeps its chunks for reuse.
func (l *eventLog) reset() {
	for i := range l.chunks {
		clear(l.chunks[i])
		l.chunks[i] = l.chunks[i][:0]
	}
	l.n = 0
}

// Checkpoint is a consistent snapshot of the engine's committed
// history, sufficient to Rebuild an equivalent engine after a crash.
type Checkpoint struct {
	// Base, when non-nil, is the folded journal prefix of the last
	// compaction; Events then holds only the tail committed since.
	Base *Base
	// Events is the committed event journal in commit order.
	Events []Event
	// DecidePending records whether a coalesced decision was scheduled
	// but had not fired yet; Rebuild re-requests it so the rebuilt
	// engine decides at the same instant the lost engine would have.
	DecidePending bool
	// Draining records whether Drain had been requested.
	Draining bool
}

// LastInstant is the latest time the checkpoint records — the
// compaction instant or the last tail event, whichever is later (0 for
// an empty checkpoint). A daemon recovering from a journal resumes its
// clock here, so re-armed completion timers fire in the future.
func (cp Checkpoint) LastInstant() job.Time {
	var last job.Time
	if cp.Base != nil {
		last = cp.Base.At
	}
	for _, ev := range cp.Events {
		last = max(last, ev.At)
	}
	return last
}

// Checkpoint returns a consistent copy of the engine's committed
// history. It can be taken at any time, including mid-run.
func (e *Engine) Checkpoint() Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := Checkpoint{
		Events:        e.journal.events(),
		DecidePending: e.decidePending,
		Draining:      e.draining,
	}
	if e.base != nil {
		// Compaction replaces e.base wholesale and never mutates it in
		// place, so a struct copy suffices.
		b := *e.base
		cp.Base = &b
	}
	return cp
}

// Rebuild reconstructs an engine from a checkpoint: the committed
// history is replayed directly against a fresh ledger (bypassing the
// policy), the pending-completion timer is re-armed, and a pending
// decision is re-requested, so a crashed engine resumed on the same
// clock commits exactly the schedule the uninterrupted engine would
// have. Replay order makes node allocation deterministic; Rebuild
// verifies each replayed dispatch lands on the recorded nodes and fails
// loudly on any divergence.
//
// cfg plays the role of the restarted process's configuration: pass the
// same capacity and clock. Policy and Estimator instances are fresh by
// construction (the crash lost them); estimator state is reconstructed
// by replaying completions in order. Attach a fresh Observer — it
// re-observes the replayed history before live events. The decision
// count covers every replayed EvDecide (and a base's count), as the
// committed schedule and the queue-length integral cover their history;
// only the decision latencies restart at the rebuild point.
//
// A compacted checkpoint (cp.Base != nil) restores the base state
// directly — running jobs land on their exact recorded nodes, so the
// tail replays onto identical allocations — and then replays the tail.
// A base is committed history that was already observed before the
// compaction, so Config.Observer is ignored on a compacted rebuild
// (replaying restored state through an observer would violate the
// oracle's monotonicity and conservation invariants); verify compacted
// rebuilds offline with oracle.CheckRecords instead.
//
// Config.Journal is not written during the replay itself — on crash
// recovery the sink already holds exactly these events — but live
// events after the rebuild flow to it as usual.
func Rebuild(cfg Config, cp Checkpoint) (*Engine, error) {
	if cp.Base != nil {
		cfg.Observer = nil
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replaying = true
	if cp.Base != nil {
		if err := e.restoreBaseLocked(*cp.Base); err != nil {
			return nil, err
		}
		b := *cp.Base
		e.base = &b
	}
	for i, ev := range cp.Events {
		if err := e.replayEvent(i, ev, nil); err != nil {
			return nil, err
		}
	}
	e.replaying = false
	e.draining = cp.Draining
	e.armFinish()
	if cp.DecidePending && e.l.QueueLen() > 0 {
		e.requestDecide()
	}
	e.checkIdle()
	return e, nil
}

// Audit re-decides every decision the checkpoint's journal records. It
// replays cp onto a fresh ledger, as Rebuild does, and at each EvDecide
// fixes the decision's estimates and asks cfg.Policy to decide on the
// snapshot the live policy saw. visit receives each re-decided decision
// (and may keep it); Audit then requires its starts, in order, to equal
// the journal's, and at the first difference returns an error naming
// the event index, the instant and both ID lists. Only cfg.Capacity and
// cfg.Policy are read. Every decision the engine made is one EvDecide,
// so on any clock, and stretch by stretch across compactions, Audit
// re-decides exactly the engine's decisions.
func Audit(cfg Config, cp Checkpoint, visit func(*obs.DecisionRecord)) error {
	e, err := New(Config{Capacity: cfg.Capacity, Policy: cfg.Policy})
	if err != nil {
		return err
	}
	e.replaying = true
	if cp.Base != nil {
		if err := e.restoreBaseLocked(*cp.Base); err != nil {
			return err
		}
	}
	var seq int64
	redecide := func(snap *sim.Snapshot) []int {
		t0 := time.Now()
		starts := cfg.Policy.Decide(snap)
		rec := &obs.DecisionRecord{}
		fillDecisionRecord(rec, cfg.Policy, e.policy, snap.Now, len(snap.Queue), time.Since(t0))
		seq++
		rec.Seq = seq
		for _, qi := range starts {
			rec.Started = append(rec.Started, snap.Queue[qi].Job.ID)
		}
		visit(rec)
		return starts
	}
	for i, ev := range cp.Events {
		if err := e.replayEvent(i, ev, redecide); err != nil {
			return err
		}
	}
	return nil
}

// replayEvent applies journaled event i. An EvDecide goes through
// decide like a live decision; choose, when non-nil, re-decides it
// (Audit), else it starts what the journal recorded (Rebuild).
func (e *Engine) replayEvent(i int, ev Event, choose func(*sim.Snapshot) []int) error {
	switch ev.Kind {
	case EvSubmit:
		j := ev.Job
		if _, dup := e.jobs[j.ID]; dup {
			return fmt.Errorf("engine: rebuild: event %d: job %d admitted twice", i, j.ID)
		}
		if err := j.Validate(e.l.Capacity()); err != nil {
			return fmt.Errorf("engine: rebuild: event %d: %w", i, err)
		}
		e.noteQueueChange(ev.At)
		e.l.Enqueue(j, 0)
		e.jobs[j.ID] = &JobStatus{Job: j, State: StateWaiting}
		delete(e.withdrawn, j.ID)
		if j.ID >= e.nextID {
			e.nextID = j.ID + 1
		}
	case EvDecide:
		if _, err := e.decide(&ev, choose); err != nil {
			return fmt.Errorf("engine: rebuild: event %d: %w", i, err)
		}
		e.decisions++
		e.replayed++
	case EvFinish:
		f, ok := e.l.PopDue(ev.At)
		if !ok {
			return fmt.Errorf("engine: rebuild: event %d: no completion due at t=%d", i, ev.At)
		}
		if f.Job.ID != ev.ID || f.End != ev.At {
			return fmt.Errorf("engine: rebuild: event %d: popped job %d at t=%d, recorded job %d at t=%d",
				i, f.Job.ID, f.End, ev.ID, ev.At)
		}
		e.recordFinish(f)
	case EvWithdraw:
		st, ok := e.jobs[ev.ID]
		if !ok || st.State != StateWaiting {
			return fmt.Errorf("engine: rebuild: event %d: withdrawn job %d not waiting", i, ev.ID)
		}
		e.noteQueueChange(ev.At)
		if _, ok := e.l.Withdraw(ev.ID); !ok {
			return fmt.Errorf("engine: rebuild: event %d: withdrawn job %d not in queue", i, ev.ID)
		}
		// Repopulate the idempotency tombstone: a rebuilt shard must
		// still answer a retried Withdraw whose original committed
		// before the crash.
		e.withdrawn[ev.ID] = st.Job
		delete(e.jobs, ev.ID)
	default:
		return fmt.Errorf("engine: rebuild: event %d: unknown kind %d", i, int(ev.Kind))
	}
	e.journal.append(ev)
	return nil
}
