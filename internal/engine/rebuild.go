package engine

import (
	"fmt"
	"slices"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// EventKind tags one committed engine event in the journal.
type EventKind uint8

const (
	// EvSubmit is a job admission; Job carries the admitted job with
	// its stamped submit time.
	EvSubmit EventKind = iota
	// EvEstimate fixes a queued job's planning estimate (assigned at
	// the first decision point after arrival).
	EvEstimate
	// EvStart dispatches a job; NodeIDs records the concrete
	// allocation for verification on rebuild.
	EvStart
	// EvFinish completes a job at time At.
	EvFinish
	// EvWithdraw removes a still-waiting job from the queue without
	// starting it (a federation migration moved it to another shard).
	EvWithdraw
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvEstimate:
		return "estimate"
	case EvStart:
		return "start"
	case EvFinish:
		return "finish"
	case EvWithdraw:
		return "withdraw"
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
	// ID identifies the job for every other kind.
	ID int
	// Estimate is the fixed planning estimate (EvEstimate only).
	Estimate job.Duration
	// NodeIDs is the recorded concrete allocation (EvStart only).
	NodeIDs []int
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
		Events:        append([]Event(nil), e.journal...),
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
// re-observes the replayed history before live events. The effort
// counters (decisions, latency) and the max-queue statistic restart at
// the rebuild point; the committed schedule and the queue-length
// integral do not.
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
		if err := e.replayEvent(i, ev, cp.Events); err != nil {
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
// replays cp onto a fresh ledger, as Rebuild does, and at each decision
// point asks cfg.Policy to decide on the snapshot the live policy saw.
// visit receives each re-decided decision (and may keep it); Audit then
// requires its starts, in order, to equal the journal's, and at the
// first difference returns an error naming the event index, the instant
// and both ID lists. Only cfg.Capacity and cfg.Policy are read.
//
// A decision point is one of three things in the journal:
//   - a run of EvEstimate events, which only a decision writes, and the
//     EvStart run after it at the same instant;
//   - an EvStart run with no estimates before it;
//   - a requested decision that left no event: after a submit, or after
//     finishes that leave jobs waiting (onFinish requests a decision
//     only then), the instant's events end with neither run while jobs
//     wait, all estimated, and the journal goes on. It is re-decided
//     after the instant's last event and must start nothing.
//
// Withdraws request no decision. On a VirtualClock this is exact: the
// count equals the engine's decisions. On a RealClock a decision fires
// a little after its request, so one that started nothing may be
// re-decided at the wrong instant, and a policy whose state changes at
// every Decide (Fairshare, meta) can then report a divergence.
func Audit(cfg Config, cp Checkpoint, visit func(*obs.DecisionRecord)) error {
	e, err := New(Config{Capacity: cfg.Capacity, Policy: cfg.Policy})
	if err != nil {
		return err
	}
	if cp.Base != nil {
		if err := e.restoreBaseLocked(*cp.Base); err != nil {
			return err
		}
	}
	var seq int64
	decide := func(i int, at job.Time, want []int) error {
		snap := e.l.Snapshot(at)
		t0 := time.Now()
		starts := cfg.Policy.Decide(snap)
		rec := &obs.DecisionRecord{}
		fillDecisionRecord(rec, cfg.Policy, at, len(snap.Queue), time.Since(t0))
		seq++
		rec.Seq = seq
		for _, qi := range starts {
			rec.Started = append(rec.Started, snap.Queue[qi].Job.ID)
		}
		visit(rec)
		if !slices.Equal(rec.Started, want) {
			return fmt.Errorf("engine: audit: event %d, t=%d: the journal started %v, %s started %v",
				i, at, want, cfg.Policy.Name(), rec.Started)
		}
		return nil
	}
	// pending marks a decision requested at instant requested that the
	// journal has not shown yet.
	pending, requested := false, job.Time(0)
	events := cp.Events
	for i := 0; i < len(events); {
		ev := events[i]
		if ev.Kind != EvEstimate && ev.Kind != EvStart {
			if pending && ev.At > requested {
				// A decision that left no event, unless a job still lacks
				// its estimate (the decision is still to come).
				snap := e.l.Snapshot(requested)
				if !slices.ContainsFunc(snap.Queue, func(w sim.WaitingJob) bool { return w.Estimate == 0 }) {
					pending = false
					if len(snap.Queue) > 0 {
						if err := decide(i, requested, nil); err != nil {
							return err
						}
					}
				}
			}
			if err := e.replayEvent(i, ev, events); err != nil {
				return err
			}
			if ev.Kind == EvSubmit || ev.Kind == EvFinish && e.l.QueueLen() > 0 {
				// A decision never precedes an event already journaled.
				pending, requested = true, max(requested, ev.At)
			}
			i++
			continue
		}
		// One decision: its estimates, then its starts, all at ev.At. It
		// answers the pending request, whatever that request's instant.
		var want []int
		k := i
		for ; k < len(events) && events[k].At == ev.At; k++ {
			if events[k].Kind == EvStart {
				want = append(want, events[k].ID)
			} else if events[k].Kind != EvEstimate || len(want) > 0 {
				break
			} else if err := e.replayEvent(k, events[k], events); err != nil {
				return err
			}
		}
		pending = false
		if err := decide(i, ev.At, want); err != nil {
			return err
		}
		for ; i < k; i++ {
			if events[i].Kind == EvStart {
				if err := e.replayEvent(i, events[i], events); err != nil {
					return err
				}
			}
		}
	}
	// A request still pending at the end is answered after the journal.
	return nil
}

func (e *Engine) replayEvent(i int, ev Event, events []Event) error {
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
	case EvEstimate:
		if !e.l.SetEstimate(ev.ID, ev.Estimate) {
			return fmt.Errorf("engine: rebuild: event %d: estimate for job %d not in queue", i, ev.ID)
		}
		if st := e.jobs[ev.ID]; st != nil {
			st.Estimate = ev.Estimate
		}
	case EvStart:
		qi, ok := e.l.QueueIndex(ev.ID)
		if !ok {
			return fmt.Errorf("engine: rebuild: event %d: started job %d not in queue", i, ev.ID)
		}
		e.noteQueueChange(ev.At)
		started, err := e.l.Start(e.cfg.Policy.Name(), ev.At, []int{qi})
		if err != nil {
			return fmt.Errorf("engine: rebuild: event %d: %w", i, err)
		}
		s := started[0]
		if !slices.Equal(s.NodeIDs, ev.NodeIDs) {
			return fmt.Errorf("engine: rebuild: event %d: job %d reallocated nodes %v, recorded %v",
				i, ev.ID, s.NodeIDs, ev.NodeIDs)
		}
		st := e.jobs[ev.ID]
		st.State = StateRunning
		st.Start = s.Start
		st.NodeIDs = s.NodeIDs
		// The live engine samples the queue length at decision points
		// (after the whole batch of starts); mirror that at the last
		// start of each replayed batch.
		if i+1 >= len(events) || events[i+1].Kind != EvStart {
			e.q.Sample(ev.At, e.l.QueueLen())
		}
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
	e.journal = append(e.journal, ev)
	return nil
}
