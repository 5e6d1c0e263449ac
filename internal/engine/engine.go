// Package engine is the online scheduling engine: it drives any
// sim.Policy (backfill baselines and the search schedulers unchanged)
// against a Clock instead of a trace, owning the waiting queue and node
// allocation through the same sim.Ledger the offline simulator uses.
// Jobs are submitted while the engine runs (over HTTP via
// internal/server, or replayed from a trace on a VirtualClock), every
// decision point is serialized, and state is exposed through atomic
// snapshots.
//
// Event semantics match the simulator exactly: at any instant,
// completions are applied (in job-ID order) and arrivals enqueued
// before a single coalesced policy decision fires, so an engine replay
// of a trace on a VirtualClock yields the same schedule as sim.Run on
// that trace. The differential tests assert this.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// ErrDraining is returned by Submit after Drain has been requested.
var ErrDraining = errors.New("engine: draining, not admitting jobs")

// ErrUnreachable marks a wire failure where the request was certainly
// never processed (connection refused, no route): the operation did not
// happen and may be safely redirected elsewhere. A federation router
// returns it; it lives here beside ErrDraining so that the server can
// answer both as the retryable 503 they are.
var ErrUnreachable = errors.New("federation: shard unreachable")

// ErrUncertain marks a wire failure after which the request MAY have
// been processed. A router returns it with the ID it burned, and the
// server answers 202: the job may run under that ID.
var ErrUncertain = errors.New("federation: request outcome unknown")

// ErrDuplicateID is wrapped by SubmitJob when the caller-assigned job
// ID is already in use (test with errors.Is).
var ErrDuplicateID = errors.New("duplicate job ID")

// ErrNotQueued is wrapped by Withdraw when the job is not currently
// waiting (unknown, already running, or done — running and completed
// jobs cannot be withdrawn on a non-preemptive machine).
var ErrNotQueued = errors.New("job not in queue")

// Config configures an Engine.
type Config struct {
	// Capacity is the machine size in nodes.
	Capacity int
	// Policy makes the scheduling decisions. The engine serializes
	// calls to it; it does not need to be goroutine-safe.
	Policy sim.Policy
	// Clock drives time; nil means NewRealClock(1).
	Clock Clock
	// Estimator, when non-nil, supplies planning estimates and
	// observes completions (overrides UseRequested).
	Estimator sim.Estimator
	// UseRequested makes the policy plan with user-requested runtimes.
	UseRequested bool
	// Measured flags jobs that belong to the measurement window in
	// Metrics; nil measures every job.
	Measured func(id int) bool
	// MeasureStart and MeasureEnd bound the queue-length and
	// utilization integration in Metrics, like the simulator's
	// measurement window (replay drivers copy them from the input).
	// Both zero means integrate from engine start to now.
	MeasureStart, MeasureEnd job.Time
	// Observer, when non-nil, receives every committed scheduling event
	// (the correctness oracle in internal/oracle implements it). On a
	// rebuilt engine the observer re-observes the replayed history
	// first, so attach a fresh observer to each Rebuild.
	Observer sim.Observer
	// Journal, when non-nil, receives every committed event for
	// persistence (see JournalSink). The engine calls Commit at each
	// mutation boundary; a group-committing sink defers the fsync until
	// its group fills or SyncJournal forces it. Sink errors are fatal.
	Journal JournalSink
	// CompactEvery, when > 0, folds the journal into a Base snapshot
	// (truncating the event tail, in memory and in the sink) whenever
	// the tail reaches this many events, so Rebuild cost stays bounded
	// on long-running daemons.
	CompactEvery int
	// Tracer, when non-nil, records a "decide" span for every started
	// job whose submission was traced (the trace context is looked up
	// in the tracer's job registry, bound at submit). Capture is
	// strictly passive: attaching a tracer never changes a schedule.
	Tracer *obs.Tracer
	// TraceShard tags this engine's spans with its shard index in a
	// federation (0 for a standalone engine).
	TraceShard int
}

// State is a job's lifecycle position.
type State int

const (
	StateWaiting State = iota
	StateRunning
	StateDone
)

// String returns the API name of the state.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// JobStatus is one job's current state as reported by the engine.
type JobStatus struct {
	Job      job.Job
	State    State
	Estimate job.Duration
	// Start and End are valid for running (Start) and done (both).
	Start, End job.Time
	NodeIDs    []int
}

// Machine is an atomic snapshot of the machine state.
type Machine struct {
	Now       job.Time
	Capacity  int
	FreeNodes int
	Running   []sim.RunningJob
}

// Engine is the online scheduler. All methods are goroutine-safe.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	policy string // cfg.Policy.Name(), computed once: a search's is a Sprintf
	clock  Clock
	l      *sim.Ledger

	jobs    map[int]*JobStatus
	nextID  int
	records []sim.Record
	journal eventLog
	// withdrawn tombstones every job Withdraw removed, keyed by ID.
	// They make migration withdrawals idempotent over a lossy wire: a
	// retried Withdraw whose original landed finds the tombstone and
	// returns the same job instead of "not queued". Rebuild repopulates
	// them from EvWithdraw replay and from Base.Withdrawn, so they
	// survive a crash and a compaction. Bounded by the shard's migration
	// count.
	withdrawn map[int]job.Job
	// base is the folded journal prefix after a compaction (nil until
	// the first Compact); journal holds only the tail since.
	base        *Base
	compactions int64
	// replaying suppresses sink writes while Rebuild re-applies
	// recovered history (the sink already holds those events), and
	// makes decide take each decision's estimates and starts from the
	// journal (Rebuild and Audit).
	replaying bool

	decidePending bool
	finishTimer   Timer
	finishAt      job.Time
	finishArmed   bool

	draining bool
	done     chan struct{}
	fatal    error

	// Counters exposed via Metrics. decisions counts every decision of
	// the committed history; replayed counts those a rebuild replayed or
	// restored rather than made. The latencies are this incarnation's.
	decisions    int64
	replayed     int64
	policyPanics int64
	decideDur    time.Duration
	decideMax    time.Duration

	q sim.QueueStats // measurement window and queue-length integral
}

// New returns a started engine; it begins scheduling as soon as jobs
// are submitted.
func New(cfg Config) (*Engine, error) {
	if cfg.Policy == nil {
		return nil, errors.New("engine: nil policy")
	}
	l, err := sim.NewLedger(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = NewRealClock(1)
	}
	l.SetObserver(cfg.Observer)
	e := &Engine{
		cfg:       cfg,
		policy:    cfg.Policy.Name(),
		clock:     cfg.Clock,
		l:         l,
		jobs:      make(map[int]*JobStatus),
		withdrawn: make(map[int]job.Job),
		nextID:    1,
		done:      make(chan struct{}),
		q:         sim.NewQueueStats(cfg.MeasureStart, cfg.MeasureEnd),
	}
	return e, nil
}

// Submit admits a new job: the engine assigns the next free ID, stamps
// the submission time from the clock, and schedules a decision. Only
// Nodes, Runtime, Request and User of spec are used.
func (e *Engine) Submit(spec job.Job) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	spec.ID = e.nextID
	if err := e.submitLocked(spec, false); err != nil {
		return 0, err
	}
	return spec.ID, nil
}

// SubmitJob admits a job keeping its caller-assigned ID (trace replay).
// The submission time is still stamped from the clock, so replay
// drivers must deliver each job when the clock reads its submit time.
func (e *Engine) SubmitJob(j job.Job) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(j, false)
}

// Admit admits a job keeping both its caller-assigned ID and its
// original submit time (clamped to now). The federation router uses it
// to migrate a still-queued job between shards without resetting the
// job's wait; everything else about admission — validation, duplicate
// detection, journaling, the coalesced decision — matches SubmitJob.
// Note that a live Observer sees the preserved submit time, which may
// be older than submissions it has already observed.
func (e *Engine) Admit(j job.Job) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.submitLocked(j, true)
}

func (e *Engine) submitLocked(j job.Job, preserveSubmit bool) error {
	if e.fatal != nil {
		return e.fatal
	}
	if e.draining {
		return ErrDraining
	}
	now := e.clock.Now()
	if !preserveSubmit || j.Submit < 0 || j.Submit > now {
		j.Submit = now
	}
	if j.Request < j.Runtime {
		j.Request = j.Runtime
	}
	if j.ID < 1 {
		return fmt.Errorf("engine: invalid job ID %d", j.ID)
	}
	if err := j.Validate(e.l.Capacity()); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if _, dup := e.jobs[j.ID]; dup {
		return fmt.Errorf("engine: %w: %d", ErrDuplicateID, j.ID)
	}
	if j.ID >= e.nextID {
		e.nextID = j.ID + 1
	}
	e.noteQueueChange(now)
	e.l.Enqueue(j, 0) // estimated lazily at the decision point
	e.jobs[j.ID] = &JobStatus{Job: j, State: StateWaiting}
	// A re-admission (migration undo, or a job bouncing back) retires
	// the withdraw tombstone: from here on the job's fate is this
	// incarnation's queue, and a stale tombstone must never satisfy a
	// future withdraw retry.
	delete(e.withdrawn, j.ID)
	e.appendEvent(Event{Kind: EvSubmit, At: now, Job: j})
	e.requestDecide()
	e.commitLocked()
	return e.fatal
}

// appendEvent commits one event to the in-memory journal and, outside
// of rebuild replay, to the configured sink. A sink write failure is
// fatal: the engine must not keep scheduling decisions it cannot
// recover.
func (e *Engine) appendEvent(ev Event) {
	e.journal.append(ev)
	if e.cfg.Journal != nil && !e.replaying {
		if err := e.cfg.Journal.Append(ev); err != nil {
			e.setFatal(fmt.Errorf("engine: journal append: %w", err))
		}
	}
}

// commitLocked marks a mutation boundary: the sink gets its chance to
// fsync (group commit decides whether it actually does), and the
// journal auto-compacts once the tail is long enough.
func (e *Engine) commitLocked() {
	if e.fatal != nil {
		return
	}
	if e.cfg.Journal != nil {
		if err := e.cfg.Journal.Commit(); err != nil {
			e.setFatal(fmt.Errorf("engine: journal commit: %w", err))
			return
		}
	}
	if e.cfg.CompactEvery > 0 && e.journal.n >= e.cfg.CompactEvery {
		_ = e.compactLocked()
	}
}

// SyncJournal forces any group-buffered journal writes to stable
// storage. The ingest committer calls it once per accepted batch group
// — the group-commit boundary: a batch is acknowledged to its clients
// only after this returns.
func (e *Engine) SyncJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Journal == nil {
		return nil
	}
	if err := e.cfg.Journal.Sync(); err != nil {
		e.setFatal(fmt.Errorf("engine: journal sync: %w", err))
		return e.fatal
	}
	return nil
}

// requestDecide coalesces decision requests: however many events land
// on one instant, the policy runs once, after all of them — the same
// batching the offline simulator applies.
func (e *Engine) requestDecide() {
	if e.decidePending {
		return
	}
	e.decidePending = true
	e.clock.AfterFunc(0, e.onDecide)
}

func (e *Engine) onDecide() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.decidePending = false
	e.completeDue()
	e.decideLocked()
	e.commitLocked()
	e.armFinish()
	e.checkIdle()
}

func (e *Engine) onFinish() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finishArmed = false
	e.completeDue()
	if e.l.QueueLen() > 0 {
		e.requestDecide()
	}
	e.commitLocked()
	e.armFinish()
	e.checkIdle()
}

// completeDue applies every completion the clock has reached.
func (e *Engine) completeDue() {
	now := e.clock.Now()
	for {
		f, ok := e.l.PopDue(now)
		if !ok {
			return
		}
		e.recordFinish(f)
		e.appendEvent(Event{Kind: EvFinish, At: f.End, ID: f.Job.ID})
	}
}

// recordFinish is the bookkeeping of one completion, shared by the live
// path, journal replay and base restore: the estimator observes the
// job, its record joins the history, and its status (which must exist)
// turns done.
func (e *Engine) recordFinish(f sim.Finished) {
	if est := e.cfg.Estimator; est != nil {
		est.Observe(f.Job)
	}
	measured := e.cfg.Measured == nil || e.cfg.Measured(f.Job.ID)
	e.records = append(e.records, sim.Record{
		Job: f.Job, Start: f.Start, End: f.End,
		NodeIDs: f.NodeIDs, Measured: measured,
	})
	st := e.jobs[f.Job.ID]
	st.State = StateDone
	st.End = f.End
}

// estimate is a queued job's planning estimate, fixed at the first
// decision point after its arrival.
func (e *Engine) estimate(j job.Job) job.Duration {
	est := j.Runtime
	switch {
	case e.cfg.Estimator != nil:
		est = e.cfg.Estimator.Estimate(j)
	case e.cfg.UseRequested:
		est = j.Request
	}
	return max(est, 1)
}

func (e *Engine) decideLocked() {
	if e.fatal != nil || e.l.QueueLen() == 0 {
		return
	}
	ev := Event{Kind: EvDecide, At: e.clock.Now()}
	e.decisions++
	var d time.Duration
	started, err := e.decide(&ev, func(snap *sim.Snapshot) []int {
		t0 := time.Now()
		starts, panicked := e.safeDecide(snap)
		if panicked {
			// A panicking policy must not take the machine down: fall
			// back to a strict FCFS prefix decision, which is always
			// feasible and never starves the queue head.
			e.policyPanics++
			starts = fcfsFallback(snap)
		}
		d = time.Since(t0)
		return starts
	})
	e.decideDur += d
	e.decideMax = max(e.decideMax, d)
	e.appendEvent(ev)
	switch {
	case err != nil:
		e.setFatal(err)
	case len(started) == 0 && e.l.RunningLen() == 0:
		e.setFatal(fmt.Errorf("engine: policy %q started nothing on an idle machine with %d queued jobs at t=%d",
			e.policy, e.l.QueueLen(), ev.At))
	case e.cfg.Tracer != nil:
		e.traceDecision(d, started)
	}
}

// decide applies one decision at ev.At, live or replayed from the
// journal: it fixes the estimates of the queued jobs that have none,
// hands the snapshot the policy sees to choose, starts the queue
// positions choose returns as one batch and turns those jobs running.
// Live, the estimator supplies the estimates and ev records them and
// the starts. Replayed, they come from ev, whose starts the batch must
// equal, each on its recorded nodes; a nil choose starts them as
// recorded.
func (e *Engine) decide(ev *Event, choose func(*sim.Snapshot) []int) ([]sim.Started, error) {
	if e.replaying {
		for _, fix := range ev.Estimates {
			if !e.l.SetEstimate(fix.ID, fix.Estimate) {
				return nil, fmt.Errorf("estimate for job %d not in queue", fix.ID)
			}
			e.jobs[fix.ID].Estimate = fix.Estimate
		}
	} else {
		e.l.FillEstimates(func(j job.Job) job.Duration {
			est := e.estimate(j)
			e.jobs[j.ID].Estimate = est
			ev.Estimates = append(ev.Estimates, Estimate{ID: j.ID, Estimate: est})
			return est
		})
	}
	var qis []int
	if choose != nil {
		qis = choose(e.l.Snapshot(ev.At))
	} else {
		for _, s := range ev.Starts {
			qi, ok := e.l.QueueIndex(s.ID)
			if !ok {
				return nil, fmt.Errorf("started job %d not in queue", s.ID)
			}
			qis = append(qis, qi)
		}
	}
	var started []sim.Started
	if len(qis) > 0 {
		e.noteQueueChange(ev.At)
		var err error
		if started, err = e.l.Start(e.policy, ev.At, qis); err != nil {
			return nil, err
		}
	}
	if e.replaying {
		var want, got []int
		for _, r := range ev.Starts {
			want = append(want, r.ID)
		}
		for _, s := range started {
			got = append(got, s.Job.ID)
		}
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("t=%d: the journal started %v, %s started %v", ev.At, want, e.policy, got)
		}
	}
	for k, s := range started {
		if !e.replaying {
			ev.Starts = append(ev.Starts, Start{ID: s.Job.ID, NodeIDs: slices.Clone(s.NodeIDs)})
		} else if !slices.Equal(s.NodeIDs, ev.Starts[k].NodeIDs) {
			return nil, fmt.Errorf("job %d reallocated nodes %v, recorded %v", s.Job.ID, s.NodeIDs, ev.Starts[k].NodeIDs)
		}
		st := e.jobs[s.Job.ID]
		st.State = StateRunning
		st.Start = s.Start
		st.NodeIDs = s.NodeIDs
	}
	return started, nil
}

// safeDecide consults the policy, converting a panic into a recovered
// fallback signal instead of crashing the engine goroutine.
func (e *Engine) safeDecide(snap *sim.Snapshot) (starts []int, panicked bool) {
	defer func() {
		if recover() != nil {
			starts, panicked = nil, true
		}
	}()
	return e.cfg.Policy.Decide(snap), false
}

// fcfsFallback starts the longest strict-FCFS prefix of the queue that
// fits in the free nodes. It is always feasible, and on an idle machine
// it always starts the queue head (job widths are validated against
// capacity at admission), so the fallback can never stall the engine.
func fcfsFallback(snap *sim.Snapshot) []int {
	free := snap.FreeNodes
	var starts []int
	for qi, w := range snap.Queue {
		if w.Job.Nodes > free {
			break
		}
		free -= w.Job.Nodes
		starts = append(starts, qi)
	}
	return starts
}

// armFinish keeps exactly one clock timer outstanding, set to the
// earliest pending completion.
func (e *Engine) armFinish() {
	next, ok := e.l.NextFinish()
	if !ok {
		if e.finishTimer != nil {
			e.finishTimer.Stop()
			e.finishTimer = nil
		}
		e.finishArmed = false
		return
	}
	if e.finishArmed && e.finishAt == next {
		return
	}
	if e.finishTimer != nil {
		e.finishTimer.Stop()
	}
	d := next - e.clock.Now()
	if d < 0 {
		d = 0
	}
	e.finishTimer = e.clock.AfterFunc(d, e.onFinish)
	e.finishAt = next
	e.finishArmed = true
}

// noteQueueChange integrates queue length × time up to now (clamped to
// the measurement window), just before the queue length changes.
func (e *Engine) noteQueueChange(now job.Time) { e.q.Advance(now, e.l.QueueLen()) }

func (e *Engine) setFatal(err error) {
	if e.fatal == nil {
		e.fatal = err
		e.closeDone()
	}
}

func (e *Engine) closeDone() {
	select {
	case <-e.done:
	default:
		close(e.done)
	}
}

func (e *Engine) checkIdle() {
	if (e.draining || e.fatal != nil) && e.l.QueueLen() == 0 && e.l.RunningLen() == 0 {
		e.closeDone()
	}
}

// Drain stops admitting jobs and blocks until every admitted job has
// completed (or ctx is cancelled, or the engine hit a fatal error).
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	e.checkIdle()
	done := e.done
	e.mu.Unlock()
	select {
	case <-done:
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.fatal
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been requested.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Err returns the engine's fatal error, if any (an infeasible or
// stalled policy decision stops the engine).
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fatal
}

// Now returns the engine's current time.
func (e *Engine) Now() job.Time { return e.clock.Now() }

// Job returns a copy of the job's current status. Like every read of
// the Shard seam, its error is nil: an engine is always asked.
func (e *Engine) Job(id int) (JobStatus, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.jobs[id]
	if !ok {
		return JobStatus{}, false, nil
	}
	out := *st
	out.NodeIDs = append([]int(nil), st.NodeIDs...)
	return out, true, nil
}

// Queue returns the waiting jobs in queue (arrival) order.
func (e *Engine) Queue() ([]JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.l.Snapshot(e.clock.Now())
	out := make([]JobStatus, len(snap.Queue))
	for i, w := range snap.Queue {
		out[i] = JobStatus{Job: w.Job, State: StateWaiting, Estimate: w.Estimate}
	}
	return out, nil
}

// Machine returns an atomic snapshot of machine occupancy.
func (e *Engine) Machine() (Machine, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := e.l.Snapshot(e.clock.Now())
	return Machine{
		Now:       snap.Now,
		Capacity:  snap.Capacity,
		FreeNodes: snap.FreeNodes,
		Running:   snap.Running,
	}, nil
}

// Healthy is nil: an in-process engine is always reachable (a fatal
// engine error is Err's).
func (e *Engine) Healthy() error { return nil }

// Records returns a copy of the completion records so far, in
// completion order (the same order the offline simulator emits).
func (e *Engine) Records() []sim.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]sim.Record(nil), e.records...)
}

// Withdraw removes a still-waiting job from the engine and returns the
// admitted job (with its stamped submit time). The federation router
// migrates queued jobs between shards this way; running and completed
// jobs cannot be withdrawn (non-preemption). The withdrawal is
// journaled, so a Rebuild replays it and the job stays gone.
func (e *Engine) Withdraw(id int) (job.Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fatal != nil {
		return job.Job{}, e.fatal
	}
	st, ok := e.jobs[id]
	if !ok || st.State != StateWaiting {
		return job.Job{}, fmt.Errorf("engine: withdraw job %d: %w", id, ErrNotQueued)
	}
	now := e.clock.Now()
	e.noteQueueChange(now)
	j, ok := e.l.Withdraw(id)
	if !ok {
		// jobs said waiting but the ledger disagrees: a bookkeeping bug.
		e.setFatal(fmt.Errorf("engine: withdraw job %d: waiting but not in ledger queue", id))
		return job.Job{}, e.fatal
	}
	delete(e.jobs, id)
	e.withdrawn[id] = j
	e.appendEvent(Event{Kind: EvWithdraw, At: now, ID: id})
	e.commitLocked()
	e.checkIdle()
	if e.fatal != nil {
		// The journal commit failed after the in-memory withdrawal was
		// applied; like the other mutation paths, a fatal error returns
		// the zero job — state is indeterminate and the engine is dead.
		return job.Job{}, e.fatal
	}
	return j, nil
}

// Withdrawn reports whether a Withdraw for the job ID has committed in
// this engine (and not been superseded by a re-admission), returning
// the withdrawn job. The federation's remote-shard withdraw handler
// uses it to answer a retried Withdraw whose original landed with the
// same job instead of an error — the idempotency seam that keeps a
// migration from dropping or duplicating a job when an acknowledgment
// is lost on the wire.
func (e *Engine) Withdrawn(id int) (job.Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.withdrawn[id]
	return j, ok
}

// Load is a cheap occupancy summary of one engine, consumed by the
// federation router's placement and rebalance passes.
type Load struct {
	// Capacity and FreeNodes mirror Machine.
	Capacity  int
	FreeNodes int
	// Waiting and Running are the queue and running-set sizes.
	Waiting int
	Running int
	// QueuedNodeSec and RemainingNodeSec are the outstanding work in
	// node-seconds (see sim.Ledger.Demand); MinQueuedNodeSec is the
	// smallest waiting job's Demand, 0 for an empty queue.
	QueuedNodeSec    int64
	RemainingNodeSec int64
	MinQueuedNodeSec int64
	// The answer's exact window. Now is the engine time it was taken.
	// Until StableUntil only RemainingNodeSec moves, falling by Slope
	// node-seconds per second (see At). StableUntil is Now-1 (no window)
	// while a decision is pending, else one second before the next
	// completion or before a running job's remaining predicted time
	// reaches its one-second floor, whichever comes first. Only an
	// admission or withdrawal ends the window earlier.
	Now         job.Time
	Slope       int
	StableUntil job.Time
	// NextID is one past the largest job ID the engine has ever
	// admitted, done and withdrawn jobs included: a router fronting
	// running shards starts its own IDs there.
	NextID int
}

// At returns the load at t, for t in [ld.Now, ld.StableUntil]: exactly
// what Load would answer then, save for the window fields.
func (ld Load) At(t job.Time) Load {
	ld.RemainingNodeSec -= int64(ld.Slope) * (t - ld.Now)
	ld.Now = t
	return ld
}

// Score is the load measure placement and rebalancing compare:
// outstanding node-seconds per capacity node. It is comparable across
// shards of different sizes.
func (ld Load) Score() float64 {
	if ld.Capacity < 1 {
		return 0
	}
	return float64(ld.QueuedNodeSec+ld.RemainingNodeSec) / float64(ld.Capacity)
}

// Demand is the waiting job's share of its shard's Load.QueuedNodeSec
// (sim.QueuedDemand, the rule the ledger sums): what a migration moves
// from one shard's load to another's.
func (st JobStatus) Demand() int64 { return sim.QueuedDemand(st.Job, st.Estimate) }

// Load returns the engine's current occupancy summary.
func (e *Engine) Load() (Load, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	queued, minQueued, remaining, slope, until := e.l.Demand(now)
	if next, ok := e.l.NextFinish(); ok {
		until = min(until, next-1)
	}
	if e.decidePending {
		until = now - 1
	}
	return Load{
		Capacity:         e.l.Capacity(),
		FreeNodes:        e.l.FreeNodes(),
		Waiting:          e.l.QueueLen(),
		Running:          e.l.RunningLen(),
		QueuedNodeSec:    queued,
		RemainingNodeSec: remaining,
		MinQueuedNodeSec: minQueued,
		Now:              now,
		Slope:            slope,
		StableUntil:      until,
		NextID:           e.nextID,
	}, nil
}

// Shard is the narrow engine surface the federation router
// (internal/federation) drives — exactly the methods the router calls:
// admission, migration, state inspection and drain, but none of the
// engine's construction, checkpoint or replay machinery (the router
// rebuilds only in-process *Engine shards, by assertion). *Engine and
// federation.RemoteShard implement it.
type Shard interface {
	// SubmitJob admits a job with a caller-assigned ID, stamping the
	// submit time from the clock.
	SubmitJob(j job.Job) error
	// Admit admits a job preserving its ID and submit time (migration).
	Admit(j job.Job) error
	// Withdraw removes a still-waiting job (migration source side).
	Withdraw(id int) (job.Job, error)
	// Job, Queue, Machine and Load expose state. Their error says the
	// shard could not be asked (a remote shard's wire failed): Job's
	// false with a nil error is the shard's answer "no such job".
	Job(id int) (JobStatus, bool, error)
	Queue() ([]JobStatus, error)
	Machine() (Machine, error)
	Load() (Load, error)
	// Metrics and Records merge what they can get: a remote shard
	// answers them from its last-known report, or with nothing.
	Metrics() Metrics
	Records() []sim.Record
	// Drain stops admission and waits for the shard to empty.
	Drain(ctx context.Context) error
	// Healthy is the error of the shard's last call (nil while it
	// answers); Err is a fatal error the shard itself reported.
	Healthy() error
	Err() error
}

var _ Shard = (*Engine)(nil)
