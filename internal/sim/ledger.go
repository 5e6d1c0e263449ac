package sim

import (
	"fmt"

	"schedsearch/internal/cluster"
	"schedsearch/internal/job"
)

// Ledger is the queue and allocation bookkeeping shared by the offline
// simulator (Run) and the online engine (internal/engine): the waiting
// queue in arrival order, the running set with concrete node
// assignments, and the pending-completion heap. It validates policy
// decisions, hands out node IDs lowest-first, and pops completions in
// deterministic (time, job ID) order, so any two drivers feeding it the
// same decision points produce byte-identical schedules.
//
// The Ledger itself is not goroutine-safe; callers serialize access
// (the simulator is single-threaded, the engine holds a mutex).
type Ledger struct {
	capacity int
	free     int
	nodes    *cluster.NodeSet
	queue    []queued
	running  []running
	events   finishHeap
	obs      Observer
}

// Started reports one job the Ledger just dispatched.
type Started struct {
	Job job.Job
	// Start is the dispatch time.
	Start job.Time
	// PredictedEnd is Start plus the planning estimate (what policies
	// see; the actual completion uses the real runtime).
	PredictedEnd job.Time
	// NodeIDs are the concrete nodes assigned, lowest-first.
	NodeIDs []int
}

// Finished reports one completed job popped from the Ledger.
type Finished struct {
	Job        job.Job
	Start, End job.Time
	NodeIDs    []int
}

// NewLedger returns an empty ledger for a machine of the given size.
func NewLedger(capacity int) (*Ledger, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("sim: capacity %d", capacity)
	}
	return &Ledger{
		capacity: capacity,
		free:     capacity,
		nodes:    cluster.NewNodeSet(capacity),
	}, nil
}

// Capacity returns the machine size.
func (l *Ledger) Capacity() int { return l.capacity }

// FreeNodes returns the number of unallocated nodes.
func (l *Ledger) FreeNodes() int { return l.free }

// QueueLen returns the number of waiting jobs.
func (l *Ledger) QueueLen() int { return len(l.queue) }

// RunningLen returns the number of running jobs.
func (l *Ledger) RunningLen() int { return len(l.running) }

// Enqueue appends a job to the waiting queue. A zero estimate means
// "not yet estimated"; FillEstimates (or a non-zero estimate here)
// must supply one before the job is visible in a Snapshot.
func (l *Ledger) Enqueue(j job.Job, estimate job.Duration) {
	l.queue = append(l.queue, queued{j: j, estimate: estimate})
	if l.obs != nil {
		l.obs.ObserveSubmit(j)
	}
}

// SetEstimate sets the planning estimate of the queued job with the
// given ID (the engine's rebuild path replays recorded estimates this
// way) and reports whether the job was found in the queue.
func (l *Ledger) SetEstimate(id int, estimate job.Duration) bool {
	for i := range l.queue {
		if l.queue[i].j.ID == id {
			l.queue[i].estimate = estimate
			return true
		}
	}
	return false
}

// Withdraw removes the waiting job with the given ID from the queue,
// preserving the arrival order of the remaining jobs, and returns it.
// Running or completed jobs cannot be withdrawn (non-preemption); the
// second result is false when the ID is not in the queue. An attached
// WithdrawObserver sees the removal.
func (l *Ledger) Withdraw(id int) (job.Job, bool) {
	for i := range l.queue {
		if l.queue[i].j.ID != id {
			continue
		}
		j := l.queue[i].j
		l.queue = append(l.queue[:i], l.queue[i+1:]...)
		if wo, ok := l.obs.(WithdrawObserver); ok {
			wo.ObserveWithdraw(j)
		}
		return j, true
	}
	return job.Job{}, false
}

// QueuedDemand is one waiting job's outstanding work in node-seconds:
// nodes × planning time, the estimate once fixed, else the request,
// floored at one second. Ledger.Demand sums it and the federation
// router moves it between load summaries when it migrates a job, so
// the two cannot drift.
func QueuedDemand(j job.Job, est job.Duration) int64 {
	if est < 1 {
		est = j.Request
	}
	if est < 1 {
		est = 1
	}
	return int64(j.Nodes) * est
}

// Demand sums the outstanding work on the ledger at now, in
// node-seconds: queued is Σ QueuedDemand over waiting jobs and
// minQueued the smallest of them (0 for an empty queue), remaining
// is Σ nodes × remaining predicted time over running jobs (floored at
// one second per job — a job past its predicted end still holds its
// nodes). The federation router's placement and rebalance passes
// consume these through engine.Load. Until the ledger changes,
// remaining falls by slope node-seconds per second up to and including
// until: slope is the nodes of the running jobs more than one second
// from their predicted end, and until the earliest such end minus one,
// where the floor takes over (job.MaxRuntime when there is none).
func (l *Ledger) Demand(now job.Time) (queued, minQueued, remaining int64, slope int, until job.Time) {
	for _, q := range l.queue {
		d := QueuedDemand(q.j, q.estimate)
		queued += d
		if minQueued == 0 || d < minQueued {
			minQueued = d
		}
	}
	until = job.MaxRuntime
	for _, r := range l.running {
		rem := r.predictedEnd - now
		if rem > 1 {
			slope += r.j.Nodes
			until = min(until, r.predictedEnd-1)
		} else {
			rem = 1
		}
		remaining += int64(r.j.Nodes) * rem
	}
	return queued, minQueued, remaining, slope, until
}

// QueueIndex returns the current queue position of the waiting job with
// the given ID.
func (l *Ledger) QueueIndex(id int) (int, bool) {
	for i := range l.queue {
		if l.queue[i].j.ID == id {
			return i, true
		}
	}
	return 0, false
}

// FillEstimates computes the planning estimate of every queued job that
// does not have one yet, clamped to at least one second. Deferring
// estimation to the first decision point after arrival keeps estimator
// semantics identical between drivers: completions at the same instant
// are always observed before the new arrivals are estimated.
func (l *Ledger) FillEstimates(fn func(job.Job) job.Duration) {
	for i := range l.queue {
		if l.queue[i].estimate > 0 {
			continue
		}
		est := fn(l.queue[i].j)
		if est < 1 {
			est = 1
		}
		l.queue[i].estimate = est
	}
}

// NextFinish returns the earliest pending completion time.
func (l *Ledger) NextFinish() (job.Time, bool) {
	if l.events.Len() == 0 {
		return 0, false
	}
	return l.events.peek().at, true
}

// PopDue pops the earliest completion with time <= now, freeing its
// nodes. Completions at the same instant pop in job-ID order.
func (l *Ledger) PopDue(now job.Time) (Finished, bool) {
	if l.events.Len() == 0 || l.events.peek().at > now {
		return Finished{}, false
	}
	ev := l.events.pop()
	slot := ev.slot
	r := l.running[slot]
	l.free += r.j.Nodes
	if err := l.nodes.Release(r.nodeIDs); err != nil {
		// The ledger allocated these nodes itself; a release failure is
		// a ledger bug, not a policy error.
		panic(fmt.Sprintf("sim: %v", err))
	}
	// Remove by swapping with the last; fix the heap's slot pointers.
	last := len(l.running) - 1
	if slot != last {
		l.running[slot] = l.running[last]
		l.events.reslot(last, slot)
	}
	l.running = l.running[:last]
	f := Finished{Job: r.j, Start: r.start, End: ev.at, NodeIDs: r.nodeIDs}
	if l.obs != nil {
		l.obs.ObserveFinish(f)
	}
	return f, true
}

// RunningState is one running job's full restorable state, as captured
// for a compacted checkpoint base: unlike Snapshot's RunningJob it
// carries the whole job and the concrete node assignment.
type RunningState struct {
	Job          job.Job
	Start        job.Time
	PredictedEnd job.Time
	NodeIDs      []int
}

// RunningStates returns the running set in internal slot order — the
// order Snapshot presents to policies — with full jobs and node
// assignments. Checkpoint compaction captures it; restoring the same
// sequence through Place reproduces the slot layout exactly, so a
// rebuilt ledger hands policies byte-identical snapshots.
func (l *Ledger) RunningStates() []RunningState {
	out := make([]RunningState, len(l.running))
	for i, r := range l.running {
		out[i] = RunningState{
			Job:          r.j,
			Start:        r.start,
			PredictedEnd: r.predictedEnd,
			NodeIDs:      append([]int(nil), r.nodeIDs...),
		}
	}
	return out
}

// Place restores one running job from a checkpoint base onto its exact
// recorded nodes. Node allocation is lowest-free-first, a pure function
// of the allocated set, so replaying a tail after restoring every base
// job onto its original nodes allocates identically to the full-history
// replay. Place emits no observer events: a base is committed history,
// already observed before the checkpoint (compacted rebuilds are
// verified offline with oracle.CheckRecords instead). Call it in
// RunningStates order.
func (l *Ledger) Place(j job.Job, start, predictedEnd job.Time, nodeIDs []int) error {
	if len(nodeIDs) != j.Nodes {
		return fmt.Errorf("sim: place job %d: %d node IDs for %d nodes", j.ID, len(nodeIDs), j.Nodes)
	}
	if err := l.nodes.Claim(nodeIDs); err != nil {
		return fmt.Errorf("sim: place job %d: %v", j.ID, err)
	}
	l.free -= j.Nodes
	rt := j.Runtime
	if rt < 1 {
		rt = 1
	}
	slot := len(l.running)
	l.running = append(l.running, running{
		j:            j,
		start:        start,
		predictedEnd: predictedEnd,
		nodeIDs:      append([]int(nil), nodeIDs...),
	})
	l.events.push(finishEvent{at: start + rt, slot: slot, id: j.ID})
	return nil
}

// Snapshot builds the read-only system state a policy sees at a
// decision point.
func (l *Ledger) Snapshot(now job.Time) *Snapshot {
	snap := &Snapshot{
		Now:       now,
		Capacity:  l.capacity,
		FreeNodes: l.free,
		Running:   make([]RunningJob, len(l.running)),
		Queue:     make([]WaitingJob, len(l.queue)),
	}
	for i, r := range l.running {
		snap.Running[i] = RunningJob{
			ID:           r.j.ID,
			Nodes:        r.j.Nodes,
			User:         r.j.User,
			Start:        r.start,
			PredictedEnd: r.predictedEnd,
		}
	}
	for i, q := range l.queue {
		snap.Queue[i] = WaitingJob{Job: q.j, Estimate: q.estimate, QueuePos: i}
	}
	return snap
}

// Start validates and applies a policy decision: the queue positions in
// starts begin executing at now. It allocates concrete nodes, schedules
// the completions, and compacts the queue preserving arrival order.
// policyName labels error messages.
func (l *Ledger) Start(policyName string, now job.Time, starts []int) ([]Started, error) {
	seen := make(map[int]bool, len(starts))
	need := 0
	for _, qi := range starts {
		if qi < 0 || qi >= len(l.queue) {
			return nil, fmt.Errorf("sim: policy %q returned invalid queue index %d", policyName, qi)
		}
		if seen[qi] {
			return nil, fmt.Errorf("sim: policy %q returned duplicate queue index %d", policyName, qi)
		}
		seen[qi] = true
		need += l.queue[qi].j.Nodes
	}
	if need > l.free {
		return nil, fmt.Errorf("sim: policy %q started %d nodes with only %d free at t=%d",
			policyName, need, l.free, now)
	}
	out := make([]Started, 0, len(starts))
	for _, qi := range starts {
		q := l.queue[qi]
		rt := q.j.Runtime
		if rt < 1 {
			rt = 1 // zero-length jobs still occupy the machine for an instant
		}
		est := q.estimate
		if est < 1 {
			est = 1
		}
		l.free -= q.j.Nodes
		ids, err := l.nodes.Alloc(q.j.Nodes)
		if err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
		slot := len(l.running)
		l.running = append(l.running, running{
			j:            q.j,
			start:        now,
			predictedEnd: now + est,
			nodeIDs:      ids,
		})
		l.events.push(finishEvent{at: now + rt, slot: slot, id: q.j.ID})
		out = append(out, Started{Job: q.j, Start: now, PredictedEnd: now + est, NodeIDs: ids})
	}
	// Compact the queue, preserving arrival order.
	kept := l.queue[:0]
	for qi := range l.queue {
		if !seen[qi] {
			kept = append(kept, l.queue[qi])
		}
	}
	l.queue = kept
	if l.obs != nil {
		for _, s := range out {
			l.obs.ObserveStart(now, s)
		}
	}
	return out, nil
}
