// Package oracle is an independent schedule-invariant checker for the
// simulator and the online engine. It deliberately shares no
// bookkeeping with sim.Ledger: it maintains its own per-node busy map
// and job lifecycle table from the raw event stream, so a ledger bug
// cannot hide itself from the check.
//
// Two modes:
//
//   - Live: an Oracle implements sim.Observer and is attached through
//     sim.Input.Observer or engine.Config.Observer; every committed
//     event is validated as it happens, and Err/Final report the
//     verdict.
//   - Replay: CheckRecords sweeps a finished run's completion records
//     against the submitted jobs (what the chaos runner, the benchmark
//     and the golden-trace tests use).
//
// Invariants enforced (the non-preemptive space-sharing contract the
// paper's results depend on):
//
//  1. No node oversubscription: every node hosts at most one job at any
//     instant, node IDs are in [0, capacity), and a job holds exactly
//     Job.Nodes distinct nodes.
//  2. No preemption: a job runs contiguously from its single start to
//     its single end, End = Start + max(1, Runtime).
//  3. No start before arrival: Start >= Submit.
//  4. Job conservation: every admitted job starts at most once and
//     completes exactly once by the end of the run; no phantom jobs.
//  5. Monotone timestamps: submissions, decision (start) timestamps and
//     completions are each non-decreasing in commit order.
package oracle

import (
	"fmt"
	"sort"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Violation is one invariant breach.
type Violation struct {
	// Invariant is a short stable tag ("oversubscription",
	// "preemption", "start-before-arrival", "conservation",
	// "monotonicity", "malformed").
	Invariant string
	// JobID is the offending job, 0 if not job-specific.
	JobID int
	// Detail is the human-readable specifics.
	Detail string
}

func (v *Violation) Error() string {
	if v.JobID != 0 {
		return fmt.Sprintf("oracle: %s: job %d: %s", v.Invariant, v.JobID, v.Detail)
	}
	return fmt.Sprintf("oracle: %s: %s", v.Invariant, v.Detail)
}

// maxViolations bounds how many violations an Oracle accumulates, so a
// systematically broken run cannot consume unbounded memory.
const maxViolations = 64

// Oracle is the live checker; attach it via sim.Input.Observer or
// engine.Config.Observer. It is not goroutine-safe on its own — the
// drivers already serialize observer callbacks (see sim.Observer).
type Oracle struct {
	capacity int

	submitted map[int]job.Job // admitted jobs by ID
	started   map[int]started // currently running
	finished  map[int]bool    // completed
	nodeBusy  []int           // node ID -> job ID occupying it, 0 = free
	freeNodes int

	lastSubmit job.Time
	lastStart  job.Time
	lastFinish job.Time

	violations []*Violation
}

type started struct {
	at      job.Time
	nodeIDs []int
}

// New returns a live oracle for a machine of the given capacity.
func New(capacity int) *Oracle {
	return &Oracle{
		capacity:  capacity,
		submitted: make(map[int]job.Job),
		started:   make(map[int]started),
		finished:  make(map[int]bool),
		nodeBusy:  make([]int, max(capacity, 0)),
		freeNodes: capacity,
	}
}

func (o *Oracle) violate(invariant string, id int, format string, args ...any) {
	if len(o.violations) >= maxViolations {
		return
	}
	o.violations = append(o.violations, &Violation{
		Invariant: invariant,
		JobID:     id,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// ObserveSubmit implements sim.Observer.
func (o *Oracle) ObserveSubmit(j job.Job) {
	if _, dup := o.submitted[j.ID]; dup {
		o.violate("conservation", j.ID, "admitted twice")
		return
	}
	if j.Submit < o.lastSubmit {
		o.violate("monotonicity", j.ID, "submitted at t=%d after a submission at t=%d", j.Submit, o.lastSubmit)
	} else {
		o.lastSubmit = j.Submit
	}
	if err := j.Validate(o.capacity); err != nil {
		o.violate("malformed", j.ID, "admitted invalid job: %v", err)
	}
	o.submitted[j.ID] = j
}

// ObserveStart implements sim.Observer.
func (o *Oracle) ObserveStart(now job.Time, s sim.Started) {
	id := s.Job.ID
	if now < o.lastStart {
		o.violate("monotonicity", id, "decision at t=%d after a decision at t=%d", now, o.lastStart)
	} else {
		o.lastStart = now
	}
	if s.Start != now {
		o.violate("monotonicity", id, "dispatched for t=%d at decision time t=%d", s.Start, now)
	}
	j, known := o.submitted[id]
	switch {
	case !known:
		o.violate("conservation", id, "started but never admitted")
	case o.finished[id]:
		o.violate("conservation", id, "started after completing")
	case now < j.Submit:
		o.violate("start-before-arrival", id, "started at t=%d, submitted at t=%d", now, j.Submit)
	}
	if _, running := o.started[id]; running {
		o.violate("conservation", id, "started twice")
		return
	}
	want := s.Job.Nodes
	if known {
		want = j.Nodes
	}
	if len(s.NodeIDs) != want {
		o.violate("oversubscription", id, "allocated %d nodes for a %d-node job", len(s.NodeIDs), want)
	}
	for _, n := range s.NodeIDs {
		if n < 0 || n >= o.capacity {
			o.violate("oversubscription", id, "allocated node %d outside [0,%d)", n, o.capacity)
			continue
		}
		if holder := o.nodeBusy[n]; holder != 0 {
			o.violate("oversubscription", id, "allocated node %d already held by job %d", n, holder)
			continue
		}
		o.nodeBusy[n] = id
		o.freeNodes--
	}
	if o.freeNodes < 0 {
		o.violate("oversubscription", id, "machine oversubscribed: %d nodes over capacity %d", -o.freeNodes, o.capacity)
	}
	o.started[id] = started{at: s.Start, nodeIDs: append([]int(nil), s.NodeIDs...)}
}

// ObserveFinish implements sim.Observer.
func (o *Oracle) ObserveFinish(f sim.Finished) {
	id := f.Job.ID
	if f.End < o.lastFinish {
		o.violate("monotonicity", id, "completed at t=%d after a completion at t=%d", f.End, o.lastFinish)
	} else {
		o.lastFinish = f.End
	}
	st, running := o.started[id]
	if !running {
		if o.finished[id] {
			o.violate("conservation", id, "completed twice")
		} else {
			o.violate("conservation", id, "completed without starting")
		}
		return
	}
	if f.Start != st.at {
		o.violate("preemption", id, "completion reports start t=%d, dispatch was t=%d", f.Start, st.at)
	}
	rt := f.Job.Runtime
	if rt < 1 {
		rt = 1
	}
	if f.End != f.Start+rt {
		o.violate("preemption", id, "ran [%d,%d), runtime %d (job must run contiguously)", f.Start, f.End, f.Job.Runtime)
	}
	for _, n := range st.nodeIDs {
		if n >= 0 && n < o.capacity && o.nodeBusy[n] == id {
			o.nodeBusy[n] = 0
			o.freeNodes++
		}
	}
	delete(o.started, id)
	o.finished[id] = true
}

// ObserveWithdraw implements sim.WithdrawObserver: a federation
// migration removed a still-waiting job from this shard's queue. The
// job leaves the oracle's books entirely — it is re-admitted (and
// re-checked) wherever it lands. Withdrawing a job that is running,
// finished, or was never admitted is a violation.
func (o *Oracle) ObserveWithdraw(j job.Job) {
	id := j.ID
	switch {
	case o.finished[id]:
		o.violate("conservation", id, "withdrawn after completing")
	default:
		if _, running := o.started[id]; running {
			o.violate("preemption", id, "withdrawn while running")
			return
		}
		if _, known := o.submitted[id]; !known {
			o.violate("conservation", id, "withdrawn but never admitted")
			return
		}
		delete(o.submitted, id)
	}
}

// Err returns the first violation observed so far, or nil.
func (o *Oracle) Err() error {
	if len(o.violations) == 0 {
		return nil
	}
	return o.violations[0]
}

// Violations returns every violation observed so far (capped).
func (o *Oracle) Violations() []*Violation {
	return append([]*Violation(nil), o.violations...)
}

// Final checks end-of-run conservation on top of the live invariants:
// every admitted job must have completed (nothing waiting, nothing
// running). It returns the first violation, or nil.
func (o *Oracle) Final() error {
	if err := o.Err(); err != nil {
		return err
	}
	// Deterministic order for the error message.
	var pending []int
	for id := range o.submitted {
		if !o.finished[id] {
			pending = append(pending, id)
		}
	}
	if len(pending) > 0 {
		sort.Ints(pending)
		return &Violation{Invariant: "conservation", JobID: pending[0],
			Detail: fmt.Sprintf("admitted but never completed (%d jobs pending)", len(pending))}
	}
	return nil
}

// CheckRecords replays a finished run's completion records against the
// submitted jobs and checks every invariant a record stream can
// witness: conservation (exactly one record per submitted job, no
// phantoms), well-formed allocations, no start-before-arrival, no
// preemption, completion-order monotonicity, and — by sweeping start
// and end events — that no node is ever shared and total usage never
// exceeds capacity. submitted may be nil to skip the
// record-vs-submission matching (every job in records is then treated
// as admitted).
func CheckRecords(capacity int, submitted []job.Job, records []sim.Record) error {
	if capacity < 1 {
		return &Violation{Invariant: "malformed", Detail: fmt.Sprintf("capacity %d", capacity)}
	}
	byID := make(map[int]job.Job, len(submitted))
	for _, j := range submitted {
		if _, dup := byID[j.ID]; dup {
			return &Violation{Invariant: "conservation", JobID: j.ID, Detail: "submitted twice"}
		}
		byID[j.ID] = j
	}
	seen := make(map[int]bool, len(records))
	lastEnd := job.Time(-1 << 62)
	lastID := 0
	for _, r := range records {
		id := r.Job.ID
		if seen[id] {
			return &Violation{Invariant: "conservation", JobID: id, Detail: "completed twice"}
		}
		seen[id] = true
		if submitted != nil {
			sub, ok := byID[id]
			if !ok {
				return &Violation{Invariant: "conservation", JobID: id, Detail: "completed but never submitted"}
			}
			if sub.Nodes != r.Job.Nodes || sub.Submit != r.Job.Submit || sub.Runtime != r.Job.Runtime {
				return &Violation{Invariant: "conservation", JobID: id, Detail: "record job differs from submitted job"}
			}
		}
		if r.Job.Nodes < 1 || r.Job.Nodes > capacity {
			return &Violation{Invariant: "malformed", JobID: id, Detail: fmt.Sprintf("%d nodes on a %d-node machine", r.Job.Nodes, capacity)}
		}
		if r.Start < r.Job.Submit {
			return &Violation{Invariant: "start-before-arrival", JobID: id,
				Detail: fmt.Sprintf("started at t=%d, submitted at t=%d", r.Start, r.Job.Submit)}
		}
		rt := r.Job.Runtime
		if rt < 1 {
			rt = 1
		}
		if r.End != r.Start+rt {
			return &Violation{Invariant: "preemption", JobID: id,
				Detail: fmt.Sprintf("ran [%d,%d), runtime %d", r.Start, r.End, r.Job.Runtime)}
		}
		if r.End < lastEnd || (r.End == lastEnd && id < lastID) {
			return &Violation{Invariant: "monotonicity", JobID: id,
				Detail: fmt.Sprintf("completion record out of (time, ID) order after job %d", lastID)}
		}
		lastEnd, lastID = r.End, id
		if len(r.NodeIDs) > 0 {
			if len(r.NodeIDs) != r.Job.Nodes {
				return &Violation{Invariant: "oversubscription", JobID: id,
					Detail: fmt.Sprintf("allocated %d nodes for a %d-node job", len(r.NodeIDs), r.Job.Nodes)}
			}
			nodeSeen := make(map[int]bool, len(r.NodeIDs))
			for _, n := range r.NodeIDs {
				if n < 0 || n >= capacity {
					return &Violation{Invariant: "oversubscription", JobID: id,
						Detail: fmt.Sprintf("allocated node %d outside [0,%d)", n, capacity)}
				}
				if nodeSeen[n] {
					return &Violation{Invariant: "oversubscription", JobID: id,
						Detail: fmt.Sprintf("allocated node %d twice", n)}
				}
				nodeSeen[n] = true
			}
		}
	}
	if submitted != nil {
		for _, j := range submitted {
			if !seen[j.ID] {
				return &Violation{Invariant: "conservation", JobID: j.ID, Detail: "submitted but never completed"}
			}
		}
	}
	return checkNodeTimeline(capacity, records)
}

// checkNodeTimeline sweeps every record's [Start, End) interval and
// asserts that no node hosts two jobs at once and total usage never
// exceeds capacity. Records without node IDs (external results) fall
// back to the capacity check only.
func checkNodeTimeline(capacity int, records []sim.Record) error {
	type ev struct {
		at    job.Time
		delta int // +Nodes on start, -Nodes on end
		rec   int
	}
	evs := make([]ev, 0, 2*len(records))
	for i, r := range records {
		evs = append(evs,
			ev{at: r.Start, delta: r.Job.Nodes, rec: i},
			ev{at: r.End, delta: -r.Job.Nodes, rec: i})
	}
	// Releases sort before acquisitions at the same instant: a node a
	// job frees at t may be reused by a job starting at t.
	sort.Slice(evs, func(i, k int) bool {
		if evs[i].at != evs[k].at {
			return evs[i].at < evs[k].at
		}
		return evs[i].delta < evs[k].delta
	})
	used := 0
	holder := make(map[int]int, capacity) // node -> record index + 1
	for _, e := range evs {
		r := records[e.rec]
		if e.delta < 0 {
			used += e.delta
			for _, n := range r.NodeIDs {
				delete(holder, n)
			}
			continue
		}
		used += e.delta
		if used > capacity {
			return &Violation{Invariant: "oversubscription", JobID: r.Job.ID,
				Detail: fmt.Sprintf("%d nodes in use on a %d-node machine at t=%d", used, capacity, e.at)}
		}
		for _, n := range r.NodeIDs {
			if prev, busy := holder[n]; busy {
				return &Violation{Invariant: "oversubscription", JobID: r.Job.ID,
					Detail: fmt.Sprintf("node %d shared with job %d at t=%d", n, records[prev-1].Job.ID, e.at)}
			}
			holder[n] = e.rec + 1
		}
	}
	return nil
}
