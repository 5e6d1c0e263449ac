// Package sim implements the event-driven simulator used to evaluate
// scheduling policies: jobs arrive from a trace, a non-preemptive policy
// is consulted at every decision point (each job arrival and each job
// completion), and per-job start/end records plus queue statistics are
// collected. The methodology matches the paper (Section 4): each
// monthly simulation carries a warm-up and cool-down margin, and
// measures are later computed only over the jobs flagged as measured.
//
// The queue/allocation bookkeeping itself lives in Ledger, which the
// online engine (internal/engine) shares, so offline simulation and
// online serving produce identical schedules from identical decision
// points.
package sim

import (
	"fmt"

	"schedsearch/internal/cluster"
	"schedsearch/internal/job"
)

// WaitingJob is a queued job as visible to a scheduling policy. Estimate
// is the runtime the policy is allowed to use for planning: the actual
// runtime when the simulation runs with perfect information (R* = T in
// the paper), or the user-requested runtime (R* = R).
type WaitingJob struct {
	Job      job.Job
	Estimate job.Duration
	// QueuePos is the job's index in Snapshot.Queue; policies return
	// these indices from Decide.
	QueuePos int
}

// PlanEstimate is the duration a plan reserves for the job: Estimate,
// floored at one second (the profile cannot hold an empty reservation).
func (w *WaitingJob) PlanEstimate() job.Duration {
	if w.Estimate < 1 {
		return 1
	}
	return w.Estimate
}

// RunningJob is an executing job as visible to a policy: the policy sees
// the predicted end (start + estimate), never the actual end.
type RunningJob struct {
	ID           int
	Nodes        int
	User         int
	Start        job.Time
	PredictedEnd job.Time
}

// Snapshot is the system state handed to a policy at a decision point.
// Policies must treat it as read-only.
type Snapshot struct {
	Now       job.Time
	Capacity  int
	FreeNodes int
	Running   []RunningJob
	Queue     []WaitingJob
}

// FillProfile resets p (the zero Profile is fine) to the availability
// profile the snapshot implies: capacity minus each running job until
// its predicted end. Every planner — backfill, search, scoring — builds
// its profile here.
func (snap *Snapshot) FillProfile(p *cluster.Profile) {
	p.Reset(snap.Capacity, snap.Now)
	for _, r := range snap.Running {
		end := r.PredictedEnd
		if end <= snap.Now {
			// The job has exhausted its estimate but has not finished;
			// plan as if it ends imminently.
			end = snap.Now + 1
		}
		p.Place(snap.Now, r.Nodes, end-snap.Now)
	}
}

// Policy decides, at each decision point, which queued jobs start now.
type Policy interface {
	// Name identifies the policy in reports (e.g. "FCFS-backfill",
	// "DDS/lxf/dynB").
	Name() string
	// Decide returns the QueuePos indices of the jobs to start at
	// snap.Now. The engine verifies feasibility; returning an
	// infeasible set is a programming error and fails the simulation.
	// The slice may be the policy's own storage, reused by its next
	// Decide: a caller that keeps it past that copies it.
	Decide(snap *Snapshot) []int
}

// Record is the outcome of one job.
type Record struct {
	Job   job.Job
	Start job.Time
	End   job.Time
	// NodeIDs are the concrete nodes the job ran on (lowest-first
	// allocation), as a resource manager would report.
	NodeIDs []int
	// Measured marks jobs inside the measurement window (submitted
	// during the month proper, not warm-up or cool-down).
	Measured bool
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy  string
	Records []Record
	// Decisions is the number of decision points at which the policy
	// was consulted with a non-empty queue.
	Decisions int
	// AvgQueueLen is the time-averaged queue length over the
	// measurement window.
	AvgQueueLen float64
	// MaxQueueLen is the maximum queue length observed in the window.
	MaxQueueLen int
	// Capacity and the measured span (QueueStats.Window: the input's
	// window, or first arrival to last event without one), so measures
	// like utilization can be derived from the result alone.
	Capacity                 int
	MeasureStart, MeasureEnd job.Time
}

// Input is a simulation workload: jobs sorted by submit time plus the
// machine and measurement configuration.
type Input struct {
	Capacity int
	Jobs     []job.Job
	// Measured reports whether the job with the given ID belongs to
	// the measurement window. A nil map measures every job.
	Measured map[int]bool
	// MeasureStart/MeasureEnd bound the queue-length integration
	// window; if both are zero the whole run is integrated.
	MeasureStart, MeasureEnd job.Time
	// UseRequested makes policies see user-requested runtimes
	// (R* = R) instead of actual runtimes (R* = T).
	UseRequested bool
	// Estimator, when non-nil, overrides both modes: each arriving
	// job's estimate is Estimate(job), and Observe(job) is called at
	// every completion (before any same-instant arrivals are
	// estimated). See internal/predict for implementations.
	Estimator Estimator
	// Observer, when non-nil, receives every committed scheduling event
	// (the correctness oracle in internal/oracle implements it).
	Observer Observer
}

// Estimator produces runtime estimates for arriving jobs and learns
// from completions (the runtime-prediction extension).
type Estimator interface {
	Estimate(j job.Job) job.Duration
	Observe(j job.Job)
}

// Run simulates the input under the policy and returns the result.
func Run(in Input, p Policy) (*Result, error) {
	e, err := newEngine(in, p)
	if err != nil {
		return nil, err
	}
	return e.run()
}

type queued struct {
	j        job.Job
	estimate job.Duration
}

type running struct {
	j            job.Job
	start        job.Time
	predictedEnd job.Time
	nodeIDs      []int
}

type engine struct {
	in     Input
	policy Policy
	// name labels the run in errors and the Result: the policy's name,
	// read once.
	name string

	clock   job.Time
	nextIdx int // next arrival in in.Jobs
	l       *Ledger

	records   []Record
	decisions int
	q         QueueStats
}

func newEngine(in Input, p Policy) (*engine, error) {
	l, err := NewLedger(in.Capacity)
	if err != nil {
		return nil, err
	}
	for i := range in.Jobs {
		if err := in.Jobs[i].Validate(in.Capacity); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if i > 0 && in.Jobs[i].Submit < in.Jobs[i-1].Submit {
			return nil, fmt.Errorf("sim: jobs not sorted by submit at index %d", i)
		}
	}
	l.SetObserver(in.Observer)
	e := &engine{
		in:     in,
		policy: p,
		l:      l,
		q:      NewQueueStats(in.MeasureStart, in.MeasureEnd),
		name:   p.Name(),
	}
	return e, nil
}

func (e *engine) measured(id int) bool {
	if e.in.Measured == nil {
		return true
	}
	return e.in.Measured[id]
}

func (e *engine) estimate(j job.Job) job.Duration {
	est := j.Runtime
	switch {
	case e.in.Estimator != nil:
		est = e.in.Estimator.Estimate(j)
	case e.in.UseRequested:
		est = j.Request
	}
	if est < 1 {
		est = 1
	}
	return est
}

// run drives the step/apply pair with the configured policy — the
// classic closed-loop simulation: step surfaces a decision point, the
// policy decides, apply commits it.
func (e *engine) run() (*Result, error) {
	for {
		snap, err := e.step()
		if err != nil {
			return nil, err
		}
		if snap == nil {
			return e.result(), nil
		}
		if err := e.apply(e.policy.Decide(snap)); err != nil {
			return nil, err
		}
	}
}

// step advances the simulation to the next decision point: events are
// consumed in time order (finishes at an instant strictly before that
// instant's arrivals) until the queue is non-empty, and the policy-
// visible snapshot is returned. A nil snapshot with a nil error means
// the episode is complete (every job has finished); call result().
// Each non-nil snapshot is one decision the caller must commit with
// apply before stepping again.
func (e *engine) step() (*Snapshot, error) {
	for {
		// Next event time: earliest of next arrival and next finish.
		var next job.Time
		haveArr := e.nextIdx < len(e.in.Jobs)
		finAt, haveFin := e.l.NextFinish()
		switch {
		case haveArr && haveFin:
			next = min64(e.in.Jobs[e.nextIdx].Submit, finAt)
		case haveArr:
			next = e.in.Jobs[e.nextIdx].Submit
		case haveFin:
			next = finAt
		default:
			// No more events. Every job must have been started.
			if e.l.QueueLen() > 0 {
				return nil, fmt.Errorf("sim: policy %q stalled with %d queued jobs and idle machine",
					e.name, e.l.QueueLen())
			}
			return nil, nil
		}

		e.q.Advance(next, e.l.QueueLen())
		e.clock = next

		// Process all finishes at this instant first (free the nodes),
		// then all arrivals.
		for {
			f, ok := e.l.PopDue(e.clock)
			if !ok {
				break
			}
			if e.in.Estimator != nil {
				e.in.Estimator.Observe(f.Job)
			}
			e.records = append(e.records, Record{
				Job:      f.Job,
				Start:    f.Start,
				End:      f.End,
				NodeIDs:  f.NodeIDs,
				Measured: e.measured(f.Job.ID),
			})
		}
		for e.nextIdx < len(e.in.Jobs) && e.in.Jobs[e.nextIdx].Submit == e.clock {
			j := e.in.Jobs[e.nextIdx]
			e.nextIdx++
			e.l.Enqueue(j, e.estimate(j))
		}
		if e.l.QueueLen() > 0 {
			e.decisions++
			return e.l.Snapshot(e.clock), nil
		}
	}
}

// apply commits one decision at the current decision point: the starts
// are the QueuePos indices of the snapshot step returned. An empty
// decision is legal only while the machine is busy (a policy may wait
// for nodes to free); on an idle machine it would stall the clock.
func (e *engine) apply(starts []int) error {
	if len(starts) == 0 {
		if e.l.RunningLen() == 0 {
			return fmt.Errorf("sim: policy %q started nothing on an idle machine with %d queued jobs at t=%d",
				e.name, e.l.QueueLen(), e.clock)
		}
	} else if _, err := e.l.Start(e.name, e.clock, starts); err != nil {
		return err
	}
	e.q.Sample(e.clock, e.l.QueueLen())
	return nil
}

func (e *engine) result() *Result {
	first := e.q.Last
	if len(e.in.Jobs) > 0 {
		first = e.in.Jobs[0].Submit
	}
	start, end := e.q.Window(first, e.q.Last)
	return &Result{
		Policy:       e.name,
		Records:      e.records,
		Decisions:    e.decisions,
		AvgQueueLen:  e.q.AvgQueueLen(e.clock, start, end, e.l.QueueLen()),
		MaxQueueLen:  e.q.Max,
		Capacity:     e.in.Capacity,
		MeasureStart: start,
		MeasureEnd:   end,
	}
}

func min64(a, b job.Time) job.Time {
	if a < b {
		return a
	}
	return b
}
