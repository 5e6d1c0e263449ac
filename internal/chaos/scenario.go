package chaos

import (
	"fmt"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// target is what a scenario runs against. Every method is called on the
// virtual-clock driver goroutine: timers fire synchronously inside the
// drive, and so does everything a target does in answer, wire included.
type target interface {
	// submit delivers one instant's planned submissions, in plan order,
	// and returns each one's error.
	submit(jobs []job.Job) []error
	// open reports whether a legitimate submission's error leaves the
	// job's absence excused — a wire failure whose client was told to
	// retry, or a quota refusal — rather than failing the run.
	open(err error) bool
	// job looks a job up once the run is over.
	job(id int) (engine.JobStatus, bool)
	// crash draws FaultCrashRebuild's victim from rng and returns the
	// fault's two halves: kill at the plan's crash instant, restart from
	// what the victim had committed downFor later (0: the same instant).
	crash(rng *stats.RNG) (kill func(), restart func() error, downFor job.Duration)
	// err is the target's own fatal error after the drive, if any.
	err() error
	// verify is the target's oracle over the committed schedule, given
	// the legitimate jobs the conservation sweep found done.
	verify(accepted []job.Job) error
}

// outcome is what the runner itself learned: Accepted, Rejected and
// Rebuilt; the schedule and the rest are read off the target.
type outcome struct {
	Result
	excused int // legitimate submissions left open (see target.open)
}

// runScenario is the one scenario driver: build the plan (widths drawn
// against planCap), let build construct the target on the scenario's
// clock and policy factory, schedule each instant's submits as one
// delivery, arm the crash and — partition, when the target has a wire to
// fault — FaultPartition's timers, drive the clock, plain or in jumps,
// then sweep conservation and hand the survivors to the target's oracle.
// The first unexpected outcome ends the drive.
func runScenario(cfg Config, planCap int, build func(*engine.VirtualClock, func() sim.Policy) (target, error),
	partition func(plan, *engine.VirtualClock)) (*outcome, error) {
	planCfg := cfg
	planCfg.Capacity = planCap
	p := buildPlan(planCfg)
	vc := engine.NewVirtualClock()
	newPolicy := func() sim.Policy {
		if cfg.Faults&(FaultPolicyPanic|FaultPolicyLatency) == 0 {
			return cfg.Policy()
		}
		return &FlakyPolicy{Inner: cfg.Policy(),
			Panic: cfg.Faults&FaultPolicyPanic != 0, Slow: cfg.Faults&FaultPolicyLatency != 0}
	}
	t, err := build(vc, newPolicy)
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	var failure error // first unexpected submit outcome or restart error
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
	}
	open := make(map[int]bool) // legitimate submissions left open
	deliver := func(batch []plannedSubmit) {
		specs := make([]job.Job, len(batch))
		for i, ps := range batch {
			specs[i] = ps.spec
		}
		for i, err := range t.submit(specs) {
			ps := batch[i]
			switch {
			case ps.wantErr && err == nil:
				// Unless the original submission of this ID was left open
				// and never admitted: then this "duplicate" played the
				// client's retry and won the slot.
				if !open[ps.spec.ID] {
					fail(fmt.Errorf("chaos: injected-fault submission of job %d was accepted", ps.spec.ID))
				}
				delete(open, ps.spec.ID)
			case ps.wantErr:
				out.Rejected++
			case err == nil:
			case t.open(err):
				// The job may or may not have landed; the sweep holds it to
				// "definitively absent, or admitted exactly once".
				open[ps.spec.ID] = true
				out.excused++
			default:
				fail(fmt.Errorf("chaos: legitimate job %d rejected: %w", ps.spec.ID, err))
			}
		}
	}
	// One timer per instant, registered where the plan first names it,
	// delivers that instant's submissions in plan order.
	at := make(map[job.Time][]plannedSubmit)
	for _, ps := range p.submits {
		if at[ps.at] == nil {
			vc.AfterFunc(ps.at, func() { deliver(at[ps.at]) })
		}
		at[ps.at] = append(at[ps.at], ps)
	}
	if cfg.Faults&FaultCrashRebuild != 0 {
		kill, restart, downFor := t.crash(stats.NewRNG(cfg.Seed, 104))
		// Registered back to back, the two timers of a zero outage fire
		// with nothing between them.
		vc.AfterFunc(p.crashAt, kill)
		vc.AfterFunc(p.crashAt+job.Time(downFor), func() {
			if err := restart(); err != nil {
				fail(fmt.Errorf("chaos: restart after the crash at t=%d: %w", p.crashAt, err))
				return
			}
			out.Rebuilt = true
		})
	}
	if partition != nil && cfg.Faults&FaultPartition != 0 {
		partition(p, vc)
	}

	// Drive the clock from timer to timer. Under FaultClockJumps some
	// steps overshoot far past the next timer, forcing the engine to
	// absorb a whole span of completions and decisions inside one
	// advancement; timer callbacks still observe their exact due times, so
	// the committed schedule must not change. The horizon — every
	// submission's gap (< 900) and runtime (<= 7200) end to end, with room
	// for the outage — is later than any schedule can end: a run still
	// ticking there (a shard that never came back keeps the router's pass
	// alive) never settles, and says so instead of hanging.
	var jumps *stats.RNG
	if cfg.Faults&FaultClockJumps != 0 {
		jumps = stats.NewRNG(cfg.Seed, 103)
	}
	horizon := job.Time(1_000_000 + 8100*len(p.submits))
	for next, ok := vc.NextAt(); ok && failure == nil; next, ok = vc.NextAt() {
		if next > horizon {
			fail(fmt.Errorf("chaos: scenario still running at t=%d, past any schedule's end", next))
		} else if jumps != nil && jumps.IntN(3) == 0 {
			next += job.Time(jumps.IntN(200000))
		}
		vc.AdvanceTo(next)
	}

	if failure != nil {
		return nil, failure
	}
	if err := t.err(); err != nil {
		return nil, err
	}
	if out.Accepted, err = sweep(cfg.Jobs, t.job, func(id int) bool { return open[id] }); err != nil {
		return nil, fmt.Errorf("%w (%d submissions left open)", err, out.excused)
	}
	return out, t.verify(out.Accepted)
}

// each delivers jobs one at a time through submit, in order.
func each(jobs []job.Job, submit func(job.Job) error) []error {
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		errs[i] = submit(j)
	}
	return errs
}

// sweep is the conservation check every tier ends with: each legitimate
// job 1..jobs is known and done — exactly once is the oracle's business
// — unless mayMiss excuses its absence (a wire-failed or quota-refused
// submission). It returns the jobs found, in ID order.
func sweep(jobs int, lookup func(id int) (engine.JobStatus, bool), mayMiss func(id int) bool) ([]job.Job, error) {
	var accepted []job.Job
	for id := 1; id <= jobs; id++ {
		st, ok := lookup(id)
		if !ok && mayMiss(id) {
			continue
		}
		if !ok {
			return nil, fmt.Errorf("chaos: job %d lost", id)
		}
		if st.State != engine.StateDone {
			return nil, fmt.Errorf("chaos: job %d still %v after the run", id, st.State)
		}
		accepted = append(accepted, st.Job)
	}
	return accepted, nil
}
