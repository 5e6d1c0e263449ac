// Package chaos is a deterministic, seeded fault injector for the
// online scheduling engine. It drives an engine on a virtual clock
// through a generated workload while injecting faults through the
// engine's public seams — the Clock (jump advancement), the submission
// API (bursts, duplicate IDs, reordered and hostile specs) and the
// Policy interface (injected Decide panics and artificial latency) —
// plus a mid-run crash that rebuilds the engine from its committed
// event journal.
//
// Everything is derived from Config.Seed through independent
// stats.RNG streams, so a scenario replays bit-identically: same seed,
// same faults, same committed schedule. The correctness oracle
// (internal/oracle) observes every committed event and the final
// records are swept again with oracle.CheckRecords, so a Run that
// returns a Result with a nil error is a machine-checked certificate
// that the invariants held under that fault mix.
//
// Run, RunFederation, RunFederationRemote and RunIngest are one
// scenario runner (scenario.go) over four targets — the bare engine, the
// in-process router, a router whose shards are engine+server
// "processes" on file journals behind an in-memory wire (remote.go), and
// the engine behind the batched accept queue (ingest.go).
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// Fault is a bitmask of injectable fault classes.
type Fault uint

const (
	// FaultClockJumps drives the virtual clock in irregular seeded
	// leaps that skip far past pending timers instead of stepping
	// event-to-event.
	FaultClockJumps Fault = 1 << iota
	// FaultBurstSubmits collapses arrival gaps so many jobs land on
	// the same instant and a single coalesced decision must absorb
	// the burst.
	FaultBurstSubmits
	// FaultDuplicateIDs re-submits already-admitted job IDs; the
	// engine must reject every duplicate without disturbing state.
	FaultDuplicateIDs
	// FaultReorderedSubmits delivers job specs out of their generated
	// order, so IDs arrive non-monotonically.
	FaultReorderedSubmits
	// FaultHostileSpecs submits malformed jobs (zero or oversized node
	// counts, negative runtimes, invalid IDs) that must all be
	// rejected cleanly.
	FaultHostileSpecs
	// FaultPolicyPanic makes Decide panic on a seeded cadence; the
	// engine must recover with its FCFS fallback.
	FaultPolicyPanic
	// FaultPolicyLatency adds wall-clock latency inside Decide
	// (scheduling outcomes on a virtual clock must not change).
	FaultPolicyLatency
	// FaultCrashRebuild kills the engine mid-run and resumes from a
	// Checkpoint via engine.Rebuild on the same clock.
	FaultCrashRebuild
	// FaultPartition injects wire faults between the router and one
	// out-of-process shard (connection refused, black-hole timeouts,
	// responses dropped after delivery). Only RunFederationRemote
	// honors it; it is deliberately NOT part of AllFaults so the
	// in-process soak matrices keep their historical fault mix.
	FaultPartition
	// FaultSaturation lands more jobs than the accept queue's bound on
	// one instant, delivered against a stalled backend: the queue must
	// shed whole batches with ErrSaturated, and every shed batch, retried
	// like a client honoring Retry-After, must land. The four ingest
	// faults, from here on, are RunIngest's; like FaultPartition they
	// stay outside AllFaults.
	FaultSaturation
	// FaultSlowClients has some clients deliver their batch one item per
	// commit group.
	FaultSlowClients
	// FaultDisconnects has some clients abandon their ticket without
	// reading the results; the batch must still commit (admission is not
	// tied to the connection).
	FaultDisconnects
	// FaultQuotaStorm turns on per-user quotas and hands a run of jobs,
	// all arriving at one instant, to one hot user: items past the
	// user's token bucket must be refused with ErrQuota. Every other job
	// is its own user, so nothing else can empty a bucket.
	FaultQuotaStorm
)

// AllFaults enables every fault class.
const AllFaults = FaultClockJumps | FaultBurstSubmits | FaultDuplicateIDs |
	FaultReorderedSubmits | FaultHostileSpecs | FaultPolicyPanic |
	FaultPolicyLatency | FaultCrashRebuild

// IngestFaults enables every fault class of the accept queue.
const IngestFaults = FaultSaturation | FaultSlowClients | FaultDisconnects | FaultQuotaStorm

// faultNames names the Fault bits in bit order.
var faultNames = []string{"clock-jumps", "burst-submits", "duplicate-ids", "reordered-submits",
	"hostile-specs", "policy-panic", "policy-latency", "crash-rebuild", "partition",
	"saturation", "slow-clients", "disconnects", "quota-storm"}

// String names the enabled fault classes, "none" for none.
func (f Fault) String() string {
	var set []string
	for i, name := range faultNames {
		if f&(1<<i) != 0 {
			set = append(set, name)
		}
	}
	if len(set) == 0 {
		return "none"
	}
	return strings.Join(set, "+")
}

// Config describes one chaos scenario.
type Config struct {
	// Seed derives every random choice in the scenario.
	Seed uint64
	// Capacity is the machine size in nodes (default 64).
	Capacity int
	// Jobs is the number of legitimate jobs in the workload
	// (default 120).
	Jobs int
	// Faults selects the injected fault classes.
	Faults Fault
	// Policy (required) constructs the scheduling policy; it is called
	// once per engine incarnation (fresh instance after a crash-rebuild,
	// like a restarted process).
	Policy func() sim.Policy
}

const (
	// panicEvery is FaultPolicyPanic's cadence: every n-th Decide panics.
	panicEvery = 5
	// policyLatency is FaultPolicyLatency's wall-clock Decide latency.
	policyLatency = 100 * time.Microsecond
)

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Policy == nil {
		return out, errors.New("chaos: Config.Policy is required")
	}
	if out.Capacity == 0 {
		out.Capacity = 64
	}
	if out.Jobs == 0 {
		out.Jobs = 120
	}
	return out, nil
}

// Result is the outcome of one chaos scenario.
type Result struct {
	// Records is the committed schedule in completion order.
	Records []sim.Record
	// Accepted is every admitted job with its engine-stamped submit
	// time, in ID order.
	Accepted []job.Job
	// Rejected counts submissions the engine refused (duplicates and
	// hostile specs; every injected one must be refused).
	Rejected int
	// Panics is the number of recovered policy panics.
	Panics int64
	// Rebuilt reports whether a crash-rebuild was injected.
	Rebuilt bool
}

// plannedSubmit is one scheduled submission.
type plannedSubmit struct {
	at      job.Time
	spec    job.Job
	wantErr bool
}

// plan is a fully deterministic scenario script.
type plan struct {
	submits []plannedSubmit
	crashAt job.Time
}

// buildPlan derives the scenario script from the seed. Independent RNG
// streams keep the legitimate workload identical whether or not fault
// entries are woven in.
func buildPlan(cfg Config) plan {
	rngW := stats.NewRNG(cfg.Seed, 101) // workload shape
	rngF := stats.NewRNG(cfg.Seed, 102) // fault injection

	n := cfg.Jobs
	arrive := make([]job.Time, n)
	specs := make([]job.Job, n)
	at := job.Time(0)
	burstLeft := 0
	for i := 0; i < n; i++ {
		gap := job.Duration(rngW.IntN(900))
		if cfg.Faults&FaultBurstSubmits != 0 {
			if burstLeft > 0 {
				burstLeft--
				gap = 0
			} else if rngW.IntN(6) == 0 {
				burstLeft = 3 + rngW.IntN(12)
			}
		}
		at += gap
		arrive[i] = at
		rt := job.Duration(1 + rngW.IntN(7200))
		if rngW.IntN(40) == 0 {
			rt = 0 // zero-runtime jobs occupy the machine for one instant
		}
		specs[i] = job.Job{
			ID:      i + 1,
			Nodes:   1 + rngW.IntN(cfg.Capacity),
			Runtime: rt,
			Request: rt + job.Duration(rngW.IntN(3600)),
			User:    rngW.IntN(8),
		}
	}
	// The ingest faults gather a run of arrivals onto one instant each —
	// the quota storm's a third of the way in, FaultSaturation's halfway
	// — moving arrivals only earlier and drawing nothing, so the jobs'
	// shapes are the same whatever the mask. Under the storm every job is
	// its own user, and the storm's run goes to the hot user (below).
	gather := func(from, k int) {
		for i := from; i < min(from+k, n); i++ {
			arrive[i] = arrive[from]
		}
	}
	if cfg.Faults&FaultQuotaStorm != 0 {
		gather(n/3, quotaStorm)
		for i := range specs {
			specs[i].User = specs[i].ID
		}
	}
	if cfg.Faults&FaultSaturation != 0 {
		gather(n/2, saturationRun)
	}

	// Reordering permutes which spec lands on which arrival slot, so
	// IDs arrive out of order while the arrival-time sequence stays.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cfg.Faults&FaultReorderedSubmits != 0 {
		for i := n - 1; i > 0; i-- {
			k := rngF.IntN(i + 1)
			order[i], order[k] = order[k], order[i]
		}
	}
	p := plan{}
	arrivedAt := make([]job.Time, n) // by spec index
	for slot := 0; slot < n; slot++ {
		s := order[slot]
		ps := plannedSubmit{at: arrive[slot], spec: specs[s]}
		if cfg.Faults&FaultQuotaStorm != 0 && slot >= n/3 && slot < n/3+quotaStorm {
			ps.spec.User = hotUser // a duplicate of it stays the job's own user
		}
		p.submits = append(p.submits, ps)
		arrivedAt[s] = arrive[slot]
	}

	if cfg.Faults&FaultDuplicateIDs != 0 {
		for d := 0; d < 1+n/10; d++ {
			victim := rngF.IntN(n)
			dup := specs[victim]
			dup.Nodes = 1 + rngF.IntN(cfg.Capacity) // shape may differ; the ID is the offense
			dup.Runtime = job.Duration(1 + rngF.IntN(600))
			dup.Request = dup.Runtime
			p.submits = append(p.submits, plannedSubmit{
				at:      arrivedAt[victim] + job.Time(rngF.IntN(1200)),
				spec:    dup,
				wantErr: true,
			})
		}
	}
	if cfg.Faults&FaultHostileSpecs != 0 {
		mk := func(mutate func(*job.Job)) plannedSubmit {
			j := job.Job{ID: n + 1000 + rngF.IntN(1000000), Nodes: 1 + rngF.IntN(cfg.Capacity),
				Runtime: 60, Request: 60}
			mutate(&j)
			return plannedSubmit{at: arrive[rngF.IntN(n)], spec: j, wantErr: true}
		}
		for h := 0; h < 1+n/20; h++ {
			switch rngF.IntN(4) {
			case 0:
				p.submits = append(p.submits, mk(func(j *job.Job) { j.Nodes = 0 }))
			case 1:
				p.submits = append(p.submits, mk(func(j *job.Job) { j.Nodes = cfg.Capacity + 2 + rngF.IntN(64) })) // past every shard: see RunFederation
			case 2:
				p.submits = append(p.submits, mk(func(j *job.Job) { j.Runtime = -job.Duration(1 + rngF.IntN(3600)) }))
			case 3:
				p.submits = append(p.submits, mk(func(j *job.Job) { j.ID = -rngF.IntN(3) }))
			}
		}
	}
	// Crash roughly 60% through the arrival timeline, offset so it
	// rarely coincides with an arrival instant (when it does, same-
	// instant ordering is still deterministic: submit timers are
	// registered before the crash timer).
	p.crashAt = arrive[(n*3)/5] + job.Time(rngF.IntN(600))
	return p
}

// incarnate starts an engine (cp nil) or rebuilds one from a checkpoint.
func incarnate(cfg engine.Config, cp *engine.Checkpoint) (*engine.Engine, error) {
	if cp == nil {
		return engine.New(cfg)
	}
	return engine.Rebuild(cfg, *cp)
}

// engineTarget is the bare engine under its live oracle. A crash-rebuild
// swaps the incarnation (and its oracle) while pending submission
// timers keep routing to the live one.
type engineTarget struct {
	capacity int
	mkCfg    func() engine.Config // fresh policy per incarnation
	cur      *engine.Engine
	orc      *oracle.Oracle
	panics   int64 // recovered by incarnations since discarded
}

func (t *engineTarget) incarnate(cp *engine.Checkpoint) error {
	ec, orc := t.mkCfg(), oracle.New(t.capacity)
	ec.Observer = orc
	e, err := incarnate(ec, cp)
	if err == nil {
		t.cur, t.orc = e, orc
	}
	return err
}

func (t *engineTarget) submit(jobs []job.Job) []error              { return each(jobs, t.cur.SubmitJob) }
func (t *engineTarget) open(error) bool                            { return false }
func (t *engineTarget) job(id int) (engine.JobStatus, bool, error) { return t.cur.Job(id) }
func (t *engineTarget) err() error                                 { return t.cur.Err() }

func (t *engineTarget) crash(*stats.RNG) (func(), func() error, job.Duration) {
	var cp engine.Checkpoint
	kill := func() {
		// The dying engine carries its recovered-panic count into the
		// totals before it is discarded.
		t.panics += t.cur.Metrics().Engine.PolicyPanics
		cp = t.cur.Checkpoint()
	}
	return kill, func() error { return t.incarnate(&cp) }, 0
}

// verify: live invariants, end-of-run conservation, and an independent
// replay sweep of the committed records.
func (t *engineTarget) verify(accepted []job.Job) error {
	if err := t.orc.Final(); err != nil {
		return err
	}
	return oracle.CheckRecords(t.capacity, accepted, t.cur.Records())
}

// build is runScenario's constructor: the first incarnation, on the
// scenario's clock and policy factory.
func (t *engineTarget) build(vc *engine.VirtualClock, newPolicy func() sim.Policy) (target, error) {
	t.mkCfg = func() engine.Config {
		return engine.Config{Capacity: t.capacity, Policy: newPolicy(), Clock: vc}
	}
	return t, t.incarnate(nil)
}

// result completes the runner's result once the run is verified.
func (t *engineTarget) result(out *outcome) Result {
	res := out.Result
	res.Records = t.cur.Records()
	res.Panics = t.panics + t.cur.Metrics().Engine.PolicyPanics
	return res
}

// Run executes one scenario to completion and verifies the oracle
// invariants. The returned error is the first engine fatal, oracle
// violation or harness expectation failure; a nil error means the run
// survived the fault mix with every invariant intact.
func Run(config Config) (*Result, error) {
	cfg, err := config.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &engineTarget{capacity: cfg.Capacity}
	out, err := runScenario(cfg, cfg.Capacity, t.build, nil)
	if err != nil {
		return nil, err
	}
	res := t.result(out)
	return &res, nil
}

// FlakyPolicy wraps a policy with deterministic fault injection. Call
// counting makes the pattern reproducible run-to-run.
type FlakyPolicy struct {
	Inner sim.Policy
	// Panic makes every panicEvery-th Decide call panic (before the inner
	// policy, whose state stays consistent); Slow makes every third call
	// sleep policyLatency of wall time.
	Panic, Slow bool

	calls int
}

// Name implements sim.Policy.
func (p *FlakyPolicy) Name() string { return p.Inner.Name() }

// Unwrap returns the wrapped policy (see core.PolicyAs).
func (p *FlakyPolicy) Unwrap() sim.Policy { return p.Inner }

// Decide implements sim.Policy with injected faults.
func (p *FlakyPolicy) Decide(snap *sim.Snapshot) []int {
	p.calls++
	if p.Slow && p.calls%3 == 0 {
		time.Sleep(policyLatency)
	}
	if p.Panic && p.calls%panicEvery == 0 {
		panic(fmt.Sprintf("chaos: injected policy panic (decision %d)", p.calls))
	}
	return p.Inner.Decide(snap)
}
