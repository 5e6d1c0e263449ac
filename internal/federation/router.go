// Package federation shards one machine's node space across N
// independent scheduling engines and fronts them with a Router: jobs
// are placed onto a shard by a pluggable placement policy, a periodic
// rebalance pass migrates still-queued (never started — non-preemption
// is preserved) jobs from overloaded to underloaded shards, and the
// router aggregates state, metrics and records into one whole-machine
// view with global node IDs.
//
// Each shard runs the full scheduling policy (backfill or discrepancy
// search) over its own partition of the nodes, so a shard's decisions
// are bit-identical to a standalone engine fed the same jobs — the
// 1-shard federation differential test pins that down against the bare
// engine on every suite month. The scalability claim is that per-shard
// search cost shrinks with per-shard queue depth while shards decide
// concurrently; the benchmark's fed_remote workload measures it.
//
// A job wider than every shard's partition cannot run anywhere and is
// rejected with ErrTooWide: partitioning trades maximum job width for
// decision throughput.
//
// Shards need not be in-process: NewWithShards fronts pre-built
// engine.Shard values — typically RemoteShard clients driving
// out-of-process schedd shards over HTTP. The router then runs in
// degraded mode when shards go dark: submissions are rerouted around
// unreachable shards (only on failures that certainly never
// delivered), wire-uncertain migration steps are parked and
// reconciled on the next gossip or rebalance tick, and per-shard
// reachability is exported through ShardHealth for readiness probes.
package federation

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
)

// ErrTooWide is wrapped by Submit/SubmitJob when a job needs more nodes
// than the widest shard's partition (test with errors.Is).
var ErrTooWide = errors.New("job wider than every shard")

// Config configures a Router and its shards.
type Config struct {
	// Capacity is the whole machine size in nodes; it is partitioned
	// near-evenly across Shards (the first Capacity%Shards shards get
	// one extra node).
	Capacity int
	// Shards is the number of engine partitions (>= 1).
	Shards int
	// Policy constructs shard i's scheduling policy. It is called once
	// per shard incarnation (again after a crash/rebuild); shards must
	// not share policy state.
	Policy func(shard int) sim.Policy
	// Placement picks the shard for each admitted job; nil means
	// LeastLoaded.
	Placement Placement
	// Clock drives every shard; nil means one shared NewRealClock(1).
	Clock engine.Clock
	// Estimator, when non-nil, constructs shard i's estimator (fresh
	// per incarnation). Per-user history is per-shard; the hash-by-user
	// placement keeps a user's jobs on one shard so the history stays
	// whole.
	Estimator func(shard int) sim.Estimator
	// UseRequested, Measured, MeasureStart and MeasureEnd are passed
	// through to every shard (see engine.Config).
	UseRequested bool
	Measured     func(id int) bool
	MeasureStart job.Time
	MeasureEnd   job.Time
	// Observer, when non-nil, constructs shard i's observer (fresh per
	// incarnation, as engine.Rebuild requires). Note that per-shard
	// oracles see migrations as withdrawals and late-stamped
	// admissions; the global verdict is oracle.CheckFederation over
	// the per-shard records.
	Observer func(shard int) sim.Observer
	// RebalanceEvery is the period of the rebalance pass on the shared
	// clock; 0 disables rebalancing. With one shard the pass never
	// runs.
	RebalanceEvery job.Duration
	// MaxMigrationsPerPass bounds one rebalance pass (default 8).
	MaxMigrationsPerPass int
	// Journal, when non-nil, constructs shard i's journal sink (fresh
	// per incarnation; on crash recovery the sink reopens the shard's
	// journal file). CompactEvery is passed through to every shard.
	Journal      func(shard int) engine.JournalSink
	CompactEvery int
	// GossipEvery is the period of the load-gossip pass on the shared
	// clock: the router polls every shard's load (which refreshes
	// remote shards' reachability), resolves parked
	// wire-uncertain migration steps, and — with WorkStealing on —
	// lets idle shards steal queued work. 0 disables the pass.
	GossipEvery job.Duration
	// WorkStealing enables the steal step of the gossip pass: a shard
	// with free nodes and an empty queue takes the youngest fitting
	// queued job from the most loaded shard, filling holes the
	// score-driven rebalance pass is too conservative to fill.
	WorkStealing bool
	// Tracer, when non-nil, records route/probe/migrate/reconcile spans
	// for traced jobs, and mints a trace for any job submitted directly
	// to the router (bypassing a traced front-end server). Router spans
	// carry shard -1 ("the router's lane"); per-shard spans carry the
	// shard index. Strictly passive: attaching a tracer never changes a
	// placement or a schedule.
	Tracer *obs.Tracer
	// Flight, when non-nil, is shared by every in-process shard engine:
	// all shards record their decisions into the one ring (the ring is
	// internally locked), so the front-end serves a single federation-wide
	// decision history. Ignored for externally-owned shards
	// (NewWithShards) — a remote shard daemon owns its own recorder.
	Flight *obs.FlightRecorder
	// Logger receives structured routing events — reroutes around dark
	// shards, parked wire-uncertain steps, reconciliations — with trace
	// IDs attached when the job is traced (default: discard).
	Logger *slog.Logger
}

// Router is the federation front-end. All methods are goroutine-safe.
type Router struct {
	mu     sync.Mutex
	cfg    Config
	clock  engine.Clock
	place  Placement
	shards []engine.Shard
	caps   []int
	bases  []int

	dir      map[int]int // job ID -> shard index, for the job's lifetime
	nextID   int
	draining bool
	failure  error

	// remote marks externally-owned shards (NewWithShards): the router
	// neither constructs nor rebuilds them.
	remote bool
	// pending holds migration/submission steps whose wire outcome is
	// unknown; resolvePendingLocked retires them on gossip and
	// rebalance ticks.
	pending []pendingMig

	polName        string
	explicitWindow bool

	tracer *obs.Tracer
	log    *slog.Logger

	rebArmed         bool
	gossipArmed      bool
	migrations       int64
	rebalances       int64
	routingDecisions int64
	routingNs        int64
	reroutes         int64
	steals           int64
	gossips          int64
}

// initObsLocked wires the router's observability hooks from its config
// (New and NewWithShards both call it during construction).
func (r *Router) initObsLocked() {
	r.tracer = r.cfg.Tracer
	r.log = r.cfg.Logger
	if r.log == nil {
		r.log = obs.NopLogger()
	}
}

// logJob returns the logger for a job-scoped routing event, with the
// job's trace attached when known.
func (r *Router) logJob(id int) *slog.Logger {
	l := r.log.With("job", id)
	if r.tracer != nil {
		if tc, ok := r.tracer.Lookup(id); ok {
			l = l.With(obs.TraceAttr(tc))
		}
	}
	return l
}

// remoteProbe is the optional shard surface of an out-of-process shard
// (RemoteShard has it; in-process engines, always reachable, do not):
// reachability, construction-time capacity discovery with retries, and
// a job lookup that distinguishes "the shard answered: no such job"
// from "the shard could not be asked" — reconciliation of an uncertain
// submission needs the difference that Job's boolean cannot carry.
type remoteProbe interface {
	Healthy() error
	Probe() (engine.Load, error)
	LookupJob(id int) (engine.JobStatus, bool, error)
}

// Stages of a parked wire-uncertain step (pendingMig.stage).
const (
	// stageWithdraw: a migration withdraw's outcome is unknown — the
	// job is on the source, or tombstoned there with the ack lost.
	stageWithdraw = iota
	// stageAdmit: the job is withdrawn and held by the router; its
	// admission to pendingMig.shard has not certainly succeeded.
	stageAdmit
	// stageSubmit: a routed submission's outcome is unknown; the ID is
	// burned and the directory entry provisional until the shard
	// answers a lookup.
	stageSubmit
)

// pendingMig is one parked step: the job (held only in stageAdmit),
// the shard whose answer resolves it, and the stage.
type pendingMig struct {
	id    int
	shard int
	j     job.Job
	stage int
}

// PartitionCapacity splits total nodes near-evenly into n partitions:
// every partition gets total/n nodes and the first total%n partitions
// one extra, so the sizes sum to total and differ by at most one.
func PartitionCapacity(total, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("federation: %d shards", n)
	}
	if total < n {
		return nil, fmt.Errorf("federation: capacity %d < %d shards", total, n)
	}
	caps := make([]int, n)
	base, extra := total/n, total%n
	for i := range caps {
		caps[i] = base
		if i < extra {
			caps[i]++
		}
	}
	return caps, nil
}

// New builds the router and its N shard engines.
func New(cfg Config) (*Router, error) {
	if cfg.Policy == nil {
		return nil, errors.New("federation: nil policy factory")
	}
	caps, err := PartitionCapacity(cfg.Capacity, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = engine.NewRealClock(1)
	}
	if cfg.Placement == nil {
		cfg.Placement = LeastLoaded{}
	}
	if cfg.MaxMigrationsPerPass == 0 {
		cfg.MaxMigrationsPerPass = 8
	}
	r := &Router{
		cfg:    cfg,
		clock:  cfg.Clock,
		place:  cfg.Placement,
		caps:   caps,
		dir:    make(map[int]int),
		nextID: 1,
	}
	r.explicitWindow = !(cfg.MeasureStart == 0 && cfg.MeasureEnd == 0)
	r.initObsLocked()
	base := 0
	for i := range caps {
		r.bases = append(r.bases, base)
		base += caps[i]
		e, err := engine.New(r.shardConfig(i))
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, e)
	}
	r.polName = r.shards[0].Metrics().Policy
	return r, nil
}

// NewWithShards fronts pre-built shards — typically RemoteShard
// clients for out-of-process schedd shards — instead of constructing
// in-process engines. Partition capacities are discovered from the
// shards themselves, so cfg.Capacity, cfg.Shards and the per-shard
// factories (Policy, Estimator, Observer, Journal) are ignored: each
// shard process owns its policy and journal. cfg.Clock still drives
// the router's own rebalance and gossip timers.
func NewWithShards(cfg Config, shards []engine.Shard) (*Router, error) {
	if len(shards) < 1 {
		return nil, errors.New("federation: no shards")
	}
	if cfg.Clock == nil {
		cfg.Clock = engine.NewRealClock(1)
	}
	if cfg.Placement == nil {
		cfg.Placement = LeastLoaded{}
	}
	if cfg.MaxMigrationsPerPass == 0 {
		cfg.MaxMigrationsPerPass = 8
	}
	r := &Router{
		cfg:    cfg,
		clock:  cfg.Clock,
		place:  cfg.Placement,
		shards: append([]engine.Shard(nil), shards...),
		dir:    make(map[int]int),
		nextID: 1,
		remote: true,
	}
	r.explicitWindow = !(cfg.MeasureStart == 0 && cfg.MeasureEnd == 0)
	r.initObsLocked()
	total := 0
	for i, s := range r.shards {
		var ld engine.Load
		if p, ok := s.(remoteProbe); ok {
			var err error
			if ld, err = p.Probe(); err != nil {
				return nil, fmt.Errorf("federation: probe shard %d: %w", i, err)
			}
		} else {
			ld = s.Load()
		}
		if ld.Capacity < 1 {
			return nil, fmt.Errorf("federation: shard %d reports capacity %d", i, ld.Capacity)
		}
		r.caps = append(r.caps, ld.Capacity)
		r.bases = append(r.bases, total)
		total += ld.Capacity
	}
	r.cfg.Capacity = total
	r.cfg.Shards = len(r.shards)
	r.polName = r.shards[0].Metrics().Policy
	return r, nil
}

// shardConfig assembles shard i's engine configuration with fresh
// policy/estimator/observer instances (New and RebuildShard both use
// it — a rebuilt incarnation gets fresh instances like a restarted
// process).
func (r *Router) shardConfig(i int) engine.Config {
	ec := engine.Config{
		Capacity:     r.caps[i],
		Policy:       r.cfg.Policy(i),
		Clock:        r.clock,
		UseRequested: r.cfg.UseRequested,
		Measured:     r.cfg.Measured,
		MeasureStart: r.cfg.MeasureStart,
		MeasureEnd:   r.cfg.MeasureEnd,
		CompactEvery: r.cfg.CompactEvery,
		// In-process shards share the router's tracer (and so its job
		// registry, bound at routing), tagging decide spans per shard,
		// and the router-wide flight-recorder ring.
		Tracer:     r.cfg.Tracer,
		TraceShard: i,
		Flight:     r.cfg.Flight,
	}
	if r.cfg.Journal != nil {
		ec.Journal = r.cfg.Journal(i)
	}
	if r.cfg.Estimator != nil {
		ec.Estimator = r.cfg.Estimator(i)
	}
	if r.cfg.Observer != nil {
		if obs := r.cfg.Observer(i); obs != nil {
			ec.Observer = obs
		}
	}
	return ec
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// ShardCapacities returns a copy of the partition sizes, by shard.
func (r *Router) ShardCapacities() []int {
	return append([]int(nil), r.caps...)
}

// ShardRecords returns shard i's completion records with shard-local
// node IDs (oracle.CheckFederation consumes these).
func (r *Router) ShardRecords(i int) []sim.Record {
	r.mu.Lock()
	s := r.shards[i]
	r.mu.Unlock()
	return s.Records()
}

// Submit admits a new job: the router assigns the next free global ID,
// places the job on a shard, and the shard stamps the submit time.
func (r *Router) Submit(spec job.Job) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec.ID = r.nextID
	if err := r.routeLocked(spec); err != nil {
		return 0, err
	}
	return spec.ID, nil
}

// SubmitJob admits a job keeping its caller-assigned ID (trace replay),
// placing it on a shard.
func (r *Router) SubmitJob(j job.Job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.routeLocked(j)
}

func (r *Router) routeLocked(j job.Job) error {
	if r.failure != nil {
		return r.failure
	}
	if r.draining {
		return engine.ErrDraining
	}
	if j.ID < 1 {
		return fmt.Errorf("federation: invalid job ID %d", j.ID)
	}
	if _, dup := r.dir[j.ID]; dup {
		return fmt.Errorf("federation: %w: %d", engine.ErrDuplicateID, j.ID)
	}
	// The same normalization the engine applies at admission, so
	// validation against the whole machine sees the job the shard will.
	if j.Request < j.Runtime {
		j.Request = j.Runtime
	}
	if err := j.Validate(r.cfg.Capacity); err != nil {
		return fmt.Errorf("federation: %w", err)
	}
	var tc obs.TraceContext
	if r.tracer != nil {
		// A job arriving through a traced front-end server is already
		// bound; a job submitted directly to the router makes the router
		// its front door, so the trace roots here.
		var bound bool
		if tc, bound = r.tracer.Lookup(j.ID); !bound {
			tc = r.tracer.Mint()
			r.tracer.Bind(j.ID, tc)
			r.tracer.Record("submit", tc, j.ID, -1, r.tracer.Now(), 0)
		}
	}
	t0 := time.Now()
	cands := r.candidatesLocked(j)
	if len(cands) == 0 {
		widest := 0
		for _, c := range r.caps {
			if c > widest {
				widest = c
			}
		}
		return fmt.Errorf("federation: %w: job %d needs %d nodes, widest shard has %d",
			ErrTooWide, j.ID, j.Nodes, widest)
	}
	pick := cands[r.place.Pick(j, cands)].Shard
	routeDur := time.Since(t0)
	r.routingNs += routeDur.Nanoseconds()
	r.routingDecisions++
	if r.tracer != nil {
		r.tracer.Record("route", tc, j.ID, pick, r.tracer.Now().Add(-routeDur), routeDur)
	}
	err := r.shards[pick].SubmitJob(j)
	// Degraded mode: an unreachable shard certainly never saw the job,
	// so it is safe to route around it. Uncertain failures are the
	// opposite — the job MAY be admitted there, so rerouting could
	// double-admit; the ID is burned, the directory entry parked, and
	// the gossip tick resolves it by asking the shard once it answers.
	for errors.Is(err, ErrUnreachable) && len(cands) > 1 {
		rest := make([]Candidate, 0, len(cands)-1)
		for _, c := range cands {
			if c.Shard != pick {
				rest = append(rest, c)
			}
		}
		cands = rest
		from := pick
		pick = cands[r.place.Pick(j, cands)].Shard
		r.reroutes++
		r.logJob(j.ID).Warn("rerouting around unreachable shard", "from", from, "to", pick)
		err = r.shards[pick].SubmitJob(j)
	}
	if err != nil {
		if errors.Is(err, ErrUncertain) {
			r.dir[j.ID] = pick
			if j.ID >= r.nextID {
				r.nextID = j.ID + 1
			}
			r.pending = append(r.pending, pendingMig{id: j.ID, shard: pick, stage: stageSubmit})
			r.logJob(j.ID).Warn("parked wire-uncertain submission", "shard", pick)
			r.armRebalanceLocked()
			r.armGossipLocked()
		}
		return err
	}
	r.dir[j.ID] = pick
	if j.ID >= r.nextID {
		r.nextID = j.ID + 1
	}
	r.armRebalanceLocked()
	r.armGossipLocked()
	return nil
}

// candidatesLocked lists the shards whose partition can hold the job at
// all, with their current loads. Unreachable shards are filtered out —
// unless every capacity-eligible shard is dark, in which case all of
// them are offered anyway (a submit attempt is also a probe, and
// failing towards ErrUnreachable beats a spurious ErrTooWide: the
// distinction between "no shard fits" and "the fitting shards are
// down" is kept intact).
func (r *Router) candidatesLocked(j job.Job) []Candidate {
	cands := make([]Candidate, 0, len(r.shards))
	var sick []Candidate
	for i, s := range r.shards {
		if j.Nodes > r.caps[i] {
			continue
		}
		var p0 time.Time
		if r.tracer != nil {
			p0 = r.tracer.Now()
		}
		ld := s.Load()
		if r.tracer != nil {
			if tc, ok := r.tracer.Lookup(j.ID); ok {
				r.tracer.Record("probe", tc, j.ID, i, p0, r.tracer.Now().Sub(p0))
			}
		}
		c := Candidate{Shard: i, Load: ld}
		if !r.healthyLocked(i) {
			sick = append(sick, c)
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return sick
	}
	return cands
}

// healthyLocked reports shard i's reachability; in-process shards are
// always reachable.
func (r *Router) healthyLocked(i int) bool {
	if hc, ok := r.shards[i].(remoteProbe); ok {
		return hc.Healthy() == nil
	}
	return true
}

// armRebalanceLocked keeps at most one rebalance timer outstanding. The
// timer re-arms itself only while jobs are outstanding, so a
// virtual-clock replay terminates; the next submission re-arms it.
func (r *Router) armRebalanceLocked() {
	if r.cfg.RebalanceEvery <= 0 || len(r.shards) < 2 || r.rebArmed || r.draining {
		return
	}
	r.rebArmed = true
	r.clock.AfterFunc(r.cfg.RebalanceEvery, r.onRebalance)
}

func (r *Router) onRebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebArmed = false
	r.resolvePendingLocked()
	loads := make([]engine.Load, len(r.shards))
	outstanding := 0
	for i, s := range r.shards {
		loads[i] = s.Load()
		outstanding += loads[i].Waiting + loads[i].Running
	}
	if !r.draining {
		r.rebalances++
		for n := 0; n < r.cfg.MaxMigrationsPerPass; n++ {
			if !r.migrateOneLocked(loads) {
				break
			}
		}
	}
	if outstanding > 0 || len(r.pending) > 0 {
		r.armRebalanceLocked()
	}
}

// armGossipLocked keeps at most one gossip timer outstanding, with the
// same only-while-outstanding re-arm discipline as the rebalance timer
// so virtual-clock replays terminate.
func (r *Router) armGossipLocked() {
	if r.cfg.GossipEvery <= 0 || r.gossipArmed || r.draining {
		return
	}
	r.gossipArmed = true
	r.clock.AfterFunc(r.cfg.GossipEvery, r.onGossip)
}

// onGossip is the periodic load-gossip pass: poll every shard's load —
// for remote shards that refreshes reachability and the last-known load
// degraded routing falls back on — resolve parked
// wire-uncertain steps, and optionally steal work onto idle shards.
func (r *Router) onGossip() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gossipArmed = false
	r.gossips++
	r.resolvePendingLocked()
	loads := make([]engine.Load, len(r.shards))
	outstanding := 0
	for i, s := range r.shards {
		loads[i] = s.Load()
		outstanding += loads[i].Waiting + loads[i].Running
	}
	if r.cfg.WorkStealing && !r.draining {
		for n := 0; n < r.cfg.MaxMigrationsPerPass; n++ {
			if !r.stealOneLocked(loads) {
				break
			}
		}
	}
	if outstanding > 0 || len(r.pending) > 0 {
		r.armGossipLocked()
	}
}

// stealOneLocked lets the emptiest idle shard (free nodes, nothing
// queued) take the youngest fitting queued job from the most loaded
// shard. Where the rebalance pass equalizes load scores, stealing
// targets outright idleness: a hole big enough to start the job now.
// Reports whether a job moved.
func (r *Router) stealOneLocked(loads []engine.Load) bool {
	thief := -1
	for i, ld := range loads {
		if ld.Waiting == 0 && ld.FreeNodes > 0 && r.healthyLocked(i) {
			if thief == -1 || ld.FreeNodes > loads[thief].FreeNodes {
				thief = i
			}
		}
	}
	if thief == -1 {
		return false
	}
	victim := -1
	for i, ld := range loads {
		if i == thief || ld.Waiting == 0 || !r.healthyLocked(i) {
			continue
		}
		if victim == -1 || ld.Score() > loads[victim].Score() {
			victim = i
		}
	}
	if victim == -1 {
		return false
	}
	queue := r.shards[victim].Queue()
	for k := len(queue) - 1; k >= 0; k-- {
		st := queue[k]
		// Steal only what can start immediately on the thief's hole;
		// anything else is the rebalance pass's business.
		if st.Job.Nodes > loads[thief].FreeNodes {
			continue
		}
		if !r.moveLocked(st.Job.ID, victim, thief) {
			return false
		}
		r.steals++
		est := st.Estimate
		if est < 1 {
			est = st.Job.Request
		}
		if est < 1 {
			est = 1
		}
		d := int64(st.Job.Nodes) * est
		loads[victim].Waiting--
		loads[victim].QueuedNodeSec -= d
		loads[thief].Waiting++
		loads[thief].QueuedNodeSec += d
		return true
	}
	return false
}

// moveLocked withdraws job id from src and admits it on dst, parking
// any wire-uncertain step for later reconciliation. Reports whether
// the job landed on dst; on false the job is back on src, parked
// pending, or (certainly) still running on src.
func (r *Router) moveLocked(id, src, dst int) bool {
	var t0 time.Time
	if r.tracer != nil {
		t0 = r.tracer.Now()
	}
	j, err := r.shards[src].Withdraw(id)
	if err != nil {
		if errors.Is(err, ErrUncertain) {
			// The withdraw may have committed with the ack lost; the
			// source's tombstone will answer the reconciliation retry.
			r.pending = append(r.pending, pendingMig{id: id, shard: src, stage: stageWithdraw})
			r.logJob(id).Warn("parked wire-uncertain withdraw", "shard", src)
		}
		// ErrUnreachable: certainly still queued on src. ErrNotQueued:
		// started in the meantime. Either way, nothing moved.
		return false
	}
	if err := r.shards[dst].Admit(j); err != nil {
		if errors.Is(err, ErrUncertain) {
			// May be admitted on dst — re-admitting to src could
			// double-admit. Hold the job and let reconciliation finish
			// the admit once dst answers.
			r.dir[id] = dst
			r.pending = append(r.pending, pendingMig{id: id, shard: dst, j: j, stage: stageAdmit})
			r.logJob(id).Warn("parked wire-uncertain admit", "shard", dst)
			return false
		}
		// Certainly not on dst (unreachable, or a definitive
		// rejection): the job must not be lost — put it back.
		if err2 := r.shards[src].Admit(j); err2 != nil {
			if errors.Is(err2, ErrUncertain) || errors.Is(err2, ErrUnreachable) {
				r.pending = append(r.pending, pendingMig{id: id, shard: src, j: j, stage: stageAdmit})
				return false
			}
			r.failLocked(fmt.Errorf("federation: job %d lost in migration %d->%d: %v; re-admit: %v",
				id, src, dst, err, err2))
		}
		return false
	}
	r.dir[id] = dst
	if r.tracer != nil {
		if tc, ok := r.tracer.Lookup(id); ok {
			r.tracer.Record("migrate", tc, id, dst, t0, r.tracer.Now().Sub(t0))
		}
	}
	return true
}

// resolvePendingLocked retries every parked wire-uncertain step once;
// steps whose shard is still dark stay parked for the next tick.
func (r *Router) resolvePendingLocked() {
	if len(r.pending) == 0 {
		return
	}
	var still []pendingMig
	for _, p := range r.pending {
		var t0 time.Time
		if r.tracer != nil {
			t0 = r.tracer.Now()
		}
		kept := len(still)
		switch p.stage {
		case stageWithdraw:
			j, err := r.shards[p.shard].Withdraw(p.id)
			if err == nil {
				// Committed — originally (tombstone) or just now. The
				// migration itself is stale; put the job back where it
				// came from.
				if aerr := r.shards[p.shard].Admit(j); aerr != nil {
					if errors.Is(aerr, ErrUncertain) || errors.Is(aerr, ErrUnreachable) {
						still = append(still, pendingMig{id: p.id, shard: p.shard, j: j, stage: stageAdmit})
						continue
					}
					r.failLocked(fmt.Errorf("federation: job %d lost reconciling withdraw on shard %d: %v",
						p.id, p.shard, aerr))
				}
				continue
			}
			if errors.Is(err, engine.ErrNotQueued) {
				// Never withdrawn — the job started (or finished) on
				// the source. Resolved.
				continue
			}
			still = append(still, p)
		case stageAdmit:
			err := r.shards[p.shard].Admit(p.j)
			if err == nil || errors.Is(err, engine.ErrDuplicateID) {
				// Landed now, or had landed all along.
				r.dir[p.id] = p.shard
				continue
			}
			still = append(still, p)
		case stageSubmit:
			if pr, ok := r.shards[p.shard].(remoteProbe); ok {
				_, present, err := pr.LookupJob(p.id)
				if err != nil {
					still = append(still, p)
					continue
				}
				if present {
					r.dir[p.id] = p.shard
				} else {
					// Certainly never admitted; free the directory
					// entry (the ID stays burned).
					delete(r.dir, p.id)
				}
				continue
			}
			if _, present := r.shards[p.shard].Job(p.id); !present {
				delete(r.dir, p.id)
			}
		}
		if len(still) == kept {
			// The step left the parked set — resolved one way or the
			// other (the fail path sets r.failure, which routes report).
			if r.tracer != nil {
				if tc, ok := r.tracer.Lookup(p.id); ok {
					r.tracer.Record("reconcile", tc, p.id, p.shard, t0, r.tracer.Now().Sub(t0))
				}
			}
			r.logJob(p.id).Info("reconciled parked step", "shard", p.shard, "stage", p.stage)
		}
	}
	r.pending = still
}

// migrateOneLocked moves one still-queued job from the most to the
// least loaded shard if — and only if — the move strictly reduces the
// pair's maximum load score, which rules out oscillation. Candidates
// are taken from the back of the source queue (the youngest arrivals),
// so the migration disturbs the source shard's arrival-order queue as
// little as possible. Reports whether a job moved.
func (r *Router) migrateOneLocked(loads []engine.Load) bool {
	src, dst := -1, -1
	for i := range loads {
		// Dark shards neither give up nor receive work: their loads are
		// stale caches and a migration leg against them can only park.
		if !r.healthyLocked(i) {
			continue
		}
		if src == -1 || loads[i].Score() > loads[src].Score() {
			src = i
		}
		if dst == -1 || loads[i].Score() < loads[dst].Score() {
			dst = i
		}
	}
	if src == -1 || src == dst || loads[src].Score() <= loads[dst].Score() {
		return false
	}
	queue := r.shards[src].Queue()
	for k := len(queue) - 1; k >= 0; k-- {
		st := queue[k]
		if st.Job.Nodes > r.caps[dst] {
			continue
		}
		est := st.Estimate
		if est < 1 {
			est = st.Job.Request
		}
		if est < 1 {
			est = 1
		}
		d := int64(st.Job.Nodes) * est
		// The move must leave the destination strictly below the
		// source's old score, or it just trades places.
		if loads[dst].Score()+float64(d)/float64(loads[dst].Capacity) >= loads[src].Score() {
			continue
		}
		if !r.moveLocked(st.Job.ID, src, dst) {
			// Started between Queue() and Withdraw (real clock): try an
			// earlier arrival. Any wire trouble: stop the pass — the
			// loads are suspect now.
			if r.healthyLocked(src) && r.healthyLocked(dst) && len(r.pending) == 0 {
				continue
			}
			return false
		}
		r.migrations++
		loads[src].Waiting--
		loads[src].QueuedNodeSec -= d
		loads[dst].Waiting++
		loads[dst].QueuedNodeSec += d
		return true
	}
	return false
}

func (r *Router) failLocked(err error) {
	if r.failure == nil {
		r.failure = err
	}
}

// Job returns the job's current status, with node IDs mapped to the
// global node space.
func (r *Router) Job(id int) (engine.JobStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	si, ok := r.dir[id]
	if !ok {
		return engine.JobStatus{}, false
	}
	st, ok := r.shards[si].Job(id)
	if !ok {
		return engine.JobStatus{}, false
	}
	for k := range st.NodeIDs {
		st.NodeIDs[k] += r.bases[si]
	}
	return st, true
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
// order (submit time, then ID).
func (r *Router) Queue() []engine.JobStatus {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	var out []engine.JobStatus
	for _, s := range shards {
		out = append(out, s.Queue()...)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Job.Submit != out[k].Job.Submit {
			return out[i].Job.Submit < out[k].Job.Submit
		}
		return out[i].Job.ID < out[k].Job.ID
	})
	return out
}

// Machine returns the whole-machine occupancy snapshot: total capacity
// and free nodes, and the running set merged across shards in (start,
// ID) order.
func (r *Router) Machine() engine.Machine {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	m := engine.Machine{Now: r.clock.Now(), Capacity: r.cfg.Capacity}
	for _, s := range shards {
		sm := s.Machine()
		m.FreeNodes += sm.FreeNodes
		m.Running = append(m.Running, sm.Running...)
	}
	sort.Slice(m.Running, func(i, k int) bool {
		if m.Running[i].Start != m.Running[k].Start {
			return m.Running[i].Start < m.Running[k].Start
		}
		return m.Running[i].ID < m.Running[k].ID
	})
	return m
}

// Records returns the federation's completion records merged into
// global (end time, job ID) order, with node IDs mapped to the global
// node space — the same shape a standalone engine of the whole machine
// emits.
func (r *Router) Records() []sim.Record {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	bases := append([]int(nil), r.bases...)
	r.mu.Unlock()
	var merged []sim.Record
	for i, s := range shards {
		for _, rec := range s.Records() {
			if len(rec.NodeIDs) > 0 {
				ids := make([]int, len(rec.NodeIDs))
				for k, n := range rec.NodeIDs {
					ids[k] = n + bases[i]
				}
				rec.NodeIDs = ids
			}
			merged = append(merged, rec)
		}
	}
	sort.Slice(merged, func(i, k int) bool {
		if merged[i].End != merged[k].End {
			return merged[i].End < merged[k].End
		}
		return merged[i].Job.ID < merged[k].Job.ID
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
	now := r.clock.Now()
	measureEnd := now
	if r.explicitWindow {
		measureEnd = r.cfg.MeasureEnd
	}
	records := r.Records()
	res := &sim.Result{
		Policy:       r.polName,
		Records:      records,
		Capacity:     r.cfg.Capacity,
		MeasureStart: r.cfg.MeasureStart,
		MeasureEnd:   measureEnd,
	}
	m := engine.Metrics{
		Policy:   r.polName,
		NowS:     now,
		Capacity: r.cfg.Capacity,
	}
	var wallMs, busyMs, decideMsSum float64
	for _, pm := range per {
		res.Decisions += int(pm.Engine.Decisions)
		res.AvgQueueLen += pm.Summary.AvgQueueLen
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
	r.mu.Lock()
	caps := append([]int(nil), r.caps...)
	bases := append([]int(nil), r.bases...)
	fm := engine.AggregateShards(per, caps, bases)
	fm.Placement = r.place.Name()
	fm.Migrations = r.migrations
	fm.RebalancePasses = r.rebalances
	fm.RoutingDecisions = r.routingDecisions
	fm.RoutingNs = r.routingNs
	fm.Reroutes = r.reroutes
	fm.Steals = r.steals
	fm.GossipPasses = r.gossips
	r.mu.Unlock()
	fm.Global = r.Metrics()
	return fm
}

func (r *Router) shardMetrics() []engine.Metrics {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	per := make([]engine.Metrics, len(shards))
	for i, s := range shards {
		per[i] = s.Metrics()
	}
	return per
}

// RebuildShard simulates a crash of shard i: the shard's committed
// journal is checkpointed, a fresh engine (fresh policy, estimator and
// observer instances, same clock) is rebuilt from it via
// engine.Rebuild, and the router swaps it in. The other shards keep
// scheduling throughout; the abandoned incarnation's timers may still
// fire but mutate only the discarded engine.
func (r *Router) RebuildShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("federation: rebuild shard %d of %d", i, len(r.shards))
	}
	if r.remote {
		return errors.New("federation: remote shards rebuild from their own journals; restart the shard process instead")
	}
	cp := r.shards[i].Checkpoint()
	ne, err := engine.Rebuild(r.shardConfig(i), cp)
	if err != nil {
		return err
	}
	r.shards[i] = ne
	return nil
}

// SyncJournal forces group-buffered journal writes on every shard to
// stable storage, so a federated backend satisfies ingest.Syncer: the
// ingest committer makes a whole accepted batch group durable across
// all shards with one call. Shards without a journal sink are no-ops.
func (r *Router) SyncJournal() error {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	var first error
	for _, sh := range shards {
		if s, ok := sh.(interface{ SyncJournal() error }); ok {
			if err := s.SyncJournal(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Drain stops admitting jobs on the router and every shard, then blocks
// until all shards have emptied (or ctx is cancelled). Rebalancing
// stops with admission — a drain must not shuffle the remaining
// backlog.
func (r *Router) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	errs := make(chan error, len(shards))
	for _, s := range shards {
		s := s
		go func() { errs <- s.Drain(ctx) }()
	}
	var first error
	for range shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Draining reports whether Drain has been requested.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Err returns the first fatal error: a lost-job migration failure or
// any shard engine's fatal.
func (r *Router) Err() error {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	failure := r.failure
	r.mu.Unlock()
	if failure != nil {
		return failure
	}
	for _, s := range shards {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ShardHealth reports per-shard reachability for readiness probes: a
// federated /v1/readyz answers 503 with this breakdown while any shard
// is dark. In-process shards are unhealthy only on a fatal engine
// error; remote shards additionally on wire unreachability. A shard
// mid journal-rebuild holds the router lock, so probes block until the
// rebuilt shard is swapped in rather than reporting it ready early.
func (r *Router) ShardHealth() []engine.ShardHealth {
	r.mu.Lock()
	shards := append([]engine.Shard(nil), r.shards...)
	r.mu.Unlock()
	out := make([]engine.ShardHealth, len(shards))
	for i, s := range shards {
		out[i] = engine.ShardHealth{Shard: i, Healthy: true}
		var err error
		if hc, ok := s.(remoteProbe); ok {
			err = hc.Healthy()
		} else {
			err = s.Err()
		}
		if err != nil {
			out[i].Healthy = false
			out[i].Err = err.Error()
		}
	}
	return out
}

// PendingReconciliations reports how many wire-uncertain steps are
// parked awaiting a shard's answer (tests drain on zero).
func (r *Router) PendingReconciliations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Now returns the shared clock's current time.
func (r *Router) Now() job.Time { return r.clock.Now() }
