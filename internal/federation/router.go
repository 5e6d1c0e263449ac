// Package federation shards one machine's node space across N
// independent scheduling engines and fronts them with a Router: jobs
// are placed onto a shard by one placement rule (BestFit), a periodic
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
// reconciled on the next rebalance tick, and per-shard reachability is
// exported through ShardHealth for readiness probes.
//
// The package is laid out by concern: router.go routes a submission to
// a shard, balance.go runs the periodic rebalance pass and reconciles
// parked wire-uncertain steps, report.go merges shard state into
// whole-machine views, lifecycle.go drains, rebuilds and reports health,
// remote.go is the HTTP shard client.
package federation

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
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
	// BestFit, the one built-in rule. Only tests set it (a fake that
	// skews routing).
	Placement Placement
	// Clock drives every shard; nil means one shared NewRealClock(1).
	Clock engine.Clock
	// UseRequested, Measured, MeasureStart and MeasureEnd are passed
	// through to every shard (see engine.Config).
	UseRequested bool
	Measured     func(id int) bool
	MeasureStart job.Time
	MeasureEnd   job.Time
	// RebalanceEvery is the period of the one periodic pass on the
	// shared clock: it resolves parked wire-uncertain steps, reads every
	// shard's load (probing the dark ones, which refreshes their
	// reachability) and migrates still-queued jobs from the most to the
	// least loaded shard. 0 disables the pass — and with it
	// reconciliation, so a remote federation must set it.
	RebalanceEvery job.Duration
	// Tracer, when non-nil, records route/probe/migrate/reconcile spans
	// for traced jobs, and mints a trace for any job submitted directly
	// to the router (bypassing a traced front-end server). Router spans
	// carry shard -1 ("the router's lane"); per-shard spans carry the
	// shard index. Strictly passive: attaching a tracer never changes a
	// placement or a schedule.
	Tracer *obs.Tracer
	// Logger receives structured routing events — reroutes around dark
	// shards, parked wire-uncertain steps, reconciliations — with trace
	// IDs attached when the job is traced (default: discard).
	Logger *slog.Logger
}

// Router is the federation front-end. All methods are goroutine-safe.
type Router struct {
	mu     sync.Mutex
	cfg    Config // defaults applied (newRouter)
	shards []engine.Shard
	// caps and bases are the partition sizes and first global node IDs,
	// by shard; fixed at construction.
	caps  []int
	bases []int
	// loads caches each shard's last Load answer, re-anchored on the
	// router's clock; loadLocked serves it while its window holds.
	loads []cachedLoad

	dir      map[int]int // job ID -> shard index, for the job's lifetime
	nextID   int
	firstID  int // nextID at construction: a shard's job at or past it is in dir
	draining bool
	failure  error

	// pending holds migration/submission steps whose wire outcome is
	// unknown; resolvePendingLocked retires them on rebalance ticks.
	pending []pendingMig

	polName string
	window  sim.QueueStats // the measurement-window rule only; shards keep the books

	rebArmed         bool
	migrations       int64
	rebalances       int64
	routingDecisions int64
	routingNs        int64
	reroutes         int64
}

// logJob returns the logger for a job-scoped routing event, with the
// job's trace attached when known.
func (r *Router) logJob(id int) *slog.Logger { return jobLogger(r.cfg.Logger, r.cfg.Tracer, id) }

// traceSpan records the span [t0, now) on shard's lane under the job's
// trace, when the job is traced. The tracer is nil-safe (nil = off), so
// callers take t0 from r.cfg.Tracer.Now() unconditionally.
func (r *Router) traceSpan(name string, id, shard int, t0 time.Time) {
	tr := r.cfg.Tracer
	if tc, ok := tr.Lookup(id); ok {
		tr.Record(name, tc, id, shard, t0, tr.Now().Sub(t0))
	}
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

// newRouter applies the config defaults and returns the router shell
// both constructors fill with n shards.
func newRouter(cfg Config, n int) *Router {
	if cfg.Clock == nil {
		cfg.Clock = engine.NewRealClock(1)
	}
	if cfg.Placement == nil {
		cfg.Placement = BestFit{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	return &Router{
		cfg:     cfg,
		loads:   make([]cachedLoad, n),
		dir:     make(map[int]int),
		nextID:  1,
		firstID: 1,
		window:  sim.NewQueueStats(cfg.MeasureStart, cfg.MeasureEnd),
	}
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
	r := newRouter(cfg, len(caps))
	r.caps = caps
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
// shards themselves, so cfg.Capacity, cfg.Shards and cfg.Policy are
// ignored: each shard process owns its policy and journal. cfg.Clock
// still drives the router's own rebalance timer. The router's first ID is past every ID a shard has
// already admitted, so a front restarted over running shards never
// hands out a taken one, and a caller-assigned ID below it is looked
// up on the shards before it is routed.
func NewWithShards(cfg Config, shards []engine.Shard) (*Router, error) {
	if len(shards) < 1 {
		return nil, errors.New("federation: no shards")
	}
	r := newRouter(cfg, len(shards))
	// The ignored policy factory is dropped: a nil Policy is how
	// RebuildShard knows this router did not construct its shards.
	r.cfg.Policy = nil
	r.shards = append([]engine.Shard(nil), shards...)
	total := 0
	for i, s := range r.shards {
		ld, err := s.Load()
		if err != nil {
			return nil, fmt.Errorf("federation: probe shard %d: %w", i, err)
		}
		r.loads[i].ld = ld // ok stays false: the first pick still asks
		if ld.Capacity < 1 {
			return nil, fmt.Errorf("federation: shard %d reports capacity %d", i, ld.Capacity)
		}
		r.caps = append(r.caps, ld.Capacity)
		r.bases = append(r.bases, total)
		total += ld.Capacity
		r.nextID = max(r.nextID, ld.NextID)
	}
	r.firstID = r.nextID
	r.cfg.Capacity = total
	r.cfg.Shards = len(r.shards)
	r.polName = r.shards[0].Metrics().Policy
	return r, nil
}

// shardConfig assembles shard i's engine configuration with a fresh
// policy instance (New and RebuildShard both use it — a rebuilt
// incarnation gets a fresh instance like a restarted process).
func (r *Router) shardConfig(i int) engine.Config {
	return engine.Config{
		Capacity:     r.caps[i],
		Policy:       r.cfg.Policy(i),
		Clock:        r.cfg.Clock,
		UseRequested: r.cfg.UseRequested,
		Measured:     r.cfg.Measured,
		MeasureStart: r.cfg.MeasureStart,
		MeasureEnd:   r.cfg.MeasureEnd,
		// In-process shards share the router's tracer (and so its job
		// registry, bound at routing), tagging decide spans per shard.
		Tracer:     r.cfg.Tracer,
		TraceShard: i,
	}
}

// shardList returns a copy of the shard slice, so a caller can talk to
// the shards — possibly over the wire — without holding the router
// lock (RebuildShard may swap an entry meanwhile).
func (r *Router) shardList() []engine.Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]engine.Shard(nil), r.shards...)
}

// Submit admits a new job: the router assigns the next free global ID,
// places the job on a shard, and the shard stamps the submit time. With
// ErrUncertain it returns the ID it burned: the job may run under it.
func (r *Router) Submit(spec job.Job) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec.ID = r.nextID
	err := r.routeLocked(spec)
	if err != nil && !errors.Is(err, ErrUncertain) {
		return 0, err
	}
	return spec.ID, err
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
	// A retry of an ID whose first submit is parked is as uncertain as
	// that submit was, until the reconcile finds the job there or not.
	if slices.ContainsFunc(r.pending, func(p pendingMig) bool { return p.id == j.ID && p.stage == stageSubmit }) {
		return fmt.Errorf("%w: job %d: its first submit is not settled", ErrUncertain, j.ID)
	}
	// An ID the directory lacks may still be held by a shard that a
	// restarted front did not route it to; while a shard that might
	// hold it cannot be asked, the job is refused rather than risk one
	// ID on two shards.
	_, dup := r.dir[j.ID]
	if !dup {
		var err error
		if _, _, dup, err = r.holderLocked(j.ID); err != nil {
			return err
		}
	}
	if dup {
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
	tr := r.cfg.Tracer
	if tr != nil {
		// A job arriving through a traced front-end server is already
		// bound; a job submitted directly to the router makes the router
		// its front door, so the trace roots here.
		var bound bool
		if tc, bound = tr.Lookup(j.ID); !bound {
			tc = tr.Mint()
			tr.Bind(j.ID, tc)
			tr.Record("submit", tc, j.ID, -1, tr.Now(), 0)
		}
	}
	t0 := time.Now()
	cands := r.candidatesLocked(j)
	if len(cands) == 0 {
		return fmt.Errorf("federation: %w: job %d needs %d nodes, widest shard has %d",
			ErrTooWide, j.ID, j.Nodes, slices.Max(r.caps))
	}
	pick := cands[r.cfg.Placement.Pick(j, cands)].Shard
	routeDur := time.Since(t0)
	r.routingNs += routeDur.Nanoseconds()
	r.routingDecisions++
	tr.Record("route", tc, j.ID, pick, tr.Now().Add(-routeDur), routeDur)
	err := r.writeLocked(pick).SubmitJob(j)
	// Degraded mode: an unreachable shard certainly never saw the job,
	// so it is safe to route around it. Uncertain failures are the
	// opposite — the job MAY be admitted there, so rerouting could
	// double-admit; the ID is burned, the directory entry parked, and
	// the rebalance tick resolves it by asking the shard once it answers.
	for errors.Is(err, ErrUnreachable) && len(cands) > 1 {
		cands = slices.DeleteFunc(cands, func(c Candidate) bool { return c.Shard == pick })
		from := pick
		pick = cands[r.cfg.Placement.Pick(j, cands)].Shard
		r.reroutes++
		r.logJob(j.ID).Warn("rerouting around unreachable shard", "from", from, "to", pick)
		err = r.writeLocked(pick).SubmitJob(j)
	}
	if err != nil && !errors.Is(err, ErrUncertain) {
		return err
	}
	// Landed, or (uncertain) possibly landed: either way the ID is
	// burned and the directory points at the shard — provisionally, for
	// a parked submission, until the shard answers a lookup.
	r.dir[j.ID] = pick
	if j.ID >= r.nextID {
		r.nextID = j.ID + 1
	}
	if err != nil {
		r.parkLocked(pendingMig{id: j.ID, shard: pick, stage: stageSubmit})
	}
	r.armRebalanceLocked()
	return err
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
	for i := range r.shards {
		if j.Nodes > r.caps[i] {
			continue
		}
		c := Candidate{Shard: i, Load: r.loadLocked(i, j.ID)}
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

// cachedLoad is one shard's last Load answer, its window re-anchored on
// the router's clock; ok is false until the shard answers a probe, and
// again after a drop. A dark shard's ld is its last-known load.
type cachedLoad struct {
	ld engine.Load
	ok bool
}

// loadLocked returns shard i's load at the router's now. The cached
// answer serves while its window holds and the shard is healthy: a
// shard's load then changes only through the router's own writes,
// which drop it first (writeLocked). Otherwise the shard is probed (a
// "probe" span for job id), and a healthy answer is cached, shifted
// onto the router's clock so a shard whose clock has another origin
// caches too. The router's now is read before the call, so on a moving
// clock the shift only ever closes the window early. A shard that
// cannot be asked answers with its last-known load, shifted to now:
// placement compares dark shards on purpose, when no live one fits
// (candidatesLocked), and a failed submit there is rerouted.
func (r *Router) loadLocked(i, id int) engine.Load {
	now := r.cfg.Clock.Now()
	c := &r.loads[i]
	if c.ok && now <= c.ld.StableUntil && r.healthyLocked(i) {
		return c.ld.At(now)
	}
	p0 := r.cfg.Tracer.Now()
	ld, err := r.shards[i].Load()
	r.traceSpan("probe", id, i, p0)
	if err != nil {
		ld = c.ld
	}
	ld.StableUntil += now - ld.Now
	ld.Now = now
	*c = cachedLoad{ld: ld, ok: r.healthyLocked(i)}
	return ld
}

// writeLocked returns shard i for a submit, admit or withdraw, dropping
// its cached load: the call changes the load, or failed and says
// nothing about it.
func (r *Router) writeLocked(i int) engine.Shard {
	r.loads[i].ok = false
	return r.shards[i]
}
