package chaos

import (
	"fmt"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// FederationConfig describes a chaos scenario against a sharded
// federation instead of a bare engine. The embedded Config keeps its
// meaning, with two twists: job widths are generated against the
// narrowest shard partition (so every legitimate job is admissible
// somewhere), and FaultCrashRebuild crashes and journal-rebuilds ONE
// seeded shard while the others keep scheduling — the federation
// analogue of a partial outage.
type FederationConfig struct {
	Config
	// Shards is the number of engine partitions (>= 2 to be
	// interesting; 1 degenerates to Run's machine).
	Shards int
	// Placement, when non-nil, is a test's routing fake; nil means the
	// federation's one built-in rule.
	Placement federation.Placement
	// RebalanceEvery is the rebalance period (0 disables migration).
	RebalanceEvery job.Duration
}

// FederationResult is the outcome of one federated chaos scenario: its
// Result is the merged global schedule's (too-wide jobs count as
// Rejected); Panics sums the shards' final incarnations (a rebuilt
// shard's count restarts from zero).
type FederationResult struct {
	Result
	// RebuiltShard is the shard that was crashed and rebuilt, -1 when
	// FaultCrashRebuild was off.
	RebuiltShard int
	// Federation is the final per-shard report (its Migrations counter
	// shows whether rebalancing actually moved jobs).
	Federation engine.FederationMetrics
}

// routerTarget is the federation router over in-process shards — and the
// part of the remote target (remote.go) that does not touch a wire.
type routerTarget struct {
	capacity int // whole machine
	router   *federation.Router
	victim   int // FaultCrashRebuild's shard
}

func (t *routerTarget) submit(jobs []job.Job) []error       { return each(jobs, t.router.SubmitJob) }
func (t *routerTarget) open(error) bool                     { return false }
func (t *routerTarget) job(id int) (engine.JobStatus, bool) { return t.router.Job(id) }
func (t *routerTarget) err() error                          { return t.router.Err() }

func (t *routerTarget) crash(rng *stats.RNG) (func(), func() error, job.Duration) {
	t.victim = rng.IntN(t.router.NumShards())
	return func() {}, func() error { return t.router.RebuildShard(t.victim) }, 0
}

// verify checks the cross-shard invariants: no job completed on two
// shards (migration withdraws before re-admitting; retries are answered
// by tombstones, never by a second copy), then oracle.CheckFederation.
func (t *routerTarget) verify(accepted []job.Job) error {
	shardRecs := make([][]sim.Record, t.router.NumShards())
	owner := make(map[int]int)
	for i := range shardRecs {
		shardRecs[i] = t.router.ShardRecords(i)
		for _, rec := range shardRecs[i] {
			if prev, dup := owner[rec.Job.ID]; dup {
				return fmt.Errorf("chaos: job %d double-admitted: completed on shards %d and %d",
					rec.Job.ID, prev, i)
			}
			owner[rec.Job.ID] = i
		}
	}
	return oracle.CheckFederation(t.capacity, t.router.ShardCapacities(), accepted, shardRecs)
}

// result assembles the federated result once the run is verified.
func (t *routerTarget) result(out *outcome) FederationResult {
	res := FederationResult{Result: out.Result, RebuiltShard: -1, Federation: t.router.Federation()}
	res.Records, res.Panics = t.router.Records(), res.Federation.Global.Engine.PolicyPanics
	if out.Rebuilt {
		res.RebuiltShard = t.victim
	}
	return res
}

// RunFederation executes one federated scenario to completion and
// verifies the cross-shard invariants with oracle.CheckFederation: job
// conservation across migrations and the shard crash, shard-local node
// allocation, and the whole-machine schedule invariants on the merged
// records. A nil error is a machine-checked certificate that the
// federation survived the fault mix intact.
func RunFederation(config FederationConfig) (*FederationResult, error) {
	cfg, err := config.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	caps, err := federation.PartitionCapacity(cfg.Capacity, config.Shards)
	if err != nil {
		return nil, err
	}
	t := &routerTarget{capacity: cfg.Capacity}
	// The plan's widths are drawn against the narrowest partition (they
	// are non-increasing, by one node at most) so a legitimate job fits
	// every shard, and a hostile oversized spec, two nodes wider or more,
	// none: it is refused by whole-machine validation or ErrTooWide.
	out, err := runScenario(cfg, caps[len(caps)-1], func(vc *engine.VirtualClock, newPolicy func() sim.Policy) (target, error) {
		t.router, err = federation.New(federation.Config{
			Capacity:       cfg.Capacity,
			Shards:         config.Shards,
			Policy:         func(int) sim.Policy { return newPolicy() },
			Placement:      config.Placement,
			Clock:          vc,
			RebalanceEvery: config.RebalanceEvery,
		})
		return t, err
	}, nil)
	if err != nil {
		return nil, err
	}
	res := t.result(out)
	return &res, nil
}
