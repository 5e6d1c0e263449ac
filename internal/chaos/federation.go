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

// FederationResult is the outcome of one federated chaos scenario.
type FederationResult struct {
	// Records is the merged global schedule in completion order.
	Records []sim.Record
	// Accepted is every admitted job in ID order.
	Accepted []job.Job
	// Rejected counts refused submissions (duplicates, hostile specs
	// and too-wide jobs; every injected one must be refused).
	Rejected int
	// RebuiltShard is the shard that was crashed and rebuilt, -1 when
	// FaultCrashRebuild was off.
	RebuiltShard int
	// Federation is the final per-shard report (its Migrations counter
	// shows whether rebalancing actually moved jobs).
	Federation engine.FederationMetrics
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
	if config.Shards < 1 {
		return nil, fmt.Errorf("chaos: %d shards", config.Shards)
	}
	caps, err := federation.PartitionCapacity(cfg.Capacity, config.Shards)
	if err != nil {
		return nil, err
	}
	minCap := caps[len(caps)-1] // partitions are non-increasing

	// The plan's widths are drawn against the narrowest partition so a
	// legitimate job always fits some shard; hostile oversized specs
	// overflow minCap and must be refused (by whole-machine validation
	// or ErrTooWide — either way, refused).
	planCfg := cfg
	planCfg.Capacity = minCap
	p := buildPlan(planCfg)

	vc := engine.NewVirtualClock()
	newPolicy := func(int) sim.Policy {
		pol := cfg.Policy()
		if cfg.Faults&(FaultPolicyPanic|FaultPolicyLatency) != 0 {
			fp := &FlakyPolicy{Inner: pol}
			if cfg.Faults&FaultPolicyPanic != 0 {
				fp.PanicEvery = cfg.PanicEvery
			}
			if cfg.Faults&FaultPolicyLatency != 0 {
				fp.Latency = cfg.Latency
				fp.LatencyEvery = 3
			}
			return fp
		}
		return pol
	}
	router, err := federation.New(federation.Config{
		Capacity:       cfg.Capacity,
		Shards:         config.Shards,
		Policy:         newPolicy,
		Placement:      config.Placement,
		Clock:          vc,
		RebalanceEvery: config.RebalanceEvery,
	})
	if err != nil {
		return nil, err
	}

	h := &harness{}
	for _, ps := range p.submits {
		ps := ps
		vc.AfterFunc(ps.at, func() {
			err := router.SubmitJob(ps.spec)
			h.mu.Lock()
			defer h.mu.Unlock()
			switch {
			case ps.wantErr && err == nil:
				h.fail(fmt.Errorf("chaos: injected-fault submission of job %d was accepted", ps.spec.ID))
			case ps.wantErr:
				h.rejected++
			case err != nil:
				h.fail(fmt.Errorf("chaos: legitimate job %d rejected: %w", ps.spec.ID, err))
			default:
				h.accepted++
			}
		})
	}
	rebuiltShard := -1
	if cfg.Faults&FaultCrashRebuild != 0 {
		rngC := stats.NewRNG(cfg.Seed, 104)
		victim := rngC.IntN(config.Shards)
		vc.AfterFunc(p.crashAt, func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if err := router.RebuildShard(victim); err != nil {
				h.fail(fmt.Errorf("chaos: rebuild shard %d at t=%d: %w", victim, p.crashAt, err))
				return
			}
			rebuiltShard = victim
			h.rebuilt = true
		})
	}

	if cfg.Faults&FaultClockJumps != 0 {
		driveJumps(vc, stats.NewRNG(cfg.Seed, 103))
	} else {
		vc.Run()
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failure != nil {
		return nil, h.failure
	}
	if err := router.Err(); err != nil {
		return nil, err
	}
	res := &FederationResult{
		Records:      router.Records(),
		Rejected:     h.rejected,
		RebuiltShard: rebuiltShard,
		Federation:   router.Federation(),
	}
	for id := 1; id <= cfg.Jobs; id++ {
		st, ok := router.Job(id)
		if !ok {
			return nil, fmt.Errorf("chaos: job %d lost (accepted %d)", id, h.accepted)
		}
		if st.State != engine.StateDone {
			return nil, fmt.Errorf("chaos: job %d still %v after the run", id, st.State)
		}
		res.Accepted = append(res.Accepted, st.Job)
	}
	shardRecs := make([][]sim.Record, router.NumShards())
	for i := range shardRecs {
		shardRecs[i] = router.ShardRecords(i)
	}
	if err := oracle.CheckFederation(cfg.Capacity, router.ShardCapacities(), res.Accepted, shardRecs); err != nil {
		return nil, err
	}
	return res, nil
}
