package schedsearch_test

import (
	"testing"

	"schedsearch"
	"schedsearch/internal/chaos"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// TestChaosSoak is the long-running fault-injection soak: many seeds,
// every fault enabled at once, across the policy families, with the
// oracle checking every run (chaos.Run fails on any invariant
// violation). CI runs it under -race; -short cuts the seed count so
// the pre-commit loop stays fast.
func TestChaosSoak(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	policies := []struct {
		name string
		make func() sim.Policy
	}{
		{"FCFS-backfill", func() sim.Policy { return schedsearch.FCFSBackfill() }},
		{"LXF-backfill", func() sim.Policy { return schedsearch.LXFBackfill() }},
		{"DDS-lxf-dynB", func() sim.Policy {
			return schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
				schedsearch.DynamicBound(), 100)
		}},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				res, err := chaos.Run(chaos.Config{
					Seed:   seed,
					Faults: chaos.AllFaults,
					Policy: pol.make,
					Jobs:   100,
				})
				if err != nil {
					t.Fatalf("seed %d: %v (reproduce: chaos.Run with this seed and AllFaults)", seed, err)
				}
				if len(res.Records) == 0 {
					t.Fatalf("seed %d: no jobs completed", seed)
				}
				t.Logf("seed %d: %d completed, %d rejected, %d panics recovered, rebuilt=%v",
					seed, len(res.Records), res.Rejected, res.Panics, res.Rebuilt)
			}
		})
	}
}

// pinFirst is the Placement fake the federated soaks skew routing with:
// every job goes to the first eligible shard.
type pinFirst struct{}

func (pinFirst) Name() string                             { return "pin-first" }
func (pinFirst) Pick(job.Job, []federation.Candidate) int { return 0 }

// soakPlacements are what the federated soaks route under: nil is the
// federation's built-in rule, which placementName names as the router
// reports it.
var soakPlacements = []federation.Placement{nil, pinFirst{}}

func placementName(p federation.Placement) string {
	if p == nil {
		p = federation.BestFit{}
	}
	return p.Name()
}

// TestChaosSoakFederation soaks the sharded federation under the same
// fault mix: every fault class at once — including the single-shard
// crash-rebuild while the other shards keep scheduling — under the
// built-in placement and a fake that piles every job onto one shard,
// with oracle.CheckFederation certifying every run
// (conservation across migrations, shard-local allocation, global
// schedule invariants). Run under -race this also hammers the router's
// locking against concurrent shard timers.
func TestChaosSoakFederation(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	totalMigrations, totalPanics := int64(0), int64(0)
	for _, place := range soakPlacements {
		place := place
		t.Run(placementName(place), func(t *testing.T) {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				res, err := chaos.RunFederation(chaos.FederationConfig{
					Config: chaos.Config{
						Seed:   seed,
						Faults: chaos.AllFaults,
						Policy: func() sim.Policy {
							return schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
								schedsearch.DynamicBound(), 100)
						},
						Jobs: 100,
					},
					Shards:         4,
					Placement:      place,
					RebalanceEvery: 120,
				})
				if err != nil {
					t.Fatalf("seed %d: %v (reproduce: chaos.RunFederation with this seed and AllFaults)", seed, err)
				}
				if len(res.Records) == 0 {
					t.Fatalf("seed %d: no jobs completed", seed)
				}
				if res.RebuiltShard < 0 {
					t.Fatalf("seed %d: crash-rebuild never fired", seed)
				}
				totalMigrations += res.Federation.Migrations
				totalPanics += res.Panics
				t.Logf("seed %d: %d completed, %d rejected, %d panics recovered, shard %d rebuilt, %d migrations",
					seed, len(res.Records), res.Rejected, res.Panics, res.RebuiltShard, res.Federation.Migrations)
			}
		})
	}
	if totalMigrations == 0 {
		t.Error("no migration occurred across the whole soak; the rebalance path went untested")
	}
	if totalPanics == 0 {
		t.Error("no shard recovered a policy panic across the whole soak")
	}
}

// TestChaosSoakFederationRemote soaks the out-of-process federation:
// every shard is a real engine+HTTP-server process-equivalent with its
// own journal, the router drives them as JSON over an in-memory wire,
// and on top of the full in-process fault mix one shard process is
// killed outright and restarted from its journal while partition faults
// (refused connections, black-hole timeouts, responses dropped after
// delivery — including mid-migration, and with the read-back that would
// verify them lost too) hit the wire between the router and a seeded
// shard. chaos.RunFederationRemote fails on any invariant violation: an
// acknowledged job lost, a job admitted on two shards, or an oracle
// violation in the merged schedule. The soak itself fails unless its
// faults reached degraded routing and every one of the router's three
// reconcile stages; nothing here waits on a socket or the wall clock, so
// -short runs it whole.
func TestChaosSoakFederationRemote(t *testing.T) {
	totalReroutes := int64(0)
	parked, reconciled := map[string]int{}, map[string]int{}
	for _, place := range soakPlacements {
		place := place
		t.Run(placementName(place), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				res, err := chaos.RunFederationRemote(chaos.RemoteFederationConfig{
					FederationConfig: chaos.FederationConfig{
						Config: chaos.Config{
							Seed:   seed,
							Faults: chaos.AllFaults | chaos.FaultPartition,
							Policy: func() sim.Policy {
								return schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
									schedsearch.DynamicBound(), 100)
							},
							Jobs: 80,
						},
						Shards:         4,
						Placement:      place,
						RebalanceEvery: 120,
					},
					Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("seed %d: %v (reproduce: chaos.RunFederationRemote with this seed)", seed, err)
				}
				if len(res.Records) == 0 {
					t.Fatalf("seed %d: no jobs completed", seed)
				}
				if res.RebuiltShard < 0 {
					t.Fatalf("seed %d: the shard-process kill/restart never fired", seed)
				}
				totalReroutes += res.Federation.Reroutes
				for _, stage := range []string{"submit", "withdraw", "admit"} {
					parked[stage] += res.Parked[stage]
					reconciled[stage] += res.Reconciled[stage]
				}
				t.Logf("seed %d: %d completed, %d rejected, %d wire-uncertain, shard %d killed+restarted, shard %d partitioned, %d reroutes, %d migrations, parked %+v, reconciled %+v",
					seed, len(res.Records), res.Rejected, res.Uncertain,
					res.RebuiltShard, res.PartitionedShard, res.Federation.Reroutes, res.Federation.Migrations,
					res.Parked, res.Reconciled)
			}
		})
	}
	if totalReroutes == 0 {
		t.Error("no submission was ever rerouted across the whole soak; the degraded-routing path went untested")
	}
	for stage, n := range parked {
		if n == 0 || reconciled[stage] == 0 {
			t.Errorf("%s steps across the whole soak: %d parked, %d reconciled; a reconcile stage went untested",
				stage, n, reconciled[stage])
		}
	}
}

// TestChaosSoakIngest soaks the batched ingest path: a saturating burst
// past the accept-queue bound, slow clients trickling items,
// disconnects abandoning tickets mid-batch and a quota storm, on top of
// every engine fault the queue admits (all but hostile specs, whose zero
// ID asks the queue for a fresh one) — the engine crash-rebuilt behind
// the queue included — all at once, per seed, across policies.
// chaos.RunIngest fails on any invariant violation: a lost or
// double-committed job, an accepted duplicate, queue memory past its
// bound (the bounded-backpressure guarantee), or an oracle violation in
// the final schedule.
func TestChaosSoakIngest(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	policies := []struct {
		name string
		make func() sim.Policy
	}{
		{"FCFS-backfill", func() sim.Policy { return schedsearch.FCFSBackfill() }},
		{"DDS-lxf-dynB", func() sim.Policy {
			return schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
				schedsearch.DynamicBound(), 100)
		}},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				res, err := chaos.RunIngest(chaos.Config{
					Seed:   seed,
					Faults: chaos.AllFaults&^chaos.FaultHostileSpecs | chaos.IngestFaults,
					Policy: pol.make,
					Jobs:   120,
				})
				if err != nil {
					t.Fatalf("seed %d: %v (reproduce: chaos.RunIngest with this seed and the same faults)", seed, err)
				}
				if res.Shed == 0 {
					t.Fatalf("seed %d: no batch was ever shed; the burst never pressed the bound", seed)
				}
				if !res.Rebuilt {
					t.Fatalf("seed %d: the engine behind the queue was never crash-rebuilt", seed)
				}
				t.Logf("seed %d: %d committed, %d shed+retried, %d dups rejected, %d quota-rejected, peak pending %d/%d",
					seed, len(res.Records), res.Shed, res.DupRejected,
					len(res.QuotaRejected), res.Stats.PeakPending, res.Stats.MaxPending)
			}
		})
	}
}
