package chaos

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
)

// TestRunFederationRemote drives the out-of-process federation chaos
// harness through its full fault mix: shard processes behind the
// in-memory wire, a whole-process shard kill with a journal-rebuild
// restart, and partition faults (refused connections, black-hole
// timeouts, dropped responses) between the router and one shard. A nil
// error is the machine-checked certificate: no acknowledged job lost,
// none double-admitted, merged schedule oracle-clean. Each seed runs
// twice: with no socket and no wall clock under it, the remote tier must
// replay its schedule and its parked steps exactly.
func TestRunFederationRemote(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			run := func() *RemoteFederationResult {
				res, err := RunFederationRemote(RemoteFederationConfig{
					FederationConfig: FederationConfig{
						Config: Config{
							Seed:   seed,
							Faults: AllFaults | FaultPartition,
							Policy: dds,
							Jobs:   80,
						},
						Shards:         4,
						RebalanceEvery: 120,
					},
					Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("seed %d: %v (reproduce: chaos.RunFederationRemote with this seed)", seed, err)
				}
				return res
			}
			res, again := run(), run()
			if len(res.Records) == 0 {
				t.Fatal("no jobs completed")
			}
			if res.RebuiltShard < 0 {
				t.Fatal("the shard-process kill/restart never fired")
			}
			if res.PartitionedShard < 0 {
				t.Fatal("no partition windows were injected")
			}
			fp := func(r *RemoteFederationResult) string {
				return fmt.Sprintf("uncertain=%d reroutes=%d migrations=%d parked=%+v reconciled=%+v\n", r.Uncertain,
					r.Federation.Reroutes, r.Federation.Migrations, r.Parked, r.Reconciled) +
					recordFingerprint(&Result{Records: r.Records, Rejected: r.Rejected})
			}
			if a, b := fp(res), fp(again); a != b {
				t.Fatalf("same seed, different remote runs:\n--- run A ---\n%s--- run B ---\n%s", a, b)
			}
			t.Logf("seed %d: %d completed, %d rejected, %d wire-uncertain, shard %d killed+restarted, shard %d partitioned, %d reroutes, %d migrations, parked %+v, reconciled %+v",
				seed, len(res.Records), res.Rejected, res.Uncertain,
				res.RebuiltShard, res.PartitionedShard, res.Federation.Reroutes,
				res.Federation.Migrations, res.Parked, res.Reconciled)
		})
	}
}

// TestRunFederationRemotePartitionOnly isolates the partition fault:
// no crash, no policy faults — any job loss or double admission is
// then attributable to the wire-failure handling alone (reroute only
// on certain failures, park-and-reconcile on uncertain ones).
func TestRunFederationRemotePartitionOnly(t *testing.T) {
	res, err := RunFederationRemote(RemoteFederationConfig{
		FederationConfig: FederationConfig{
			Config: Config{
				Seed:   5,
				Faults: FaultPartition,
				Policy: fcfs,
				Jobs:   60,
			},
			Shards: 3,
		},
		Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionedShard < 0 {
		t.Fatal("no partition windows were injected")
	}
	t.Logf("%d completed, %d wire-uncertain, %d reroutes",
		len(res.Records), res.Uncertain, res.Federation.Reroutes)
}

// FuzzRemoteFederation runs the remote federation under partition faults
// plus a fuzzed mask of the other fault classes, on 2–5 shards and 40–60
// jobs. The property is the run's own: its no-loss / no-double-admit
// sweep and oracle.CheckFederation, so any error fails. The seed rows are
// TestRunFederationRemote's seeds 3 and 9 and
// TestRunFederationRemotePartitionOnly's seed 5.
func FuzzRemoteFederation(f *testing.F) {
	f.Add(uint64(3), uint8(AllFaults), uint8(2))
	f.Add(uint64(9), uint8(AllFaults), uint8(2))
	f.Add(uint64(5), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, faults uint8, shards uint8) {
		cfg := RemoteFederationConfig{
			FederationConfig: FederationConfig{
				Config: Config{
					Seed:   seed,
					Faults: Fault(faults) | FaultPartition,
					Policy: dds,
					Jobs:   40 + int(seed%21),
				},
				Shards: 2 + int(shards%4),
			},
			Dir: t.TempDir(),
		}
		if _, err := RunFederationRemote(cfg); err != nil {
			t.Fatalf("seed %d faults %v shards %d: %v", seed, cfg.Faults, cfg.Shards, err)
		}
	})
}

// TestRunFederationRemoteValidation covers the config seams.
func TestRunFederationRemoteValidation(t *testing.T) {
	if _, err := RunFederationRemote(RemoteFederationConfig{
		FederationConfig: FederationConfig{
			Config: Config{Seed: 1, Policy: fcfs},
			Shards: 1,
		},
		Dir: t.TempDir(),
	}); err == nil {
		t.Fatal("1-shard remote federation must be rejected")
	}
	if _, err := RunFederationRemote(RemoteFederationConfig{
		FederationConfig: FederationConfig{
			Config: Config{Seed: 1, Policy: fcfs},
			Shards: 2,
		},
	}); err == nil {
		t.Fatal("missing Dir must be rejected")
	}
	if got := FaultPartition.String(); got != "partition" {
		t.Fatalf("FaultPartition.String() = %q", got)
	}
}

// TestWireFaultBeatsDeadProcess pins the wire's precedence: a request to
// a killed shard under a black-hole window is lost like any other — the
// caller stays uncertain and the router parks — and only without one is
// it refused at the dial, which the router may reroute around.
func TestWireFaultBeatsDeadProcess(t *testing.T) {
	sp := &shardProc{faults: newFaultTable()} // never started: no handler
	req, _ := http.NewRequest(http.MethodPost, "http://shard-0/v1/jobs", nil)
	var dial *net.OpError
	if _, err := sp.RoundTrip(req); !errors.As(err, &dial) || dial.Op != "dial" {
		t.Fatalf("dead process, no fault: %v, want a dial error", err)
	}
	sp.faults[rowWindow].action, sp.faults[rowWindow].open = ftBlackhole, true
	if _, err := sp.RoundTrip(req); err == nil || errors.As(err, &dial) {
		t.Fatalf("dead process under a black-hole window: %v, want a non-dial error", err)
	}
}
