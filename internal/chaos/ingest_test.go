package chaos

import (
	"fmt"
	"testing"
)

// TestIngestFaultMatrix runs each ingest fault class in isolation and
// in combination; RunIngest fails on any invariant violation (lost or
// double-committed jobs, an accepted duplicate or one refused with
// anything but ErrDuplicateID, unbounded queue growth, a saturation run
// that shed nothing, an oracle violation), so a nil error is the main
// assertion. On top of that, every fault class must demonstrably fire.
func TestIngestFaultMatrix(t *testing.T) {
	cases := []struct {
		name   string
		faults Fault
	}{
		{"none", 0},
		{"bursts", FaultSaturation},
		{"slow-clients", FaultSlowClients},
		{"disconnects", FaultDisconnects},
		{"duplicate-ids", FaultDuplicateIDs},
		{"quota-storm", FaultQuotaStorm},
		{"everything", IngestFaults | FaultDuplicateIDs},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 7} {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				res, err := RunIngest(Config{Seed: seed, Faults: tc.faults, Policy: fcfs})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Records) == 0 || len(res.Records) != len(res.Accepted) {
					t.Fatalf("%d records for %d accepted jobs", len(res.Records), len(res.Accepted))
				}
				if st := res.Stats; st.PeakPending > st.MaxPending {
					t.Fatalf("peak pending %d exceeded bound %d", st.PeakPending, st.MaxPending)
				}
				if tc.faults&FaultSaturation != 0 {
					if res.Shed == 0 {
						t.Error("bursts enabled but no batch was shed")
					}
					if res.Retried != res.Shed {
						t.Errorf("%d shed batches but %d retries landed", res.Shed, res.Retried)
					}
					if res.Stats.Saturations != int64(res.Shed) {
						t.Errorf("stats count %d saturations, driver saw %d",
							res.Stats.Saturations, res.Shed)
					}
				} else if res.Shed != 0 || res.Stats.Saturations != 0 {
					t.Errorf("no burst fault but %d batches shed", res.Shed)
				}
				if tc.faults&FaultDuplicateIDs != 0 && res.DupRejected == 0 {
					t.Error("duplicate injection enabled but none were rejected")
				}
				if tc.faults&FaultDisconnects != 0 && res.Abandoned == 0 {
					t.Error("disconnects enabled but no ticket was abandoned")
				}
				if tc.faults&FaultQuotaStorm != 0 {
					if len(res.QuotaRejected) == 0 {
						t.Error("quota storm enabled but nothing was quota-rejected")
					}
					if res.Stats.QuotaRejected != int64(len(res.QuotaRejected)) {
						t.Errorf("stats count %d quota rejections, driver saw %d",
							res.Stats.QuotaRejected, len(res.QuotaRejected))
					}
				} else if len(res.QuotaRejected) != 0 {
					t.Error("quota rejections without the quota-storm fault")
				}
			})
		}
	}
}

// ingestFingerprint serializes everything an ingest run determines.
func ingestFingerprint(res *IngestResult) string {
	out := fmt.Sprintf("shed=%d dup=%d quota=%v abandoned=%d\n",
		res.Shed, res.DupRejected, res.QuotaRejected, res.Abandoned)
	for _, r := range res.Records {
		out += fmt.Sprintf("job=%d submit=%d start=%d end=%d nodes=%v\n",
			r.Job.ID, r.Job.Submit, r.Start, r.End, r.NodeIDs)
	}
	return out
}

// TestIngestDeterminism replays fault mixes with the same seed and
// requires bit-identical outcomes — committed schedule, shed counts,
// quota-rejected IDs — even though the accept queue runs a concurrent
// committer goroutine. The Flush that ends every delivery, before the
// clock can move, is what makes this hold.
func TestIngestDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults Fault
	}{
		{"bursts+duplicate-ids", FaultSaturation | FaultDuplicateIDs},
		{"slow-clients+disconnects+quota-storm", FaultSlowClients | FaultDisconnects | FaultQuotaStorm},
		{"bursts+slow-clients+disconnects+duplicate-ids+quota-storm", IngestFaults | FaultDuplicateIDs},
	} {
		faults := tc.faults
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 42, Faults: faults, Policy: lxf}
			a, err := RunIngest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunIngest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := ingestFingerprint(a), ingestFingerprint(b); fa != fb {
				t.Fatalf("same seed, different outcome:\n--- run 1 ---\n%s--- run 2 ---\n%s", fa, fb)
			}
		})
	}
}

// TestIngestSearchPolicy drives the full fault mix into a search-based
// policy: scheduling cost must not break ingest invariants.
func TestIngestSearchPolicy(t *testing.T) {
	res, err := RunIngest(Config{Seed: 3, Faults: IngestFaults | FaultDuplicateIDs, Policy: dds, Jobs: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no jobs completed")
	}
}

// TestIngestFaultString: the accept queue's fault classes are Fault bits
// and name themselves like the rest.
func TestIngestFaultString(t *testing.T) {
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{FaultSaturation | FaultQuotaStorm, "saturation+quota-storm"},
		{IngestFaults, "saturation+slow-clients+disconnects+quota-storm"},
		{IngestFaults | FaultDuplicateIDs, "duplicate-ids+saturation+slow-clients+disconnects+quota-storm"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Fault(%#x).String() = %q, want %q", uint(tc.f), got, tc.want)
		}
	}
}

func TestIngestConfigRequiresPolicy(t *testing.T) {
	if _, err := RunIngest(Config{Seed: 1}); err == nil {
		t.Fatal("RunIngest accepted a config without a policy")
	}
	if _, err := RunIngest(Config{Seed: 1, Faults: FaultHostileSpecs, Policy: fcfs}); err == nil {
		t.Fatal("RunIngest accepted FaultHostileSpecs")
	}
}
