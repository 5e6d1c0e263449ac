package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"schedsearch/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

// TestScenarioFingerprints pins the committed schedule of Run and
// RunFederation, seed for seed, against a golden written before the
// three drivers became one runner: a refactor of the harness that moves
// a submit, a crash instant or an RNG draw changes a hash here.
func TestScenarioFingerprints(t *testing.T) {
	pols := map[string]func() sim.Policy{"fcfs": fcfs, "lxf": lxf, "dds": dds}
	rows := []struct {
		seed   uint64
		faults Fault
		pol    string
		shards int // 0: Run; otherwise RunFederation with RebalanceEvery 120
	}{
		{1, 0, "fcfs", 0},
		{1, AllFaults, "fcfs", 0},
		{1, AllFaults, "dds", 0},
		{7, AllFaults, "lxf", 0},
		{7, FaultClockJumps | FaultBurstSubmits, "dds", 0},
		{11, FaultPolicyPanic | FaultReorderedSubmits, "dds", 0},
		{23, AllFaults &^ FaultPolicyPanic, "dds", 0},
		{23, FaultCrashRebuild | FaultDuplicateIDs | FaultHostileSpecs, "lxf", 0},
		{1, 0, "fcfs", 3},
		{1, AllFaults, "dds", 4},
		{2, AllFaults, "dds", 4},
		{5, AllFaults, "fcfs", 2},
		{5, FaultCrashRebuild | FaultClockJumps, "lxf", 4},
		{9, AllFaults &^ FaultCrashRebuild, "dds", 3},
	}
	var got strings.Builder
	for _, row := range rows {
		name := fmt.Sprintf("seed=%d faults=%s policy=%s shards=%d", row.seed, row.faults, row.pol, row.shards)
		cfg := Config{Seed: row.seed, Faults: row.faults, Policy: pols[row.pol], Jobs: 90}
		var fp string
		if row.shards == 0 {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fp = recordFingerprint(res)
		} else {
			res, err := RunFederation(FederationConfig{Config: cfg, Shards: row.shards, RebalanceEvery: 120})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fp = fmt.Sprintf("rebuilt=%d migrations=%d\n", res.RebuiltShard, res.Federation.Migrations) +
				recordFingerprint(&Result{Records: res.Records, Rejected: res.Rejected})
		}
		fmt.Fprintf(&got, "%x %s\n", sha256.Sum256([]byte(fp)), name)
	}
	const path = "testdata/fingerprints.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("scenario fingerprints moved (rerun with -update only for a deliberate schedule change):\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
