package schedsearch_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// goldenMonths are the seeded months every golden policy is pinned on.
var goldenMonths = []string{"7/03", "10/03", "1/04"}

// goldenInput generates one seeded month at the given job scale and
// target load (0: the month's own load).
func goldenInput(t *testing.T, month string, jobScale, load float64) sim.Input {
	t.Helper()
	suite := workload.NewSuite(workload.Config{Seed: 1, JobScale: jobScale})
	in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: load})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// goldenRun simulates the input under a fresh policy with sim.Run and
// returns the serialized metrics in the `schedsim -json` schema, without
// the wall-clock-dependent fields (search timing varies run to run;
// everything else is bit-deterministic).
func goldenRun(t *testing.T, in sim.Input, pol sim.Policy) []byte {
	t.Helper()
	res, err := sim.Run(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckRecords(in.Capacity, in.Jobs, res.Records); err != nil {
		t.Fatal(err)
	}
	m := engine.Metrics{
		Policy:   res.Policy,
		NowS:     res.MeasureEnd,
		Capacity: res.Capacity,
		Jobs:     engine.JobCounts{Done: len(res.Records)},
		Summary:  metrics.Summarize(res),
		Engine:   engine.Counters{Decisions: int64(res.Decisions)},
	}
	// Wall times, and how many of the nodes were walked, are the
	// search's business and stay zero; the goldens pin the schedule and
	// the counts.
	if sch := core.SchedulerOf(pol); sch != nil {
		st := sch.SearchStats
		m.Engine.SearchNodes, m.Engine.SearchLeaves = st.Nodes, st.Leaves
		m.Engine.BudgetHits = int64(st.BudgetHits)
		m.Engine.SearchNodesToBest = st.NodesToBest
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGolden compares got with testdata/golden/<name>.json, or writes
// it there under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden trace drift for %s.\n--- got ---\n%s--- want (%s) ---\n%s"+
			"If the schedule change is intended, refresh with `go test -run TestGolden -update .`",
			name, got, path, want)
	}
}

// goldenName is a policy-and-month golden's file stem.
func goldenName(polName, month string) string {
	return strings.NewReplacer("/", "_").Replace(polName + "-" + month)
}

// TestGoldenTraces pins the simulator's metrics for three seeded months
// under the paper's baseline and best policies (TestSchedsimJSON holds
// `schedsim -json` to them). Any schedule drift — a changed start time
// anywhere in the month shifts the waits, slowdowns and queue integrals
// — fails the diff. Run with -update after an intended behavior change.
func TestGoldenTraces(t *testing.T) {
	policies := []string{"FCFS-backfill", "LXF-backfill", "DDS/lxf/dynB"}
	for _, month := range goldenMonths {
		for _, polName := range policies {
			t.Run(goldenName(polName, month), func(t *testing.T) {
				pol, err := schedsearch.ParsePolicy(polName, 200)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, goldenName(polName, month), goldenRun(t, goldenInput(t, month, 0.05, 0), pol))
			})
		}
	}
}

// TestGoldenFairshare pins the fairshare extension, which the policy
// grammar cannot name, on the same months: DDS/lxf/dynB at L = 200 with
// slowdown divisors of strength 4, at ρ = 0.9 as in ext-fairshare. The
// scale is 0.1, not 0.05: at 0.05 no month's queue is deep enough for a
// divisor to change a start. The test also requires some month to
// schedule differently from the unwrapped scheduler, so the divisors are
// exercised, not just carried.
func TestGoldenFairshare(t *testing.T) {
	const alpha = 4
	exercised := false
	for _, month := range goldenMonths {
		name := goldenName("DDS/lxf/dynB+fs4", month)
		t.Run(name, func(t *testing.T) {
			in := goldenInput(t, month, 0.1, 0.9)
			got := goldenRun(t, in, core.NewFairshare(core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200), alpha))
			checkGolden(t, name, got)
			plain := goldenRun(t, in, core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200))
			exercised = exercised || !bytes.Equal(bytes.ReplaceAll(got, []byte("+fs"), nil), plain)
		})
	}
	if !exercised {
		t.Error("fairshare scheduled every golden month exactly as the unwrapped scheduler: the divisors are not exercised")
	}
}
