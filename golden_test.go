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

// goldenRun simulates one month at reduced scale with sim.Run and
// returns the serialized metrics in the `schedsim -json` schema, without
// the wall-clock-dependent fields (search timing varies run to run;
// everything else is bit-deterministic).
func goldenRun(t *testing.T, month, polName string) []byte {
	t.Helper()
	suite := workload.NewSuite(workload.Config{Seed: 1, JobScale: 0.05})
	in, _, err := suite.Input(month, workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := schedsearch.ParsePolicy(polName, 200)
	if err != nil {
		t.Fatal(err)
	}
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

// TestGoldenTraces pins the simulator's metrics for three seeded months
// under the paper's baseline and best policies (TestSchedsimJSON holds
// `schedsim -json` to them). Any schedule drift — a changed start time
// anywhere in the month shifts the waits, slowdowns and queue integrals
// — fails the diff. Run with -update after an intended behavior change.
func TestGoldenTraces(t *testing.T) {
	months := []string{"7/03", "10/03", "1/04"}
	policies := []string{"FCFS-backfill", "LXF-backfill", "DDS/lxf/dynB"}
	for _, month := range months {
		for _, polName := range policies {
			name := strings.NewReplacer("/", "_").Replace(polName + "-" + month)
			t.Run(name, func(t *testing.T) {
				got := goldenRun(t, month, polName)
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
					t.Fatalf("%v (run `go test -run TestGoldenTraces -update .` to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("golden trace drift for %s on month %s.\n--- got ---\n%s--- want (%s) ---\n%s"+
						"If the schedule change is intended, refresh with `go test -run TestGoldenTraces -update .`",
						polName, month, got, path, want)
				}
			})
		}
	}
}
