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
	"schedsearch/internal/engine"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// goldenRun reproduces the `schedsim -json` pipeline in-process at
// reduced scale and returns the serialized metrics with the
// wall-clock-dependent fields zeroed (search timing varies run to run;
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
	m := engine.OfflineMetrics(res, metrics.Summarize(res), pol)
	m.Engine.SearchWallMs = 0
	m.Engine.SearchSpeedup = 0
	m.Engine.AvgDecideMs = 0
	m.Engine.MaxDecideMs = 0
	// How many of the nodes were walked is the search's business, like
	// its wall time; the goldens pin the schedule and the counts.
	m.Engine.SearchTableNodes = 0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraces pins the complete `schedsim -json` output for three
// seeded months under the paper's baseline and best policies. Any
// schedule drift — a changed start time anywhere in the month shifts
// the waits, slowdowns and queue integrals — fails the diff. Run with
// -update after an intended behavior change.
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
