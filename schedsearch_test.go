package schedsearch_test

import (
	"path/filepath"
	"strings"
	"testing"

	"schedsearch"
	"schedsearch/internal/job"
	"schedsearch/internal/trace"
)

func TestParsePolicyNames(t *testing.T) {
	good := []string{
		"FCFS-backfill", "LXF-backfill", "SJF-backfill", "LXFW-backfill",
		"Selective-backfill", "Relaxed-backfill", "Slack-backfill", "Lookahead",
		"Conservative-backfill",
		"DDS/lxf/dynB", "LDS/fcfs/dynB", "DDS/fcfs/100h", "LDS/lxf/50h",
	}
	for _, name := range good {
		p, err := schedsearch.ParsePolicy(name, 1000)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("ParsePolicy(%q) returned nil", name)
		}
	}
	bad := []string{"", "XYZ", "DDS/lxf", "DDS/xyz/dynB", "XXX/lxf/dynB", "DDS/lxf/banana", "DDS/lxf/-5h"}
	for _, name := range bad {
		if _, err := schedsearch.ParsePolicy(name, 1000); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
}

func TestParsePolicyRoundTripsNames(t *testing.T) {
	for _, name := range []string{"FCFS-backfill", "LXF-backfill", "DDS/lxf/dynB", "LDS/fcfs/100h"} {
		p, err := schedsearch.ParsePolicy(name, 500)
		if err != nil {
			t.Fatal(err)
		}
		want := name
		if strings.Contains(name, "100h") {
			want = "LDS/fcfs/fixB=100h" // canonical form
		}
		if got := p.Name(); got != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", name, got, want)
		}
	}
}

func TestRunMonthEndToEnd(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 1, JobScale: 0.1})
	pol := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
		schedsearch.DynamicBound(), 500)
	sum, res, err := schedsearch.RunMonth(suite, "6/03", schedsearch.SimOptions{}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs == 0 {
		t.Fatal("no jobs measured")
	}
	if sum.Policy != "DDS/lxf/dynB" {
		t.Errorf("policy = %q", sum.Policy)
	}
	if len(res.Records) < sum.Jobs {
		t.Errorf("records %d < measured %d", len(res.Records), sum.Jobs)
	}
	if pol.SearchStats.Decisions == 0 {
		t.Error("search never ran")
	}
	e := schedsearch.ExcessiveWait(res, sum.MaxWaitH)
	if e.Count != 0 {
		t.Errorf("excess w.r.t. own max: %+v", e)
	}
}

// TestLoadInputCapacity: a generated month's jobs are drawn for
// DefaultCap nodes, so a smaller machine is refused, a larger one is
// the machine replayed, and no capacity means DefaultCap. A trace is
// refused a machine narrower than its widest job; no capacity means its
// header's MaxNodes, grown to hold that job.
func TestLoadInputCapacity(t *testing.T) {
	cfg := schedsearch.SuiteConfig{Seed: 1, JobScale: 0.02}
	if _, _, err := schedsearch.LoadInput("", 64, cfg, "1/04", schedsearch.SimOptions{}); err == nil ||
		!strings.Contains(err.Error(), "capacity 64") {
		t.Errorf("capacity 64: error %v, want a refusal naming it", err)
	}
	for _, tc := range []struct{ capacity, want int }{{256, 256}, {0, schedsearch.DefaultCap}} {
		in, m, err := schedsearch.LoadInput("", tc.capacity, cfg, "1/04", schedsearch.SimOptions{})
		if err != nil {
			t.Fatalf("capacity %d: %v", tc.capacity, err)
		}
		if in.Capacity != tc.want || m == nil || len(in.Jobs) == 0 {
			t.Errorf("capacity %d: %d jobs on %d nodes, want %d nodes", tc.capacity, len(in.Jobs), in.Capacity, tc.want)
		}
	}

	dir := t.TempDir()
	jobs := []job.Job{
		{ID: 1, Submit: 0, Nodes: 4, Runtime: 600, Request: 900, User: 1},
		{ID: 2, Submit: 60, Nodes: 16, Runtime: 600, Request: 900, User: 2},
	}
	for _, tc := range []struct {
		header, capacity, want int // want 0: refused
	}{{8, 8, 0}, {8, 15, 0}, {8, 16, 16}, {8, 32, 32}, {8, 0, 16}, {64, 0, 64}} {
		swf := filepath.Join(dir, "t.swf")
		if err := trace.WriteSWFFile(swf, jobs, trace.Header{MaxNodes: tc.header}); err != nil {
			t.Fatal(err)
		}
		in, _, err := schedsearch.LoadInput(swf, tc.capacity, cfg, "", schedsearch.SimOptions{})
		switch {
		case tc.want == 0 && (err == nil || !strings.Contains(err.Error(), "16-node job")):
			t.Errorf("trace with MaxNodes %d, capacity %d: error %v, want a refusal naming the 16-node job", tc.header, tc.capacity, err)
		case tc.want != 0 && (err != nil || in.Capacity != tc.want || len(in.Jobs) != 2):
			t.Errorf("trace with MaxNodes %d, capacity %d: %d jobs on %d nodes (%v), want 2 on %d",
				tc.header, tc.capacity, len(in.Jobs), in.Capacity, err, tc.want)
		}
	}
}

func TestRunMonthUnknownMonth(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 1, JobScale: 0.05})
	if _, _, err := schedsearch.RunMonth(suite, "4/03", schedsearch.SimOptions{},
		schedsearch.FCFSBackfill()); err == nil {
		t.Error("unknown month accepted")
	}
}

func TestMonthLabels(t *testing.T) {
	labels := schedsearch.MonthLabels()
	if len(labels) != 10 || labels[0] != "6/03" || labels[9] != "3/04" {
		t.Errorf("labels = %v", labels)
	}
}
