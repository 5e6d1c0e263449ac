package main

import (
	"io"
	"reflect"
	"testing"

	"schedsearch/internal/workload"
)

// tinySizing shrinks every workload to a fraction of a second.
func tinySizing() sizing {
	return sizing{
		SuiteScale:     0.05,
		ServeScale:     0.02,
		FedScale:       0.05,
		SuiteLimit:     100,
		DeepLimit:      2000,
		DeepVariants:   3,
		DeepMinSamples: 3,
		StormJobs:      640,
		DrainJobs:      128,
		DrainReps:      2,
		SetupReps:      1,
	}
}

func tinyRun(t *testing.T, w workloadDef, seed uint64, trace bool) *result {
	t.Helper()
	ctx := &runCtx{Seed: seed, Seconds: 0, Trace: trace, TmpDir: t.TempDir(), Size: tinySizing(), Log: io.Discard, Out: io.Discard}
	res, err := w.run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d failed operations: %v", w.Name, res.Failed, res.Problems)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: no operation attempted", w.Name)
	}
	return res
}

// Every exact metric is a pure function of the inputs: two runs of one
// seed must agree to the last digit, on the end-to-end ratios and on
// every per-layer count marked exact. Every end-to-end metric must be
// reported, and none may be zero.
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, b := tinyRun(t, w, 1, true), tinyRun(t, w, 1, true)
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range defs {
					if m.Exact && a.Values[m.Name] != b.Values[m.Name] {
						t.Errorf("%s: %v then %v", m.Name, a.Values[m.Name], b.Values[m.Name])
					}
				}
			}
			for _, m := range endToEnd {
				if a.Values[m.Name] <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, a.Values[m.Name])
				}
			}
			if w.Name == "serve_month" {
				// One client, one sync per acknowledged job: the sync
				// count is exact here (two storm clients group by luck).
				if x, y := a.Values["engine.journal_syncs_per_job"], b.Values["engine.journal_syncs_per_job"]; x != y || x < 1 {
					t.Errorf("engine.journal_syncs_per_job: %v then %v, want equal and at least 1", x, y)
				}
			}
			line := a.line(true)
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
		})
	}
}

func TestSeedsGiveDifferentInputs(t *testing.T) {
	labels := workload.MonthLabels()[:2]
	inputs := func(seed uint64) []monthInput {
		st, err := suiteInputs(seed, 0.05, labels, workload.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Months
	}
	a, a2, b := inputs(1), inputs(1), inputs(2)
	if !reflect.DeepEqual(a[0].In.Jobs, a2[0].In.Jobs) {
		t.Error("suite inputs: one seed gave two inputs")
	}
	if reflect.DeepEqual(a[0].In.Jobs, b[0].In.Jobs) {
		t.Error("suite inputs: seeds 1 and 2 gave the same jobs")
	}
	if len(a[0].In.Jobs) != len(b[0].In.Jobs) {
		t.Errorf("suite inputs: seeds change the job count (%d, %d); they may only move arrivals", len(a[0].In.Jobs), len(b[0].In.Jobs))
	}
	if !reflect.DeepEqual(decisionSnapshot(32, 1, 0), decisionSnapshot(32, 1, 0)) {
		t.Error("decision point: one seed gave two inputs")
	}
	if reflect.DeepEqual(decisionSnapshot(32, 1, 0), decisionSnapshot(32, 2, 0)) {
		t.Error("decision point: seeds 1 and 2 gave the same queue")
	}
	if reflect.DeepEqual(decisionSnapshot(32, 1, 0), decisionSnapshot(32, 1, 1)) {
		t.Error("decision point: variants 0 and 1 are the same queue")
	}
	if !reflect.DeepEqual(stormJobs(1, 0, 64), stormJobs(1, 0, 64)) {
		t.Error("storm: one seed gave two inputs")
	}
	if reflect.DeepEqual(stormJobs(1, 0, 64), stormJobs(2, 0, 64)) {
		t.Error("storm: seeds 1 and 2 gave the same jobs")
	}
	if reflect.DeepEqual(stormJobs(1, 0, 64), stormJobs(1, 1, 64)) {
		t.Error("storm: clients 0 and 1 post the same jobs")
	}
}
