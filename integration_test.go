package schedsearch_test

import (
	"fmt"
	"testing"

	"schedsearch"
)

// allPolicies is every policy name ParsePolicy accepts.
var allPolicies = []string{
	"FCFS-backfill", "LXF-backfill", "SJF-backfill", "LXFW-backfill",
	"Selective-backfill", "Relaxed-backfill", "Slack-backfill",
	"Lookahead", "Conservative-backfill", "Maui-backfill",
	"MultiQueue-backfill",
	"DDS/lxf/dynB", "DDS/fcfs/dynB", "LDS/lxf/dynB", "DFS/lxf/dynB",
	"DDS/lxf/50h",
	"meta(DDS/lxf/dynB,FCFS-backfill)",
}

// TestEveryPolicyCompletesEveryMode drives the full policy set through
// the simulator across load and estimate modes, verifying the engine's
// invariants and the internal consistency of the measures.
func TestEveryPolicyCompletesEveryMode(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 2, JobScale: 0.08})
	modes := []schedsearch.SimOptions{
		{},
		{TargetLoad: 0.9},
		{UseRequested: true},
		{TargetLoad: 0.9, UseRequested: true},
	}
	months := []string{"7/03", "1/04"}
	for _, name := range allPolicies {
		for mi, opt := range modes {
			for _, month := range months {
				t.Run(fmt.Sprintf("%s/m%d/%s", name, mi, month), func(t *testing.T) {
					pol, err := schedsearch.ParsePolicy(name, 300)
					if err != nil {
						t.Fatal(err)
					}
					sum, res, err := schedsearch.RunMonth(suite, month, opt, pol)
					if err != nil {
						t.Fatal(err)
					}
					if sum.Jobs < 50 {
						t.Fatalf("only %d jobs measured", sum.Jobs)
					}
					// Internal consistency of the measures.
					if sum.MaxWaitH < sum.P98WaitH || sum.P98WaitH < 0 {
						t.Errorf("max %.2f < p98 %.2f", sum.MaxWaitH, sum.P98WaitH)
					}
					if sum.AvgWaitH > sum.MaxWaitH {
						t.Errorf("avg %.2f > max %.2f", sum.AvgWaitH, sum.MaxWaitH)
					}
					if sum.AvgBoundedSlowdown < 1 {
						t.Errorf("avg bounded slowdown %.2f < 1", sum.AvgBoundedSlowdown)
					}
					if sum.MaxBoundedSlowdown < sum.AvgBoundedSlowdown {
						t.Errorf("max bsld %.2f < avg %.2f",
							sum.MaxBoundedSlowdown, sum.AvgBoundedSlowdown)
					}
					if sum.AvgQueueLen < 0 {
						t.Errorf("negative queue length")
					}
					// Excess w.r.t. the run's own max is identically zero.
					if e := schedsearch.ExcessiveWait(res, sum.MaxWaitH); e.Count != 0 {
						t.Errorf("excess vs own max: %+v", e)
					}
					// And w.r.t. zero it covers every positive wait.
					e0 := schedsearch.ExcessiveWait(res, 0)
					if e0.TotalH < sum.AvgWaitH*float64(sum.Jobs)*0.999 {
						t.Errorf("excess vs 0 (%.2f) below total wait (%.2f)",
							e0.TotalH, sum.AvgWaitH*float64(sum.Jobs))
					}
				})
			}
		}
	}
}

// TestPolicyDeterminism re-runs a stateful policy on the same input and
// requires identical results.
func TestPolicyDeterminism(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 3, JobScale: 0.08})
	for _, name := range []string{"DDS/lxf/dynB", "Selective-backfill", "Slack-backfill", "MultiQueue-backfill"} {
		var first schedsearch.Summary
		for rep := 0; rep < 2; rep++ {
			pol, err := schedsearch.ParsePolicy(name, 300)
			if err != nil {
				t.Fatal(err)
			}
			sum, _, err := schedsearch.RunMonth(suite, "9/03", schedsearch.SimOptions{TargetLoad: 0.9}, pol)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				first = sum
			} else if sum != first {
				t.Errorf("%s: run 2 differs: %+v vs %+v", name, sum, first)
			}
		}
	}
}

// TestSearchPoliciesBeatTheirHeuristicSeed: the committed schedules of a
// search policy must not be worse than pure iteration-0 behaviour in
// aggregate — compare DDS/lxf/dynB at L=1 (heuristic only) against a
// real budget on the first-level objective.
func TestSearchBudgetHelpsFirstLevelObjective(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 4, JobScale: 0.15})
	run := func(limit int) float64 {
		pol := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
			schedsearch.DynamicBound(), limit)
		sum, _, err := schedsearch.RunMonth(suite, "1/04", schedsearch.SimOptions{TargetLoad: 0.9}, pol)
		if err != nil {
			t.Fatal(err)
		}
		return sum.MaxWaitH
	}
	tiny := run(1)
	big := run(4000)
	// Closed-loop scheduling is noisy, so allow slack — but a real
	// budget should not be dramatically worse than no search at all.
	if big > tiny*1.5+5 {
		t.Errorf("max wait with L=4000 (%.1f h) much worse than with L=1 (%.1f h)", big, tiny)
	}
}
