package core

import (
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

func scoreSnap() *sim.Snapshot {
	// 4-node machine, one 2-node job running 100s more; two queued jobs.
	return &sim.Snapshot{
		Now:       1000,
		Capacity:  4,
		FreeNodes: 2,
		Running: []sim.RunningJob{
			{ID: 1, Nodes: 2, Start: 900, PredictedEnd: 1100},
		},
		Queue: []sim.WaitingJob{
			{Job: job.Job{ID: 2, Submit: 500, Nodes: 2, Runtime: 50}, Estimate: 50, QueuePos: 0},
			{Job: job.Job{ID: 3, Submit: 990, Nodes: 4, Runtime: 10}, Estimate: 10, QueuePos: 1},
		},
	}
}

// TestPlanScorerHandComputed pins the scorer against hand-placed plans
// on a tiny snapshot: dynB bound is the longest wait (500s), the
// started job is charged its committed start, the rest continue
// greedily in arrival order.
func TestPlanScorerHandComputed(t *testing.T) {
	var ps PlanScorer
	snap := scoreSnap()

	// Plan A: start job 2 now (fits the 2 free nodes). Job 2 waits
	// 500s = bound, zero excess. Job 3 needs all 4 nodes: earliest at
	// 1100 (running ends) — but job 2 occupies 2 nodes until 1050, so
	// still 1100. Wait 110s, no excess.
	a := ps.Score(snap, []int{0})
	if a.Excess != 0 {
		t.Errorf("plan A excess = %v, want 0", a.Excess)
	}
	wantA := job.BoundedSlowdownAt(500, 50, 1000) + job.BoundedSlowdownAt(990, 10, 1100)
	if diff := a.Slowdown - wantA; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("plan A slowdown sum = %v, want %v", a.Slowdown, wantA)
	}

	// Plan B: start nothing. Job 2 places earliest (now — the nodes are
	// free), same plan as A in this geometry, so the costs tie.
	b := ps.Score(snap, nil)
	if a != b {
		t.Errorf("plan B %v differs from plan A %v (greedy continuation starts job 2 anyway)", b, a)
	}

	// Scoring twice must be bit-identical (no profile residue).
	if again := ps.Score(snap, []int{0}); again != a {
		t.Errorf("rescoring diverged: %v then %v", a, again)
	}
}

// TestPlanScorerPrefersBetterPlans: delaying a wide urgent job behind a
// started narrow one must score worse than the plan the search favors.
func TestPlanScorerPrefersBetterPlans(t *testing.T) {
	var ps PlanScorer
	snap := &sim.Snapshot{
		Now:       10000,
		Capacity:  4,
		FreeNodes: 4,
		Queue: []sim.WaitingJob{
			// Long-waiting wide job: already 9000s in queue.
			{Job: job.Job{ID: 1, Submit: 1000, Nodes: 4, Runtime: 5000}, Estimate: 5000, QueuePos: 0},
			// Fresh narrow long job.
			{Job: job.Job{ID: 2, Submit: 9990, Nodes: 1, Runtime: 8000}, Estimate: 8000, QueuePos: 1},
		},
	}
	wide := ps.Scalar(ps.Score(snap, []int{0}))
	narrow := ps.Scalar(ps.Score(snap, []int{1}))
	if wide >= narrow {
		t.Errorf("starting the urgent wide job scores %v, delaying it %v — want strictly better", wide, narrow)
	}
}
