package core

import (
	"slices"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// fairshareScenario: two nodes free, two queued 2-node jobs from
// different users. User 7 has been hogging the machine (long-running
// 126-node job); user 8 is new. Both queued jobs have equal wait and
// equal estimates, but user 7's job was submitted earlier so every
// tiebreak favours it. With a strong fairshare discount, user 8's job
// should win the slot instead.
func fairshareScenario() *sim.Snapshot {
	now := job.Time(100000)
	snap := &sim.Snapshot{Now: now, Capacity: 128, FreeNodes: 2}
	snap.Running = []sim.RunningJob{{
		ID: 50, Nodes: 126, User: 7, Start: 0, PredictedEnd: now + 50000,
	}}
	mk := func(id, user int, submit job.Time) sim.WaitingJob {
		return sim.WaitingJob{
			Job:      job.Job{ID: id, Submit: submit, Nodes: 2, Runtime: 1800, Request: 1800, User: user},
			Estimate: 1800,
		}
	}
	// Equal submits: the first-level excess is identical for both
	// orderings, so the decision rests on the slowdown level, where the
	// fairshare discount acts; the ID tiebreak favours user 7's job.
	snap.Queue = []sim.WaitingJob{
		mk(1, 7, now-3600), // hog's job, wins every tiebreak
		mk(2, 8, now-3600),
	}
	for i := range snap.Queue {
		snap.Queue[i].QueuePos = i
	}
	return snap
}

func TestFairshareRedirectsService(t *testing.T) {
	// Baseline: the older job (user 7) wins the two free nodes.
	base := New(DDS, HeuristicLXF, DynamicBound(), 1000)
	starts := base.Decide(fairshareScenario())
	if len(starts) != 1 || starts[0] != 0 {
		t.Fatalf("baseline starts = %v, want [0] (user 7's job via tiebreak)", starts)
	}

	// Fairshare-wrapped: drive usage accounting with a first decision,
	// then decide the contended one.
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 1000), 50)
	warm := fairshareScenario()
	warm.Now -= 50000 // earlier decision to accrue usage for user 7
	warm.Queue = nil
	fs.Decide(warm)
	starts = fs.Decide(fairshareScenario())
	if len(starts) != 1 || starts[0] != 1 {
		t.Fatalf("fairshare starts = %v, want [1] (user 8's job)", starts)
	}
}

// TestFairshareRestoresInnerCost: the divisors are handed to one
// decision, not installed on the inner scheduler, which decided directly
// afterwards is back on the paper's objective.
func TestFairshareRestoresInnerCost(t *testing.T) {
	inner := New(DDS, HeuristicLXF, DynamicBound(), 1000)
	fs := NewFairshare(inner, 50)
	warm := fairshareScenario()
	warm.Now -= 50000
	fs.Decide(warm)
	if starts := fs.Decide(fairshareScenario()); !slices.Equal(starts, []int{1}) {
		t.Fatalf("fairshare starts = %v, want [1]", starts)
	}
	if starts := inner.Decide(fairshareScenario()); !slices.Equal(starts, []int{0}) || inner.s.div != nil {
		t.Errorf("inner scheduler after a fairshare decision: starts %v, divisors %v; want [0] and none", starts, inner.s.div)
	}
}

// TestFairshareDecideAllocatesNothing: a steady fairshare decision
// reuses its user set and divisors, and the inner search allocates
// nothing either.
func TestFairshareDecideAllocatesNothing(t *testing.T) {
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 1000), 50)
	warm := fairshareScenario()
	warm.Now -= 50000
	fs.Decide(warm)
	snap := fairshareScenario()
	fs.Decide(snap)
	allocs := testing.AllocsPerRun(100, func() {
		snap.Now++ // each decision decays and accrues usage
		if starts := fs.Decide(snap); len(starts) != 1 || starts[0] != 1 {
			t.Fatalf("starts = %v, want [1]", starts)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady fairshare decision allocates %v times, want 0", allocs)
	}
}

func TestFairshareName(t *testing.T) {
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 100), 1)
	if got := fs.Name(); got != "DDS/lxf/dynB+fs" {
		t.Errorf("Name = %q", got)
	}
}

func TestFairshareIgnoresUnknownUsers(t *testing.T) {
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 1000), 50)
	snap := fairshareScenario()
	for i := range snap.Queue {
		snap.Queue[i].Job.User = 0
	}
	snap.Running[0].User = 0
	// Must behave exactly like the baseline when no user info exists.
	starts := fs.Decide(snap)
	if len(starts) != 1 || starts[0] != 0 {
		t.Errorf("starts = %v, want [0]", starts)
	}
}
