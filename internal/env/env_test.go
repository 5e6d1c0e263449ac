package env

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// twoWideJobs is a 4-node machine with two 3-node jobs and a 1-node
// job arriving together: the first decision point queues all three,
// and only one of the wide jobs can start.
func twoWideJobs() sim.Input {
	return sim.Input{Capacity: 4, Jobs: []job.Job{
		{ID: 1, Submit: 0, Nodes: 3, Runtime: 100, Request: 100},
		{ID: 2, Submit: 0, Nodes: 3, Runtime: 50, Request: 50},
		{ID: 3, Submit: 0, Nodes: 1, Runtime: 10, Request: 10},
	}}
}

func mustReset(t *testing.T, e *Env) *Observation {
	t.Helper()
	obs, err := e.Reset()
	if err != nil || obs == nil {
		t.Fatalf("Reset: obs=%v err=%v", obs, err)
	}
	return obs
}

// TestOrderActionCommitsEvaluatorStarts drives a whole scaled month
// with "order" actions (the queue reversed, so the ordering is never
// the arrival order) and requires every job to start exactly at the
// decision where core.OrderEvaluator — the evaluator the search
// policies commit through — marks it start-now for that ordering.
func TestOrderActionCommitsEvaluatorStarts(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.05}).Input("7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	obs := mustReset(t, e)
	var ev core.OrderEvaluator
	wantStart := map[int]job.Time{}
	for done := false; !done; {
		snap := e.cur
		order := make([]int, len(obs.Queue))
		for i := range order {
			order[i] = len(order) - 1 - i
		}
		ev.Reset(snap)
		_, startNow := ev.Eval(snap.Queue, order, core.HierarchicalCost, 0)
		for qi, now := range startNow {
			if now {
				wantStart[snap.Queue[qi].Job.ID] = snap.Now
			}
		}
		if obs, _, done, err = e.Step(Action{Kind: "order", Order: order}); err != nil {
			t.Fatalf("decision %d: %v", e.Decisions(), err)
		}
	}
	res := e.Result()
	if len(res.Records) != len(in.Jobs) || len(wantStart) != len(in.Jobs) {
		t.Fatalf("%d records, %d evaluator starts, %d jobs", len(res.Records), len(wantStart), len(in.Jobs))
	}
	for _, r := range res.Records {
		if r.Start != wantStart[r.Job.ID] {
			t.Errorf("job %d started at %d, evaluator marked it start-now at %d", r.Job.ID, r.Start, wantStart[r.Job.ID])
		}
	}
}

// TestInvalidActionsDoNotConsumeTheDecision: a non-permutation, an
// over-wide start set and an unknown kind are each rejected at the
// wire level, leaving the same decision pending for a valid retry.
func TestInvalidActionsDoNotConsumeTheDecision(t *testing.T) {
	e, err := New(Config{Input: twoWideJobs()})
	if err != nil {
		t.Fatal(err)
	}
	first := *mustReset(t, e)
	for _, bad := range []Action{
		{Kind: "order", Order: []int{0, 1, 1}},
		{Kind: "order", Order: []int{0, 1}},
		{Kind: "start", Start: []int{0, 1}}, // 6 nodes on a 4-node machine
		{Kind: "start", Start: []int{2, 2}},
		{Kind: "teleport"},
	} {
		if _, _, done, err := e.Step(bad); err == nil || done {
			t.Fatalf("action %+v: accepted (done=%v)", bad, done)
		}
		if e.Decisions() != 1 || e.cur == nil || e.obs.Seq != first.Seq {
			t.Fatalf("action %+v consumed the decision: %d decisions, seq %d", bad, e.Decisions(), e.obs.Seq)
		}
	}
	// The pending decision is still the first one and still usable.
	obs, _, done, err := e.Step(Action{Kind: "start", Start: []int{0, 2}})
	if err != nil || done {
		t.Fatalf("valid retry: done=%v err=%v", done, err)
	}
	// Next decision: job 3 has finished, job 1 still runs, job 2 waits.
	if obs.Seq != first.Seq+1 || len(obs.Running) != 1 || obs.Running[0].JobID != 1 ||
		len(obs.Queue) != 1 || obs.Queue[0].JobID != 2 {
		t.Errorf("after starting jobs 1 and 3: %+v", *obs)
	}
}

// TestResetReplaysTheSameObservation: Reset restarts the episode from
// the input alone, mid-episode or not.
func TestResetReplaysTheSameObservation(t *testing.T) {
	e, err := New(Config{Input: twoWideJobs()})
	if err != nil {
		t.Fatal(err)
	}
	// Observations reuse their buffers, so compare against a copy.
	first := *mustReset(t, e)
	first.Running, first.Queue = slices.Clone(first.Running), slices.Clone(first.Queue)
	if _, _, _, err := e.Step(Action{Kind: "order", Order: []int{1, 0, 2}}); err != nil {
		t.Fatal(err)
	}
	again := *mustReset(t, e)
	if again.Seq != first.Seq || again.NowS != first.NowS || again.Capacity != first.Capacity ||
		again.FreeNodes != first.FreeNodes || !slices.Equal(again.Running, first.Running) ||
		!slices.Equal(again.Queue, first.Queue) {
		t.Errorf("second Reset observed\n%+v\nfirst observed\n%+v", again, first)
	}
	if e.TotalReward() != 0 || e.Decisions() != 1 {
		t.Errorf("Reset kept episode state: reward %v, %d decisions", e.TotalReward(), e.Decisions())
	}
}

// TestFirstObservationEncodesEmptyLists: on a fresh Env with an idle
// machine the first observation's running list is "[]", as on every
// later one, never "null".
func TestFirstObservationEncodesEmptyLists(t *testing.T) {
	e, err := New(Config{Input: twoWideJobs()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(mustReset(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw); !strings.Contains(got, `"running":[]`) || strings.Contains(got, "null") {
		t.Errorf("first observation of an idle machine encodes as %s", got)
	}
}
