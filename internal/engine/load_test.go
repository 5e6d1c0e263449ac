package engine

import (
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/policy"
	"schedsearch/internal/predict"
	"schedsearch/internal/workload"
)

// TestLoadWindowIsExact drives an engine through a suite month on a
// VirtualClock and holds every Load answer to its window: after every
// clock step, and at every integer second inside the last answer's
// window, the answer extrapolated with At must equal a fresh Load, save
// for the window fields. Answers are also taken inside the submit
// callbacks, with the coalesced decision still pending, as a federation
// router placing the next job of the same instant takes them. The
// user-history estimator under-predicts often enough that running jobs
// pass their predicted end and sit on the one-second floor.
func TestLoadWindowIsExact(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.2})
	in, _, err := suite.Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	e, err := New(Config{
		Capacity:  in.Capacity,
		Policy:    core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200),
		Clock:     vc,
		Estimator: predict.NewUserHistory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ld, _ := e.Load() // the last answer
	checks, queued, floored := 0, 0, 0
	check := func() {
		now := vc.Now()
		if now < ld.Now || now > ld.StableUntil {
			return
		}
		want, _ := e.Load()
		got := ld.At(now)
		got.Slope, got.StableUntil = want.Slope, want.StableUntil
		if got != want {
			t.Fatalf("t=%d: the answer of t=%d extrapolates to %+v, Load says %+v", now, ld.Now, got, want)
		}
		checks++
		if want.Waiting > 0 {
			queued++
		}
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			check()
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
			ld, _ = e.Load()
		})
	}
	for {
		next, ok := vc.NextAt()
		if !ok {
			break
		}
		for s := vc.Now() + 1; s < next && s <= ld.StableUntil; s++ {
			vc.AdvanceTo(s)
			check()
		}
		vc.AdvanceTo(next)
		check()
		ld, _ = e.Load()
		m, _ := e.Machine()
		for _, r := range m.Running {
			if r.PredictedEnd-ld.Now <= 1 {
				floored++
				break
			}
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Records()); got != len(in.Jobs) {
		t.Fatalf("%d of %d jobs completed", got, len(in.Jobs))
	}
	if checks < 100_000 || queued == 0 || floored == 0 {
		t.Fatalf("%d checks (%d with a queue), %d answers with a job on its floor: the month never exercised the window",
			checks, queued, floored)
	}
	t.Logf("%d jobs, %d extrapolations checked (%d with a queue), %d answers with a job on its floor",
		len(in.Jobs), checks, queued, floored)
}

// TestLoadMinQueuedDemand follows MinQueuedNodeSec through the queue's
// changes on a 10-node machine under FCFS-backfill, estimates being the
// actual runtimes: 0 for an empty queue, a job not yet estimated at its
// request, and the next-smallest demand once a decision starts the
// smallest job or a withdraw removes it. At keeps it.
func TestLoadMinQueuedDemand(t *testing.T) {
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: 10, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	want := func(step string, min int64) {
		t.Helper()
		ld, _ := e.Load()
		if ld.MinQueuedNodeSec != min {
			t.Fatalf("%s: MinQueuedNodeSec %d, want %d", step, ld.MinQueuedNodeSec, min)
		}
		if got := ld.At(ld.Now + 1).MinQueuedNodeSec; got != min {
			t.Fatalf("%s: At moved MinQueuedNodeSec from %d to %d", step, min, got)
		}
	}
	submit := func(j job.Job) {
		t.Helper()
		if err := e.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	want("empty", 0)

	// Not yet estimated, the decision still pending: nodes × request.
	submit(job.Job{ID: 1, Nodes: 10, Runtime: 100, Request: 200})
	want("pending", 10*200)
	vc.RunDue() // job 1 starts on all ten nodes
	want("job 1 started", 0)

	// Queued behind job 1, estimated at their runtimes.
	submit(job.Job{ID: 2, Nodes: 10, Runtime: 50, Request: 100})   // 500
	submit(job.Job{ID: 3, Nodes: 10, Runtime: 100, Request: 100})  // 1000
	submit(job.Job{ID: 4, Nodes: 1, Runtime: 2000, Request: 3000}) // 2000
	vc.RunDue()
	want("three queued", 500)

	// Job 1 ends at 100 and job 2, the smallest, starts alone.
	vc.AdvanceTo(100)
	if q, _ := e.Queue(); len(q) != 2 {
		t.Fatalf("%d jobs queued at t=100, want 2", len(q))
	}
	want("smallest started", 1000)

	if _, err := e.Withdraw(3); err != nil {
		t.Fatal(err)
	}
	want("withdrawn", 2000)
}
