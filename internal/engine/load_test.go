package engine

import (
	"testing"

	"schedsearch/internal/core"
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
	ld := e.Load() // the last answer
	checks, floored := 0, 0
	check := func() {
		now := vc.Now()
		if now < ld.Now || now > ld.StableUntil {
			return
		}
		got, want := ld.At(now), e.Load()
		got.Slope, got.StableUntil = want.Slope, want.StableUntil
		if got != want {
			t.Fatalf("t=%d: the answer of t=%d extrapolates to %+v, Load says %+v", now, ld.Now, got, want)
		}
		checks++
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			check()
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
			ld = e.Load()
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
		ld = e.Load()
		for _, r := range e.Machine().Running {
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
	if checks < 100_000 || floored == 0 {
		t.Fatalf("%d checks, %d answers with a job on its floor: the month never exercised the window", checks, floored)
	}
	t.Logf("%d jobs, %d extrapolations checked, %d answers with a job on its floor", len(in.Jobs), checks, floored)
}
