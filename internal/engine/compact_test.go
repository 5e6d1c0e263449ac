package engine

import (
	"sync"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/predict"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// crashReplay replays a trace through an engine that crashes once at
// tCrash: a checkpoint is taken from the dying incarnation, a fresh
// engine (fresh policy/estimator instances, same clock) is rebuilt
// from it, and the remaining jobs flow to the new incarnation. The
// compaction mode decides what the checkpoint looks like:
//
//	"none"     full event journal (the pre-existing rebuild path)
//	"auto"     CompactEvery folds the journal as it grows, so the
//	           checkpoint is a base plus whatever tail accrued since
//	"explicit" Compact() fires right before the crash (empty tail)
//
// The returned engine is the surviving incarnation after the trace
// fully drains.
func crashReplay(t *testing.T, in sim.Input, newPol func() sim.Policy, newEst func() sim.Estimator, tCrash job.Time, mode string) *Engine {
	t.Helper()
	vc := NewVirtualClock()
	mkCfg := func() Config {
		cfg := Config{
			Capacity:     in.Capacity,
			Policy:       newPol(),
			Clock:        vc,
			UseRequested: in.UseRequested,
			MeasureStart: in.MeasureStart,
			MeasureEnd:   in.MeasureEnd,
		}
		if in.Measured != nil {
			cfg.Measured = func(id int) bool { return in.Measured[id] }
		}
		if newEst != nil {
			cfg.Estimator = newEst()
		}
		if mode == "auto" {
			cfg.CompactEvery = 48
		}
		return cfg
	}
	var mu sync.Mutex
	cur, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *Engine {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := engine().SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.AfterFunc(tCrash, func() {
		old := engine()
		if mode == "explicit" {
			if err := old.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
		cp := old.Checkpoint()
		if mode != "none" && cp.Base == nil {
			t.Errorf("mode %s: checkpoint has no base at t=%d", mode, tCrash)
		}
		ne, err := Rebuild(mkCfg(), cp)
		if err != nil {
			t.Errorf("rebuild at t=%d: %v", tCrash, err)
			return
		}
		mu.Lock()
		cur = ne
		mu.Unlock()
	})
	vc.Run()
	e := engine()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCompactedRebuildMatchesFullJournal is the compaction keystone:
// over every suite month, an engine that crashes mid-month and is
// rebuilt from a compacted checkpoint (base + tail) commits the
// bit-identical schedule — starts, ends, concrete node IDs, completion
// order, running Summary — as the uninterrupted engine and as a
// rebuild from the full, uncompacted journal.
func TestCompactedRebuildMatchesFullJournal(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 17, JobScale: 0.02})
	newPol := func() sim.Policy { return policy.FCFSBackfill() }
	for _, month := range workload.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			t.Parallel()
			in, _, err := suite.Input(month, workload.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			base := replayInput(t, in, newPol())
			baseSum := base.Metrics().Summary
			tCrash := in.Jobs[len(in.Jobs)/2].Submit + 1
			for _, mode := range []string{"none", "auto", "explicit"} {
				e := crashReplay(t, in, newPol, nil, tCrash, mode)
				diffRecords(t, base.Records(), e.Records())
				if sum := e.Metrics().Summary; sum != baseSum {
					t.Errorf("mode %s: summary %+v, uninterrupted %+v", mode, sum, baseSum)
				}
				// Compacted rebuilds cannot carry a live oracle (the base
				// replays no events); the offline sweep is the verdict.
				if err := oracle.CheckRecords(in.Capacity, in.Jobs, e.Records()); err != nil {
					t.Errorf("mode %s: oracle: %v", mode, err)
				}
			}
		})
	}
}

// TestCompactedRebuildWithSearchAndEstimator repeats the keystone on
// one month with a discrepancy-search policy and a per-user history
// estimator: compaction must reconstruct estimator state (completions
// re-observed in order) and hand the search policy byte-identical
// snapshots, or the schedules diverge.
func TestCompactedRebuildWithSearchAndEstimator(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 17, JobScale: 0.02})
	cases := []struct {
		name string
		pol  func() sim.Policy
		est  func() sim.Estimator
		opt  workload.SimOptions
	}{
		{name: "DDS-lxf-dynB", pol: func() sim.Policy {
			return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 150)
		}},
		{name: "LDS-fcfs-estimator", pol: func() sim.Policy {
			return core.New(core.LDS, core.HeuristicFCFS, core.FixedBound(50*job.Hour), 150)
		}, est: func() sim.Estimator { return predict.NewUserHistory() }},
		{name: "FCFS-requested", pol: func() sim.Policy { return policy.FCFSBackfill() },
			opt: workload.SimOptions{UseRequested: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			in, _, err := suite.Input("7/03", tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.est != nil {
				in.Estimator = tc.est()
			}
			base := replayInput(t, in, tc.pol())
			tCrash := in.Jobs[len(in.Jobs)/2].Submit + 1
			for _, mode := range []string{"auto", "explicit"} {
				e := crashReplay(t, in, tc.pol, tc.est, tCrash, mode)
				diffRecords(t, base.Records(), e.Records())
				if want, got := base.Metrics().Summary, e.Metrics().Summary; got != want {
					t.Errorf("mode %s: summary %+v, uninterrupted %+v", mode, got, want)
				}
			}
		})
	}
}

// TestCompactionDoesNotDisturbLiveEngine: auto-compaction folds the
// journal while the engine keeps scheduling; the schedule and summary
// must be untouched, the tail must stay bounded, and a final
// checkpoint must rebuild into the same state.
func TestCompactionDoesNotDisturbLiveEngine(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 17, JobScale: 0.02})
	in, _, err := suite.Input("9/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newPol := func() sim.Policy { return policy.FCFSBackfill() }
	base := replayInput(t, in, newPol())

	vc := NewVirtualClock()
	const every = 64
	mkCfg := func(compactEvery int) Config {
		cfg := Config{
			Capacity: in.Capacity, Policy: newPol(), Clock: vc,
			MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
			CompactEvery: compactEvery,
		}
		if in.Measured != nil {
			cfg.Measured = func(id int) bool { return in.Measured[id] }
		}
		return cfg
	}
	e, err := New(mkCfg(every))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	diffRecords(t, base.Records(), e.Records())
	m := e.Metrics()
	if m.Engine.Compactions == 0 {
		t.Fatal("no compactions despite CompactEvery")
	}
	// The tail resets at every compaction boundary, so it can only hold
	// the events committed since (one boundary may append a batch of
	// events before the next commit check — allow one batch of slack).
	if m.Engine.JournalTail > every+int64(in.Capacity) {
		t.Fatalf("journal tail %d, want bounded near %d", m.Engine.JournalTail, every)
	}
	if want := metrics.Summarize(&sim.Result{
		Policy: "FCFS-backfill", Records: base.Records(), Capacity: in.Capacity,
		MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
	}); m.Summary.Jobs != want.Jobs {
		t.Fatalf("summary jobs %d, want %d", m.Summary.Jobs, want.Jobs)
	}

	// A rebuild from the compacted final checkpoint reproduces the
	// records exactly.
	re, err := Rebuild(mkCfg(0), e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	diffRecords(t, e.Records(), re.Records())
}

// TestRebuildCountsEveryDecision: a rebuilt engine's decision count is
// the journal's, one per EvDecide, from a full journal and from a
// compacted one, and an engine that crashes mid-month and is rebuilt
// ends with the uninterrupted engine's count. Only the latency restarts.
func TestRebuildCountsEveryDecision(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.05})
	in, _, err := suite.Input("7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newPol := func() sim.Policy { return policy.FCFSBackfill() }
	e := replayInput(t, in, newPol())
	want := e.Metrics().Engine.Decisions
	cp := e.Checkpoint()
	journaled := int64(0)
	for _, ev := range cp.Events {
		if ev.Kind == EvDecide {
			journaled++
		}
	}
	if want < 100 || journaled != want {
		t.Fatalf("a month's replay made %d decisions and journaled %d, want the same, at least 100", want, journaled)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]Checkpoint{"full journal": cp, "compacted": e.Checkpoint()} {
		re, err := Rebuild(Config{Capacity: in.Capacity, Policy: newPol(), Clock: NewVirtualClock()}, cp)
		if err != nil {
			t.Fatal(err)
		}
		if c := re.Metrics().Engine; c.Decisions != want || c.AvgDecideMs != 0 || c.MaxDecideMs != 0 {
			t.Errorf("%s: rebuilt engine counts %d decisions at %v ms mean, %v ms max; want %d at 0 ms",
				name, c.Decisions, c.AvgDecideMs, c.MaxDecideMs, want)
		}
	}
	tCrash := in.Jobs[len(in.Jobs)/2].Submit + 1
	for _, mode := range []string{"none", "auto"} {
		if got := crashReplay(t, in, newPol, nil, tCrash, mode).Metrics().Engine.Decisions; got != want {
			t.Errorf("crash at t=%d, %s compaction: the surviving engine counts %d decisions, the uninterrupted %d",
				tCrash, mode, got, want)
		}
	}
}
