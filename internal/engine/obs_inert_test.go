package engine

import (
	"bytes"
	"encoding/json"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/metasched"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// replayInstrumented mirrors replayInput with tracing attached: a
// tracer whose contexts are minted and bound at submit (as schedd's
// replay front door does), and the oracle riding along. The returned
// engine must have committed the exact schedule the bare replay
// commits.
func replayInstrumented(t *testing.T, in sim.Input, pol sim.Policy, tr *obs.Tracer) *Engine {
	t.Helper()
	vc := NewVirtualClock()
	orc := oracle.New(in.Capacity)
	measured := func(id int) bool {
		if in.Measured == nil {
			return true
		}
		return in.Measured[id]
	}
	e, err := New(Config{
		Capacity:     in.Capacity,
		Policy:       pol,
		Clock:        vc,
		Estimator:    in.Estimator,
		UseRequested: in.UseRequested,
		Measured:     measured,
		MeasureStart: in.MeasureStart,
		MeasureEnd:   in.MeasureEnd,
		Observer:     orc,
		Tracer:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			tc := tr.Mint()
			tr.Bind(j.ID, tc)
			t0 := tr.Now()
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
				return
			}
			tr.Record("submit", tc, j.ID, 0, t0, tr.Now().Sub(t0))
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := orc.Final(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return e
}

// TestObservabilityInert is the observability keystone at the engine
// layer: with tracing on, every
// suite month must commit a schedule bit-identical — starts, ends,
// node IDs, completion order, decision count, whole summary — to the
// bare engine's, while the instrumentation actually captures every
// decision and every job. Run under -race this also pins the capture
// paths as data-race free.
func TestObservabilityInert(t *testing.T) {
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	}
	runObsInert(t, workload.MonthLabels(), newPolicy)
}

// TestObservabilityInertMeta repeats the inertness keystone with a
// meta-scheduling portfolio deciding.
func TestObservabilityInertMeta(t *testing.T) {
	newPolicy := func() sim.Policy {
		m, err := metasched.New([]sim.Policy{
			core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64),
			core.New(core.LDS, core.HeuristicFCFS, core.DynamicBound(), 64),
		}, metasched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	runObsInert(t, []string{"7/03", "1/04"}, newPolicy)
}

func runObsInert(t *testing.T, months []string, newPolicy func() sim.Policy) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	for _, month := range months {
		month := month
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}

			bare := replayInput(t, in, newPolicy())
			tr := obs.NewTracer(obs.TracerOptions{Seed: 1})
			inst := replayInstrumented(t, in, newPolicy(), tr)

			bareRecs, instRecs := bare.Records(), inst.Records()
			if len(bareRecs) != len(instRecs) {
				t.Fatalf("bare completed %d jobs, instrumented %d", len(bareRecs), len(instRecs))
			}
			for i := range bareRecs {
				if bareRecs[i].Job.ID != instRecs[i].Job.ID {
					t.Fatalf("completion order diverges at %d: bare job %d, instrumented job %d",
						i, bareRecs[i].Job.ID, instRecs[i].Job.ID)
				}
				if recordKey(bareRecs[i]) != recordKey(instRecs[i]) {
					t.Fatalf("job %d: bare %s, instrumented %s",
						bareRecs[i].Job.ID, recordKey(bareRecs[i]), recordKey(instRecs[i]))
				}
			}
			bareM, instM := bare.Metrics(), inst.Metrics()
			if bareM.Engine.Decisions != instM.Engine.Decisions {
				t.Errorf("bare made %d decisions, instrumented %d",
					bareM.Engine.Decisions, instM.Engine.Decisions)
			}
			if bareM.Summary != instM.Summary {
				t.Errorf("summaries diverge:\nbare         %+v\ninstrumented %+v",
					bareM.Summary, instM.Summary)
			}

			// The instrumentation must have been live, not vacuous.
			covered, total := tr.JobCoverage("submit", "decide")
			if total != len(in.Jobs) {
				t.Errorf("tracer saw %d jobs, workload has %d", total, len(in.Jobs))
			}
			if covered != total {
				t.Errorf("submit+decide span coverage %d/%d jobs", covered, total)
			}
			var buf bytes.Buffer
			if err := tr.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace export is not valid trace-event JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("trace export is empty")
			}
		})
	}
}

// audit re-decides e's journal under pol and returns the decisions.
func audit(t *testing.T, e *Engine, pol sim.Policy) ([]*obs.DecisionRecord, error) {
	t.Helper()
	var recs []*obs.DecisionRecord
	err := Audit(Config{Capacity: e.l.Capacity(), Policy: pol}, e.Checkpoint(),
		func(rec *obs.DecisionRecord) { recs = append(recs, rec) })
	return recs, err
}

// TestAuditRedecidesEveryDecision: on every suite month, under a search
// and a backfill policy, the audit re-decides exactly the decisions the
// engine made with no divergence, and the auditing scheduler's search
// counts equal the live one's. Cut at each compaction, the journal
// audits clean stretch by stretch, each on its own base.
func TestAuditRedecidesEveryDecision(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	for _, month := range workload.MonthLabels() {
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			for _, newPolicy := range []func() sim.Policy{
				func() sim.Policy { return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64) },
				func() sim.Policy { return policy.FCFSBackfill() },
			} {
				live, auditor := newPolicy(), newPolicy()
				e := replayInput(t, in, live)
				recs, err := audit(t, e, auditor)
				if err != nil {
					t.Fatal(err)
				}
				if d := e.Metrics().Engine.Decisions; d == 0 || int64(len(recs)) != d {
					t.Fatalf("%s: audited %d decisions, the engine made %d", live.Name(), len(recs), d)
				}
				if sch := core.SchedulerOf(live); sch != nil {
					got, want := core.SchedulerOf(auditor).SearchStats, sch.SearchStats
					got.WallNs, got.BusyNs, want.WallNs, want.BusyNs = 0, 0, 0, 0
					if got != want {
						t.Fatalf("audit search stats %+v, live %+v", got, want)
					}
				}

				// Every stretch between compactions audits clean on its own,
				// and together they re-decide every decision exactly once.
				sink := &segmentSink{}
				e = replayInput(t, in, newPolicy(), func(c *Config) { c.Journal, c.CompactEvery = sink, 100 })
				var n int64
				for _, cp := range append(sink.segs, sink.cur) {
					err := Audit(Config{Capacity: in.Capacity, Policy: newPolicy()}, cp, func(*obs.DecisionRecord) { n++ })
					if err != nil {
						t.Fatalf("%s: segment after %d decisions: %v", live.Name(), n, err)
					}
				}
				if d, cuts := e.Metrics().Engine.Decisions, len(sink.segs); cuts < 2 || n != d {
					t.Fatalf("%s: %d segments audited %d decisions, the engine made %d", live.Name(), cuts+1, n, d)
				}
			}
		})
	}
}

// segmentSink keeps each stretch of the journal between compactions as
// the checkpoint a recovery just before the next compaction would read:
// the base (nil before the first compaction) and the tail after it.
type segmentSink struct {
	cur  Checkpoint
	segs []Checkpoint
}

func (s *segmentSink) Append(ev Event) error { s.cur.Events = append(s.cur.Events, ev); return nil }
func (s *segmentSink) Commit() error         { return nil }
func (s *segmentSink) Sync() error           { return nil }
func (s *segmentSink) Compact(b Base) error {
	s.segs = append(s.segs, s.cur)
	s.cur = Checkpoint{Base: &b}
	return nil
}

// TestAuditSeesThroughWrappers: the audit reads each decision's search
// summary through policy wrappers, as the engine's counters do, so
// under a Fairshare wrapper the nodes its records show still add up to
// the auditing scheduler's own count instead of to zero.
func TestAuditSeesThroughWrappers(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025}).
		Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	newPolicy := func() (sim.Policy, *core.Scheduler) {
		sch := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
		return core.NewFairshare(sch, 1), sch
	}
	live, _ := newPolicy()
	e := replayInstrumented(t, in, live, obs.NewTracer(obs.TracerOptions{Seed: 1}))
	auditor, sch := newPolicy()
	recs, err := audit(t, e, auditor)
	if err != nil {
		t.Fatal(err)
	}
	var nodes int64
	for _, rec := range recs {
		nodes += rec.Nodes
	}
	if want := sch.SearchStats.Nodes; want == 0 || nodes != want {
		t.Fatalf("audit records sum to %d search nodes over %d decisions, the scheduler visited %d",
			nodes, len(recs), want)
	}
}

// laggingClock fires zero-delay timers one second late, the way a
// RealClock's decision fires a little after the event that asked for it.
type laggingClock struct{ *VirtualClock }

func (c laggingClock) AfterFunc(d job.Duration, f func()) Timer {
	return c.VirtualClock.AfterFunc(max(d, 1), f)
}

// TestAuditOnALaggingClock: when every decision fires a second after
// its request, so that one which starts nothing falls at an instant no
// other event holds, policies whose state moves at every Decide (a
// Fairshare-wrapped DDS and a meta portfolio) still audit clean, with
// one re-decision for each of the engine's decisions.
func TestAuditOnALaggingClock(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.1}).
		Input("11/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for name, newPolicy := range map[string]func() sim.Policy{
		"fairshare": func() sim.Policy {
			return core.NewFairshare(core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64), 1)
		},
		"meta": func() sim.Policy {
			m, err := metasched.New([]sim.Policy{
				core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64),
				core.New(core.LDS, core.HeuristicFCFS, core.DynamicBound(), 64),
			}, metasched.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	} {
		e := replayInput(t, in, newPolicy(), func(c *Config) { c.Clock = laggingClock{c.Clock.(*VirtualClock)} })
		recs, err := audit(t, e, newPolicy())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		idle := 0
		for _, rec := range recs {
			if len(rec.Started) == 0 {
				idle++
			}
		}
		if d := e.Metrics().Engine.Decisions; idle == 0 || int64(len(recs)) != d {
			t.Fatalf("%s: audited %d decisions (%d starting nothing), the engine made %d", name, len(recs), idle, d)
		}
	}
}

// panicEveryThird panics at every third decision, before consulting its
// inner policy (as chaos.FlakyPolicy does), and logs the instants at
// which it panicked.
type panicEveryThird struct {
	sim.Policy
	calls    int
	panicked map[int64]bool
}

func (p *panicEveryThird) Decide(snap *sim.Snapshot) []int {
	if p.calls++; p.calls%3 == 0 {
		p.panicked[int64(snap.Now)] = true
		panic("injected policy failure")
	}
	return p.Policy.Decide(snap)
}

func (p *panicEveryThird) Unwrap() sim.Policy { return p.Policy }

// TestAuditCatchesPanickedDecisions: where the live policy panicked,
// the engine committed its FCFS fallback instead, so re-deciding the
// journal under the policy alone must diverge, and first at an instant
// where it panicked.
func TestAuditCatchesPanickedDecisions(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025}).
		Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	newPolicy := func() sim.Policy { return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64) }
	flaky := &panicEveryThird{Policy: newPolicy(), panicked: map[int64]bool{}}
	e := replayInput(t, in, flaky)
	if m := e.Metrics().Engine; m.PolicyPanics == 0 {
		t.Fatal("the policy never panicked")
	}
	recs, err := audit(t, e, newPolicy())
	if err == nil {
		t.Fatalf("audited %d decisions clean over %d fallbacks", len(recs), len(flaky.panicked))
	}
	if at := recs[len(recs)-1].NowS; !flaky.panicked[at] {
		t.Fatalf("first divergence at t=%d, where the policy did not panic: %v", at, err)
	}
}
