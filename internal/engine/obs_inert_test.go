package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/metasched"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// replayInstrumented mirrors replayInput with the full observability
// stack attached: a decision flight recorder, a tracer whose contexts
// are minted and bound at submit (as schedd's replay front door does),
// and the oracle riding along. The returned engine must have committed
// the exact schedule the bare replay commits.
func replayInstrumented(t *testing.T, in sim.Input, pol sim.Policy,
	flight *obs.FlightRecorder, tr *obs.Tracer) *Engine {
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
		Policy:       Recorded(pol, flight),
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
// layer: with the decision flight recorder and tracing both on, every
// suite month must commit a schedule bit-identical — starts, ends,
// node IDs, completion order, decision count, whole summary — to the
// bare engine's, while the instrumentation actually captures every
// decision and every job. Run under -race this also pins the capture
// paths as data-race free.
func TestObservabilityInert(t *testing.T) {
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	}
	runObsInert(t, workload.MonthLabels(), newPolicy, "DDS/lxf/dynB", false)
}

// TestObservabilityInertMeta repeats the inertness keystone with a
// meta-scheduling portfolio deciding: instrumentation must stay
// bit-inert while every flight record now also carries the committed
// member's name and the decision's regret estimate.
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
	runObsInert(t, []string{"7/03", "1/04"}, newPolicy, "meta(DDS/lxf/dynB,LDS/fcfs/dynB)", true)
}

func runObsInert(t *testing.T, months []string, newPolicy func() sim.Policy, wantPolicy string, wantMeta bool) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	for _, month := range months {
		month := month
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}

			bare := replayInput(t, in, newPolicy())
			flight := obs.NewFlightRecorder(256)
			tr := obs.NewTracer(obs.TracerOptions{Seed: 1})
			inst := replayInstrumented(t, in, newPolicy(), flight, tr)

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
			if flight.Total() == 0 {
				t.Fatal("flight recorder captured no decisions")
			}
			for _, rec := range flight.Snapshot() {
				if rec.Policy != wantPolicy {
					t.Fatalf("flight record policy %q, want %q", rec.Policy, wantPolicy)
				}
				if wantMeta && rec.ChosenPolicy == "" {
					t.Fatalf("meta flight record at t=%d has no chosen policy", rec.NowS)
				}
				if !wantMeta && rec.ChosenPolicy != "" {
					t.Fatalf("fixed-policy flight record claims chosen policy %q", rec.ChosenPolicy)
				}
			}
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

// TestFlightSeesThroughWrappers: the flight recorder reads each
// decision's search summary through policy wrappers, as the engine's
// counters do, so under a Fairshare wrapper the nodes its records show
// still add up to the scheduler's own count instead of to zero.
func TestFlightSeesThroughWrappers(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025}).
		Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	sch := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	flight := obs.NewFlightRecorder(1 << 14)
	replayInstrumented(t, in, core.NewFairshare(sch, 1), flight, obs.NewTracer(obs.TracerOptions{Seed: 1}))
	recs := flight.Snapshot()
	if flight.Total() == 0 || flight.Total() != int64(len(recs)) {
		t.Fatalf("kept %d of %d decisions; the test needs all of them", len(recs), flight.Total())
	}
	var nodes int64
	for _, rec := range recs {
		nodes += rec.Nodes
	}
	if want := sch.SearchStats.Nodes; want == 0 || nodes != want {
		t.Fatalf("flight records sum to %d search nodes over %d decisions, the scheduler visited %d",
			nodes, len(recs), want)
	}
}

// TestRecordedDriversAgree: the flight recorder is one policy wrapper,
// so the offline simulator and the online engine, replaying the same
// month under the same search, must record the same decisions — every
// field but the wall time, in the same order.
func TestRecordedDriversAgree(t *testing.T) {
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	}
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	for _, month := range workload.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			offline, online := obs.NewFlightRecorder(1<<14), obs.NewFlightRecorder(1<<14)
			res, err := sim.Run(in, Recorded(newPolicy(), offline))
			if err != nil {
				t.Fatal(err)
			}
			e := replayInput(t, in, Recorded(newPolicy(), online))
			simRecs, engRecs := offline.Snapshot(), online.Snapshot()
			if int64(len(simRecs)) != offline.Total() || int64(len(engRecs)) != online.Total() {
				t.Fatalf("rings kept %d of %d and %d of %d decisions; the test needs all of them",
					len(simRecs), offline.Total(), len(engRecs), online.Total())
			}
			if int64(len(simRecs)) != int64(res.Decisions) || int64(len(engRecs)) != e.Metrics().Engine.Decisions {
				t.Fatalf("recorded %d / %d decisions, the simulator made %d and the engine %d",
					len(simRecs), len(engRecs), res.Decisions, e.Metrics().Engine.Decisions)
			}
			for _, recs := range [][]obs.DecisionRecord{simRecs, engRecs} {
				for i := range recs {
					recs[i].WallUs = 0
				}
			}
			if !reflect.DeepEqual(simRecs, engRecs) {
				for i := range simRecs {
					if i >= len(engRecs) || !reflect.DeepEqual(simRecs[i], engRecs[i]) {
						t.Fatalf("%d vs %d records; first difference at %d:\nsim    %+v\nengine %+v",
							len(simRecs), len(engRecs), i, simRecs[i], engRecs[min(i, len(engRecs)-1)])
					}
				}
				t.Fatalf("engine recorded %d decisions past the simulator's %d", len(engRecs), len(simRecs))
			}
		})
	}
}

// panicEveryThird panics at every third decision, before consulting its
// inner policy (as chaos.FlakyPolicy does), and logs the instants of
// the decisions it did return.
type panicEveryThird struct {
	sim.Policy
	calls   int
	decided []int64
}

func (p *panicEveryThird) Decide(snap *sim.Snapshot) []int {
	if p.calls++; p.calls%3 == 0 {
		panic("injected policy failure")
	}
	p.decided = append(p.decided, int64(snap.Now))
	return p.Policy.Decide(snap)
}

func (p *panicEveryThird) Unwrap() sim.Policy { return p.Policy }

// TestRecordedSkipsPanickedDecisions: a decision whose policy panics
// passes through the recorder and leaves no record (the engine's FCFS
// fallback commits it and counts the panic), so the ring holds exactly
// the decisions the policy returned, in order, and their search
// summaries add up to the scheduler's own count — no record carries a
// panicked instant or a stale summary.
func TestRecordedSkipsPanickedDecisions(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025}).
		Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	sch := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	flaky := &panicEveryThird{Policy: sch}
	flight := obs.NewFlightRecorder(1 << 14)
	e := replayInput(t, in, Recorded(flaky, flight))
	m := e.Metrics().Engine
	if m.PolicyPanics == 0 || m.PolicyPanics != int64(flaky.calls/3) {
		t.Fatalf("engine counted %d policy panics over %d calls", m.PolicyPanics, flaky.calls)
	}
	if got, want := flight.Total(), m.Decisions-m.PolicyPanics; got != want {
		t.Fatalf("recorded %d decisions, want %d (%d made, %d panicked)", got, want, m.Decisions, m.PolicyPanics)
	}
	recs := flight.Snapshot()
	if int64(len(recs)) != flight.Total() {
		t.Fatalf("kept %d of %d decisions; the test needs all of them", len(recs), flight.Total())
	}
	var nodes int64
	for i, rec := range recs {
		if rec.NowS != flaky.decided[i] {
			t.Fatalf("record %d is at t=%d, the policy's %d-th returned decision at t=%d",
				i, rec.NowS, i+1, flaky.decided[i])
		}
		nodes += rec.Nodes
	}
	if nodes != sch.SearchStats.Nodes {
		t.Fatalf("records sum to %d search nodes, the scheduler visited %d", nodes, sch.SearchStats.Nodes)
	}
}
