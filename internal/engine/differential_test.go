package engine

import (
	"fmt"
	"sync"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/predict"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// replayInput feeds a simulator input through an online engine on a
// VirtualClock: every job is delivered by a clock timer at its submit
// time, then the clock runs until the engine is idle. The correctness
// oracle rides along on every replay.
func replayInput(t *testing.T, in sim.Input, pol sim.Policy, opts ...func(*Config)) *Engine {
	t.Helper()
	vc := NewVirtualClock()
	orc := oracle.New(in.Capacity)
	measured := func(id int) bool {
		if in.Measured == nil {
			return true
		}
		return in.Measured[id]
	}
	cfg := Config{
		Capacity:     in.Capacity,
		Policy:       pol,
		Clock:        vc,
		Estimator:    in.Estimator,
		UseRequested: in.UseRequested,
		Measured:     measured,
		MeasureStart: in.MeasureStart,
		MeasureEnd:   in.MeasureEnd,
		Observer:     orc,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	e, err := New(cfg)
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
	if err := orc.Final(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return e
}

// recordKey is everything a schedule determines about one job.
func recordKey(r sim.Record) string {
	return fmt.Sprintf("start=%d end=%d nodes=%v measured=%v", r.Start, r.End, r.NodeIDs, r.Measured)
}

func diffRecords(t *testing.T, simRecs, engRecs []sim.Record) {
	t.Helper()
	if len(simRecs) != len(engRecs) {
		t.Fatalf("simulator completed %d jobs, engine %d", len(simRecs), len(engRecs))
	}
	simBy := make(map[int]sim.Record, len(simRecs))
	for _, r := range simRecs {
		simBy[r.Job.ID] = r
	}
	mismatches := 0
	for i, r := range engRecs {
		want, ok := simBy[r.Job.ID]
		if !ok {
			t.Fatalf("engine completed job %d the simulator never saw", r.Job.ID)
		}
		if recordKey(r) != recordKey(want) {
			t.Errorf("job %d: engine %s, simulator %s", r.Job.ID, recordKey(r), recordKey(want))
			if mismatches++; mismatches > 5 {
				t.Fatal("too many mismatches")
			}
		}
		// Completion order must match too (same event ordering).
		if simRecs[i].Job.ID != r.Job.ID {
			t.Fatalf("completion order diverges at %d: engine job %d, simulator job %d",
				i, r.Job.ID, simRecs[i].Job.ID)
		}
	}
}

// TestEngineReplayMatchesSimulator replays generated monthly traces
// through the online engine and requires the schedule — starts, ends,
// concrete node IDs, completion order, decision count — to be identical
// to the offline simulator's, for backfill and search policies across
// estimate modes.
func TestEngineReplayMatchesSimulator(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.05})
	cases := []struct {
		name string
		pol  func() sim.Policy
		opt  workload.SimOptions
		est  func() sim.Estimator
	}{
		{name: "FCFS-backfill", pol: func() sim.Policy { return policy.FCFSBackfill() }},
		{name: "LXF-backfill-high-load", pol: func() sim.Policy { return policy.LXFBackfill() },
			opt: workload.SimOptions{TargetLoad: 0.9}},
		{name: "DDS-lxf-dynB", pol: func() sim.Policy {
			return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200)
		}},
		{name: "DDS-lxf-dynB-requested", pol: func() sim.Policy {
			return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200)
		}, opt: workload.SimOptions{UseRequested: true}},
		{name: "LDS-fcfs-50h-estimator", pol: func() sim.Policy {
			return core.New(core.LDS, core.HeuristicFCFS, core.FixedBound(50*job.Hour), 200)
		}, est: func() sim.Estimator { return predict.NewUserHistory() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, _, err := suite.Input("7/03", tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.est != nil {
				in.Estimator = tc.est()
			}
			simOrc := oracle.New(in.Capacity)
			in.Observer = simOrc
			res, err := sim.Run(in, tc.pol())
			if err != nil {
				t.Fatal(err)
			}
			if err := simOrc.Final(); err != nil {
				t.Fatalf("simulator oracle: %v", err)
			}
			in.Observer = nil

			engIn := in
			if tc.est != nil {
				engIn.Estimator = tc.est() // fresh history for the engine run
			}
			e := replayInput(t, engIn, tc.pol())
			diffRecords(t, res.Records, e.Records())
			m := e.Metrics()
			if m.Engine.Decisions != int64(res.Decisions) {
				t.Errorf("engine made %d decisions, simulator %d", m.Engine.Decisions, res.Decisions)
			}
			// With the input's measurement window the whole summary —
			// including queue-length and utilization integrals — must
			// agree with the offline run.
			if want := metrics.Summarize(res); m.Summary != want {
				t.Errorf("engine summary %+v\nsimulator summary %+v", m.Summary, want)
			}
		})
	}
}

// TestEngineConcurrentSubmitMatchesSimulator hammers the engine with
// waves of concurrent submissions from many goroutines (run this under
// -race), then checks the resulting schedule equals the offline
// simulator's on the equivalent trace: the jobs in engine arrival
// order, submitted at the same instants.
func TestEngineConcurrentSubmitMatchesSimulator(t *testing.T) {
	const (
		capacity  = 64
		waves     = 6
		workers   = 8
		perWorker = 5
	)
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 150)
	}
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: capacity, Policy: newPolicy(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < perWorker; k++ {
					spec := job.Job{
						Nodes:   1 + (g*7+k*3)%32,
						Runtime: job.Duration(60 + (g*131+k*977+w*53)%7200),
						User:    g,
					}
					spec.Request = spec.Runtime + job.Duration((k%5)*600)
					if _, err := e.Submit(spec); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		total += workers * perWorker
		// Fire the wave's coalesced decision, then let half an hour of
		// completions interleave before the next burst.
		vc.AdvanceTo(vc.Now() + 1800)
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	// The equivalent trace: engine IDs are assigned in arrival order
	// under the engine lock, so ascending ID = queue arrival order.
	trace := make([]job.Job, 0, total)
	for id := 1; id <= total; id++ {
		st, ok, _ := e.Job(id)
		if !ok {
			t.Fatalf("job %d missing from engine", id)
		}
		if st.State != StateDone {
			t.Fatalf("job %d not done after Run: %v", id, st.State)
		}
		trace = append(trace, st.Job)
	}
	res, err := sim.Run(sim.Input{Capacity: capacity, Jobs: trace}, newPolicy())
	if err != nil {
		t.Fatal(err)
	}
	diffRecords(t, res.Records, e.Records())
}

// namingPolicy counts the calls of its policy's Name.
type namingPolicy struct {
	sim.Policy
	names int
}

func (p *namingPolicy) Name() string {
	p.names++
	return p.Policy.Name()
}

// TestPolicyNamedOncePerEngine pins that an engine asks its policy for
// its name when it is built, not once per decision: a search policy's
// Name is a Sprintf. A month's replay with its metrics, a rebuild from
// the replay's checkpoint (which re-applies every decision) and an
// audit of it are three engines, so three calls, whatever the number of
// decisions.
func TestPolicyNamedOncePerEngine(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.05})
	in, _, err := suite.Input("7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol := &namingPolicy{Policy: policy.FCFSBackfill()}
	e := replayInput(t, in, pol)
	m := e.Metrics()
	if m.Engine.Decisions < 100 || m.Summary.Policy != "FCFS-backfill" {
		t.Fatalf("replay made %d decisions under %q, want a month's under FCFS-backfill", m.Engine.Decisions, m.Summary.Policy)
	}
	if pol.names != 1 {
		t.Errorf("a month's %d decisions named the policy %d times, want 1", m.Engine.Decisions, pol.names)
	}
	cfg := Config{Capacity: in.Capacity, Policy: pol, Clock: NewVirtualClock()}
	re, err := Rebuild(cfg, e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(re.Records()), len(e.Records()); got != want || re.Metrics().Summary.Policy != "FCFS-backfill" {
		t.Fatalf("rebuild replayed %d completions, want %d", got, want)
	}
	if err := Audit(cfg, e.Checkpoint(), func(*obs.DecisionRecord) {}); err != nil {
		t.Fatal(err)
	}
	if pol.names != 3 {
		t.Errorf("replay, rebuild and audit named the policy %d times, want 3", pol.names)
	}
}
