package federation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func TestPartitionCapacity(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{128, 4, []int{32, 32, 32, 32}},
		{128, 1, []int{128}},
		{130, 4, []int{33, 33, 32, 32}},
		{7, 3, []int{3, 2, 2}},
		{3, 3, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		caps, err := PartitionCapacity(tc.total, tc.n)
		if err != nil {
			t.Fatalf("PartitionCapacity(%d,%d): %v", tc.total, tc.n, err)
		}
		if fmt.Sprint(caps) != fmt.Sprint(tc.want) {
			t.Errorf("PartitionCapacity(%d,%d) = %v, want %v", tc.total, tc.n, caps, tc.want)
		}
	}
	if _, err := PartitionCapacity(2, 3); err == nil {
		t.Error("capacity < shards should fail")
	}
	if _, err := PartitionCapacity(8, 0); err == nil {
		t.Error("zero shards should fail")
	}
}

// pinFirst is the Placement fake tests skew routing with: every job
// goes to the first eligible shard.
type pinFirst struct{}

func (pinFirst) Name() string                  { return "pin-first" }
func (pinFirst) Pick(job.Job, []Candidate) int { return 0 }

func TestPlacementPicks(t *testing.T) {
	cands := []Candidate{
		{Shard: 0, Load: engine.Load{Capacity: 32, FreeNodes: 2, QueuedNodeSec: 6400}},
		{Shard: 1, Load: engine.Load{Capacity: 32, FreeNodes: 20, RemainingNodeSec: 320}},
		{Shard: 2, Load: engine.Load{Capacity: 32, FreeNodes: 6, RemainingNodeSec: 640}},
	}
	j := job.Job{ID: 1, Nodes: 4, Runtime: 100, Request: 100}

	// Best fit: shards 1 and 2 can start the job now; 2 leaves the
	// smaller slack (6-4=2 vs 20-4=16).
	if got := (BestFit{}).Pick(j, cands); got != 2 {
		t.Errorf("BestFit picked %d, want 2 (tightest fit)", got)
	}
	// No shard startable: falls back to the lowest load score.
	wide := job.Job{ID: 2, Nodes: 25, Runtime: 100, Request: 100}
	if got := (BestFit{}).Pick(wide, cands); got != 1 {
		t.Errorf("BestFit fallback picked %d, want 1", got)
	}
	// Waiting jobs disqualify a shard from "startable now".
	cands[1].Load.Waiting = 1
	if got := (BestFit{}).Pick(j, cands); got != 2 {
		t.Errorf("BestFit with backlog on 1 picked %d, want 2", got)
	}
	// Ties — equal slack among the startable, equal score in the
	// fallback — go to the lowest shard index.
	cands[1].Load = cands[2].Load
	if got := (BestFit{}).Pick(j, cands); got != 1 {
		t.Errorf("BestFit on equal slack picked %d, want 1 (lowest index)", got)
	}
	if got := (BestFit{}).Pick(wide, cands); got != 1 {
		t.Errorf("BestFit fallback on equal score picked %d, want 1 (lowest index)", got)
	}
}

// replayRouter drives a simulator input through a federation on a
// virtual clock and returns the router after the run goes idle.
func replayRouter(t *testing.T, in sim.Input, cfg Config) *Router {
	t.Helper()
	vc := engine.NewVirtualClock()
	cfg.Clock = vc
	cfg.Capacity = in.Capacity
	cfg.UseRequested = in.UseRequested
	cfg.MeasureStart = in.MeasureStart
	cfg.MeasureEnd = in.MeasureEnd
	if in.Measured != nil {
		measured := in.Measured
		cfg.Measured = func(id int) bool { return measured[id] }
	} else {
		cfg.Measured = func(int) bool { return true }
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := r.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkFederationRun applies the global oracle sweep to a finished
// federated run.
func checkFederationRun(t *testing.T, r *Router, submitted []job.Job) {
	t.Helper()
	shardRecs := make([][]sim.Record, r.NumShards())
	for i := range shardRecs {
		shardRecs[i] = r.ShardRecords(i)
	}
	if err := oracle.CheckFederation(r.cfg.Capacity, r.ShardCapacities(), submitted, shardRecs); err != nil {
		t.Fatalf("federation oracle: %v", err)
	}
}

func recordKey(r sim.Record) string {
	return fmt.Sprintf("start=%d end=%d nodes=%v measured=%v", r.Start, r.End, r.NodeIDs, r.Measured)
}

// TestOneShardMatchesEngine is the keystone differential: a 1-shard
// federation must commit a bit-identical schedule — starts, ends,
// concrete node IDs, completion order, decision count, whole summary —
// to a bare engine on every suite month. The router must be a pure
// pass-through when there is nothing to shard.
func TestOneShardMatchesEngine(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	}
	for _, month := range workload.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}

			// Bare engine replay.
			vc := engine.NewVirtualClock()
			measured := in.Measured
			e, err := engine.New(engine.Config{
				Capacity:     in.Capacity,
				Policy:       newPolicy(),
				Clock:        vc,
				MeasureStart: in.MeasureStart,
				MeasureEnd:   in.MeasureEnd,
				Measured:     func(id int) bool { return measured[id] },
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range in.Jobs {
				j := j
				vc.AfterFunc(j.Submit, func() {
					if err := e.SubmitJob(j); err != nil {
						t.Errorf("engine submit %d: %v", j.ID, err)
					}
				})
			}
			vc.Run()
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}

			// 1-shard federation replay of the same input. The periodic
			// pass runs (it is what reconciles parked steps, so it arms
			// with one shard too) and must not perturb the schedule.
			r := replayRouter(t, in, Config{
				Shards:         1,
				Policy:         func(int) sim.Policy { return newPolicy() },
				RebalanceEvery: 10 * job.Minute,
			})

			engRecs, fedRecs := e.Records(), r.Records()
			if len(engRecs) != len(fedRecs) {
				t.Fatalf("engine completed %d jobs, federation %d", len(engRecs), len(fedRecs))
			}
			for i := range engRecs {
				if engRecs[i].Job.ID != fedRecs[i].Job.ID {
					t.Fatalf("completion order diverges at %d: engine job %d, federation job %d",
						i, engRecs[i].Job.ID, fedRecs[i].Job.ID)
				}
				if recordKey(engRecs[i]) != recordKey(fedRecs[i]) {
					t.Fatalf("job %d: engine %s, federation %s",
						engRecs[i].Job.ID, recordKey(engRecs[i]), recordKey(fedRecs[i]))
				}
			}
			em, fm := e.Metrics(), r.Metrics()
			if em.Engine.Decisions != fm.Engine.Decisions {
				t.Errorf("engine made %d decisions, federation %d", em.Engine.Decisions, fm.Engine.Decisions)
			}
			if em.Summary != fm.Summary {
				t.Errorf("summaries diverge:\nengine     %+v\nfederation %+v", em.Summary, fm.Summary)
			}
			checkFederationRun(t, r, in.Jobs)
		})
	}
}

// TestImplicitWindowMatchesSim: without an explicit window every driver
// measures from the first arrival to the last event. On a month whose
// first arrival is far from 0, sim.Run, a bare engine and a 1-shard
// router report the same average queue length and utilization; a
// 2-shard router, whose last rebalance tick moves its clock past the
// last completion, still ends its window at that completion.
func TestImplicitWindowMatchesSim(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	in, _, err := suite.Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	in.MeasureStart, in.MeasureEnd, in.Measured = 0, 0, nil
	for i := range in.Jobs {
		in.Jobs[i].Submit += 500000
	}
	res, err := sim.Run(in, policy.FCFSBackfill())
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Summarize(res)
	if res.MeasureStart != in.Jobs[0].Submit || want.AvgQueueLen == 0 {
		t.Fatalf("sim.Run measured from %d (first arrival %d), average queue %v", res.MeasureStart, in.Jobs[0].Submit, want.AvgQueueLen)
	}

	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("engine submit %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	one := replayRouter(t, in, Config{Shards: 1, Policy: func(int) sim.Policy { return policy.FCFSBackfill() }, RebalanceEvery: 10 * job.Minute})
	for name, got := range map[string]metrics.Summary{"engine": e.Metrics().Summary, "1-shard router": one.Metrics().Summary} {
		if got.AvgQueueLen != want.AvgQueueLen || got.UtilizedLoad != want.UtilizedLoad {
			t.Errorf("%s: avg queue %v, utilization %v; sim.Run %v, %v", name, got.AvgQueueLen, got.UtilizedLoad, want.AvgQueueLen, want.UtilizedLoad)
		}
	}

	jobs := in.Jobs[:0]
	for _, j := range in.Jobs {
		if j.Nodes <= in.Capacity/2 {
			jobs = append(jobs, j)
		}
	}
	in.Jobs = jobs
	two := replayRouter(t, in, Config{Shards: 2, Policy: func(int) sim.Policy { return policy.FCFSBackfill() }, RebalanceEvery: 10 * job.Minute})
	recs := two.Records()
	span := &sim.Result{Records: recs, Capacity: in.Capacity, MeasureStart: in.Jobs[0].Submit}
	queued := int64(0)
	for _, r := range recs {
		span.MeasureEnd = max(span.MeasureEnd, r.End)
		queued += r.Start - r.Job.Submit
	}
	m := two.Metrics()
	if m.NowS <= span.MeasureEnd {
		t.Fatalf("the clock stopped at %d, not past the last completion at %d: the case is not exercised", m.NowS, span.MeasureEnd)
	}
	avgQ := float64(queued) / float64(span.MeasureEnd-span.MeasureStart)
	if util := metrics.Utilization(span); m.Summary.UtilizedLoad != util || m.Summary.AvgQueueLen != avgQ {
		t.Errorf("2 shards: avg queue %v, utilization %v; over [first arrival, last completion] %v, %v",
			m.Summary.AvgQueueLen, m.Summary.UtilizedLoad, avgQ, util)
	}
}

// TestFederatedSuiteMonth runs a 4-shard federation with rebalancing
// over a suite month and checks the global invariants: job conservation
// across migrations, shard-local node IDs, whole-machine capacity.
func TestFederatedSuiteMonth(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	in, _, err := suite.Input("7/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Partitioned shards can't hold the widest jobs; drop them from the
	// input up front (the router would reject them with ErrTooWide).
	shardCap := in.Capacity / 4
	jobs := in.Jobs[:0]
	for _, j := range in.Jobs {
		if j.Nodes <= shardCap {
			jobs = append(jobs, j)
		}
	}
	in.Jobs = jobs

	// The built-in rule (nil), and a fake that piles every job onto one
	// shard so the rebalance pass has the most to do.
	for _, place := range []Placement{nil, pinFirst{}} {
		name := BestFit{}.Name() // what nil means
		if place != nil {
			name = place.Name()
		}
		t.Run(name, func(t *testing.T) {
			r := replayRouter(t, in, Config{
				Shards:         4,
				Placement:      place,
				Policy:         func(int) sim.Policy { return policy.FCFSBackfill() },
				RebalanceEvery: 10 * job.Minute,
			})
			if got := len(r.Records()); got != len(in.Jobs) {
				t.Fatalf("completed %d of %d jobs", got, len(in.Jobs))
			}
			checkFederationRun(t, r, in.Jobs)
			fm := r.Federation()
			if fm.Shards != 4 || len(fm.PerShard) != 4 || len(fm.PerShardUtil) != 4 {
				t.Fatalf("federation metrics geometry: %+v", fm)
			}
			if fm.RoutingDecisions != int64(len(in.Jobs)) {
				t.Errorf("routed %d jobs, submitted %d", fm.RoutingDecisions, len(in.Jobs))
			}
			if fm.Global.Jobs.Done != len(in.Jobs) {
				t.Errorf("global metrics count %d done, want %d", fm.Global.Jobs.Done, len(in.Jobs))
			}
		})
	}
}

// TestMetricsSumsSearchCounters: every search counter of the federated
// report is the sum of the shards' counters, so a sharded daemon's
// /v1/metrics reads the same totals its per-shard report adds up to.
func TestMetricsSumsSearchCounters(t *testing.T) {
	const shards = 2
	suite := workload.NewSuite(workload.Config{Seed: 1, JobScale: 0.1})
	in, _, err := suite.Input("1/04", workload.SimOptions{TargetLoad: 0.9 * shards})
	if err != nil {
		t.Fatal(err)
	}
	in.Capacity = shards * workload.Capacity
	r := replayRouter(t, in, Config{
		Shards: shards,
		Policy: func(int) sim.Policy {
			return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 1000)
		},
	})
	fm := r.Federation()
	var want engine.Counters
	for _, s := range fm.PerShard {
		c := s.Metrics.Engine
		want.SearchNodes += c.SearchNodes
		want.SearchLeaves += c.SearchLeaves
		want.BudgetHits += c.BudgetHits
		want.SearchTableNodes += c.SearchTableNodes
		want.SearchNodesToBest += c.SearchNodesToBest
	}
	got := r.Metrics().Engine
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"search_nodes", got.SearchNodes, want.SearchNodes},
		{"search_leaves", got.SearchLeaves, want.SearchLeaves},
		{"budget_hits", got.BudgetHits, want.BudgetHits},
		{"search_table_nodes", got.SearchTableNodes, want.SearchTableNodes},
		{"search_nodes_to_best", got.SearchNodesToBest, want.SearchNodesToBest},
	} {
		if c.want <= 0 {
			t.Errorf("%s: the shards' sum is %d; this input must drive it above 0", c.name, c.want)
		}
		if c.got != c.want {
			t.Errorf("%s: federated %d, sum over shards %d", c.name, c.got, c.want)
		}
	}
}

// TestFederationQualityVsFCFS is the keystone for federated schedule
// quality, on the benchmark's fed_remote regime: the ten suite months at
// 0.9 of 512 nodes over four 128-node DDS/lxf/dynB shards (L = 1000),
// rebalance 600, default placement, scored the way the benchmark scores
// it — the mean over months of the month's average bounded slowdown and
// of its maximum wait, each relative to FCFS-backfill on one 512-node
// machine. Everything is seeded and on the virtual clock, so the ratios
// repeat exactly: 1.2278 and 4.2126 when the bounds were set 15 % above
// them; the least-loaded default this rule replaced scored 3.3294 and
// 11.1644 on the same input.
func TestFederationQualityVsFCFS(t *testing.T) {
	const shards, maxBsld, maxWait = 4, 1.41, 4.85
	suite := workload.NewSuite(workload.Config{Seed: 1, JobScale: 0.1})
	var bsld, wait []float64
	for _, month := range workload.MonthLabels() {
		in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9 * shards})
		if err != nil {
			t.Fatal(err)
		}
		// The suite's jobs are drawn for one 128-node machine, so every
		// job fits one shard.
		in.Capacity = shards * workload.Capacity
		r := replayRouter(t, in, Config{
			Shards: shards,
			Policy: func(int) sim.Policy {
				return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 1000)
			},
			RebalanceEvery: 600,
		})
		got := metrics.Summarize(&sim.Result{
			Records: r.Records(), Capacity: in.Capacity,
			MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
		})
		ref, err := sim.Run(in, policy.FCFSBackfill())
		if err != nil {
			t.Fatal(err)
		}
		base := metrics.Summarize(ref)
		// A month in which FCFS-backfill makes no job wait has no ratio
		// (the benchmark skips it the same way).
		if base.AvgBoundedSlowdown > 0 {
			bsld = append(bsld, got.AvgBoundedSlowdown/base.AvgBoundedSlowdown)
		}
		if base.MaxWaitH > 0 {
			wait = append(wait, got.MaxWaitH/base.MaxWaitH)
		}
	}
	if len(bsld) < 8 || len(wait) < 8 {
		t.Fatalf("only %d slowdown and %d wait ratios over ten months", len(bsld), len(wait))
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	b, w := mean(bsld), mean(wait)
	t.Logf("bsld_vs_fcfs %.4f, max_wait_vs_fcfs %.4f", b, w)
	if b > maxBsld || w > maxWait {
		t.Errorf("federated schedule quality against FCFS-backfill on one machine: bsld %.4f (bound %.2f), max wait %.4f (bound %.2f)",
			b, maxBsld, w, maxWait)
	}
}

// TestRebalanceMigrates pins the rebalance pass down: all load is
// steered onto shard 0 (the pin-first fake), and the pass must move
// queued jobs to the idle shards without losing or restarting any.
func TestRebalanceMigrates(t *testing.T) {
	vc := engine.NewVirtualClock()
	r, err := New(Config{
		Capacity:       64,
		Shards:         2,
		Clock:          vc,
		Placement:      pinFirst{},
		Policy:         func(int) sim.Policy { return policy.FCFSBackfill() },
		RebalanceEvery: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	var submitted []job.Job
	vc.AfterFunc(0, func() {
		// Every job is pinned to the same shard. The first two fill it
		// for a long time; the rest pile up in its queue.
		for i := 0; i < 12; i++ {
			rt := job.Duration(3600)
			spec := job.Job{Nodes: 16, Runtime: rt, Request: rt, User: 7}
			id, err := r.Submit(spec)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			st, ok, _ := r.Job(id)
			if !ok {
				t.Errorf("job %d vanished after submit", id)
				return
			}
			submitted = append(submitted, st.Job)
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	fm := r.Federation()
	if fm.Migrations == 0 {
		t.Fatal("rebalance pass never migrated a job off the overloaded shard")
	}
	if fm.RebalancePasses == 0 {
		t.Fatal("rebalance pass never ran")
	}
	if got := len(r.Records()); got != len(submitted) {
		t.Fatalf("completed %d of %d jobs", got, len(submitted))
	}
	// Migration must not have restarted anyone: monotone queue behavior
	// means total makespan shrinks versus the one-shard pile-up. With 32
	// nodes per shard and 16-node hour jobs, one shard needs 6 hours; a
	// balanced pair needs 3.
	last := r.Records()[len(r.Records())-1]
	if last.End > 4*3600 {
		t.Errorf("makespan %ds — rebalancing did not spread the backlog", last.End)
	}
	checkFederationRun(t, r, submitted)
}

// TestShiftLoadBoundsMinimum holds the pass's view to what lets a later
// move of the same pass skip a queue read: after each move a shard's
// MinQueuedNodeSec is at most its smallest queued demand, so a source
// holding a movable job is never skipped.
func TestShiftLoadBoundsMinimum(t *testing.T) {
	loads := []engine.Load{
		{Waiting: 2, QueuedNodeSec: 300, MinQueuedNodeSec: 100},
		{Waiting: 1, QueuedNodeSec: 500, MinQueuedNodeSec: 500},
		{},
	}
	shiftLoad(loads, 0, 1, 100) // below the destination's minimum
	shiftLoad(loads, 0, 2, 200) // into an empty queue
	shiftLoad(loads, 2, 1, 200) // above the destination's minimum
	want := []engine.Load{
		{Waiting: 0, QueuedNodeSec: 0, MinQueuedNodeSec: 100},
		{Waiting: 3, QueuedNodeSec: 800, MinQueuedNodeSec: 100},
		{Waiting: 0, QueuedNodeSec: 0, MinQueuedNodeSec: 200},
	}
	for i := range want {
		if loads[i] != want[i] {
			t.Errorf("shard %d: %+v, want %+v", i, loads[i], want[i])
		}
	}
}

// TestTooWide checks that a job no shard can hold is rejected with
// ErrTooWide and leaves no trace in the directory.
func TestTooWide(t *testing.T) {
	r, err := New(Config{
		Capacity: 128,
		Shards:   4,
		Clock:    engine.NewVirtualClock(),
		Policy:   func(int) sim.Policy { return policy.FCFSBackfill() },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Submit(job.Job{Nodes: 33, Runtime: 60, Request: 60})
	if !errors.Is(err, ErrTooWide) {
		t.Fatalf("want ErrTooWide, got %v", err)
	}
	// Whole-machine validation still screens absurd widths first.
	_, err = r.Submit(job.Job{Nodes: 129, Runtime: 60, Request: 60})
	if err == nil || errors.Is(err, ErrTooWide) {
		t.Fatalf("want capacity validation error, got %v", err)
	}
	if id, err := r.Submit(job.Job{Nodes: 32, Runtime: 60, Request: 60}); err != nil || id != 1 {
		t.Fatalf("widest fitting job: id %d, %v", id, err)
	}
}

// TestRebuildShard crashes one shard mid-run and rebuilds it from its
// journal; the rebuilt federation must finish every job and pass the
// global oracle.
func TestRebuildShard(t *testing.T) {
	vc := engine.NewVirtualClock()
	r, err := New(Config{
		Capacity: 64,
		Shards:   2,
		Clock:    vc,
		Policy:   func(int) sim.Policy { return policy.FCFSBackfill() },
	})
	if err != nil {
		t.Fatal(err)
	}
	var submitted []job.Job
	submit := func(n int, rt job.Duration) {
		spec := job.Job{Nodes: n, Runtime: rt, Request: rt}
		id, err := r.Submit(spec)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		st, _, _ := r.Job(id)
		submitted = append(submitted, st.Job)
	}
	vc.AfterFunc(0, func() {
		for i := 0; i < 8; i++ {
			submit(8, 1800)
		}
	})
	vc.AfterFunc(600, func() {
		for i := 0; i < 2; i++ {
			if err := r.RebuildShard(i); err != nil {
				t.Errorf("rebuild shard %d: %v", i, err)
			}
		}
		for i := 0; i < 4; i++ {
			submit(4, 900)
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Records()); got != len(submitted) {
		t.Fatalf("completed %d of %d jobs", got, len(submitted))
	}
	checkFederationRun(t, r, submitted)

	// A router that fronts shards it did not build refuses, even when the
	// shards are in-process engines and a policy factory was passed.
	ext, err := NewWithShards(Config{Clock: vc, Policy: func(int) sim.Policy { return policy.FCFSBackfill() }}, r.shardList())
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.RebuildShard(0); err == nil {
		t.Fatal("RebuildShard on externally-owned engine shards: want refusal")
	}
}

// TestDrainStopsAdmission drains the router and checks both the router
// and the shards refuse new work while the backlog completes.
func TestDrainStopsAdmission(t *testing.T) {
	vc := engine.NewVirtualClock()
	r, err := New(Config{
		Capacity: 32,
		Shards:   2,
		Clock:    vc,
		Policy:   func(int) sim.Policy { return policy.FCFSBackfill() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(job.Job{Nodes: 4, Runtime: 60, Request: 60}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Drain(context.Background()) }()
	for !r.Draining() {
		runtime.Gosched()
	}
	if _, err := r.Submit(job.Job{Nodes: 1, Runtime: 1, Request: 1}); !errors.Is(err, engine.ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	go vc.Run()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(r.Records()); got != 1 {
		t.Fatalf("drained with %d records, want 1", got)
	}
}
