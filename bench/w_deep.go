package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"schedsearch/internal/cluster"
	"schedsearch/internal/core"
	"schedsearch/internal/job"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
)

// deepConfig is one (algorithm, queue depth) pair of deep_decide.
type deepConfig struct {
	Algo  core.Algorithm
	Depth int
}

func (c deepConfig) key() string {
	return fmt.Sprintf("%s_d%d", strings.ToLower(c.Algo.String()), c.Depth)
}

var deepConfigs = []deepConfig{
	{core.DDS, 32}, {core.DDS, 64}, {core.LDS, 32}, {core.LDS, 64},
}

// deepPoint is one decision point of one configuration.
type deepPoint struct {
	snap  *sim.Snapshot
	seen  bool
	print uint64       // plan fingerprint of the first call
	ns    []float64    // wall time of every untraced call
	plan  monthQuality // predicted from planned starts and the estimates the policy saw
}

// planOf reads the plan the scheduler committed at its last decision.
func planOf(sch *core.Scheduler, snap *sim.Snapshot) (monthQuality, uint64) {
	byID := make(map[int]sim.WaitingJob, len(snap.Queue))
	for _, w := range snap.Queue {
		byID[w.Job.ID] = w
	}
	h := fnv.New64a()
	var q monthQuality
	plan := sch.LastPlan()
	for _, p := range plan {
		w := byID[p.JobID]
		q.Bsld += job.BoundedSlowdownAt(w.Job.Submit, w.Estimate, p.Planned) / float64(len(plan))
		if wait := float64(p.Planned-w.Job.Submit) / float64(job.Hour); wait > q.MaxWaitH {
			q.MaxWaitH = wait
		}
		fmt.Fprintf(h, "%d@%d;", p.JobID, p.Planned)
	}
	return q, h.Sum64()
}

// runDeepDecide times Scheduler.Decide alone on contended decision
// points: a round is one call on every point of every configuration.
func runDeepDecide(ctx *runCtx) (*result, error) {
	res := newResult("deep_decide")
	sz := ctx.Size

	type deepState struct {
		points [][]*deepPoint
		scheds []*core.Scheduler
	}
	setup, st, err := timedSetup(sz, func() (*deepState, error) {
		st := &deepState{}
		for _, c := range deepConfigs {
			var ps []*deepPoint
			for v := 0; v < sz.DeepVariants; v++ {
				ps = append(ps, &deepPoint{snap: decisionSnapshot(c.Depth, ctx.Seed, v)})
			}
			st.points = append(st.points, ps)
			sch := core.New(c.Algo, core.HeuristicLXF, core.DynamicBound(), sz.DeepLimit)
			// Warm-up: the first call allocates the search scratch.
			sch.Decide(ps[0].snap)
			st.scheds = append(st.scheds, sch)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	points, scheds := st.points, st.scheds

	minRounds := (sz.DeepMinSamples + sz.DeepVariants - 1) / sz.DeepVariants
	var plainNs, tracedNs float64
	var lastRec *recorder
	before := readProc()
	n, err := rounds(ctx, minRounds, setup.once, func(r round) error {
		var rec *recorder
		if r.Traced {
			rec = newRecorder(false)
		}
		root := rec.begin("bench", "round", 0)
		for ci, c := range deepConfigs {
			sch := scheds[ci]
			for vi, p := range points[ci] {
				where := func() string { return fmt.Sprintf("%s point %d", c.key(), vi) }
				nodes0 := sch.SearchStats.Nodes
				id := rec.begin("core", "decide", 0)
				t0 := time.Now()
				sch.Decide(p.snap)
				d := float64(time.Since(t0).Nanoseconds())
				rec.end(id)
				res.Attempted++
				q, fp := planOf(sch, p.snap)
				switch {
				case len(sch.LastPlan()) != c.Depth:
					res.fail(1, where(), "Decide planned %d of %d queued jobs", len(sch.LastPlan()), c.Depth)
				case !p.seen:
					p.seen, p.print, p.plan = true, fp, q
				case fp != p.print:
					res.fail(1, where(), "repetition %d committed a different plan", r.N)
				}
				if got := sch.SearchStats.Nodes - nodes0; got != int64(sz.DeepLimit) {
					res.fail(1, where(), "visited %d nodes, budget is %d", got, sz.DeepLimit)
				}
				if r.Traced {
					tracedNs += d
				} else {
					plainNs += d
					p.ns = append(p.ns, d)
				}
			}
		}
		rec.end(root)
		if r.Traced {
			lastRec = rec
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := readProc()
	if err := setup.finish(res); err != nil {
		return nil, err
	}

	// Each point's cost is its fastest call (the tree is the same on every
	// repetition); the percentiles are then over decision points, so the
	// tail is that of the inputs, not of the machine.
	var p50s, p90s []float64
	var totalNs float64
	planned := 0
	for ci, c := range deepConfigs {
		var best []float64
		for _, p := range points[ci] {
			best = append(best, fastest(p.ns))
		}
		s := sortedCopy(best)
		p50s = append(p50s, percentileSorted(s, 50))
		p90s = append(p90s, percentileSorted(s, 90))
		for _, b := range best {
			totalNs += b
		}
		planned += c.Depth * len(best)
		res.set("core.ns_per_node_"+c.key(), mean(best)/float64(sz.DeepLimit))
	}
	res.set("decide_p50_ms", mean(p50s)/1e6)
	worst := 0.0
	for _, p := range p90s {
		if p > worst {
			worst = p
		}
	}
	res.set("decide_p90_ms", worst/1e6)
	res.set("jobs_per_s", float64(planned)/(totalNs/1e9))
	samples := len(points[0][0].ns) * sz.DeepVariants
	fmt.Fprintf(ctx.Log, "deep_decide: %d rounds, %d timed calls per configuration over %d decision points; tail reported at p90 (p%g is the highest with ten samples beyond it)\n",
		n, samples, sz.DeepVariants, tailPercentile(samples))

	// Plan quality against the FCFS-order list schedule of the same
	// decision point (FCFS heuristic, no search), outside the timed
	// section.
	var got, base []monthQuality
	for ci := range deepConfigs {
		for _, p := range points[ci] {
			ref := core.New(core.DDS, core.HeuristicFCFS, core.DynamicBound(), 1)
			ref.Decide(p.snap)
			q, _ := planOf(ref, p.snap)
			got = append(got, p.plan)
			base = append(base, q)
		}
	}
	setQuality(res, got, base)
	if !ctx.Trace {
		return res, nil
	}
	res.set("core.search_share", 1)
	var all []float64
	for ci := range deepConfigs {
		for _, p := range points[ci] {
			all = append(all, fastest(p.ns))
		}
	}
	res.set("core.decide_p50_us", percentile(all, 50)/1e3)
	res.set("core.decide_p99_us", percentile(all, 99)/1e3)
	microCluster(res, points[1][0].snap)
	microCore(res, points[1][0].snap, sz.DeepLimit)
	setProcMetrics(res, before, after, res.Attempted)
	if plainNs > 0 {
		res.set("bench.trace_overhead_pct", 100*(tracedNs/plainNs-1))
	}
	return res, reportTrace(ctx, res, lastRec, nil)
}

// microSink keeps the micro loops' results alive.
var microSink int64

// microCluster times the availability profile's inner-loop calls on the
// profile of a 30-running-job decision point: one PlaceEarliest+Undo
// (what every search node does), one EarliestFit, and one Reset+refill
// (what every decision does per worker).
func microCluster(res *result, snap *sim.Snapshot) {
	prof := policy.BuildProfile(snap)
	const reps = 200000
	q := snap.Queue
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		w := &q[i%len(q)]
		at, pl := prof.PlaceEarliest(snap.Now, w.Job.Nodes, w.Estimate)
		microSink += at
		prof.Undo(pl)
	}
	res.set("cluster.place_undo_ns", float64(time.Since(t0).Nanoseconds())/reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		w := &q[i%len(q)]
		microSink += prof.EarliestFit(snap.Now, w.Job.Nodes, w.Estimate)
	}
	res.set("cluster.earliest_fit_ns", float64(time.Since(t0).Nanoseconds())/reps)
	var p cluster.Profile
	const resets = 20000
	t0 = time.Now()
	for i := 0; i < resets; i++ {
		p.Reset(snap.Capacity, snap.Now)
		for _, r := range snap.Running {
			p.Place(snap.Now, r.Nodes, r.PredictedEnd-snap.Now)
		}
	}
	res.set("cluster.reset_ns", float64(time.Since(t0).Nanoseconds())/resets)
}

// microCore times what every decision pays whatever its budget (Decide
// at L=1 is the heuristic pass plus set-up), and the wall-clock ratio of
// the sequential search to one worker per CPU at the deep budget.
func microCore(res *result, snap *sim.Snapshot, limit int) {
	fixed := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 1)
	fixed.Decide(snap)
	var ns []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		fixed.Decide(snap)
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	res.set("core.decide_fixed_us_d64", fastest(ns)/1e3)

	best := func(workers int) float64 {
		sch := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), limit)
		sch.Workers = workers
		sch.Decide(snap)
		var ns []float64
		for i := 0; i < 8; i++ {
			t0 := time.Now()
			sch.Decide(snap)
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		return fastest(ns)
	}
	if par := best(core.AutoWorkers); par > 0 {
		res.set("core.par_speedup_d64", best(1)/par)
	}
}
