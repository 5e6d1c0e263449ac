package main

import (
	"fmt"
	"time"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/metrics"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// newSearchPolicy is the paper's best policy, DDS/lxf/dynB, at node
// budget limit and the shipped default of one search worker.
func newSearchPolicy(limit int) *core.Scheduler {
	return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), limit)
}

// warmUpSim replays the first jobs of an input once, so the timed
// section does not pay for first-touch page faults and lazy set-up.
func warmUpSim(in sim.Input, limit int) error {
	n := len(in.Jobs)
	if n > 200 {
		n = 200
	}
	warm := sim.Input{Capacity: in.Capacity, Jobs: in.Jobs[:n], UseRequested: in.UseRequested}
	_, err := sim.Run(warm, newSearchPolicy(limit))
	return err
}

// monthQuality is the two schedule-quality criteria of one month's
// schedule (or, on deep_decide, of one decision point's plan).
type monthQuality struct {
	Bsld     float64
	MaxWaitH float64
}

func qualityOf(s metrics.Summary) monthQuality {
	return monthQuality{Bsld: s.AvgBoundedSlowdown, MaxWaitH: s.MaxWaitH}
}

// baselineQuality runs FCFS-backfill through sim.Run on the input (one
// machine of the input's capacity) outside any timed section; the
// wrapper times its decisions for the policy layer's metric.
func baselineQuality(in sim.Input, tp *timedPolicy) (monthQuality, error) {
	out, err := sim.Run(in, tp)
	if err != nil {
		return monthQuality{}, err
	}
	return qualityOf(metrics.Summarize(out)), nil
}

// setQuality reports the two schedule-quality ratios: the mean over
// months of the month's average bounded slowdown divided by the
// FCFS-backfill baseline's, and the same for the maximum wait. They are
// the two criteria the paper trades against each other, reported
// together so that a faster schedule cannot hide a worse one. (A ratio
// of means would let the one heaviest month, or on deep_decide the one
// worst decision point, carry the number.)
func setQuality(res *result, got, base []monthQuality) {
	var b, w []float64
	for i := range got {
		if base[i].Bsld > 0 {
			b = append(b, got[i].Bsld/base[i].Bsld)
		}
		// A month in which FCFS-backfill never makes a job wait has no
		// ratio; at the benchmark's load that does not happen.
		if base[i].MaxWaitH > 0 {
			w = append(w, got[i].MaxWaitH/base[i].MaxWaitH)
		}
	}
	if len(b) == 0 || len(w) == 0 {
		res.fail(1, "quality", "the FCFS-backfill baseline has no slowdown or no wait in any month; the ratios are undefined")
	}
	res.set("bsld_vs_fcfs", mean(b))
	res.set("max_wait_vs_fcfs", mean(w))
}

// runPaperSuite replays all ten suite months at offered load 0.9
// through sim.Run under DDS/lxf/dynB (the paper's Figure 4 setting), a
// round being one pass over the ten months.
func runPaperSuite(ctx *runCtx) (*result, error) {
	res := newResult("paper_suite")
	sz := ctx.Size

	setup, st, err := timedSetup(sz, func() (*suiteState, error) {
		st, err := suiteInputs(ctx.Seed, sz.SuiteScale, workload.MonthLabels(), workload.SimOptions{TargetLoad: 0.9})
		if err != nil {
			return nil, err
		}
		return st, warmUpSim(st.Months[0].In, sz.SuiteLimit)
	})
	if err != nil {
		return nil, err
	}
	st.report(res)
	months, jobsPerRound := st.Months, st.jobs()

	plain, traced := newUnitTimes(), newUnitTimes()
	first := make([]*sim.Result, len(months))
	checks := make([]roundCheck, len(months))
	var stats core.Stats
	var decide decideTimes
	var decideSumNs int64
	var lastRec *recorder

	before := readProc()
	n, err := rounds(ctx, 1, setup.once, func(r round) error {
		var rec *recorder
		if r.Traced {
			rec = newRecorder(false)
		}
		root := rec.begin("bench", "round", 0)
		for mi, m := range months {
			sch := newSearchPolicy(sz.SuiteLimit)
			id := rec.begin("sim", "run", 0)
			mk := newMarks()
			tp := &timedPolicy{inner: sch, rec: rec, marks: mk}
			out, err := sim.Run(m.In, tp)
			segs := mk.segments(time.Now())
			rec.end(id)
			if err != nil {
				return fmt.Errorf("month %s: %w", m.Label, err)
			}
			if checks[mi].check(res, m.Label, r.N, len(m.In.Jobs), out.Records) {
				first[mi] = out
				addStats(&stats, sch.SearchStats)
			}
			if r.Traced {
				traced.add(m.Label, segs...)
			} else {
				plain.add(m.Label, segs...)
				decide.add(m.Label, tp.durNs)
				decideSumNs += tp.sumNs
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

	wall := plain.passSeconds()
	res.set("jobs_per_s", float64(jobsPerRound)/wall)
	decide.report(res)
	fmt.Fprintf(ctx.Log, "paper_suite: %d rounds of %d jobs; %s\n", n, jobsPerRound, plain.summary())

	// Checks and baselines, outside the timed section.
	tCheck := time.Now()
	for mi, m := range months {
		if err := metrics.CheckConservation(first[mi]); err != nil {
			res.fail(1, m.Label, "conservation: %v", err)
		}
		if err := oracle.CheckRecords(m.In.Capacity, m.In.Jobs, first[mi].Records); err != nil {
			res.fail(1, m.Label, "oracle: %v", err)
		}
	}
	res.set("oracle.check_ms", msSince(tCheck))

	fcfs := &timedPolicy{inner: policy.FCFSBackfill()}
	got := make([]monthQuality, len(months))
	base := make([]monthQuality, len(months))
	var sumMs float64
	var decisions, maxQ int
	var avgQ float64
	for mi, m := range months {
		t0 := time.Now()
		got[mi] = qualityOf(metrics.Summarize(first[mi]))
		sumMs += msSince(t0)
		if base[mi], err = baselineQuality(m.In, fcfs); err != nil {
			return nil, fmt.Errorf("month %s FCFS-backfill baseline: %w", m.Label, err)
		}
		decisions += first[mi].Decisions
		if first[mi].MaxQueueLen > maxQ {
			maxQ = first[mi].MaxQueueLen
		}
		avgQ += first[mi].AvgQueueLen / float64(len(months))
	}
	setQuality(res, got, base)

	if !ctx.Trace {
		return res, nil
	}

	// Per-layer metrics.
	searchShare := float64(decideSumNs) / 1e9 / plain.totalSeconds()
	res.set("core.search_share", searchShare)
	res.set("sim.self_share", 1-searchShare)
	res.set("sim.decisions", float64(decisions))
	res.set("sim.max_queue_len", float64(maxQ))
	res.set("sim.avg_queue_len", avgQ)
	res.set("metrics.summarize_ms", sumMs)
	setSearchStats(res, stats)
	res.set("policy.fcfs_backfill_decide_us", mean(fcfs.durNs)/1e3)
	lxf := &timedPolicy{inner: policy.LXFBackfill()}
	for _, m := range months {
		if _, err := sim.Run(m.In, lxf); err != nil {
			return nil, fmt.Errorf("month %s LXF-backfill: %w", m.Label, err)
		}
	}
	res.set("policy.lxf_backfill_decide_us", mean(lxf.durNs)/1e3)
	if err := metaOverhead(ctx, res); err != nil {
		return nil, err
	}
	setProcMetrics(res, before, after, jobsPerRound*n)
	res.set("bench.trace_overhead_pct", 100*(traced.passSeconds()/wall-1))
	if err := reportTrace(ctx, res, lastRec, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// addStats accumulates one replay's search effort.
func addStats(dst *core.Stats, s core.Stats) {
	dst.Decisions += s.Decisions
	dst.Nodes += s.Nodes
	dst.Leaves += s.Leaves
	dst.BudgetHits += s.BudgetHits
	dst.NodesToBest += s.NodesToBest
}

// setSearchStats reports the exact search-effort counts; the last is
// useful work over attempts (the share of visited nodes spent before
// the final incumbent was in hand).
func setSearchStats(res *result, s core.Stats) {
	if s.Decisions == 0 || s.Nodes == 0 {
		return
	}
	res.set("core.nodes_per_decision", float64(s.Nodes)/float64(s.Decisions))
	res.set("core.leaves_per_knode", 1000*float64(s.Leaves)/float64(s.Nodes))
	res.set("core.budget_hit_rate", float64(s.BudgetHits)/float64(s.Decisions))
	res.set("core.nodes_to_best_share", float64(s.NodesToBest)/float64(s.Nodes))
}

// metaOverhead replays 7/03 at load 0.9 and L=300 under the two-member
// portfolio and under its first member alone; the wall ratio is what
// the meta-scheduler's shadow simulations cost.
func metaOverhead(ctx *runCtx, res *result) error {
	st, err := suiteInputs(ctx.Seed, ctx.Size.SuiteScale, []string{"7/03"}, workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		return err
	}
	months := st.Months
	const limit = 300
	wall := func(spec string) (float64, sim.Policy, error) {
		pol, err := schedsearch.ParsePolicy(spec, limit)
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		_, err = sim.Run(months[0].In, pol)
		return time.Since(t0).Seconds(), pol, err
	}
	single, _, err := wall("DDS/lxf/dynB")
	if err != nil {
		return fmt.Errorf("metasched baseline: %w", err)
	}
	meta, pol, err := wall("meta(DDS/lxf/dynB,LDS/fcfs/dynB)")
	if err != nil {
		return fmt.Errorf("metasched portfolio: %w", err)
	}
	if single > 0 {
		res.set("metasched.overhead_ratio", meta/single)
	}
	if ms, ok := pol.(*schedsearch.MetaScheduler); ok {
		res.set("metasched.switches", float64(ms.MetaStats().Switches))
	}
	return nil
}
