package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// servingStats is what the product's own counters say about one stack
// when its run ends.
type servingStats struct {
	Summary  metrics.Summary
	Counters engine.Counters
	Journal  engine.JournalStats
	Queue    ingest.Stats
	// Waiting is the engine's queue length.
	Waiting int
	// AppendNs is the mean journal append time (traced rounds only).
	AppendNs float64
	// Bytes is the journal file's size, known once the stack is closed.
	Bytes int64
	// Non2xx and Retries are the client's count of refused and
	// re-sent requests.
	Non2xx  int
	Retries int
}

// collect reads the stack's counters; call it before close.
func (st *stack) collect() servingStats {
	mt := st.Eng.Metrics()
	ss := servingStats{Summary: mt.Summary, Counters: mt.Engine, Journal: st.Journal.Stats(), Queue: st.Queue.Stats(), Waiting: mt.Jobs.Waiting}
	if st.TJ != nil && st.TJ.appends.Load() > 0 {
		ss.AppendNs = float64(st.TJ.appendNs.Load()) / float64(st.TJ.appends.Load())
	}
	return ss
}

// servedMonth is what one online replay of one month leaves behind.
type servedMonth struct {
	servingStats
	// Segs are the clock run's segments in seconds, one beginning at
	// every POST and every Decide; they add up to its wall time.
	Segs    []float64
	Records []sim.Record
	Decide  *timedPolicy
	AckNs   []float64
}

// encodeJobs encodes one single-object POST body per job, before the
// timed section.
func encodeJobs(in sim.Input) ([][]byte, error) {
	bodies := make([][]byte, len(in.Jobs))
	for i, j := range in.Jobs {
		b, err := json.Marshal(submitRequest(j))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// serveMonth boots a fresh single-node stack on a virtual clock and
// replays the month through it: one client, one POST /v1/jobs per job,
// sent from the clock callback at the job's submit time over one
// keep-alive connection (closed loop). The timed part is the clock run.
func serveMonth(ctx *runCtx, m monthInput, bodies [][]byte, rec *recorder, tr *obs.Tracer) (*servedMonth, error) {
	vc := engine.NewVirtualClock()
	mk := &marks{}
	tp := &timedPolicy{inner: newSearchPolicy(ctx.Size.SuiteLimit), rec: rec, marks: mk}
	in := m.In
	st, err := bootStack(stackOpts{
		Policy:      tp,
		Capacity:    in.Capacity,
		Clock:       vc,
		JournalPath: filepath.Join(ctx.TmpDir, "serve.journal"),
		In:          &in,
		Marks:       mk,
		Rec:         rec,
		Tracer:      tr,
	})
	if err != nil {
		return nil, err
	}
	out := &servedMonth{Decide: tp, AckNs: make([]float64, 0, len(in.Jobs))}
	var postErr error
	non2xx := 0
	for i, j := range in.Jobs {
		body, id := bodies[i], j.ID
		vc.AfterFunc(j.Submit, func() {
			span := rec.begin("server", "post", id)
			t0 := time.Now()
			mk.mark(t0)
			status, _, err := post(st.Client, st.URL, body, 0)
			out.AckNs = append(out.AckNs, float64(time.Since(t0).Nanoseconds()))
			rec.end(span)
			if err != nil && postErr == nil {
				postErr = fmt.Errorf("POST job %d: %w", id, err)
			}
			if status != http.StatusCreated {
				non2xx++
			}
		})
	}
	clockRun := rec.begin("engine", "clock_run", 0)
	mk.base = time.Now()
	vc.Run()
	out.Segs = mk.segments(time.Now())
	rec.end(clockRun)

	out.servingStats = st.collect()
	out.Non2xx = non2xx
	out.Records = st.Eng.Records()
	engErr := st.Eng.Err()
	out.Bytes, err = st.close()
	switch {
	case postErr != nil:
		return nil, postErr
	case engErr != nil:
		return nil, engErr
	case err != nil:
		return nil, err
	}
	return out, nil
}

// runServeMonth replays the ten months at their original load through
// the whole single-node serving path, a round being one pass over the
// ten months on fresh stacks.
func runServeMonth(ctx *runCtx) (*result, error) {
	res := newResult("serve_month")
	sz := ctx.Size

	setup, st, err := timedSetup(sz, func() (*suiteState, error) {
		st, err := suiteInputs(ctx.Seed, sz.ServeScale, workload.MonthLabels(), workload.SimOptions{})
		if err != nil {
			return nil, err
		}
		for _, m := range st.Months {
			b, err := encodeJobs(m.In)
			if err != nil {
				return nil, err
			}
			st.Bodies = append(st.Bodies, b)
		}
		// Stack boot and one warm-up call: a throw-away stack takes one
		// submission, which also opens the listener and the journal.
		warm := monthInput{Label: "warmup", In: st.Months[0].In}
		warm.In.Jobs = warm.In.Jobs[:1]
		_, err = serveMonth(ctx, warm, st.Bodies[0][:1], nil, nil)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	st.report(res)
	months, bodies, jobsPerRound := st.Months, st.Bodies, st.jobs()

	plain, traced := newUnitTimes(), newUnitTimes()
	first := make([]*servedMonth, len(months))
	checks := make([]roundCheck, len(months))
	var decide decideTimes
	var ackNs []float64
	var decideSumNs int64
	var lastRec *recorder
	var lastTracer *obs.Tracer
	var lastTraced []*servedMonth

	before := readProc()
	n, err := rounds(ctx, 1, setup.once, func(r round) error {
		var rec *recorder
		var tr *obs.Tracer
		if r.Traced {
			rec = newRecorder(false)
			tr = newTracer(ctx.Seed, jobsPerRound)
			lastTraced = lastTraced[:0]
		}
		root := rec.begin("bench", "round", 0)
		for mi, m := range months {
			sm, err := serveMonth(ctx, m, bodies[mi], rec, tr)
			if err != nil {
				return fmt.Errorf("month %s: %w", m.Label, err)
			}
			if sm.Non2xx > 0 {
				res.fail(sm.Non2xx, m.Label, "%d of %d POSTs were not 201", sm.Non2xx, len(m.In.Jobs))
			}
			if checks[mi].check(res, m.Label, r.N, len(m.In.Jobs), sm.Records) {
				first[mi] = sm
			}
			if r.Traced {
				traced.add(m.Label, sm.Segs...)
				lastTraced = append(lastTraced, sm)
			} else {
				plain.add(m.Label, sm.Segs...)
				decide.add(m.Label, sm.Decide.durNs)
				ackNs = append(ackNs, sm.AckNs...)
				decideSumNs += sm.Decide.sumNs
			}
		}
		rec.end(root)
		if r.Traced {
			lastRec, lastTracer = rec, tr
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
	fmt.Fprintf(ctx.Log, "serve_month: %d rounds of %d jobs; %s\n", n, jobsPerRound, plain.summary())

	// Checks and baselines, outside the timed section: the served
	// schedule must be the simulator's, bit for bit.
	tCheck := time.Now()
	got := make([]monthQuality, len(months))
	base := make([]monthQuality, len(months))
	fcfs := &timedPolicy{inner: policy.FCFSBackfill()}
	for mi, m := range months {
		ref, err := sim.Run(m.In, newSearchPolicy(sz.SuiteLimit))
		if err != nil {
			return nil, fmt.Errorf("month %s reference sim.Run: %w", m.Label, err)
		}
		if diff := firstRecordDiff(first[mi].Records, ref.Records); diff != "" {
			res.fail(1, m.Label, "served schedule differs from sim.Run: %s", diff)
		}
		if err := oracle.CheckRecords(m.In.Capacity, m.In.Jobs, first[mi].Records); err != nil {
			res.fail(1, m.Label, "oracle: %v", err)
		}
		got[mi] = qualityOf(first[mi].Summary)
	}
	res.set("oracle.check_ms", msSince(tCheck))
	for mi, m := range months {
		if base[mi], err = baselineQuality(m.In, fcfs); err != nil {
			return nil, fmt.Errorf("month %s FCFS-backfill baseline: %w", m.Label, err)
		}
	}
	setQuality(res, got, base)

	if !ctx.Trace {
		return res, nil
	}

	res.set("core.search_share", float64(decideSumNs)/1e9/plain.totalSeconds())
	res.set("policy.fcfs_backfill_decide_us", mean(fcfs.durNs)/1e3)
	setServingMetrics(res, statsOf(first), jobsPerRound)
	res.set("server.ack_p50_us", percentile(ackNs, 50)/1e3)
	res.set("server.ack_p99_us", percentile(ackNs, 99)/1e3)
	setServingSpanMetrics(res, lastRec, statsOf(lastTraced))
	setObsMetrics(res, lastTracer, "submit", "decide")
	setProcMetrics(res, before, after, jobsPerRound*n)
	res.set("bench.trace_overhead_pct", 100*(traced.passSeconds()/wall-1))
	return res, reportTrace(ctx, res, lastRec, lastTracer)
}

func statsOf(ms []*servedMonth) []servingStats {
	out := make([]servingStats, len(ms))
	for i, m := range ms {
		out[i] = m.servingStats
	}
	return out
}

// setServingMetrics reports the counters the product keeps itself, over
// the first round's months.
func setServingMetrics(res *result, ms []servingStats, jobs int) {
	var appends, syncs, bytes, committed, groups, saturations int64
	var decisions int64
	var decideMs, maxMs float64
	var peak, non2xx, retries int
	var p50, p99 []float64
	for _, m := range ms {
		appends += m.Journal.Appends
		syncs += m.Journal.Syncs
		bytes += m.Bytes
		committed += m.Queue.Committed
		groups += m.Queue.SyncGroups
		saturations += m.Queue.Saturations
		if m.Queue.PeakPending > peak {
			peak = m.Queue.PeakPending
		}
		non2xx += m.Non2xx
		retries += m.Retries
		decisions += m.Counters.Decisions
		decideMs += m.Counters.AvgDecideMs * float64(m.Counters.Decisions)
		if m.Counters.MaxDecideMs > maxMs {
			maxMs = m.Counters.MaxDecideMs
		}
		p50 = append(p50, float64(m.Queue.Latency.P50Us))
		p99 = append(p99, float64(m.Queue.Latency.P99Us))
	}
	if decisions > 0 {
		res.set("engine.decide_avg_ms", decideMs/float64(decisions))
	}
	res.set("engine.decide_max_ms", maxMs)
	if jobs > 0 {
		res.set("engine.journal_syncs_per_job", float64(syncs)/float64(jobs))
		res.set("engine.journal_bytes_per_job", float64(bytes)/float64(jobs))
	}
	if syncs > 0 {
		res.set("engine.journal_events_per_sync", float64(appends)/float64(syncs))
	}
	if groups > 0 {
		res.set("ingest.jobs_per_group", float64(committed)/float64(groups))
	}
	res.set("ingest.accept_commit_p50_us", median(p50))
	res.set("ingest.accept_commit_p99_us", median(p99))
	res.set("ingest.peak_pending", float64(peak))
	res.set("ingest.saturations", float64(saturations))
	res.set("ingest.retries", float64(retries))
	res.set("server.non2xx", float64(non2xx))
}

// setServingSpanMetrics reports what only the decorators see, from the
// last traced round's spans.
func setServingSpanMetrics(res *result, rec *recorder, ms []servingStats) {
	spans := rec.snapshot()
	if len(spans) == 0 {
		return
	}
	res.set("engine.submit_us", mean(durationsUs(spans, "engine", "submit")))
	syncs := durationsUs(spans, "journal", "sync")
	res.set("engine.journal_sync_p50_us", percentile(syncs, 50))
	res.set("engine.journal_sync_p99_us", percentile(syncs, 99))
	handler := durationsUs(spans, "server", "handler")
	res.set("server.handler_p50_us", percentile(handler, 50))
	if posts := durationsUs(spans, "server", "post"); len(posts) > 0 {
		res.set("server.http_tax_us", percentile(posts, 50)-percentile(handler, 50))
	}
	var appendNs []float64
	var decisions int64
	for _, m := range ms {
		appendNs = append(appendNs, m.AppendNs)
		decisions += m.Counters.Decisions
	}
	res.set("engine.journal_append_ns", mean(appendNs))
	if decisions > 0 {
		// The clock run's self time is what the engine does between
		// the submissions and decisions it hosts: completions, ledger
		// and timer bookkeeping.
		self := selfTimes(spans)
		var clockSelf int64
		for _, s := range spans {
			if s.Layer == "engine" && s.Name == "clock_run" {
				clockSelf += self[s.ID]
			}
		}
		res.set("engine.self_us_per_decision", float64(clockSelf)/1e3/float64(decisions))
	}
}
