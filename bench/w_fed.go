package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

const (
	fedShards = 4
	// fedCapacity is the federated machine: four 128-node shards.
	fedCapacity = fedShards * workload.Capacity
	// fedLoad is the suite's TargetLoad that offers 0.9 of 512 nodes
	// (the suite's jobs are drawn for one 128-node machine, so every
	// job fits one shard).
	fedLoad = 0.9 * fedShards
	// fedRebalance is the router's rebalance period in engine seconds.
	fedRebalance = 600
)

// fedRun is what one federated replay of one month leaves behind.
type fedRun struct {
	// Segs are the clock run's segments in seconds, one beginning at
	// every submission to the router and every shard Decide; they add up
	// to its wall time. The in-process reference run is one segment.
	Segs     []float64
	Records  []sim.Record
	PerShard [][]sim.Record
	Caps     []int
	Fed      engine.FederationMetrics
	SubmitNs []float64
	Decide   []*timedPolicy
	Calls    []wireCall
}

func fedConfig(in sim.Input, vc *engine.VirtualClock, tr *obs.Tracer) federation.Config {
	cfg := federation.Config{
		Clock:          vc,
		RebalanceEvery: fedRebalance,
		UseRequested:   in.UseRequested,
		MeasureStart:   in.MeasureStart,
		MeasureEnd:     in.MeasureEnd,
		Tracer:         tr,
	}
	if measured := in.Measured; measured != nil {
		cfg.Measured = func(id int) bool { return measured[id] }
	}
	return cfg
}

// replayRouter submits the month's jobs to the router from clock
// callbacks at their submit times and runs the clock to completion; the
// timed part is the clock run.
func replayRouter(in sim.Input, vc *engine.VirtualClock, router *federation.Router, rec *recorder, mk *marks, out *fedRun) error {
	var submitErr error
	out.SubmitNs = make([]float64, 0, len(in.Jobs))
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			span := rec.begin("federation", "submit", j.ID)
			t0 := time.Now()
			mk.mark(t0)
			err := router.SubmitJob(j)
			out.SubmitNs = append(out.SubmitNs, float64(time.Since(t0).Nanoseconds()))
			rec.end(span)
			if err != nil && submitErr == nil {
				submitErr = fmt.Errorf("submit job %d: %w", j.ID, err)
			}
		})
	}
	root := rec.begin("engine", "clock_run", 0)
	mk.base = time.Now()
	vc.Run()
	out.Segs = mk.segments(time.Now())
	rec.end(root)
	if submitErr != nil {
		return submitErr
	}
	if err := router.Err(); err != nil {
		return err
	}
	out.Records = router.Records()
	out.Caps = router.ShardCapacities()
	for i := 0; i < router.NumShards(); i++ {
		out.PerShard = append(out.PerShard, router.ShardRecords(i))
	}
	out.Fed = router.Federation()
	return nil
}

// fedRemote replays one month through four shards, each an engine behind
// its own server.Server on a loopback listener, reached through
// federation.RemoteShard: every submission, load probe, migration step
// and record fetch crosses the wire as JSON.
func fedRemote(ctx *runCtx, in sim.Input, rec *recorder, tr *obs.Tracer) (*fedRun, error) {
	caps, err := federation.PartitionCapacity(fedCapacity, fedShards)
	if err != nil {
		return nil, err
	}
	vc := engine.NewVirtualClock()
	out := &fedRun{}
	var servers []*http.Server
	var served []chan struct{}
	base := &http.Transport{MaxIdleConnsPerHost: 8}
	var transport http.RoundTripper = base
	var counting *countingTransport
	if rec != nil {
		counting = &countingTransport{inner: base, rec: rec}
		transport = counting
	}
	stop := func() {
		for i, srv := range servers {
			srv.Close()
			<-served[i]
		}
		base.CloseIdleConnections()
	}
	cfg := fedConfig(in, vc, tr)
	mk := &marks{}
	clients := make([]engine.Shard, fedShards)
	for i := range clients {
		tp := &timedPolicy{inner: newSearchPolicy(ctx.Size.SuiteLimit), rec: rec, marks: mk}
		out.Decide = append(out.Decide, tp)
		e, err := engine.New(engine.Config{
			Capacity:     caps[i],
			Policy:       tp,
			Clock:        vc,
			UseRequested: cfg.UseRequested,
			Measured:     cfg.Measured,
			MeasureStart: cfg.MeasureStart,
			MeasureEnd:   cfg.MeasureEnd,
			Tracer:       tr,
			TraceShard:   i,
		})
		if err != nil {
			stop()
			return nil, err
		}
		var opts []server.Option
		if tr != nil {
			opts = append(opts, server.WithTracer(tr, i))
		}
		var handler http.Handler = server.New(e, nil, opts...)
		if rec != nil {
			handler = &timedHandler{inner: handler, rec: rec}
		}
		url, srv, done, err := serveLoopback(handler)
		if err != nil {
			stop()
			return nil, err
		}
		servers, served = append(servers, srv), append(served, done)
		clients[i] = federation.NewRemoteShard(url, federation.RemoteShardOptions{
			Timeout:   30 * time.Second,
			Sleep:     func(time.Duration) {},
			Transport: transport,
			Tracer:    tr,
		})
	}
	router, err := federation.NewWithShards(cfg, clients)
	if err != nil {
		stop()
		return nil, err
	}
	err = replayRouter(in, vc, router, rec, mk, out)
	if counting != nil {
		out.Calls = counting.snapshot()
	}
	stop()
	return out, err
}

// fedInProcess replays the same month through federation.New with four
// in-process shards: the reference the remote records must equal, and
// the wall the wire tax is taken against.
func fedInProcess(ctx *runCtx, in sim.Input) (*fedRun, error) {
	vc := engine.NewVirtualClock()
	cfg := fedConfig(in, vc, nil)
	cfg.Capacity, cfg.Shards = fedCapacity, fedShards
	cfg.Policy = func(int) sim.Policy { return newSearchPolicy(ctx.Size.SuiteLimit) }
	router, err := federation.New(cfg)
	if err != nil {
		return nil, err
	}
	out := &fedRun{}
	return out, replayRouter(in, vc, router, nil, &marks{}, out)
}

// runFedRemote replays the ten months at load 0.9 of 512 nodes through a
// 4-shard remote federation, a round being one pass over the months on
// fresh shards. (Three months at three times the length carry as many
// jobs, but their two quality ratios moved 13 to 31 % between seeds —
// one month's schedule tipping over moves a mean of three — where ten
// months moved 9 %.)
func runFedRemote(ctx *runCtx) (*result, error) {
	res := newResult("fed_remote")
	sz := ctx.Size

	setup, st, err := timedSetup(sz, func() (*suiteState, error) {
		st, err := suiteInputs(ctx.Seed, sz.FedScale, workload.MonthLabels(), workload.SimOptions{TargetLoad: fedLoad})
		if err != nil {
			return nil, err
		}
		// Stack boot and one warm-up call: four throw-away shards take
		// the first few submissions.
		warm := st.Months[0].In
		if len(warm.Jobs) > 8 {
			warm.Jobs = warm.Jobs[:8]
		}
		_, err = fedRemote(ctx, warm, nil, nil)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	st.report(res)
	months, jobsPerRound := st.Months, st.jobs()

	plain, traced := newUnitTimes(), newUnitTimes()
	first := make([]*fedRun, len(months))
	checks := make([]roundCheck, len(months))
	var decide decideTimes
	var submitNs []float64
	var decideSumNs int64
	var lastRec *recorder
	var lastTracer *obs.Tracer
	var lastTraced []*fedRun

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
			fr, err := fedRemote(ctx, m.In, rec, tr)
			if err != nil {
				return fmt.Errorf("month %s: %w", m.Label, err)
			}
			if checks[mi].check(res, m.Label, r.N, len(m.In.Jobs), fr.Records) {
				first[mi] = fr
			}
			if r.Traced {
				traced.add(m.Label, fr.Segs...)
				lastTraced = append(lastTraced, fr)
				continue
			}
			plain.add(m.Label, fr.Segs...)
			for si, tp := range fr.Decide {
				decide.add(fmt.Sprintf("%s shard %d", m.Label, si), tp.durNs)
				decideSumNs += tp.sumNs
			}
			submitNs = append(submitNs, fr.SubmitNs...)
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
	fmt.Fprintf(ctx.Log, "fed_remote: %d rounds of %d jobs; %s\n", n, jobsPerRound, plain.summary())

	// Checks and baselines, outside the timed section. The in-process
	// reference run is timed: it is the wall the wire tax is taken of.
	var inprocS, checkMs float64
	got := make([]monthQuality, len(months))
	base := make([]monthQuality, len(months))
	fcfs := &timedPolicy{inner: policy.FCFSBackfill()}
	for mi, m := range months {
		ref, err := fedInProcess(ctx, m.In)
		if err != nil {
			return nil, fmt.Errorf("month %s in-process reference: %w", m.Label, err)
		}
		inprocS += sum(ref.Segs)
		t0 := time.Now()
		fr := first[mi]
		if diff := firstRecordDiff(fr.Records, ref.Records); diff != "" {
			res.fail(1, m.Label, "remote schedule differs from the in-process federation: %s", diff)
		}
		if err := oracle.CheckFederation(fedCapacity, fr.Caps, m.In.Jobs, fr.PerShard); err != nil {
			res.fail(1, m.Label, "oracle: %v", err)
		}
		checkMs += msSince(t0)
		got[mi] = qualityOf(metrics.Summarize(&sim.Result{
			Records: fr.Records, Capacity: fedCapacity,
			MeasureStart: m.In.MeasureStart, MeasureEnd: m.In.MeasureEnd,
		}))
		// FCFS-backfill on one machine of the full capacity.
		whole := m.In
		whole.Capacity = fedCapacity
		if base[mi], err = baselineQuality(whole, fcfs); err != nil {
			return nil, fmt.Errorf("month %s FCFS-backfill baseline: %w", m.Label, err)
		}
	}
	setQuality(res, got, base)

	if !ctx.Trace {
		return res, nil
	}

	res.set("oracle.check_ms", checkMs)
	res.set("core.search_share", float64(decideSumNs)/1e9/plain.totalSeconds())
	res.set("policy.fcfs_backfill_decide_us", mean(fcfs.durNs)/1e3)
	res.set("federation.submit_p50_us", percentile(submitNs, 50)/1e3)
	res.set("federation.submit_p99_us", percentile(submitNs, 99)/1e3)
	if inprocS > 0 {
		res.set("federation.inproc_jobs_per_s", float64(jobsPerRound)/inprocS)
		res.set("federation.wire_tax", wall/inprocS)
	}
	setFederationMetrics(res, first)
	setWireMetrics(res, lastTraced, jobsPerRound)
	if spans := lastRec.snapshot(); len(spans) > 0 {
		res.set("server.handler_p50_us", percentile(durationsUs(spans, "server", "handler"), 50))
	}
	setObsMetrics(res, lastTracer, "submit", "route", "admit", "decide")
	setProcMetrics(res, before, after, jobsPerRound*n)
	res.set("bench.trace_overhead_pct", 100*(traced.passSeconds()/wall-1))
	return res, reportTrace(ctx, res, lastRec, lastTracer)
}

// setFederationMetrics reports the router's own counters over the first
// round's months.
func setFederationMetrics(res *result, runs []*fedRun) {
	var routingNs, routed, migrations, decisions int64
	var decideMs, maxMs, spreadSum float64
	for _, fr := range runs {
		fm := fr.Fed
		routingNs += fm.RoutingNs
		routed += fm.RoutingDecisions
		migrations += fm.Migrations
		c := fm.Global.Engine
		decisions += c.Decisions
		decideMs += c.AvgDecideMs * float64(c.Decisions)
		if c.MaxDecideMs > maxMs {
			maxMs = c.MaxDecideMs
		}
		if u := fm.PerShardUtil; len(u) > 0 {
			s := append([]float64(nil), u...)
			sort.Float64s(s)
			spreadSum += s[len(s)-1] - s[0]
		}
	}
	if routed > 0 {
		res.set("federation.routing_ns_per_job", float64(routingNs)/float64(routed))
	}
	res.set("federation.migrations", float64(migrations))
	res.set("federation.util_spread", spreadSum/float64(len(runs)))
	if decisions > 0 {
		res.set("engine.decide_avg_ms", decideMs/float64(decisions))
	}
	res.set("engine.decide_max_ms", maxMs)
}

// setWireMetrics reports the router-to-shard HTTP traffic of the last
// traced round, keyed by method and path.
func setWireMetrics(res *result, runs []*fedRun, jobs int) {
	if jobs == 0 {
		return
	}
	var calls, loads, bytes, errs int
	var ns, wallNs float64
	var rtt []float64
	byKey := make(map[string]int)
	for _, fr := range runs {
		wallNs += sum(fr.Segs) * 1e9
		for _, c := range fr.Calls {
			calls++
			byKey[c.Key]++
			if c.Key == "GET /v1/shard/load" {
				loads++
			}
			bytes += int(c.Bytes)
			ns += float64(c.Ns)
			rtt = append(rtt, float64(c.Ns)/1e3)
			if c.Err {
				errs++
			}
		}
	}
	res.set("wire.calls_per_job", float64(calls)/float64(jobs))
	res.set("wire.load_calls_per_job", float64(loads)/float64(jobs))
	res.set("wire.bytes_per_job", float64(bytes)/float64(jobs))
	res.set("wire.rtt_p50_us", percentile(rtt, 50))
	res.set("wire.retries", float64(errs))
	if wallNs > 0 {
		res.set("wire.time_share", ns/wallNs)
	}
}
