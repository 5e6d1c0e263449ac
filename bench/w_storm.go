package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
)

const (
	// stormClients is fixed at two, not one per CPU, so that machines
	// compare.
	stormClients = 2
	// stormBatch is the jobs per array body.
	stormBatch = 32
	// stormCapacity is the machine the storm is admitted to.
	stormCapacity = 1024
	// stormPercentile is the round, among all rounds of a run ordered by
	// wall time, that jobs_per_s is taken from.
	stormPercentile = 5
)

// stormInput is one client's share of a storm round.
type stormInput struct {
	jobs   []job.Job
	bodies [][]byte
}

// stormRound is what one storm round leaves behind.
type stormRound struct {
	servingStats
	// WallS is the round's wall time less the journal's device time (the
	// committer is the one caller, so device calls do not overlap); RawS
	// is the wall time with it.
	WallS, RawS float64
	AckNs       []float64
}

func bootStormStack(ctx *runCtx, pol sim.Policy, vc *engine.VirtualClock, mk *marks, rec *recorder, tr *obs.Tracer) (*stack, error) {
	return bootStack(stackOpts{
		Marks:       mk,
		Policy:      pol,
		Capacity:    stormCapacity,
		Clock:       vc,
		JournalPath: filepath.Join(ctx.TmpDir, "storm.journal"),
		Quotas:      true,
		Rec:         rec,
		Tracer:      tr,
	})
}

// postBatch posts one array body until it is taken (a saturated accept
// queue answers 503 and the client backs off), returning the retries
// and whether every item was admitted.
func postBatch(c *http.Client, url string, body []byte, items int, parent int32) (retries int, ok bool, err error) {
	want := []byte(fmt.Sprintf(`"accepted": %d,`, items))
	for {
		status, resp, err := post(c, url, body, parent)
		if err != nil {
			return retries, false, err
		}
		if status == http.StatusServiceUnavailable {
			retries++
			time.Sleep(200 * time.Microsecond)
			continue
		}
		return retries, status == http.StatusOK && bytes.Contains(resp, want), nil
	}
}

// stormOnce admits one storm round to a fresh stack: each client posts
// its bodies back to back over its own keep-alive connection. The
// virtual clock is never advanced, so no decision runs.
func stormOnce(ctx *runCtx, inputs []stormInput, rec *recorder, tr *obs.Tracer) (*stormRound, error) {
	vc := engine.NewVirtualClock()
	mk := &marks{}
	st, err := bootStormStack(ctx, policy.FCFSBackfill(), vc, mk, rec, tr)
	if err != nil {
		return nil, err
	}
	clients := make([]*http.Client, len(inputs))
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	type clientOut struct {
		ackNs   []float64
		non2xx  int
		retries int
		err     error
	}
	outs := make([]clientOut, len(inputs))
	root := rec.begin("bench", "storm", 0)
	var wg sync.WaitGroup
	mk.base = time.Now()
	for ci := range inputs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			o := &outs[ci]
			o.ackNs = make([]float64, 0, len(inputs[ci].bodies))
			for bi, body := range inputs[ci].bodies {
				items := stormBatch
				if rest := len(inputs[ci].jobs) - bi*stormBatch; rest < items {
					items = rest
				}
				span := rec.begin("server", "post", 0)
				t1 := time.Now()
				retries, ok, err := postBatch(clients[ci], st.URL, body, items, span)
				o.ackNs = append(o.ackNs, float64(time.Since(t1).Nanoseconds()))
				rec.end(span)
				o.retries += retries
				if err != nil {
					o.err = fmt.Errorf("client %d batch %d: %w", ci, bi, err)
					return
				}
				if !ok {
					o.non2xx++
				}
			}
		}(ci)
	}
	wg.Wait()
	st.Queue.Flush()
	end := time.Now()
	wall, raw := sum(mk.segments(end)), end.Sub(mk.base).Seconds()
	rec.end(root)
	for _, c := range clients {
		c.CloseIdleConnections()
	}

	out := &stormRound{servingStats: st.collect(), WallS: wall, RawS: raw}
	for _, o := range outs {
		if o.err != nil && err == nil {
			err = o.err
		}
		out.AckNs = append(out.AckNs, o.ackNs...)
		out.Non2xx += o.non2xx
		out.Retries += o.retries
	}
	engErr := st.Eng.Err()
	var cerr error
	out.Bytes, cerr = st.close()
	switch {
	case err != nil:
		return nil, err
	case engErr != nil:
		return nil, engErr
	case cerr != nil:
		return nil, cerr
	}
	return out, nil
}

// runSubmitStorm measures admission alone: a round is StormJobs
// submissions from two clients to a fresh stack. A drain phase outside
// the timed section then schedules a burst to completion, which gives
// the decision latency and schedule quality of the same stack.
func runSubmitStorm(ctx *runCtx) (*result, error) {
	res := newResult("submit_storm")
	sz := ctx.Size

	setup, inputs, err := timedSetup(sz, func() ([]stormInput, error) {
		var inputs []stormInput
		for c := 0; c < stormClients; c++ {
			jobs := stormJobs(ctx.Seed, c, sz.StormJobs/stormClients)
			bodies, err := encodeBatches(jobs, stormBatch)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, stormInput{jobs: jobs, bodies: bodies})
		}
		// Stack boot and one warm-up call: one batch from each client.
		warm := make([]stormInput, len(inputs))
		for c, in := range inputs {
			n := stormBatch
			if n > len(in.jobs) {
				n = len(in.jobs)
			}
			warm[c] = stormInput{jobs: in.jobs[:n], bodies: in.bodies[:1]}
		}
		_, err := stormOnce(ctx, warm, nil, nil)
		return inputs, err
	})
	if err != nil {
		return nil, err
	}
	jobs := 0
	for _, in := range inputs {
		jobs += len(in.jobs)
	}

	plain, traced, raw := newUnitTimes(), newUnitTimes(), newUnitTimes()
	var ackNs []float64
	var firstRound, lastTraced *stormRound
	var lastRec *recorder
	var lastTracer *obs.Tracer
	before := readProc()
	n, err := rounds(ctx, 3, setup.once, func(r round) error {
		var rec *recorder
		var tr *obs.Tracer
		if r.Traced {
			rec = newRecorder(true)
			tr = newTracer(ctx.Seed, jobs)
		}
		sr, err := stormOnce(ctx, inputs, rec, tr)
		if err != nil {
			return err
		}
		res.Attempted += jobs
		where := fmt.Sprintf("round %d", r.N)
		if sr.Non2xx > 0 {
			res.fail(sr.Non2xx*stormBatch, where, "%d batches were not fully admitted", sr.Non2xx)
		}
		sm := sr.servingStats
		if sm.Queue.Committed != int64(jobs) {
			res.fail(1, where, "committed %d of %d submitted jobs", sm.Queue.Committed, jobs)
		}
		if sm.Queue.PeakPending > sm.Queue.MaxPending {
			res.fail(1, where, "peak_pending %d above max_pending %d", sm.Queue.PeakPending, sm.Queue.MaxPending)
		}
		if sm.Journal.Appends != int64(jobs) {
			res.fail(1, where, "journal holds %d appends for %d jobs", sm.Journal.Appends, jobs)
		}
		if sm.Waiting != jobs {
			res.fail(1, where, "engine queues %d of %d jobs", sm.Waiting, jobs)
		}
		if sm.Counters.Decisions != 0 {
			res.fail(1, where, "%d decisions ran during the storm; the clock must stand still", sm.Counters.Decisions)
		}
		if r.Traced {
			traced.add("storm", sr.WallS)
			lastTraced, lastRec, lastTracer = sr, rec, tr
			return nil
		}
		plain.add("storm", sr.WallS)
		raw.add("storm", sr.RawS)
		ackNs = append(ackNs, sr.AckNs...)
		if firstRound == nil {
			firstRound = sr
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
	// Two clients interleave differently in every round, so a round is
	// not one identical piece of work: the very fastest is the one where
	// the most parsing happened to fall inside the other client's fsync,
	// and it moved 25 % between runs where the fifth percentile of the
	// hundred-odd rounds moved 3 %. Slow rounds are the machine's.
	wall := percentile(plain.secs["storm"], stormPercentile)
	res.set("jobs_per_s", float64(jobs)/wall)
	fmt.Fprintf(ctx.Log, "submit_storm: %d rounds of %d jobs from %d clients; %.4f s at the fastest round, %.4f s at p%d, %.4f s at the median (with the journal's device time %.4f s at p%d and %.4f s at the median)\n",
		n, jobs, stormClients, plain.passSeconds(), wall, stormPercentile, plain.medianSeconds(), percentile(raw.secs["storm"], stormPercentile), stormPercentile, raw.medianSeconds())

	// The drain is repeated and every decision taken at its fastest
	// repetition: a single pass is over in a fraction of a second, which
	// one disturbance covers.
	var decide decideTimes
	var drainNs []float64
	for i := 0; i < sz.DrainReps; i++ {
		tp := &timedPolicy{inner: policy.FCFSBackfill()}
		if err := stormDrain(ctx, res, inputs[0], tp); err != nil {
			return nil, err
		}
		decide.add("drain", tp.durNs)
		drainNs = append(drainNs, tp.durNs...)
	}
	decide.report(res)

	if !ctx.Trace {
		return res, nil
	}
	res.set("policy.fcfs_backfill_decide_us", mean(drainNs)/1e3)
	setServingMetrics(res, []servingStats{firstRound.servingStats}, jobs)
	res.set("server.ack_p50_us", percentile(ackNs, 50)/1e3)
	res.set("server.ack_p99_us", percentile(ackNs, 99)/1e3)
	setServingSpanMetrics(res, lastRec, []servingStats{lastTraced.servingStats})
	setObsMetrics(res, lastTracer, "submit")
	if err := stormSubmitBatch(ctx, res, inputs); err != nil {
		return nil, err
	}
	setProcMetrics(res, before, after, jobs*n)
	res.set("bench.trace_overhead_pct", 100*(percentile(traced.secs["storm"], stormPercentile)/wall-1))
	return res, reportTrace(ctx, res, lastRec, lastTracer)
}

// stormDrain admits a burst of DrainJobs over one connection to a stack
// like the storm's and runs the clock until every job has completed.
// The served schedule must be sim.Run's for the same burst, bit for
// bit, so the two quality ratios are exactly 1 unless serving changed
// the schedule; the decisions are FCFS-backfill's on a deep queue.
func stormDrain(ctx *runCtx, res *result, in stormInput, tp *timedPolicy) error {
	// Whole batches only: the bodies are already encoded.
	batches := ctx.Size.DrainJobs / stormBatch
	if batches > len(in.jobs)/stormBatch {
		batches = len(in.jobs) / stormBatch
	}
	if batches == 0 {
		return fmt.Errorf("drain: %d jobs do not fill one %d-job batch", ctx.Size.DrainJobs, stormBatch)
	}
	n := batches * stormBatch
	vc := engine.NewVirtualClock()
	st, err := bootStormStack(ctx, tp, vc, nil, nil, nil)
	if err != nil {
		return err
	}
	for bi := 0; bi < batches; bi++ {
		_, ok, err := postBatch(st.Client, st.URL, in.bodies[bi], stormBatch, 0)
		if err == nil && !ok {
			err = fmt.Errorf("batch %d not fully admitted", bi)
		}
		if err != nil {
			st.close()
			return fmt.Errorf("drain: %w", err)
		}
	}
	st.Queue.Flush()
	vc.Run()
	served := &sim.Result{Policy: tp.Name(), Records: st.Eng.Records(), Capacity: stormCapacity}
	engErr := st.Eng.Err()
	if _, err := st.close(); err != nil {
		return err
	}
	if engErr != nil {
		return engErr
	}
	res.Attempted += n

	// The engine numbers ID-less submissions 1..n in arrival order and
	// stamps them with the clock, which stood at zero.
	ref := sim.Input{Capacity: stormCapacity, Jobs: make([]job.Job, n)}
	for i := range ref.Jobs {
		ref.Jobs[i] = in.jobs[i]
		ref.Jobs[i].ID = i + 1
	}
	want, err := sim.Run(ref, policy.FCFSBackfill())
	if err != nil {
		return fmt.Errorf("drain reference sim.Run: %w", err)
	}
	if missing := n - len(served.Records); missing != 0 {
		res.fail(missing, "drain", "%d jobs admitted, %d completion records", n, len(served.Records))
	}
	if diff := firstRecordDiff(served.Records, want.Records); diff != "" {
		res.fail(1, "drain", "served schedule differs from sim.Run: %s", diff)
	}
	for i := range served.Records {
		served.Records[i].Measured = true
	}
	got, base := qualityOf(metrics.Summarize(served)), qualityOf(metrics.Summarize(want))
	setQuality(res, []monthQuality{got}, []monthQuality{base})
	return nil
}

// stormSubmitBatch replays the first batches of every client straight
// through Queue.SubmitBatch, with no HTTP: the accept path alone.
func stormSubmitBatch(ctx *runCtx, res *result, inputs []stormInput) error {
	vc := engine.NewVirtualClock()
	st, err := bootStormStack(ctx, policy.FCFSBackfill(), vc, nil, nil, nil)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var us []float64
	var firstErr error
	var wg sync.WaitGroup
	for ci := range inputs {
		wg.Add(1)
		go func(in stormInput) {
			defer wg.Done()
			var mine []float64
			for lo := 0; lo+stormBatch <= len(in.jobs) && lo < 500*stormBatch; lo += stormBatch {
				t0 := time.Now()
				_, err := st.Queue.SubmitBatch(in.jobs[lo : lo+stormBatch])
				mine = append(mine, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			us = append(us, mine...)
			mu.Unlock()
		}(inputs[ci])
	}
	wg.Wait()
	if _, err := st.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	res.set("ingest.submitbatch_us", median(us))
	return firstErr
}
