package ingest

import (
	"path/filepath"
	"reflect"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// quantize floors every submit time to a bucket boundary so that many
// jobs share each submit instant — the batched path then has real
// multi-job batches to commit, not a degenerate one-job-per-batch run.
// Floor quantization preserves arrival order.
func quantize(jobs []job.Job, bucket job.Duration) []job.Job {
	out := make([]job.Job, len(jobs))
	for i, j := range jobs {
		j.Submit -= j.Submit % job.Time(bucket)
		out[i] = j
	}
	return out
}

// serialReplay is the baseline: one SubmitJob call per job, straight
// into the engine, exactly as PR 1's daemon accepted traffic.
func serialReplay(t *testing.T, in sim.Input, pol sim.Policy, sink engine.JournalSink) *engine.Engine {
	t.Helper()
	vc := engine.NewVirtualClock()
	e, err := engine.New(engineConfig(in, pol, vc, sink))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("serial submit %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if sink != nil {
		if err := e.SyncJournal(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func engineConfig(in sim.Input, pol sim.Policy, vc engine.Clock, sink engine.JournalSink) engine.Config {
	cfg := engine.Config{
		Capacity:     in.Capacity,
		Policy:       pol,
		Clock:        vc,
		Estimator:    in.Estimator,
		UseRequested: in.UseRequested,
		MeasureStart: in.MeasureStart,
		MeasureEnd:   in.MeasureEnd,
		Journal:      sink,
	}
	if in.Measured != nil {
		measured := in.Measured
		cfg.Measured = func(id int) bool { return measured[id] }
	}
	return cfg
}

// batches groups the (already quantized, submit-ordered) trace by
// submit instant, preserving trace order inside each batch.
func batches(jobs []job.Job) [][]job.Job {
	var out [][]job.Job
	for _, j := range jobs {
		if n := len(out); n > 0 && out[n-1][0].Submit == j.Submit {
			out[n-1] = append(out[n-1], j)
			continue
		}
		out = append(out, []job.Job{j})
	}
	return out
}

// batchedReplay drives the same trace through the ingest queue: one
// blocking SubmitBatch per submit instant. The virtual clock freezes
// while the committer drains, so the committed order is the batch
// order — deterministically the serial order.
func batchedReplay(t *testing.T, in sim.Input, pol sim.Policy, sink engine.JournalSink, maxBatch int) (*engine.Engine, *Queue) {
	t.Helper()
	vc := engine.NewVirtualClock()
	e, err := engine.New(engineConfig(in, pol, vc, sink))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(Config{Backend: e, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches(in.Jobs) {
		batch := batch
		vc.AfterFunc(batch[0].Submit, func() {
			results, err := q.SubmitBatch(batch)
			if err != nil {
				t.Errorf("batch at t=%d: %v", batch[0].Submit, err)
				return
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("batch item %d (job %d): %v", r.Index, batch[r.Index].ID, r.Err)
				}
			}
		})
	}
	vc.Run()
	q.Close()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	return e, q
}

func diffRecords(t *testing.T, want, got []sim.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("serial completed %d jobs, batched %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Job.ID != g.Job.ID || w.Start != g.Start || w.End != g.End ||
			w.Measured != g.Measured || !reflect.DeepEqual(w.NodeIDs, g.NodeIDs) {
			t.Fatalf("record %d diverges:\nserial  job=%d start=%d end=%d nodes=%v\nbatched job=%d start=%d end=%d nodes=%v",
				i, w.Job.ID, w.Start, w.End, w.NodeIDs, g.Job.ID, g.Start, g.End, g.NodeIDs)
		}
	}
}

// TestBatchedIngestMatchesSerial is the ingest keystone: over every
// suite month, submitting the trace in batches through the accept
// queue — with group-committed journal writes — produces the
// bit-identical schedule, summary, decision count, and journal event
// stream as the serial one-job-per-call path with per-event fsyncs.
func TestBatchedIngestMatchesSerial(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 23, JobScale: 0.02})
	newPol := func() sim.Policy { return policy.FCFSBackfill() }
	for _, month := range workload.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			t.Parallel()
			in, _, err := suite.Input(month, workload.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			in.Jobs = quantize(in.Jobs, 1800)

			dir := t.TempDir()
			serialSink, err := engine.OpenFileJournal(filepath.Join(dir, "serial.journal"), 1)
			if err != nil {
				t.Fatal(err)
			}
			se := serialReplay(t, in, newPol(), serialSink)

			batchSink, err := engine.OpenFileJournal(filepath.Join(dir, "batched.journal"), 64)
			if err != nil {
				t.Fatal(err)
			}
			be, q := batchedReplay(t, in, newPol(), batchSink, 7)

			diffRecords(t, se.Records(), be.Records())
			sm, bm := se.Metrics(), be.Metrics()
			if sm.Summary != bm.Summary {
				t.Errorf("summary diverges:\nserial  %+v\nbatched %+v", sm.Summary, bm.Summary)
			}
			if sm.Engine.Decisions != bm.Engine.Decisions {
				t.Errorf("serial made %d decisions, batched %d", sm.Engine.Decisions, bm.Engine.Decisions)
			}
			if err := oracle.CheckRecords(in.Capacity, in.Jobs, be.Records()); err != nil {
				t.Errorf("oracle: %v", err)
			}

			// The journals must hold the identical event stream...
			if err := serialSink.Close(); err != nil {
				t.Fatal(err)
			}
			if err := batchSink.Close(); err != nil {
				t.Fatal(err)
			}
			serial, err := engine.LoadCheckpoint(serialSink.Path())
			if err != nil {
				t.Fatal(err)
			}
			batch, err := engine.LoadCheckpoint(batchSink.Path())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Events, batch.Events) {
				t.Errorf("journal event streams diverge: serial %d events, batched %d",
					len(serial.Events), len(batch.Events))
			}
			// ...while the batched side actually coalesced fsyncs.
			ss, bs := serialSink.Stats(), batchSink.Stats()
			if ss.Appends != bs.Appends {
				t.Errorf("journal appends diverge: serial %d, batched %d", ss.Appends, bs.Appends)
			}
			if bs.Syncs >= ss.Syncs {
				t.Errorf("group commit did not coalesce: batched %d syncs vs serial %d", bs.Syncs, ss.Syncs)
			}
			qs := q.Stats()
			if qs.Committed != int64(len(in.Jobs)) {
				t.Errorf("queue committed %d of %d jobs", qs.Committed, len(in.Jobs))
			}
			if qs.Rejected != 0 || qs.Saturations != 0 {
				t.Errorf("unexpected rejections: %+v", qs)
			}
		})
	}
}

// TestBatchedIngestMatchesSerialWithSearch repeats the keystone on one
// month with a discrepancy-search policy and auto-compaction enabled,
// so group commit, search, and journal folding all interleave.
func TestBatchedIngestMatchesSerialWithSearch(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 23, JobScale: 0.02})
	newPol := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 150)
	}
	in, _, err := suite.Input("7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in.Jobs = quantize(in.Jobs, 3600)

	se := serialReplay(t, in, newPol(), nil)

	vc := engine.NewVirtualClock()
	cfg := engineConfig(in, newPol(), vc, nil)
	cfg.CompactEvery = 64
	be, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(Config{Backend: be, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches(in.Jobs) {
		batch := batch
		vc.AfterFunc(batch[0].Submit, func() {
			if _, err := q.SubmitBatch(batch); err != nil {
				t.Errorf("batch at t=%d: %v", batch[0].Submit, err)
			}
		})
	}
	vc.Run()
	q.Close()
	if err := be.Err(); err != nil {
		t.Fatal(err)
	}
	diffRecords(t, se.Records(), be.Records())
	if sm, bm := se.Metrics(), be.Metrics(); sm.Summary != bm.Summary {
		t.Errorf("summary diverges:\nserial  %+v\nbatched %+v", sm.Summary, bm.Summary)
	}
	if be.Metrics().Engine.Compactions == 0 {
		t.Error("auto-compaction never ran despite CompactEvery")
	}
}

// TestBatchedIngestMatchesSerialFederated proves the queue is backend-
// agnostic: batched submission through a 2-shard router merges to the
// bit-identical global schedule as serial submission through an
// identically configured router.
func TestBatchedIngestMatchesSerialFederated(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 23, JobScale: 0.02})
	in, _, err := suite.Input("9/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in.Jobs = quantize(in.Jobs, 1800)
	// A 2-shard split can only place jobs no wider than one shard.
	fit := in.Jobs[:0]
	for _, j := range in.Jobs {
		if j.Nodes <= in.Capacity/2 {
			fit = append(fit, j)
		}
	}
	in.Jobs = fit

	newRouter := func(t *testing.T, vc engine.Clock) *federation.Router {
		t.Helper()
		measured := in.Measured
		cfg := federation.Config{
			Capacity:     in.Capacity,
			Shards:       2,
			Policy:       func(int) sim.Policy { return policy.FCFSBackfill() },
			Clock:        vc,
			MeasureStart: in.MeasureStart,
			MeasureEnd:   in.MeasureEnd,
			Measured:     func(id int) bool { return measured[id] },
		}
		r, err := federation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Serial through the router.
	svc := engine.NewVirtualClock()
	sr := newRouter(t, svc)
	for _, j := range in.Jobs {
		j := j
		svc.AfterFunc(j.Submit, func() {
			if err := sr.SubmitJob(j); err != nil {
				t.Errorf("serial submit %d: %v", j.ID, err)
			}
		})
	}
	svc.Run()
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}

	// Batched through an identical router.
	bvc := engine.NewVirtualClock()
	br := newRouter(t, bvc)
	q, err := NewQueue(Config{Backend: br, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches(in.Jobs) {
		batch := batch
		bvc.AfterFunc(batch[0].Submit, func() {
			results, err := q.SubmitBatch(batch)
			if err != nil {
				t.Errorf("batch at t=%d: %v", batch[0].Submit, err)
				return
			}
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("batch item %d: %v", r.Index, r.Err)
				}
			}
		})
	}
	bvc.Run()
	q.Close()
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}

	diffRecords(t, sr.Records(), br.Records())
	if sm, bm := sr.Metrics(), br.Metrics(); sm.Summary != bm.Summary {
		t.Errorf("summary diverges:\nserial  %+v\nbatched %+v", sm.Summary, bm.Summary)
	}
	shardRecs := make([][]sim.Record, br.NumShards())
	for i := range shardRecs {
		shardRecs[i] = br.ShardRecords(i)
	}
	if err := oracle.CheckFederation(in.Capacity, br.ShardCapacities(), in.Jobs, shardRecs); err != nil {
		t.Errorf("federation oracle: %v", err)
	}
}
