package federation

import (
	"bytes"
	"encoding/json"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// TestRemoteTracedObservabilityInert is the observability keystone at
// the federation layer: a 4-shard remote federation with the full
// stack on — one tracer shared by the router, every shard HTTP server,
// every RemoteShard client and every shard engine — must commit a schedule bit-identical to
// the bare in-process router on every suite month. On top of the
// differential it asserts the trace is actually complete: ≥ 99% of
// jobs carry the full submit→route→admit→decide span tree across the
// process boundary, and the export parses as Chrome trace-event JSON.
func TestRemoteTracedObservabilityInert(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 11, JobScale: 0.025})
	newPolicy := func() sim.Policy {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64)
	}
	const shards = 4
	for _, month := range workload.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			shardCap := in.Capacity / shards
			jobs := in.Jobs[:0]
			for _, j := range in.Jobs {
				if j.Nodes <= shardCap {
					jobs = append(jobs, j)
				}
			}
			in.Jobs = jobs

			// Bare in-process reference: no tracer.
			ref := replayRouter(t, in, Config{
				Shards:         shards,
				Policy:         func(int) sim.Policy { return newPolicy() },
				RebalanceEvery: 10 * job.Minute,
			})

			// Instrumented remote run.
			caps, err := PartitionCapacity(in.Capacity, shards)
			if err != nil {
				t.Fatal(err)
			}
			vc := engine.NewVirtualClock()
			measured := in.Measured
			isMeasured := func(id int) bool { return measured[id] }
			if measured == nil {
				isMeasured = func(int) bool { return true }
			}
			tr := obs.NewTracer(obs.TracerOptions{Seed: 3})
			remotes := make([]engine.Shard, shards)
			for i := 0; i < shards; i++ {
				_, rs := startShardProc(t, engine.Config{
					Capacity:     caps[i],
					Policy:       newPolicy(),
					Clock:        vc,
					UseRequested: in.UseRequested,
					MeasureStart: in.MeasureStart,
					MeasureEnd:   in.MeasureEnd,
					Measured:     isMeasured,
					Tracer:       tr,
					TraceShard:   i,
				}, RemoteShardOptions{Tracer: tr}, server.WithTracer(tr, i))
				remotes[i] = rs
			}
			rr, err := NewWithShards(Config{
				Clock:          vc,
				RebalanceEvery: 10 * job.Minute,
				UseRequested:   in.UseRequested,
				MeasureStart:   in.MeasureStart,
				MeasureEnd:     in.MeasureEnd,
				Measured:       isMeasured,
				Tracer:         tr,
			}, remotes)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range in.Jobs {
				j := j
				vc.AfterFunc(j.Submit, func() {
					if err := rr.SubmitJob(j); err != nil {
						t.Errorf("remote submit job %d: %v", j.ID, err)
					}
				})
			}
			vc.Run()
			if err := rr.Err(); err != nil {
				t.Fatal(err)
			}

			// The differential: instrumentation must not have moved a
			// single start, end, node or completion.
			refRecs, remRecs := ref.Records(), rr.Records()
			if len(refRecs) != len(remRecs) {
				t.Fatalf("bare completed %d jobs, instrumented remote %d", len(refRecs), len(remRecs))
			}
			for i := range refRecs {
				if refRecs[i].Job.ID != remRecs[i].Job.ID {
					t.Fatalf("completion order diverges at %d: bare job %d, instrumented job %d",
						i, refRecs[i].Job.ID, remRecs[i].Job.ID)
				}
				if recordKey(refRecs[i]) != recordKey(remRecs[i]) {
					t.Fatalf("job %d: bare %s, instrumented %s",
						refRecs[i].Job.ID, recordKey(refRecs[i]), recordKey(remRecs[i]))
				}
			}
			refM, remM := ref.Metrics(), rr.Metrics()
			if refM.Engine.Decisions != remM.Engine.Decisions {
				t.Errorf("bare made %d decisions, instrumented %d",
					refM.Engine.Decisions, remM.Engine.Decisions)
			}
			if refM.Summary != remM.Summary {
				t.Errorf("summaries diverge:\nbare         %+v\ninstrumented %+v",
					refM.Summary, remM.Summary)
			}
			if refF, remF := ref.Federation(), rr.Federation(); refF.Migrations != remF.Migrations {
				t.Errorf("bare migrated %d jobs, instrumented %d", refF.Migrations, remF.Migrations)
			}
			checkFederationRun(t, rr, in.Jobs)

			// The trace must span the process boundary for ≥ 99% of jobs.
			covered, total := tr.JobCoverage("submit", "route", "admit", "decide")
			if total != len(in.Jobs) {
				t.Errorf("tracer saw %d jobs, workload has %d", total, len(in.Jobs))
			}
			if total == 0 || covered*100 < total*99 {
				t.Errorf("full submit→route→admit→decide coverage %d/%d jobs (< 99%%)", covered, total)
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
