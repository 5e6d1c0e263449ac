package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/policy"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/wire"
	"schedsearch/internal/workload"
)

func noSleep(time.Duration) {}

// startShardProc boots one "shard process": an engine fronted by its
// own HTTP server on a real TCP listener, dialed back through a
// RemoteShard client. Everything a federation router does to it
// crosses the wire as JSON.
func startShardProc(t *testing.T, ec engine.Config, opts RemoteShardOptions, srvOpts ...server.Option) (*engine.Engine, *RemoteShard) {
	t.Helper()
	e, err := engine.New(ec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(e, nil, srvOpts...))
	t.Cleanup(ts.Close)
	if opts.Sleep == nil {
		opts.Sleep = noSleep
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	return e, NewRemoteShard(ts.URL, opts)
}

// TestRemoteShardMatchesInProcess is the distributed keystone
// differential: a 4-shard federation whose shards are separate schedd
// HTTP processes must commit a bit-identical schedule — starts, ends,
// node IDs, completion order, decision counts, whole summary — to the
// in-process 4-shard router on every suite month. The shard processes
// share the router's virtual clock, and every HTTP call resolves
// synchronously inside the timer callback that issued it, so the
// (time, seq) timer discipline is preserved exactly while every
// submission, migration withdraw/admit, and load snapshot crosses real
// TCP and the JSON wire schema.
func TestRemoteShardMatchesInProcess(t *testing.T) {
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
			// Partitioned shards can't hold the widest jobs; drop them
			// from the input up front.
			shardCap := in.Capacity / shards
			jobs := in.Jobs[:0]
			for _, j := range in.Jobs {
				if j.Nodes <= shardCap {
					jobs = append(jobs, j)
				}
			}
			in.Jobs = jobs

			// In-process reference run.
			ref := replayRouter(t, in, Config{
				Shards:         shards,
				Policy:         func(int) sim.Policy { return newPolicy() },
				RebalanceEvery: 10 * job.Minute,
			})

			// Remote run: same partition, each shard its own process
			// behind HTTP.
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
				}, RemoteShardOptions{})
				remotes[i] = rs
			}
			rr, err := NewWithShards(Config{
				Clock:          vc,
				RebalanceEvery: 10 * job.Minute,
				UseRequested:   in.UseRequested,
				MeasureStart:   in.MeasureStart,
				MeasureEnd:     in.MeasureEnd,
				Measured:       isMeasured,
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

			refRecs, remRecs := ref.Records(), rr.Records()
			if len(refRecs) != len(remRecs) {
				t.Fatalf("in-process completed %d jobs, remote %d", len(refRecs), len(remRecs))
			}
			for i := range refRecs {
				if refRecs[i].Job.ID != remRecs[i].Job.ID {
					t.Fatalf("completion order diverges at %d: in-process job %d, remote job %d",
						i, refRecs[i].Job.ID, remRecs[i].Job.ID)
				}
				if recordKey(refRecs[i]) != recordKey(remRecs[i]) {
					t.Fatalf("job %d: in-process %s, remote %s",
						refRecs[i].Job.ID, recordKey(refRecs[i]), recordKey(remRecs[i]))
				}
			}
			refM, remM := ref.Metrics(), rr.Metrics()
			if refM.Engine.Decisions != remM.Engine.Decisions {
				t.Errorf("in-process made %d decisions, remote %d",
					refM.Engine.Decisions, remM.Engine.Decisions)
			}
			if refM.Summary != remM.Summary {
				t.Errorf("summaries diverge:\nin-process %+v\nremote     %+v", refM.Summary, remM.Summary)
			}
			refF, remF := ref.Federation(), rr.Federation()
			if refF.Migrations != remF.Migrations {
				t.Errorf("in-process migrated %d jobs, remote %d", refF.Migrations, remF.Migrations)
			}
			for _, sh := range rr.ShardHealth() {
				if !sh.Healthy {
					t.Errorf("shard %d unhealthy after clean run: %s", sh.Shard, sh.Err)
				}
			}
			checkFederationRun(t, rr, in.Jobs)
		})
	}
}

// dropResponses is a fault transport: requests under path are performed
// server-side but their responses are lost, so the client sees an
// uncertain transport failure whose operation actually landed — the
// nastiest wire failure a migration step can take.
type dropResponses struct {
	mu   sync.Mutex
	path string
	n    int // drop the first n matching responses
	hits int
	// spare, when non-nil, exempts a matching request it reports true for.
	spare func(*http.Request) bool
}

func (d *dropResponses) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	drop := d.n > 0 && strings.HasPrefix(req.URL.Path, d.path) && (d.spare == nil || !d.spare(req))
	if drop {
		d.n--
		d.hits++
	}
	d.mu.Unlock()
	if drop {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("fault: response to %s dropped", d.path)
	}
	return resp, nil
}

// TestWithdrawRetryIdempotent loses the acknowledgment of a migration
// withdraw whose operation landed. The client's retry must hit the
// source shard's tombstone and return the same job — exactly once: the
// job ends up on the destination, is gone from the source, and both
// journals agree after a rebuild.
func TestWithdrawRetryIdempotent(t *testing.T) {
	dir := t.TempDir()
	vc := engine.NewVirtualClock()
	newShard := func(name string, fault http.RoundTripper) (*engine.Engine, *RemoteShard, string) {
		path := filepath.Join(dir, name+".journal")
		fj, err := engine.OpenFileJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, rs := startShardProc(t, engine.Config{
			Capacity: 32,
			Policy:   policy.FCFSBackfill(),
			Clock:    vc,
			Journal:  fj,
		}, RemoteShardOptions{Transport: fault})
		return e, rs, path
	}
	fault := &dropResponses{path: "/v1/shard/withdraw", n: 1}
	srcEng, src, srcPath := newShard("src", fault)
	dstEng, dst, dstPath := newShard("dst", nil)

	jBlock := job.Job{ID: 1, Nodes: 32, Runtime: 7200, Request: 7200}
	jMove := job.Job{ID: 2, Nodes: 8, Runtime: 600, Request: 600}
	vc.AfterFunc(0, func() {
		if err := src.SubmitJob(jBlock); err != nil {
			t.Errorf("submit blocker: %v", err)
		}
		if err := src.SubmitJob(jMove); err != nil {
			t.Errorf("submit mover: %v", err)
		}
	})
	vc.AfterFunc(60, func() {
		// First wire attempt lands but the ack is dropped; the client
		// retries and must get the tombstoned job back.
		j, err := src.Withdraw(jMove.ID)
		if err != nil {
			t.Errorf("withdraw with dropped ack: %v", err)
			return
		}
		if j.ID != jMove.ID || j.Nodes != jMove.Nodes {
			t.Errorf("withdraw returned %+v, want job %d", j, jMove.ID)
		}
		if err := dst.Admit(j); err != nil {
			t.Errorf("admit on destination: %v", err)
		}
	})
	vc.Run()
	if fault.hits != 1 {
		t.Fatalf("fault transport dropped %d responses, want 1", fault.hits)
	}
	if _, ok, _ := srcEng.Job(jMove.ID); ok {
		t.Error("moved job still present on the source shard")
	}
	st, ok, _ := dstEng.Job(jMove.ID)
	if !ok || st.State != engine.StateDone {
		t.Fatalf("moved job on destination: ok=%v state=%v", ok, st.State)
	}
	if st.Job.Submit != 0 {
		t.Errorf("migration reset the submit time to %d", st.Job.Submit)
	}

	// Journal truth: exactly one submit on each side, a withdraw on the
	// source, and rebuilt engines agree the job lives on dst only.
	if err := srcEng.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	if err := dstEng.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	countEvents := func(path string, id int) (submits, withdraws int) {
		t.Helper()
		cp, err := engine.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range cp.Events {
			switch {
			case ev.Kind == engine.EvSubmit && ev.Job.ID == id:
				submits++
			case ev.Kind == engine.EvWithdraw && ev.ID == id:
				withdraws++
			}
		}
		return
	}
	if s, w := countEvents(srcPath, jMove.ID); s != 1 || w != 1 {
		t.Errorf("source journal: %d submits, %d withdraws of job %d (want 1, 1)", s, w, jMove.ID)
	}
	if s, w := countEvents(dstPath, jMove.ID); s != 1 || w != 0 {
		t.Errorf("destination journal: %d submits, %d withdraws of job %d (want 1, 0)", s, w, jMove.ID)
	}
}

// TestParkedSubmitReconcilesOnOneShard black-holes a one-shard remote
// federation across a submission: the POST lands, but its answer and
// every landed-lookup are lost, so the step is parked with its outcome
// unknown. The rebalance tick — the only periodic pass, and it must arm
// with a single shard — has to ask the shard again once the wire is
// back, confirm the directory entry and let the job finish.
func TestParkedSubmitReconcilesOnOneShard(t *testing.T) {
	vc := engine.NewVirtualClock()
	fault := &dropResponses{path: "/v1/jobs"}
	_, rs := startShardProc(t, engine.Config{
		Capacity: 32,
		Policy:   policy.FCFSBackfill(),
		Clock:    vc,
	}, RemoteShardOptions{Transport: fault, Retries: 1})
	r, err := NewWithShards(Config{Clock: vc, RebalanceEvery: 30}, []engine.Shard{rs})
	if err != nil {
		t.Fatal(err)
	}
	vc.AfterFunc(0, func() {
		fault.mu.Lock()
		fault.n = 1 << 20
		fault.mu.Unlock()
		if _, err := r.Submit(job.Job{Nodes: 8, Runtime: 600, Request: 600}); !errors.Is(err, ErrUncertain) {
			t.Errorf("black-holed submit: %v, want ErrUncertain", err)
		}
		fault.mu.Lock()
		fault.n = 0
		fault.mu.Unlock()
		if len(r.pending) != 1 || r.pending[0].stage != stageSubmit {
			t.Errorf("parked steps after the submit: %+v", r.pending)
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if fault.hits == 0 {
		t.Fatal("fault transport dropped nothing")
	}
	if len(r.pending) != 0 {
		t.Fatalf("steps still parked after the run: %+v", r.pending)
	}
	if fm := r.Federation(); fm.RebalancePasses == 0 {
		t.Error("the rebalance pass never ran with one shard")
	}
	recs := r.Records()
	if len(recs) != 1 || recs[0].Job.Nodes != 8 {
		t.Fatalf("records after reconciliation: %+v", recs)
	}
	if st, ok, _ := r.Job(recs[0].Job.ID); !ok || st.State != engine.StateDone {
		t.Errorf("reconciled job through the router: ok=%v %+v", ok, st)
	}
}

// TestDuplicateAfterUncertainParks is the double admission the remote
// chaos tier could not reach: a submission's POST lands with its answer
// lost, the read-back lookups are lost too, and the retry is answered
// 409 by the job's own first delivery. With no lookup to tell that from
// a genuine collision the call must end ErrUncertain — the router burns
// the ID and parks the step — never ErrDuplicateID, which leaves the ID
// free for the next submission to land on a second shard.
func TestDuplicateAfterUncertainParks(t *testing.T) {
	vc := engine.NewVirtualClock()
	posts := 0
	fault := &dropResponses{path: "/v1/jobs", spare: func(req *http.Request) bool {
		if req.Method != http.MethodPost {
			return false
		}
		posts++
		return posts > 1 // only the first POST's answer is lost; the retry hears its 409
	}}
	engines := make([]*engine.Engine, 2)
	shards := make([]engine.Shard, 2)
	for i := range shards {
		opts := RemoteShardOptions{Retries: 1}
		if i == 0 {
			opts.Transport = fault
		}
		engines[i], shards[i] = startShardProc(t, engine.Config{
			Capacity: 32,
			Policy:   policy.FCFSBackfill(),
			Clock:    vc,
		}, opts)
	}
	r, err := NewWithShards(Config{Clock: vc, RebalanceEvery: 30}, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-shard jobs: the first fills shard 0, so the second can only
	// start on shard 1.
	spec := job.Job{Nodes: 32, Runtime: 600, Request: 600}
	vc.AfterFunc(0, func() {
		fault.mu.Lock()
		fault.n = 1 << 20
		fault.mu.Unlock()
		if _, err := r.Submit(spec); !errors.Is(err, ErrUncertain) {
			t.Errorf("submit answered 409 after a lost answer, lookups lost: %v, want ErrUncertain", err)
		}
		fault.mu.Lock()
		fault.n = 0
		fault.mu.Unlock()
		if len(r.pending) != 1 || r.pending[0].stage != stageSubmit {
			t.Errorf("parked steps after the submit: %+v", r.pending)
		}
		if id, err := r.Submit(spec); err != nil || id != 2 {
			t.Errorf("second submit: id=%d err=%v, want the next ID", id, err)
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if posts != 2 || fault.hits < 3 {
		t.Fatalf("fault transport saw %d POSTs and lost %d answers; want 2 and the POST's plus two lookups'", posts, fault.hits)
	}
	if len(r.pending) != 0 {
		t.Fatalf("steps still parked after the run: %+v", r.pending)
	}
	copies := 0
	for _, e := range engines {
		for _, rec := range e.Records() {
			if rec.Job.ID == 1 {
				copies++
			}
		}
	}
	if copies != 1 || len(r.Records()) != 2 {
		t.Fatalf("%d records for job 1 across the shards, %d in all; want 1 and 2", copies, len(r.Records()))
	}
	if st, ok, _ := r.Job(1); !ok || st.State != engine.StateDone {
		t.Errorf("job 1 through the router: ok=%v %+v", ok, st)
	}
}

// TestParkedJobIsNotMigrated: a put-back admit whose answer and
// read-back are lost parks a step that holds a copy of the job — while
// the job itself sits in the shard's queue, in plain sight of the
// migration pass that follows in the same tick. Were it moved, the
// reconcile retry on the next tick would admit the held copy behind it:
// one job on two shards. (The remote chaos tier found this once its wire
// could park an admit.)
func TestParkedJobIsNotMigrated(t *testing.T) {
	vc := engine.NewVirtualClock()
	admits := 0
	// Lose the first admit's answer and the two lookups that read it back;
	// everything else (the retry's 409, loads, queues, withdraws) passes.
	fault := &dropResponses{path: "/v1/", n: 3, spare: func(req *http.Request) bool {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/shard/admit" {
			admits++
			return admits > 1
		}
		return !(req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"))
	}}
	engines := make([]*engine.Engine, 2)
	shards := make([]engine.Shard, 2)
	for i := range shards {
		opts := RemoteShardOptions{Retries: 1}
		if i == 0 {
			opts.Transport = fault
		}
		engines[i], shards[i] = startShardProc(t, engine.Config{
			Capacity: 32,
			Policy:   policy.FCFSBackfill(),
			Clock:    vc,
		}, opts)
	}
	r, err := NewWithShards(Config{Clock: vc, Placement: pinFirst{}, RebalanceEvery: 30}, shards)
	if err != nil {
		t.Fatal(err)
	}
	const mover = 2
	vc.AfterFunc(0, func() {
		// Shard 0 holds a whole-shard job and a queued one; shard 1 idles,
		// so every tick wants to move the queued job there.
		for _, j := range []job.Job{{ID: 1, Nodes: 32, Runtime: 7200, Request: 7200}, {ID: mover, Nodes: 8, Runtime: 600, Request: 600}} {
			if err := r.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		}
		// A migration's withdraw of the queued job went uncertain: the
		// first tick withdraws it for real and puts it back — into the
		// fault.
		r.mu.Lock()
		r.pending = []pendingMig{{id: mover, shard: 0, stage: stageWithdraw}}
		r.mu.Unlock()
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if fault.hits != 3 || admits < 2 {
		t.Fatalf("fault transport lost %d answers over %d admits; the put-back never parked", fault.hits, admits)
	}
	copies := 0
	for _, e := range engines {
		for _, rec := range e.Records() {
			if rec.Job.ID == mover {
				copies++
			}
		}
	}
	if copies != 1 || len(r.pending) != 0 {
		t.Fatalf("%d records for job %d across the shards, %d steps still parked; want 1 and 0", copies, mover, len(r.pending))
	}
}

// TestResolvedRemoteStepsRecordReconcile parks one step of every stage
// and outcome against a remote shard — a withdraw that commits and is put
// back, a withdraw of a job that had started, an admit that lands, a
// submission the shard has and one it never saw — and lets one
// reconciliation pass resolve them all. Every step that leaves the
// parked set must record one reconcile span and one log line, whichever
// way it resolved.
func TestResolvedRemoteStepsRecordReconcile(t *testing.T) {
	vc := engine.NewVirtualClock()
	tr := obs.NewTracer(obs.TracerOptions{Seed: 5})
	var logs bytes.Buffer
	_, rs := startShardProc(t, engine.Config{
		Capacity: 32,
		Policy:   policy.FCFSBackfill(),
		Clock:    vc,
	}, RemoteShardOptions{})
	r, err := NewWithShards(Config{
		Clock:  vc,
		Tracer: tr,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil)),
	}, []engine.Shard{rs})
	if err != nil {
		t.Fatal(err)
	}
	running := job.Job{ID: 1, Nodes: 32, Runtime: 7200, Request: 7200}
	queued := job.Job{ID: 2, Nodes: 8, Runtime: 600, Request: 600}
	held := job.Job{ID: 3, Nodes: 8, Runtime: 600, Request: 600}
	landed := job.Job{ID: 4, Nodes: 8, Runtime: 600, Request: 600}
	const neverSeen = 5
	vc.AfterFunc(0, func() {
		for _, j := range []job.Job{running, queued, landed} {
			if err := r.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		}
	})
	vc.AfterFunc(60, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, id := range []int{held.ID, neverSeen} {
			tr.Bind(id, tr.Mint())
			r.dir[id] = 0
		}
		r.pending = []pendingMig{
			{id: queued.ID, stage: stageWithdraw},
			{id: running.ID, stage: stageWithdraw},
			{id: held.ID, j: held, stage: stageAdmit},
			{id: landed.ID, stage: stageSubmit},
			{id: neverSeen, stage: stageSubmit},
		}
		r.resolvePendingLocked()
		if len(r.pending) != 0 {
			t.Errorf("steps still parked with the shard reachable: %+v", r.pending)
		}
		if _, ok := r.dir[neverSeen]; ok {
			t.Errorf("directory keeps job %d, which the shard never saw", neverSeen)
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Records()); n != 4 {
		t.Errorf("%d jobs completed, want 4", n)
	}

	if got := tr.Stats()["reconcile"].Count; got != 5 {
		t.Errorf("%d reconcile spans for 5 resolved steps", got)
	}
	type step struct {
		Job   int
		Stage string
	}
	logged := map[step]int{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg   string `json:"msg"`
			Job   int    `json:"job"`
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg == "reconciled parked step" {
			logged[step{rec.Job, rec.Stage}]++
		}
	}
	want := map[step]int{
		{queued.ID, "withdraw"}:  1,
		{running.ID, "withdraw"}: 1,
		{held.ID, "admit"}:       1,
		{landed.ID, "submit"}:    1,
		{neverSeen, "submit"}:    1,
	}
	if !maps.Equal(logged, want) {
		t.Errorf("reconciliation log records (job, stage): got %v, want %v", logged, want)
	}
}

// TestAdmitRetryIdempotent loses the acknowledgment of a migration
// admit whose operation landed. The client must detect the job is
// already on the shard and report success without admitting a second
// copy; an explicit second admit must surface the duplicate.
func TestAdmitRetryIdempotent(t *testing.T) {
	vc := engine.NewVirtualClock()
	fault := &dropResponses{path: "/v1/shard/admit", n: 1}
	e, rs := startShardProc(t, engine.Config{
		Capacity: 32,
		Policy:   policy.FCFSBackfill(),
		Clock:    vc,
	}, RemoteShardOptions{Transport: fault})

	j := job.Job{ID: 9, Submit: 0, Nodes: 8, Runtime: 600, Request: 600}
	vc.AfterFunc(0, func() {
		if err := rs.Admit(j); err != nil {
			t.Errorf("admit with dropped ack: %v", err)
		}
		if q, _ := e.Queue(); len(q) != 0 {
			// The admit triggers a decide at this instant; the job may
			// be waiting or already started, but never duplicated.
			if len(q) != 1 || q[0].Job.ID != j.ID {
				t.Errorf("queue after retried admit: %+v", q)
			}
		}
		if err := rs.Admit(j); !errors.Is(err, engine.ErrDuplicateID) {
			t.Errorf("second admit: %v, want ErrDuplicateID", err)
		}
	})
	vc.Run()
	if fault.hits != 1 {
		t.Fatalf("fault transport dropped %d responses, want 1", fault.hits)
	}
	st, ok, _ := e.Job(j.ID)
	if !ok || st.State != engine.StateDone {
		t.Fatalf("job after run: ok=%v state=%v", ok, st.State)
	}
	if got := len(e.Records()); got != 1 {
		t.Fatalf("%d completion records, want exactly 1", got)
	}
}

// refuseDial is a fault transport simulating a dead process: every
// request fails with a dial error, the one failure class the client
// may treat as certainly-not-delivered.
type refuseDial struct{}

func (refuseDial) RoundTrip(req *http.Request) (*http.Response, error) {
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
}

// stubBody answers every request 200 with a fixed body — the fuzz
// harness's hostile shard.
type stubBody struct{ data []byte }

func (s stubBody) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(s.data)),
		Header:     make(http.Header),
	}, nil
}

// FuzzRemoteShardDecode fuzzes both ends of the shard wire protocol:
// arbitrary bytes as request bodies against the server's shard
// endpoints (must answer structured JSON errors, never panic, never a
// bare 500), and the same bytes as a hostile shard's 200 response
// bodies against every RemoteShard decode path (must return errors or
// valid values, never panic).
func FuzzRemoteShardDecode(f *testing.F) {
	f.Add([]byte(`{"id":2}`))
	f.Add([]byte(`{"id":-1}`))
	f.Add([]byte(`{"job":{"id":3,"submit_s":5,"nodes":4,"runtime_s":60,"request_s":60,"user":1},"retried":true}`))
	f.Add([]byte(`{"capacity":32,"free_nodes":16,"waiting":2,"running":1,"queued_node_sec":100,"remaining_node_sec":50}`))
	f.Add([]byte(`{"records":[{"job":{"id":1},"start_s":0,"end_s":9,"measured":true}]}`))
	f.Add([]byte(`{"id":9007199254740993,"nodes":-4,"runtime_s":-1}`))
	f.Add([]byte(`[{"id":1},{"id":2}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte(`9`), 4096))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := engine.New(engine.Config{
			Capacity: 32,
			Policy:   policy.FCFSBackfill(),
			Clock:    engine.NewVirtualClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(e, nil)
		for _, path := range []string{"/v1/shard/admit", "/v1/shard/withdraw"} {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(data)))
			if w.Code == http.StatusInternalServerError {
				t.Fatalf("POST %s with %q: bare 500: %s", path, data, w.Body.String())
			}
			if w.Code >= 400 {
				var er wire.ErrorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Code == "" {
					t.Fatalf("POST %s with %q: unstructured error %d: %s", path, data, w.Code, w.Body.String())
				}
			}
		}

		// Client side: every decode surface against a hostile 200 body.
		rs := NewRemoteShard("http://shard", RemoteShardOptions{
			Transport: stubBody{data: data},
			Sleep:     noSleep,
			Retries:   -1, // single attempt: the body never changes
		})
		rs.Load()
		rs.Queue()
		rs.Machine()
		rs.Metrics()
		rs.Records()
		rs.Job(7)
		_, _ = rs.Withdraw(7)
		_ = rs.Admit(job.Job{ID: 5, Nodes: 1, Runtime: 1, Request: 1})
		_ = rs.SubmitJob(job.Job{ID: 6, Nodes: 1, Runtime: 1, Request: 1})
	})
}

// countCalls is a transport that counts the requests it carries, and
// refuses every dial once dark.
type countCalls struct {
	n    atomic.Int64
	dark atomic.Bool
}

func (c *countCalls) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	if c.dark.Load() {
		return refuseDial{}.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRestartedFrontSkipsTakenIDs restarts a front over running
// shards: a second router over the same two shard processes must start
// its IDs past every ID the first one handed out and must answer for
// the jobs the first one routed. A front restarted again must refuse a
// caller-assigned ID the first one routed, and must not admit one while
// the shard that might hold it cannot be asked, so no ID is ever held
// by two shards.
func TestRestartedFrontSkipsTakenIDs(t *testing.T) {
	vc := engine.NewVirtualClock()
	calls := new(countCalls)
	var engines []*engine.Engine
	var shards []engine.Shard
	for i := 0; i < 2; i++ {
		e, rs := startShardProc(t, engine.Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc}, RemoteShardOptions{Transport: calls})
		engines = append(engines, e)
		shards = append(shards, rs)
	}
	first, err := NewWithShards(Config{Clock: vc}, shards)
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Job{Nodes: 4, Runtime: 600, Request: 600}
	var ids []int
	submit := func(r *Router) {
		id, err := r.Submit(spec)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		ids = append(ids, id)
	}
	vc.AfterFunc(0, func() {
		for i := 0; i < 3; i++ {
			submit(first)
		}
	})
	var second *Router
	vc.AfterFunc(1, func() {
		second, err = NewWithShards(Config{Clock: vc}, shards)
		if err != nil {
			t.Error(err)
			return
		}
		submit(second)
		submit(second)
	})
	vc.Run()
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(ids, want) {
		t.Errorf("IDs handed out %v, want %v", ids, want)
	}
	holders := func() []int {
		var out []int
		for id := 1; id <= 5; id++ {
			held := 0
			for si, e := range engines {
				if _, ok, _ := e.Job(id); ok {
					held++
					out = append(out, si)
				}
			}
			if held != 1 {
				t.Errorf("job %d is held by %d shards", id, held)
			}
		}
		return out
	}
	holder := holders()
	if second == nil || len(holder) != 5 {
		t.FailNow()
	}
	for id := 1; id <= 3; id++ {
		for si, e := range engines {
			want, ok, _ := e.Job(id)
			if !ok {
				continue
			}
			for k := range want.NodeIDs {
				want.NodeIDs[k] += 8 * si
			}
			if got, ok, _ := second.Job(id); !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("restarted front: job %d is %+v, %v; shard %d holds %+v", id, got, ok, si, want)
			}
		}
	}
	before := calls.n.Load()
	if st, ok, _ := second.Job(6); ok {
		t.Errorf("restarted front: job 6, never submitted, answers %+v", st)
	}
	if n := calls.n.Load() - before; n != 0 {
		t.Errorf("restarted front: job 6 past every ID made %d wire calls, want 0", n)
	}

	// Fresh fronts, so the look-up starts from an empty directory: the
	// third over both shards, the fourth over shard 0 and a view of
	// shard 1 that goes dark once the front has started.
	third, err := NewWithShards(Config{Clock: vc}, shards)
	if err != nil {
		t.Fatal(err)
	}
	dim := new(countCalls)
	fourth, err := NewWithShards(Config{Clock: vc}, []engine.Shard{
		shards[0], NewRemoteShard(shards[1].(*RemoteShard).Addr(), RemoteShardOptions{Transport: dim, Sleep: noSleep}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim.dark.Store(true)
	if !slices.Contains(holder[:3], 1) {
		t.Fatalf("jobs 1-3 are held by shards %v; the dark-shard case needs one on shard 1", holder[:3])
	}
	for id := 1; id <= 3; id++ {
		j := spec
		j.ID = id
		if err := third.SubmitJob(j); !errors.Is(err, engine.ErrDuplicateID) {
			t.Errorf("restarted front: SubmitJob of taken ID %d: %v, want ErrDuplicateID", id, err)
		}
		want := engine.ErrDuplicateID
		if holder[id-1] == 1 {
			want = ErrUnreachable
		}
		if err := fourth.SubmitJob(j); !errors.Is(err, want) {
			t.Errorf("front with shard 1 dark: SubmitJob of taken ID %d (on shard %d): %v, want %v", id, holder[id-1], err, want)
		}
	}
	holders()
}

// TestDarkShardSubmitIs503 posts a caller-assigned ID through the
// HTTP server over a front whose shard that might hold the ID is dark.
// The job is good and a retry may find the shard back, so every submit
// path — single without and with the ingest queue, and a batch item —
// must answer 503 shard_unreachable, not 400 invalid_job, and a single
// submit carries the Retry-After hint.
func TestDarkShardSubmitIs503(t *testing.T) {
	vc := engine.NewVirtualClock()
	var engines []*engine.Engine
	var shards []engine.Shard
	for i := 0; i < 2; i++ {
		e, rs := startShardProc(t, engine.Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc}, RemoteShardOptions{})
		engines = append(engines, e)
		shards = append(shards, rs)
	}
	first, err := NewWithShards(Config{Clock: vc}, shards)
	if err != nil {
		t.Fatal(err)
	}
	vc.AfterFunc(0, func() {
		for i := 0; i < 2; i++ {
			if _, err := first.Submit(job.Job{Nodes: 8, Runtime: 600, Request: 600}); err != nil {
				t.Error(err)
			}
		}
	})
	vc.Run()
	dark, live := 0, 0
	for id := 1; id <= 2; id++ {
		if _, ok, _ := engines[1].Job(id); ok {
			dark = id
		} else {
			live = id
		}
	}
	if dark == 0 || live == 0 {
		t.Fatal("the two 8-node jobs share a shard; the test needs one on each")
	}
	dim := new(countCalls)
	front, err := NewWithShards(Config{Clock: vc}, []engine.Shard{
		shards[0], NewRemoteShard(shards[1].(*RemoteShard).Addr(), RemoteShardOptions{Transport: dim, Sleep: noSleep}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim.dark.Store(true)
	q, err := ingest.NewQueue(ingest.Config{Backend: front})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	post := func(srv *server.Server, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		return w
	}
	body := func(id int) string {
		return fmt.Sprintf(`{"id":%d,"nodes":1,"runtime_s":60,"request_s":60}`, id)
	}
	for _, srv := range []*server.Server{server.New(front, nil), server.New(front, nil, server.WithIngest(q))} {
		if w := post(srv, body(live)); w.Code != http.StatusConflict {
			t.Errorf("ID %d, held by the live shard: %d %s, want 409", live, w.Code, w.Body)
		}
		w := post(srv, body(dark))
		var er wire.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusServiceUnavailable ||
			er.Code != "shard_unreachable" || w.Header().Get("Retry-After") != "1" {
			t.Errorf("ID %d, held by the dark shard: %d %s (Retry-After %q), want 503 shard_unreachable with Retry-After 1",
				dark, w.Code, w.Body, w.Header().Get("Retry-After"))
		}
	}
	w := post(server.New(front, nil, server.WithIngest(q)), "["+body(dark)+"]")
	var br server.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil || w.Code != http.StatusOK || len(br.Items) != 1 ||
		br.Items[0].Status != http.StatusServiceUnavailable || br.Items[0].Code != "shard_unreachable" {
		t.Errorf("batch of ID %d, held by the dark shard: %d %s, want one item 503 shard_unreachable", dark, w.Code, w.Body)
	}
}

// TestUncertainSubmitIs202 posts through an HTTP server over a front
// whose one shard loses every /v1/jobs answer: each POST lands and its
// job runs, but neither the answer nor a read-back arrives. The outcome
// is unknown, not the job's fault, so every submit path — single
// without and with the ingest queue, and batch items with and without
// a caller-assigned ID — must answer 202 outcome_unknown with the ID the
// job may run under (a single submit's Location, a batch item's id),
// not 400 invalid_job; and once the wire is back, the front finds each
// job under that ID.
func TestUncertainSubmitIs202(t *testing.T) {
	vc := engine.NewVirtualClock()
	fault := &dropResponses{path: "/v1/jobs", n: 1 << 20}
	_, rs := startShardProc(t, engine.Config{Capacity: 32, Policy: policy.FCFSBackfill(), Clock: vc},
		RemoteShardOptions{Transport: fault, Retries: 1})
	front, err := NewWithShards(Config{Clock: vc}, []engine.Shard{rs})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ingest.NewQueue(ingest.Config{Backend: front})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	post := func(srv *server.Server, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		return w
	}
	const spec = `"nodes":1,"runtime_s":600,"request_s":600}`
	// In order: each submit burns the next ID.
	for i, srv := range []*server.Server{server.New(front, nil), server.New(front, nil, server.WithIngest(q))} {
		id := i + 1
		w := post(srv, "{"+spec)
		var er wire.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusAccepted ||
			er.Code != "outcome_unknown" || w.Header().Get("Location") != fmt.Sprintf("/v1/jobs/%d", id) {
			t.Errorf("single submit %d: %d %s (Location %q), want 202 outcome_unknown at /v1/jobs/%d",
				id, w.Code, w.Body, w.Header().Get("Location"), id)
		}
	}
	w := post(server.New(front, nil, server.WithIngest(q)), "[{"+spec+`,{"id":10,`+spec+"]")
	var br server.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil || w.Code != http.StatusOK || len(br.Items) != 2 || br.Accepted != 2 {
		t.Fatalf("batch: %d %s, want two items, both accepted", w.Code, w.Body)
	}
	for k, id := range []int{3, 10} {
		if it := br.Items[k]; it.Status != http.StatusAccepted || it.Code != "outcome_unknown" || it.ID != id {
			t.Errorf("batch item %d: %+v, want 202 outcome_unknown with id %d", k, it, id)
		}
	}
	fault.mu.Lock()
	fault.n = 0
	fault.mu.Unlock()
	vc.RunDue() // the shard's decision
	for _, id := range []int{1, 2, 3, 10} {
		if st, ok, _ := front.Job(id); !ok || st.State != engine.StateRunning {
			t.Errorf("job %d through the front once the wire is back: ok=%v %+v, want running", id, ok, st)
		}
	}
}

// TestRetryOfParkedSubmitIs202 retries a 202'd submit under its ID while
// the first submit's step is still parked: the front does not know
// whether the shard holds the job, so the retry is as uncertain as the
// first answer (202 again, never 409). Once the reconcile settles, a job
// the shard holds answers 409 and one it does not is routed anew.
func TestRetryOfParkedSubmitIs202(t *testing.T) {
	vc := engine.NewVirtualClock()
	fault := &dropResponses{path: "/v1/jobs", n: 1 << 20}
	e, rs := startShardProc(t, engine.Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc},
		RemoteShardOptions{Transport: fault, Retries: 1})
	front, err := NewWithShards(Config{Clock: vc, RebalanceEvery: 10}, []engine.Shard{rs})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(front, nil)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	const spec = `"nodes":1,"runtime_s":600,"request_s":600}`
	for id := 1; id <= 2; id++ {
		if w := do("POST", "/v1/jobs", "{"+spec); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s, want 202", id, w.Code, w.Body)
		}
	}
	w := do("POST", "/v1/jobs", `{"id":1,`+spec)
	var er wire.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusAccepted ||
		er.Code != "outcome_unknown" || w.Header().Get("Location") != "/v1/jobs/1" {
		t.Errorf("retry of job 1 while its submit is parked: %d %s (Location %q), want 202 outcome_unknown at /v1/jobs/1",
			w.Code, w.Body, w.Header().Get("Location"))
	}
	if w := do("GET", "/v1/jobs/1", ""); w.Code != http.StatusServiceUnavailable {
		t.Errorf("GET job 1 while the shard's answers are lost: %d %s, want 503", w.Code, w.Body)
	}
	// Job 1 leaves the shard before the reconcile asks; job 2 stays.
	if _, err := e.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	fault.mu.Lock()
	fault.n = 0
	fault.mu.Unlock()
	vc.AdvanceTo(10) // the reconcile tick
	if w := do("POST", "/v1/jobs", `{"id":2,`+spec); w.Code != http.StatusConflict {
		t.Errorf("retry of job 2, which the shard holds: %d %s, want 409", w.Code, w.Body)
	}
	if w := do("POST", "/v1/jobs", `{"id":1,`+spec); w.Code != http.StatusCreated {
		t.Errorf("retry of job 1, which no shard holds: %d %s, want 201", w.Code, w.Body)
	}
}

// loseJobReads is an in-memory wire to one shard's handler that serves
// every request but loses the answer to each GET /v1/jobs/{id}: the
// read happens on the shard, the front never hears back.
type loseJobReads struct{ h http.Handler }

func (l loseJobReads) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	l.h.ServeHTTP(w, req)
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/") {
		return nil, fmt.Errorf("fault: answer to GET %s lost", req.URL.Path)
	}
	return w.Result(), nil
}

// TestSubmitAnswersTheAdmittedID submits through a front whose shard
// admits the job but whose read-back of it is lost. The job is admitted,
// so the answer is 201, and it must carry the ID the job runs under and
// the submitted spec, not a zero body the client cannot find its job by.
func TestSubmitAnswersTheAdmittedID(t *testing.T) {
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRemoteShard("http://shard", RemoteShardOptions{Transport: loseJobReads{server.New(e, nil)}, Sleep: noSleep})
	front, err := NewWithShards(Config{Clock: vc}, []engine.Shard{rs})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	server.New(front, nil).ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"nodes":2,"runtime_s":600,"request_s":900,"user":7}`)))
	var jr wire.JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil || w.Code != http.StatusCreated ||
		jr.ID != 1 || jr.Nodes != 2 || jr.RuntimeS != 600 || jr.RequestS != 900 || jr.User != 7 {
		t.Errorf("submit with the read-back lost: %d %s, want 201 for job 1 with the submitted spec", w.Code, w.Body)
	}
	if _, ok, _ := e.Job(1); !ok {
		t.Error("the shard does not hold job 1")
	}
}

// TestDarkShardReadsAre503 closes one of two remote shards under a
// front that routed six jobs over them. A read that needs the dark
// shard is not answered from what the live one says: its jobs, the
// queue and the machine answer 503 shard_unreachable, while the live
// shard's jobs answer 200 and an ID the front never handed out answers
// 404 without a wire call.
func TestDarkShardReadsAre503(t *testing.T) {
	vc := engine.NewVirtualClock()
	calls := new(countCalls)
	var engines []*engine.Engine
	var servers []*httptest.Server
	var shards []engine.Shard
	for i := 0; i < 2; i++ {
		e, err := engine.New(engine.Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(e, nil))
		t.Cleanup(ts.Close)
		engines, servers = append(engines, e), append(servers, ts)
		shards = append(shards, NewRemoteShard(ts.URL, RemoteShardOptions{Transport: calls, Sleep: noSleep, Timeout: 30 * time.Second}))
	}
	front, err := NewWithShards(Config{Clock: vc}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := front.Submit(job.Job{Nodes: 8, Runtime: 600, Request: 600}); err != nil {
			t.Fatal(err)
		}
	}
	vc.RunDue()
	for id := 1; id <= 6; id++ {
		if _, ok, _ := engines[(id-1)%2].Job(id); !ok {
			t.Fatalf("job %d is not on shard %d: the scenario wants jobs 1, 3, 5 on shard 0", id, (id-1)%2)
		}
	}
	servers[1].Close()
	srv := server.New(front, nil)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	unreachable := func(path string) {
		t.Helper()
		w := get(path)
		var er wire.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusServiceUnavailable ||
			er.Code != "shard_unreachable" || w.Header().Get("Retry-After") != "1" {
			t.Errorf("GET %s with shard 1 dark: %d %s (Retry-After %q), want 503 shard_unreachable with Retry-After 1",
				path, w.Code, w.Body, w.Header().Get("Retry-After"))
		}
	}
	for id := 1; id <= 6; id += 2 {
		if w := get(fmt.Sprintf("/v1/jobs/%d", id)); w.Code != http.StatusOK {
			t.Errorf("GET job %d on the live shard: %d %s, want 200", id, w.Code, w.Body)
		}
		unreachable(fmt.Sprintf("/v1/jobs/%d", id+1))
	}
	unreachable("/v1/queue")
	unreachable("/v1/machine")
	before := calls.n.Load()
	if w := get("/v1/jobs/7"); w.Code != http.StatusNotFound {
		t.Errorf("GET job 7, never handed out: %d %s, want 404", w.Code, w.Body)
	}
	if n := calls.n.Load() - before; n != 0 {
		t.Errorf("GET job 7 made %d wire calls, want 0", n)
	}
}

// TestRemoteShardUnreachable pins the error taxonomy down: a dead
// process yields ErrUnreachable (certainly not delivered), health
// reflects it, and the router reroutes submissions around the dark
// shard while readyz-style health reports the breakdown.
func TestRemoteShardUnreachable(t *testing.T) {
	vc := engine.NewVirtualClock()
	_, live := startShardProc(t, engine.Config{
		Capacity: 32,
		Policy:   policy.FCFSBackfill(),
		Clock:    vc,
	}, RemoteShardOptions{})
	dying := new(countCalls)
	_, dead := startShardProc(t, engine.Config{
		Capacity: 32,
		Policy:   policy.FCFSBackfill(),
		Clock:    vc,
	}, RemoteShardOptions{Transport: dying})

	// A router fronting [live, dead], built while both answer, must route
	// around the dead shard once it goes dark.
	r, err := NewWithShards(Config{Clock: vc}, []engine.Shard{live, dead})
	if err != nil {
		t.Fatal(err)
	}
	dying.dark.Store(true)
	if err := dead.SubmitJob(job.Job{ID: 1, Nodes: 1, Runtime: 1, Request: 1}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dead shard submit: %v, want ErrUnreachable", err)
	}
	if dead.Healthy() == nil {
		t.Fatal("dead shard reports healthy")
	}
	vc.AfterFunc(0, func() {
		for i := 0; i < 4; i++ {
			if _, err := r.Submit(job.Job{Nodes: 8, Runtime: 60, Request: 60}); err != nil {
				t.Errorf("submit with one dark shard: %v", err)
			}
		}
	})
	vc.Run()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Records()); got != 4 {
		t.Fatalf("completed %d of 4 jobs with a dark shard", got)
	}
	health := r.ShardHealth()
	if len(health) != 2 || !health[0].Healthy || health[1].Healthy {
		t.Fatalf("shard health breakdown: %+v", health)
	}
}
