package chaos

import (
	"net/http"
	"testing"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// tap hands see each request one shard sends to the in-memory wire,
// before delivering it.
type tap struct {
	inner http.RoundTripper
	shard int
	see   func(shard int, req *http.Request)
}

func (c tap) RoundTrip(req *http.Request) (*http.Response, error) {
	c.see(c.shard, req)
	return c.inner.RoundTrip(req)
}

// countLoads counts each shard's GET /v1/shard/load calls into loads.
func countLoads(loads []int) func(int, *http.Request) {
	return func(i int, req *http.Request) {
		if req.Method == http.MethodGet && req.URL.Path == "/v1/shard/load" {
			loads[i]++
		}
	}
}

// memShards boots one engine per capacity on vc, each behind its own
// server on the in-memory wire, and returns the engines, the wire ends
// (whose fault tables a test arms) and RemoteShard clients whose
// requests are handed to see on their way.
func memShards(vc *engine.VirtualClock, caps []int, see func(int, *http.Request)) ([]*engine.Engine, []*shardProc, []engine.Shard, error) {
	var engines []*engine.Engine
	var procs []*shardProc
	var shards []engine.Shard
	for i, c := range caps {
		e, err := engine.New(engine.Config{Capacity: c, Policy: dds(), Clock: vc})
		if err != nil {
			return nil, nil, nil, err
		}
		sp := &shardProc{faults: newFaultTable(), handler: server.New(e, nil)}
		engines, procs = append(engines, e), append(procs, sp)
		shards = append(shards, federation.NewRemoteShard("http://shard", federation.RemoteShardOptions{
			Timeout:   30 * time.Second,
			Retries:   1,
			Sleep:     func(time.Duration) {},
			Transport: tap{inner: sp, shard: i, see: see},
		}))
	}
	return engines, procs, shards, nil
}

// suiteMonth is the month the load-cache tests replay: a suite month
// at load 0.9 of four 128-node shards.
func suiteMonth(t *testing.T) []job.Job {
	t.Helper()
	suite := workload.NewSuite(workload.Config{Seed: 1, JobScale: 0.2})
	in, _, err := suite.Input("7/03", workload.SimOptions{TargetLoad: 0.9 * 4})
	if err != nil {
		t.Fatal(err)
	}
	return in.Jobs
}

// replayMonth submits jobs through router at their submit times, runs
// vc dry and checks that every job completed.
func replayMonth(t *testing.T, vc *engine.VirtualClock, router *federation.Router, jobs []job.Job) {
	t.Helper()
	for _, j := range jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := router.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := router.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(router.Records()); got != len(jobs) {
		t.Fatalf("%d of %d jobs completed", got, len(jobs))
	}
}

// liveLoads is BestFit, checking first that every candidate's load —
// cached or probed — is the backing engine's live Load at this instant.
type liveLoads struct {
	t       *testing.T
	engines []*engine.Engine
	checked int
}

func (*liveLoads) Name() string { return "best-fit" }

func (p *liveLoads) Pick(j job.Job, cands []federation.Candidate) int {
	for _, c := range cands {
		got := c.Load
		want, _ := p.engines[c.Shard].Load()
		got.Slope, got.StableUntil = want.Slope, want.StableUntil
		if got != want {
			p.t.Fatalf("job %d, shard %d: router placed by %+v, the shard's load is %+v", j.ID, c.Shard, got, want)
		}
		p.checked++
	}
	return federation.BestFit{}.Pick(j, cands)
}

// TestCachedLoadsAreExact replays a suite month at load 0.9 of four
// 128-node remote shards on the in-memory wire: at every pick each
// candidate's load must equal its engine's live Load, and the router
// may probe at most twice per job.
func TestCachedLoadsAreExact(t *testing.T) {
	jobs := suiteMonth(t)
	vc := engine.NewVirtualClock()
	probes := make([]int, 4)
	engines, _, shards, err := memShards(vc, []int{128, 128, 128, 128}, countLoads(probes))
	if err != nil {
		t.Fatal(err)
	}
	place := &liveLoads{t: t, engines: engines}
	router, err := federation.NewWithShards(federation.Config{Clock: vc, Placement: place, RebalanceEvery: 600}, shards)
	if err != nil {
		t.Fatal(err)
	}
	clear(probes) // construction-time capacity discovery
	replayMonth(t, vc, router, jobs)
	total := 0
	for _, n := range probes {
		total += n
	}
	if total > 2*len(jobs) {
		t.Fatalf("%d load probes for %d jobs, want at most 2 per job", total, len(jobs))
	}
	t.Logf("%d jobs, %d candidate loads checked, %d load probes (%.2f per job), %d migrations",
		len(jobs), place.checked, total, float64(total)/float64(len(jobs)), router.Federation().Migrations)
}

// TestQueueReadsFindAMove replays the same month and holds each
// rebalance pass's GET /v1/queue to what it must find. The source
// engine's live queue is non-empty, and some job on it passes the move
// test against the live loads of the source and the least loaded
// shard — except at a read after a move of the same pass, where the
// source's smallest demand is only a lower bound. Skipping the other
// reads moves nothing: the migrations are the in-process run's.
func TestQueueReadsFindAMove(t *testing.T) {
	jobs := suiteMonth(t)
	caps := []int{128, 128, 128, 128}

	vc := engine.NewVirtualClock()
	ref, err := federation.New(federation.Config{
		Capacity: 512, Shards: len(caps), Policy: func(int) sim.Policy { return dds() }, Clock: vc, RebalanceEvery: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayMonth(t, vc, ref, jobs)

	vc = engine.NewVirtualClock()
	var engines []*engine.Engine
	reads, afterMove := make([]int, len(caps)), 0
	movedAt := job.Time(-1) // the instant of the last migration's admit
	see := func(src int, req *http.Request) {
		switch req.URL.Path {
		case "/v1/shard/admit":
			movedAt = vc.Now()
			return
		case "/v1/queue":
		default:
			return
		}
		reads[src]++
		queue, _ := engines[src].Queue()
		if len(queue) == 0 {
			t.Fatalf("t=%d: read shard %d's queue, which is empty", vc.Now(), src)
		}
		if movedAt == vc.Now() {
			afterMove++
			return
		}
		loads := make([]engine.Load, len(engines))
		dst := 0
		for i, e := range engines {
			loads[i], _ = e.Load()
			if loads[i].Score() < loads[dst].Score() {
				dst = i
			}
		}
		for _, st := range queue {
			if st.Job.Nodes <= caps[dst] &&
				loads[dst].Score()+float64(st.Demand())/float64(caps[dst]) < loads[src].Score() {
				return
			}
		}
		t.Fatalf("t=%d: read shard %d's queue of %d jobs, none of which can move to shard %d", vc.Now(), src, len(queue), dst)
	}
	engines, _, shards, err := memShards(vc, caps, see)
	if err != nil {
		t.Fatal(err)
	}
	router, err := federation.NewWithShards(federation.Config{Clock: vc, RebalanceEvery: 600}, shards)
	if err != nil {
		t.Fatal(err)
	}
	replayMonth(t, vc, router, jobs)
	got, want := router.Federation().Migrations, ref.Federation().Migrations
	if got != want {
		t.Fatalf("%d migrations over the wire, %d in process", got, want)
	}
	total := 0
	for _, n := range reads {
		total += n
	}
	t.Logf("%d jobs, %d migrations, %d queue reads (%d after a move of the same pass)", len(jobs), got, total, afterMove)
}

// TestDarkShardWithOpenWindow refuses every connection to a shard whose
// cached load is still inside its window. The first submit that picks
// it learns of the outage from ErrUnreachable and reroutes, landing the
// job once; from then on every pick probes the dark shard live, and the
// rebalance pass finds it healthy again once the fault row has ended.
func TestDarkShardWithOpenWindow(t *testing.T) {
	vc := engine.NewVirtualClock()
	probes := make([]int, 4)
	_, procs, shards, err := memShards(vc, []int{32, 32, 32, 32}, countLoads(probes))
	if err != nil {
		t.Fatal(err)
	}
	router, err := federation.NewWithShards(federation.Config{Clock: vc, RebalanceEvery: 60}, shards)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []job.Job
	submit := func(id int, at job.Time) {
		j := job.Job{ID: id, Submit: at, Nodes: 20, Runtime: 1000, Request: 1000, User: id}
		vc.AdvanceTo(at)
		if err := router.SubmitJob(j); err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		accepted = append(accepted, j)
	}
	dark := &procs[1].faults[rowWindow]

	// Job 1 fills 20 of shard 0's 32 nodes; every shard was probed, and
	// shard 1, idle, is cached with a window that never closes.
	submit(1, 0)
	dark.action, dark.open = ftRefuse, true
	// Job 2 fits no hole on shard 0, so BestFit picks shard 1 from its
	// cache, unprobed; the refused submit reroutes it to shard 2.
	before := probes[1]
	submit(2, 10)
	if probes[1] != before {
		t.Fatalf("shard 1 was probed %d times before the submit that found it dark", probes[1]-before)
	}
	if got := router.Federation().Reroutes; got != 1 {
		t.Fatalf("%d reroutes, want 1", got)
	}
	if sh, _ := router.JobShard(2); sh != 2 {
		t.Fatalf("job 2 on shard %d, want 2", sh)
	}
	// Dark, shard 1 is probed live at every pick.
	for id := 3; id <= 4; id++ {
		before := probes[1]
		submit(id, job.Time(10*id))
		if probes[1] != before+1 {
			t.Fatalf("job %d: shard 1 probed %d times, want 1", id, probes[1]-before)
		}
	}
	if router.ShardHealth()[1].Healthy {
		t.Fatal("shard 1 reads healthy while its connections are refused")
	}
	vc.AfterFunc(50-vc.Now(), func() { dark.open = false })
	vc.AdvanceTo(60) // the rebalance pass, armed by job 1
	if h := router.ShardHealth()[1]; !h.Healthy {
		t.Fatalf("shard 1 still dark after the rebalance pass: %s", h.Err)
	}
	submit(5, 70)
	// Dark again, found out this time by a read, not by a write that
	// drops the cache: the next pick must still probe live.
	vc.AdvanceTo(75)
	dark.open = true
	router.ShardRecords(1)
	before = probes[1]
	submit(6, 80)
	if probes[1] != before+1 {
		t.Fatalf("job 6: shard 1 probed %d times, want 1", probes[1]-before)
	}
	vc.AfterFunc(85-vc.Now(), func() { dark.open = false })
	vc.Run()
	rt := routerTarget{capacity: 128, router: router}
	if err := rt.verify(accepted); err != nil {
		t.Fatal(err)
	}
	if h := router.ShardHealth()[1]; !h.Healthy {
		t.Fatalf("shard 1 still dark at the end: %s", h.Err)
	}
	if got := len(router.Records()); got != len(accepted) {
		t.Fatalf("%d of %d jobs completed", got, len(accepted))
	}
}
