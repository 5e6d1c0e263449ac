package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// RemoteFederationConfig describes a chaos scenario against an
// out-of-process-style federation: every shard is a full
// engine+HTTP-server "process" with its own journal file, fronted by
// federation.RemoteShard clients, and the router drives them over real
// TCP. On top of the embedded Config's fault classes,
// FaultCrashRebuild becomes a whole-process shard kill (server torn
// down, journal handle closed) followed by a journal-rebuild restart
// on the same address, and FaultPartition injects wire faults between
// the router and one shard: connection-refused windows (certain,
// rerouted), black-hole timeouts and dropped responses (uncertain,
// parked and reconciled on rebalance ticks). Reconciliation rides the
// router's one periodic pass, so a RebalanceEvery of 0 means 45 engine
// seconds here, not off.
type RemoteFederationConfig struct {
	FederationConfig
	// Dir is the scratch directory for the per-shard journal files
	// (required — the injected crash restarts the victim from its
	// journal).
	Dir string
	// GroupCommit is the shard journals' appends-per-fsync
	// (default 1). Recovery correctness must not depend on it: the
	// shard server fsyncs before acknowledging every mutation.
	GroupCommit int
}

// RemoteFederationResult is the outcome of one remote federated chaos
// scenario.
type RemoteFederationResult struct {
	FederationResult
	// Uncertain counts legitimate submissions whose submit call
	// returned a wire failure (outcome unknown or all shards dark).
	// Such a job may be definitively absent at the end — its submitter
	// was told to retry — but must never be silently lost after an
	// acknowledgment, and never double-admitted.
	Uncertain int
	// PartitionedShard is the shard the partition windows targeted,
	// -1 when FaultPartition was off.
	PartitionedShard int
	// Reroutes and Pending come from the router: submissions routed
	// around dark shards, and wire-uncertain steps still parked at the
	// end of the run (after the final reconciliation ticks this is
	// normally 0, but a job whose shard answered is resolved either
	// way, so leftovers are not an invariant violation by themselves).
	Reroutes int64
	Pending  int
}

// shardProc is one emulated shard process: an engine journaling to its
// own file behind a real TCP HTTP server. kill tears the whole thing
// down like a SIGKILL (in-flight state lost, journal handle closed so
// the abandoned engine incarnation goes fatal on its next write, the
// listener refuses connections); start(recover=true) plays the restart:
// recover the journal, rebuild the engine, rebind the same address.
type shardProc struct {
	path  string // journal file
	group int
	addr  string // "127.0.0.1:0" until the first listen fixes the port
	mkCfg func() engine.Config

	eng *engine.Engine
	fj  *engine.FileJournal
	srv *http.Server
}

// start boots (or, with recover, restarts) the shard process. All
// calls happen on the virtual-clock driver goroutine.
func (sp *shardProc) start(recover bool) error {
	cfg := sp.mkCfg()
	var cp *engine.Checkpoint
	if recover {
		if st, err := os.Stat(sp.path); err == nil && st.Size() > 0 {
			c, err := engine.RecoverCheckpoint(sp.path)
			if err != nil {
				return fmt.Errorf("chaos: recover %s: %w", sp.path, err)
			}
			cp = &c
		}
	}
	fj, err := engine.OpenFileJournal(sp.path, sp.group)
	if err != nil {
		return err
	}
	cfg.Journal = fj
	var e *engine.Engine
	if cp != nil {
		e, err = engine.Rebuild(cfg, *cp)
	} else {
		e, err = engine.New(cfg)
	}
	if err != nil {
		fj.Close()
		return fmt.Errorf("chaos: shard engine %s: %w", sp.path, err)
	}
	ln, err := net.Listen("tcp", sp.addr)
	if err != nil {
		fj.Close()
		return fmt.Errorf("chaos: shard listen %s: %w", sp.addr, err)
	}
	sp.addr = ln.Addr().String()
	srv := &http.Server{Handler: server.New(e, nil)}
	go srv.Serve(ln)
	sp.eng, sp.fj, sp.srv = e, fj, srv
	return nil
}

// kill emulates a whole-process crash: the listener and every open
// connection close (future dials are refused), and the journal handle
// closes so the abandoned engine incarnation fails fatally on its next
// committed event instead of scheduling on. Everything the journal had
// committed stays on disk for the restart.
func (sp *shardProc) kill() {
	if sp.srv != nil {
		sp.srv.Close()
	}
	if sp.fj != nil {
		sp.fj.Close()
	}
	sp.eng, sp.fj, sp.srv = nil, nil, nil
}

func (sp *shardProc) stop() { sp.kill() }

// Wire-fault modes a faultTransport can be switched through.
const (
	ftClear = iota
	// ftRefuse answers every round trip with a dial error before
	// anything is sent: the request certainly never happened, the
	// router may reroute.
	ftRefuse
	// ftBlackhole loses the request without delivering it, but the
	// client cannot know that — a non-dial transport failure, so the
	// outcome is uncertain from the caller's side.
	ftBlackhole
	// ftDrop delivers the request to the shard and loses the response:
	// the mutation happened, the acknowledgment did not — the
	// idempotency machinery's worst case.
	ftDrop
)

// faultTransport wraps a shard client's HTTP transport with two fault
// shapes, both flipped from virtual-clock timers so every injection is
// deterministic:
//
//   - a whole-window mode (mode) failing every request — the shard
//     looks dark, the router's health probes see it immediately and
//     degraded routing steers around it;
//   - POST-only strike counters (refusePosts/dropPosts) that pass the
//     read-side health probes untouched and hit the next mutations —
//     the mid-operation case: placement already picked the shard, the
//     migration already withdrew the job, and THEN the wire fails.
//
// All accesses happen on the virtual-clock driver goroutine (requests
// resolve synchronously inside timer callbacks), so no lock is needed.
type faultTransport struct {
	inner       http.RoundTripper
	mode        int
	refusePosts int // refuse the next N POSTs before delivery (certain)
	dropPosts   int // deliver the next N POSTs, lose the responses (uncertain)
}

// set switches the whole-window fault mode.
func (ft *faultTransport) set(mode int) { ft.mode = mode }

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && ft.refusePosts > 0 {
		ft.refusePosts--
		return nil, &net.OpError{Op: "dial", Net: "tcp",
			Err: errors.New("chaos: injected connection refused")}
	}
	if req.Method == http.MethodPost && ft.dropPosts > 0 {
		ft.dropPosts--
		resp, err := ft.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("chaos: injected response loss after delivery")
	}
	switch ft.mode {
	case ftRefuse:
		return nil, &net.OpError{Op: "dial", Net: "tcp",
			Err: errors.New("chaos: injected connection refused")}
	case ftBlackhole:
		return nil, errors.New("chaos: injected black-hole timeout")
	case ftDrop:
		resp, err := ft.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("chaos: injected response loss after delivery")
	}
	return ft.inner.RoundTrip(req)
}

// RunFederationRemote executes one remote federated scenario to
// completion and verifies the cross-process invariants: no job
// acknowledged as admitted is ever lost — across shard-process kills,
// journal-rebuild restarts and partition windows — no job is ever
// admitted on two shards, and the merged schedule passes
// oracle.CheckFederation. Submissions whose wire outcome stayed
// unknown are the one tolerated loss: the caller was told to retry.
func RunFederationRemote(config RemoteFederationConfig) (*RemoteFederationResult, error) {
	cfg, err := config.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	if config.Shards < 2 {
		return nil, fmt.Errorf("chaos: remote federation needs >= 2 shards, got %d", config.Shards)
	}
	if config.Dir == "" {
		return nil, errors.New("chaos: RemoteFederationConfig.Dir is required")
	}
	group := config.GroupCommit
	if group <= 0 {
		group = 1
	}
	rebalance := config.RebalanceEvery
	if rebalance <= 0 {
		rebalance = 45
	}
	caps, err := federation.PartitionCapacity(cfg.Capacity, config.Shards)
	if err != nil {
		return nil, err
	}
	minCap := caps[len(caps)-1]
	planCfg := cfg
	planCfg.Capacity = minCap
	p := buildPlan(planCfg)

	vc := engine.NewVirtualClock()
	newPolicy := func() sim.Policy {
		pol := cfg.Policy()
		if cfg.Faults&(FaultPolicyPanic|FaultPolicyLatency) != 0 {
			fp := &FlakyPolicy{Inner: pol}
			if cfg.Faults&FaultPolicyPanic != 0 {
				fp.PanicEvery = cfg.PanicEvery
			}
			if cfg.Faults&FaultPolicyLatency != 0 {
				fp.Latency = cfg.Latency
				fp.LatencyEvery = 3
			}
			return fp
		}
		return pol
	}

	procs := make([]*shardProc, config.Shards)
	fts := make([]*faultTransport, config.Shards)
	shards := make([]engine.Shard, config.Shards)
	defer func() {
		for _, sp := range procs {
			if sp != nil {
				sp.stop()
			}
		}
	}()
	for i := range procs {
		capI := caps[i]
		sp := &shardProc{
			path:  filepath.Join(config.Dir, fmt.Sprintf("shard-%d.journal", i)),
			group: group,
			addr:  "127.0.0.1:0",
			mkCfg: func() engine.Config {
				return engine.Config{Capacity: capI, Policy: newPolicy(), Clock: vc}
			},
		}
		if err := sp.start(false); err != nil {
			return nil, err
		}
		procs[i] = sp
		fts[i] = &faultTransport{inner: http.DefaultTransport}
		shards[i] = federation.NewRemoteShard("http://"+sp.addr, federation.RemoteShardOptions{
			Timeout:   30 * time.Second,
			Retries:   1,
			Sleep:     func(time.Duration) {},
			Transport: fts[i],
		})
	}

	router, err := federation.NewWithShards(federation.Config{
		Clock:          vc,
		Placement:      config.Placement,
		RebalanceEvery: rebalance,
	}, shards)
	if err != nil {
		return nil, err
	}

	h := &harness{}
	uncertain := make(map[int]bool) // legit submissions with unknown wire outcome
	wireFailed := 0
	for _, ps := range p.submits {
		ps := ps
		vc.AfterFunc(ps.at, func() {
			err := router.SubmitJob(ps.spec)
			h.mu.Lock()
			defer h.mu.Unlock()
			switch {
			case ps.wantErr && err == nil:
				if uncertain[ps.spec.ID] {
					// The original submission of this ID was wire-lost and
					// reconciled as never-admitted, so this "duplicate"
					// played the client's retry and won the slot.
					delete(uncertain, ps.spec.ID)
					h.accepted++
					return
				}
				h.fail(fmt.Errorf("chaos: injected-fault submission of job %d was accepted", ps.spec.ID))
			case ps.wantErr:
				h.rejected++
			case err == nil:
				h.accepted++
			case errors.Is(err, federation.ErrUncertain) || errors.Is(err, federation.ErrUnreachable):
				// The wire failed the submitter; the job may or may not
				// have landed. The client contract is "retry"; the
				// invariant checked below is that the job is either
				// definitively absent or admitted exactly once.
				uncertain[ps.spec.ID] = true
				wireFailed++
			default:
				h.fail(fmt.Errorf("chaos: legitimate job %d rejected: %w", ps.spec.ID, err))
			}
		})
	}

	restartedShard := -1
	if cfg.Faults&FaultCrashRebuild != 0 {
		rngC := stats.NewRNG(cfg.Seed, 104)
		victim := rngC.IntN(config.Shards)
		downFor := job.Duration(300 + rngC.IntN(900))
		vc.AfterFunc(p.crashAt, func() {
			procs[victim].kill()
		})
		vc.AfterFunc(p.crashAt+job.Time(downFor), func() {
			if err := procs[victim].start(true); err != nil {
				h.mu.Lock()
				h.fail(fmt.Errorf("chaos: restart shard %d at t=%d: %w",
					victim, p.crashAt+job.Time(downFor), err))
				h.mu.Unlock()
				return
			}
			restartedShard = victim
			h.mu.Lock()
			h.rebuilt = true
			h.mu.Unlock()
		})
	}

	partShard := -1
	if cfg.Faults&FaultPartition != 0 {
		rngP := stats.NewRNG(cfg.Seed, 105)
		partShard = rngP.IntN(config.Shards)
		span := job.Time(1)
		for _, ps := range p.submits {
			if ps.at > span {
				span = ps.at
			}
		}
		ft := fts[partShard]
		// Whole-window outages: every request to the victim fails for a
		// while; health probes catch it and routing degrades around it.
		modes := []int{ftRefuse, ftBlackhole, ftDrop}
		for w := 0; w < 3; w++ {
			at := job.Time(rngP.IntN(int(span)))
			dur := job.Duration(60 + rngP.IntN(540))
			mode := modes[rngP.IntN(len(modes))]
			vc.AfterFunc(at, func() { ft.set(mode) })
			vc.AfterFunc(at+job.Time(dur), func() { ft.set(ftClear) })
		}
		// Mid-operation strikes: reads stay live (the victim looks
		// healthy, so placement and migration still pick it) and the
		// next K mutations fail — refused before delivery (submissions
		// must reroute) or delivered with the ack lost (retries must hit
		// idempotency tombstones, withdraw/admit legs must park and
		// reconcile instead of duplicating or dropping the job).
		for s := 0; s < 6; s++ {
			at := job.Time(rngP.IntN(int(span)))
			k := 2 + rngP.IntN(3)
			if rngP.IntN(2) == 0 {
				vc.AfterFunc(at, func() { ft.refusePosts += k })
			} else {
				vc.AfterFunc(at, func() { ft.dropPosts += k })
			}
		}
	}

	if cfg.Faults&FaultClockJumps != 0 {
		driveJumps(vc, stats.NewRNG(cfg.Seed, 103))
	} else {
		vc.Run()
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failure != nil {
		return nil, h.failure
	}
	if err := router.Err(); err != nil {
		return nil, err
	}
	res := &RemoteFederationResult{
		FederationResult: FederationResult{
			Records:      router.Records(),
			Rejected:     h.rejected,
			RebuiltShard: restartedShard,
			Federation:   router.Federation(),
		},
		Uncertain:        wireFailed,
		PartitionedShard: partShard,
		Reroutes:         0,
		Pending:          router.PendingReconciliations(),
	}
	res.Reroutes = res.Federation.Reroutes

	// Conservation: every legitimate job is either done, or its submit
	// call reported a wire failure (the client was told to retry) and
	// the job is certainly admitted nowhere.
	for id := 1; id <= cfg.Jobs; id++ {
		st, ok := router.Job(id)
		if !ok {
			if uncertain[id] {
				continue
			}
			return nil, fmt.Errorf("chaos: job %d lost (accepted %d, wire-failed %d)",
				id, h.accepted, wireFailed)
		}
		if st.State != engine.StateDone {
			return nil, fmt.Errorf("chaos: job %d still %v after the run", id, st.State)
		}
		res.Accepted = append(res.Accepted, st.Job)
	}

	// No double admission: a job ID may complete on at most one shard
	// (migration withdraws before re-admitting; retries are answered by
	// tombstones, never by a second copy).
	shardRecs := make([][]sim.Record, router.NumShards())
	owner := make(map[int]int)
	for i := range shardRecs {
		shardRecs[i] = router.ShardRecords(i)
		for _, rec := range shardRecs[i] {
			if prev, dup := owner[rec.Job.ID]; dup {
				return nil, fmt.Errorf("chaos: job %d double-admitted: completed on shards %d and %d",
					rec.Job.ID, prev, i)
			}
			owner[rec.Job.ID] = i
		}
	}
	for i, sh := range router.ShardHealth() {
		if !sh.Healthy {
			return nil, fmt.Errorf("chaos: shard %d still unhealthy after the run: %s", i, sh.Err)
		}
	}
	if err := oracle.CheckFederation(cfg.Capacity, router.ShardCapacities(), res.Accepted, shardRecs); err != nil {
		return nil, err
	}
	return res, nil
}
