package chaos

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// RemoteFederationConfig describes a chaos scenario against an
// out-of-process-style federation: every shard is a full
// engine+HTTP-server "process" with its own journal file, fronted by
// federation.RemoteShard clients, and the router drives them over an
// in-memory wire (every request crosses as JSON through the shard's own
// server.Server handler; nothing listens on a socket, so a scenario
// replays from its seed). On top of the embedded Config's fault classes,
// FaultCrashRebuild becomes a whole-process shard kill (handler gone,
// journal handle closed) followed by a journal-rebuild restart, and
// FaultPartition injects wire faults between the router and one shard:
// connection-refused windows (certain, rerouted), black-hole timeouts
// and dropped responses (uncertain, parked and reconciled on rebalance
// ticks). Reconciliation rides the router's one periodic pass, so a
// RebalanceEvery of 0 means 45 engine seconds here, not off.
type RemoteFederationConfig struct {
	FederationConfig
	// Dir is the scratch directory for the per-shard journal files
	// (required — the injected crash restarts the victim from its
	// journal). Every shard journal fsyncs each append.
	Dir string
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
	// Parked and Reconciled count, per stage ("submit", "withdraw",
	// "admit": a routed submission, a migration's withdraw, its admit),
	// the steps the router parked with their wire outcome unknown and the
	// steps its rebalance tick resolved — read off the router's own log
	// records, so a soak can tell which of the three reconcile stages its
	// faults reached.
	Parked, Reconciled map[string]int
}

// stageLog is the router's log handler in a remote scenario: it counts
// the "parked" and "reconciled" records by the stage each one names and
// drops the rest.
type stageLog struct{ parked, reconciled map[string]int }

func (l stageLog) Enabled(context.Context, slog.Level) bool { return true }
func (l stageLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l stageLog) WithGroup(string) slog.Handler            { return l }

func (l stageLog) Handle(_ context.Context, rec slog.Record) error {
	var n map[string]int
	switch rec.Message {
	case "parked wire-uncertain step":
		n = l.parked
	case "reconciled parked step":
		n = l.reconciled
	}
	rec.Attrs(func(a slog.Attr) bool {
		if n != nil && a.Key == "stage" {
			n[a.Value.String()]++
		}
		return true
	})
	return nil
}

// Wire-fault actions: what a matching row of a wire's fault table does
// to a request.
const (
	// ftRefuse answers with a dial error before anything is sent: the
	// request certainly never happened, the router may reroute.
	ftRefuse = iota
	// ftBlackhole loses the request without delivering it, but the
	// client cannot know that — a non-dial transport failure, so the
	// outcome is uncertain from the caller's side.
	ftBlackhole
	// ftDrop delivers the request to the shard and loses the response:
	// the mutation happened, the acknowledgment did not — the
	// idempotency machinery's worst case.
	ftDrop
)

// wireFault is one row of a wire's fault table. It matches requests by
// method and path prefix (empty matches any) while armed: open is a
// whole-window fault — the shard looks dark, the router's health probes
// see it at once and degraded routing steers around it — and left a
// strike on the next left matching requests. Strikes are how the wire
// fails mid-operation: reads stay live, so placement already picked the
// shard, or the migration already withdrew the job, and THEN the call
// fails. A strike's last hit arms row chain with then strikes: "lose
// this answer and the k lookups that would verify it", as data.
type wireFault struct {
	method, prefix string
	action         int
	open           bool
	left           int
	then, chain    int
}

// The rows of every wire's table, in match order (the first armed match
// decides). A new strike shape is a new row.
const (
	rowRefusePosts = iota // refused before delivery: submissions must reroute
	rowDropPosts          // delivered, ack lost: retries must hit idempotency tombstones, withdraws park
	rowWindow             // every request; the action is set per window
	rowLoseSubmit         // a job POST's answer, then its read-back: the router parks a submit
	rowLoseAdmit          // a migration admit's answer, then its read-back: the router parks an admit
	rowLoseLookups        // the read-back; armed only by the two rows above
)

func newFaultTable() []wireFault {
	return []wireFault{
		rowRefusePosts: {method: http.MethodPost, action: ftRefuse},
		rowDropPosts:   {method: http.MethodPost, action: ftDrop},
		rowWindow:      {},
		rowLoseSubmit:  {method: http.MethodPost, prefix: "/v1/jobs", action: ftDrop, chain: rowLoseLookups},
		rowLoseAdmit:   {method: http.MethodPost, prefix: "/v1/shard/admit", action: ftDrop, chain: rowLoseLookups},
		rowLoseLookups: {method: http.MethodGet, prefix: "/v1/jobs/", action: ftBlackhole},
	}
}

// shardProc is one emulated shard process: an engine journaling to its
// own file behind its server.Server handler, and the in-memory wire to
// it — the shard client's http.RoundTripper. Every request is one
// decision in the fault table, taken on the virtual-clock driver
// goroutine: no lock, no wall clock, no socket.
type shardProc struct {
	path  string // journal file
	mkCfg func() engine.Config

	fj      *engine.FileJournal
	handler http.Handler // nil while the process is down
	faults  []wireFault
}

// start boots the shard process or, with recover, plays the restart:
// recover the journal, rebuild the engine, serve again.
func (sp *shardProc) start(recover bool) error {
	var cp *engine.Checkpoint
	if st, err := os.Stat(sp.path); recover && err == nil && st.Size() > 0 {
		c, err := engine.RecoverCheckpoint(sp.path)
		if err != nil {
			return fmt.Errorf("chaos: recover %s: %w", sp.path, err)
		}
		cp = &c
	}
	fj, err := engine.OpenFileJournal(sp.path, 1)
	if err != nil {
		return err
	}
	cfg := sp.mkCfg()
	cfg.Journal = fj
	e, err := incarnate(cfg, cp)
	if err != nil {
		fj.Close()
		return fmt.Errorf("chaos: shard engine %s: %w", sp.path, err)
	}
	sp.fj, sp.handler = fj, server.New(e, nil)
	return nil
}

// kill emulates a whole-process crash, like a SIGKILL: in-flight state
// is lost, every dial is refused (no handler), and the journal handle
// closes so the abandoned engine incarnation fails fatally on its next
// committed event instead of scheduling on. Everything the journal had
// committed stays on disk for the restart.
func (sp *shardProc) kill() {
	if sp.fj != nil {
		sp.fj.Close()
	}
	sp.fj, sp.handler = nil, nil
}

// RoundTrip is the wire: one fault decision, then the shard's handler.
func (sp *shardProc) RoundTrip(req *http.Request) (*http.Response, error) {
	action := -1
	for i := range sp.faults {
		f := &sp.faults[i]
		if !f.open && f.left == 0 || f.method != "" && f.method != req.Method || !strings.HasPrefix(req.URL.Path, f.prefix) {
			continue
		}
		if action = f.action; f.left > 0 {
			if f.left--; f.left == 0 {
				sp.faults[f.chain].left += f.then
			}
		}
		break
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	// A black hole swallows the request before it could find the process
	// down, so the fault decides first: the caller stays uncertain.
	switch {
	case action == ftBlackhole:
		return nil, errors.New("chaos: injected black-hole timeout")
	case action == ftRefuse || sp.handler == nil:
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: errors.New("chaos: injected connection refused")}
	}
	rec := httptest.NewRecorder()
	sp.handler.ServeHTTP(rec, req)
	if action == ftDrop {
		return nil, errors.New("chaos: injected response loss after delivery")
	}
	return rec.Result(), nil
}

// remoteTarget is the router over shard processes.
type remoteTarget struct {
	routerTarget
	seed      uint64
	procs     []*shardProc
	partShard int // FaultPartition's shard, -1 when off
}

func (t *remoteTarget) open(err error) bool {
	return errors.Is(err, federation.ErrUncertain) || errors.Is(err, federation.ErrUnreachable)
}

func (t *remoteTarget) crash(rng *stats.RNG) (func(), func() error, job.Duration) {
	t.victim = rng.IntN(len(t.procs))
	sp := t.procs[t.victim]
	return sp.kill, func() error { return sp.start(true) }, job.Duration(300 + rng.IntN(900))
}

// partition arms FaultPartition's schedule against one seeded shard.
func (t *remoteTarget) partition(p plan, vc *engine.VirtualClock) {
	rngP := stats.NewRNG(t.seed, 105)
	t.partShard = rngP.IntN(len(t.procs))
	faults := t.procs[t.partShard].faults
	span := 1
	for _, ps := range p.submits {
		span = max(span, int(ps.at))
	}
	// Whole-window outages share one slot: a later window overrides an
	// open one, and the first close ends both.
	for w := 0; w < 3; w++ {
		at := job.Time(rngP.IntN(span))
		dur := job.Time(60 + rngP.IntN(540))
		action := []int{ftRefuse, ftBlackhole, ftDrop}[rngP.IntN(3)]
		vc.AfterFunc(at, func() { faults[rowWindow].action, faults[rowWindow].open = action, true })
		vc.AfterFunc(at+dur, func() { faults[rowWindow].open = false })
	}
	// Mid-operation strikes on the next k mutations.
	for s := 0; s < 6; s++ {
		at := job.Time(rngP.IntN(span))
		k := 2 + rngP.IntN(3)
		row := rowRefusePosts + rngP.IntN(2)
		vc.AfterFunc(at, func() { faults[row].left += k })
	}
	// The answer-and-lookups strikes draw from a substream of their own,
	// so the schedule above is what the seed always gave. RemoteShard
	// reads a lost answer back once per attempt; k covers every attempt.
	rngS := stats.NewRNG(t.seed, 106)
	for s := 0; s < 6; s++ {
		at := job.Time(rngS.IntN(span))
		row, k := rowLoseSubmit+s%2, 2+rngS.IntN(2)
		vc.AfterFunc(at, func() { faults[row].left, faults[row].then = 1, k })
	}
}

// err heals every wire first: the run is over, and the checks that
// follow read the shards, not the strikes still armed.
func (t *remoteTarget) err() error {
	for _, sp := range t.procs {
		clear(sp.faults)
	}
	return t.router.Err()
}

func (t *remoteTarget) verify(accepted []job.Job) error {
	for i, sh := range t.router.ShardHealth() {
		if !sh.Healthy {
			return fmt.Errorf("chaos: shard %d still unhealthy after the run: %s", i, sh.Err)
		}
	}
	return t.routerTarget.verify(accepted)
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
	if config.RebalanceEvery <= 0 {
		config.RebalanceEvery = 45
	}
	caps, err := federation.PartitionCapacity(cfg.Capacity, config.Shards)
	if err != nil {
		return nil, err
	}
	stages := stageLog{parked: map[string]int{}, reconciled: map[string]int{}}
	t := &remoteTarget{routerTarget: routerTarget{capacity: cfg.Capacity}, seed: cfg.Seed, partShard: -1}
	defer func() {
		for _, sp := range t.procs {
			sp.kill()
		}
	}()
	out, err := runScenario(cfg, caps[len(caps)-1], func(vc *engine.VirtualClock, newPolicy func() sim.Policy) (target, error) {
		shards := make([]engine.Shard, config.Shards)
		for i, capI := range caps {
			sp := &shardProc{
				path:   filepath.Join(config.Dir, fmt.Sprintf("shard-%d.journal", i)),
				faults: newFaultTable(),
				mkCfg: func() engine.Config {
					return engine.Config{Capacity: capI, Policy: newPolicy(), Clock: vc}
				},
			}
			if err := sp.start(false); err != nil {
				return nil, err
			}
			t.procs = append(t.procs, sp)
			shards[i] = federation.NewRemoteShard(fmt.Sprintf("http://shard-%d", i), federation.RemoteShardOptions{
				Timeout:   30 * time.Second,
				Retries:   1,
				Sleep:     func(time.Duration) {},
				Transport: sp,
			})
		}
		t.router, err = federation.NewWithShards(federation.Config{
			Clock:          vc,
			Placement:      config.Placement,
			RebalanceEvery: config.RebalanceEvery,
			Logger:         slog.New(stages),
		}, shards)
		return t, err
	}, t.partition)
	if err != nil {
		return nil, err
	}
	return &RemoteFederationResult{
		FederationResult: t.result(out),
		Uncertain:        out.excused,
		PartitionedShard: t.partShard,
		Parked:           stages.parked,
		Reconciled:       stages.reconciled,
	}, nil
}
