// Command schedd is the online scheduling daemon: it serves the
// paper's policies (backfill baselines and the search schedulers)
// against a live clock, with jobs submitted over an HTTP/JSON API.
//
// Serving mode (default):
//
//	schedd -policy DDS/lxf/dynB -L 1000 -addr :8080
//
// submits go to POST /v1/jobs (a JSON object, or a JSON array for a
// batched submit with per-item results), state is at GET /v1/jobs/{id},
// GET /v1/queue, GET /v1/machine and GET /v1/metrics, liveness and
// readiness at GET /v1/healthz and GET /v1/readyz, and
// POST /v1/drain stops admission, lets the machine empty, and shuts
// the daemon down. -speedup N runs the engine clock N× faster than
// wall time (useful for demos: hours of schedule in seconds).
// GET /v1/metrics also serves the Prometheus text exposition format to
// clients whose Accept header prefers text/plain.
//
// Durability and ingest (serving mode):
//
//	schedd -journal sched.journal -group-commit 64 -compact-every 4096
//
// -journal appends every committed scheduling event to a JSON-lines
// file, fsynced every -group-commit appends (1 = every commit);
// -compact-every N folds the file into a checkpoint snapshot once the
// tail exceeds N events, bounding recovery cost by live state rather
// than history. On start, a non-empty journal is recovered: the engine
// rebuilds its committed state and the clock resumes at the last
// journaled instant (any torn tail from the crash is truncated before
// appending resumes). With -shards > 1 each shard appends to
// <path>.shard-N (write-only durability; crash recovery from shard
// journals is not wired into start-up, so non-empty shard journals are
// rotated to <path>.shard-N.old on start rather than appended to).
//
// Submissions are admitted through a bounded async accept queue:
// -ingest-pending caps accepted-but-uncommitted items (a saturated
// queue answers 503 with Retry-After; 0 disables the queue and admits
// synchronously), -ingest-batch caps how many items the committer
// folds into one journal fsync, and -quota-rate/-quota-burst put a
// per-user token bucket in front of admission (429 per item when
// exhausted; rate 0 disables quotas).
//
// Federation mode:
//
//	schedd -shards 4 -policy DDS/lxf/dynB
//
// -shards N > 1 partitions the machine across N engine shards behind a
// routing front-end (internal/federation): each shard runs the full
// policy over its own node partition, and one placement rule routes
// every job — the tightest immediate fit among shards with room and an
// empty queue, else the least loaded shard (best-fit; the rule the
// benchmark's two schedule-quality ratios picked over least-loaded and
// hash-by-user). -rebalance T runs the router's one periodic pass
// every T engine seconds (default 600, the period the benchmark
// measures; 0 disables it in process): it polls every shard's load and
// migrates still-queued jobs from the most to the least loaded shard.
// GET /v1/federation reports the per-shard breakdown. Jobs wider than
// every shard's partition are rejected (serving) or skipped with a note
// (replay). Works in both serving and replay modes.
//
// Distributed federation (serving mode):
//
//	schedd -fanout 16 -capacity 512 -policy DDS/lxf/dynB -journal sched.journal
//	schedd -join http://10.0.0.1:8080,http://10.0.0.2:8080
//
// -fanout N spawns N schedd shard child processes on loopback ports —
// each owns its near-even slice of -capacity, runs the forwarded
// policy flags, and (with -journal) appends to its own
// <path>.shard-N journal — then serves as the federation front-end
// over them. A supervisor start always begins clean: every non-empty
// shard journal is rotated to <path>.shard-N.old before its child
// starts, because the front-end restarts job IDs and the clock. Only a
// shard daemon restarted by hand on its own journal (plain serving
// mode, -journal <path>.shard-N) recovers from it. -join instead
// fronts shard daemons that are already running (anywhere reachable),
// discovering their capacities over the wire. Either way the shards are driven
// through per-call timeouts with bounded retries; an unreachable
// shard's work is routed around it (GET /v1/readyz answers 503 with
// the per-shard breakdown while any shard is dark), certain-failure
// submissions are rerouted, and wire-uncertain migration steps are
// parked and reconciled on the rebalance tick instead of being retried
// blindly (so -rebalance 0 is rejected with -join/-fanout). A drain
// (POST /v1/drain or SIGINT/SIGTERM) propagates to every shard; fanout
// children exit with the supervisor.
//
// Replay mode:
//
//	schedd -virtual -month 7/03 -policy DDS/lxf/dynB
//	schedd -virtual -swf trace.swf.gz -policy LXF-backfill
//
// feeds a generated month or an SWF trace through the engine on a
// deterministic virtual clock (as fast as the hardware allows; -speedup
// has no effect in this mode) and prints the final metrics as JSON —
// the same schema GET /v1/metrics serves, with the same measurement
// window as the offline simulator, so the summary is directly
// comparable with `schedsim -json`.
//
// Observability:
//
//	schedd -policy DDS/lxf/dynB -trace-out trace.json -debug-addr 127.0.0.1:6060
//
// -trace-out enables cross-process tracing — every submission is
// assigned a trace context (or continues the one in an incoming
// X-Schedsearch-Trace header), carried through routing, shard wire
// calls and the decide that starts the job — and writes the collected
// spans on exit as Chrome trace-event JSON, loadable directly in
// Perfetto or chrome://tracing. -debug-addr serves net/http/pprof on a
// separate listener. -flight N keeps a ring of the last N scheduling
// decisions (policy, queue depth, search effort, incumbent-cost
// trajectory, commit summary) served at GET /v1/debug/decisions; the
// recorder is inert — it reads only state the search already produced,
// and never perturbs a schedule. Tracing and the flight recorder are
// both bit-identical-off-vs-on by construction (the engine
// differential tests pin this).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"schedsearch"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // the flag set already printed the usage
	}
	if err == nil {
		if cfg.replayMode() {
			err = replay(cfg)
		} else {
			err = serve(cfg)
		}
	}
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
}

// logger is the daemon's structured stderr logger; fanout children get
// their own (their stderr is forwarded line-by-line through the
// supervisor's, tagged with the shard index).
var logger = obs.NewLogger(os.Stderr, "schedd")

// config is the parsed and cross-checked command line.
type config struct {
	policy    string
	nodeLimit int
	workers   int
	capacity  int
	addr      string
	requested bool
	speedup   float64
	virtual   bool
	swf       string
	month     string
	seed      uint64
	scale     float64
	load      float64

	fed fedOptions
	dur durOptions
	ing ingOptions
	obs obsOptions
}

// replayMode reports whether the run replays a workload on the virtual
// clock instead of serving.
func (c config) replayMode() bool { return c.virtual || c.swf != "" }

// parseConfig parses the command line and rejects flag combinations no
// mode can honour, so every such mistake is an error here instead of an
// exit deep in start-up.
func parseConfig(args []string) (config, error) {
	var c config
	var join string
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.StringVar(&c.policy, "policy", "DDS/lxf/dynB", "scheduling policy name (see ParsePolicy)")
	fs.IntVar(&c.nodeLimit, "L", 1000, "search node limit per decision")
	fs.IntVar(&c.workers, "workers", 1, "parallel search workers for search policies (0 or 1 sequential, -1 one per CPU)")
	fs.IntVar(&c.capacity, "capacity", workload.Capacity, "machine size in nodes")
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address (serving mode)")
	fs.BoolVar(&c.requested, "requested", false, "policies plan with requested runtimes (R* = R)")
	fs.Float64Var(&c.speedup, "speedup", 1, "engine seconds per wall second")
	fs.BoolVar(&c.virtual, "virtual", false, "replay a workload on a virtual clock instead of serving")
	fs.StringVar(&c.swf, "swf", "", "replay this SWF trace file (plain or .gz)")
	fs.StringVar(&c.month, "month", "7/03", "generated month to replay (6/03 .. 3/04)")
	fs.Uint64Var(&c.seed, "seed", 1, "workload generation seed")
	fs.Float64Var(&c.scale, "scale", 1, "job-count/duration scale factor for generated months")
	fs.Float64Var(&c.load, "load", 0, "target offered load for generated months (0 = original)")
	fs.IntVar(&c.fed.shards, "shards", 1, "engine shards; >1 federates the machine behind a routing front-end")
	fs.Int64Var(&c.fed.rebalance, "rebalance", 600, "federation rebalance period in engine seconds (0 = off, in-process only); remote federations also reconcile parked wire-uncertain steps and re-probe dark shards on this tick")
	fs.StringVar(&join, "join", "", "serve as a federation front-end over these already-running out-of-process shard daemons (comma-separated base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
	fs.IntVar(&c.fed.fanout, "fanout", 0, "spawn N schedd shard child processes on loopback ports and front them (serving mode; each child owns its slice of -capacity and, with -journal, its own <path>.shard-N journal)")

	fs.StringVar(&c.dur.path, "journal", "", "append committed events to this journal file and recover from it on start (serving mode; federation appends to <path>.shard-N)")
	fs.IntVar(&c.dur.group, "group-commit", 64, "journal appends per fsync (1 = fsync every commit)")
	fs.IntVar(&c.dur.compactEvery, "compact-every", 4096, "fold the journal into a checkpoint once the tail exceeds N events (0 = never compact)")
	fs.IntVar(&c.ing.pending, "ingest-pending", 4096, "accept-queue bound on accepted-but-uncommitted submissions; saturated submits get 503 + Retry-After (0 = admit synchronously, no queue)")
	fs.IntVar(&c.ing.batch, "ingest-batch", 64, "max submissions the ingest committer folds into one commit group (= one journal fsync)")
	fs.Float64Var(&c.ing.quotaRate, "quota-rate", 0, "per-user admission tokens per engine second (0 = no quotas)")
	fs.Float64Var(&c.ing.quotaBurst, "quota-burst", 32, "per-user token bucket size")

	fs.StringVar(&c.obs.traceOut, "trace-out", "", "enable cross-process tracing and write the spans as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
	fs.StringVar(&c.obs.debugAddr, "debug-addr", "", "serve net/http/pprof on this extra listen address (empty = off)")
	fs.IntVar(&c.obs.flight, "flight", 256, "decision flight-recorder ring size, served at GET /v1/debug/decisions (0 = off)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}

	if _, err := schedsearch.ParsePolicy(c.policy, c.nodeLimit); err != nil {
		return config{}, err
	}
	for _, u := range strings.Split(join, ",") {
		if u = strings.TrimSpace(u); u != "" {
			c.fed.join = append(c.fed.join, u)
		}
	}
	if c.replayMode() {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "addr", "journal", "ingest-pending", "ingest-batch", "quota-rate", "quota-burst":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return config{}, fmt.Errorf("%s: serving-mode only (a replay has no listener, journal, accept queue or quotas)",
				strings.Join(stray, ", "))
		}
		if c.swf == "" && c.capacity < workload.Capacity {
			return config{}, fmt.Errorf("-capacity %d: a generated month's jobs are drawn for %d nodes; replay it on at least that many",
				c.capacity, workload.Capacity)
		}
	}
	if c.fed.fanout == 1 || c.fed.fanout < 0 {
		return config{}, fmt.Errorf("-fanout %d: want at least 2 shard processes", c.fed.fanout)
	}
	if c.fed.remote() {
		switch {
		case len(c.fed.join) > 0 && c.fed.fanout > 0:
			return config{}, errors.New("-join and -fanout are mutually exclusive")
		case c.fed.shards > 1:
			return config{}, errors.New("-shards federates in process; drop it when using -join or -fanout")
		case c.replayMode():
			return config{}, errors.New("-join/-fanout are serving-mode only (replay has no remote shards)")
		case c.fed.rebalance <= 0:
			return config{}, fmt.Errorf("-rebalance %d: -join/-fanout need the periodic pass (it reconciles wire-uncertain steps and re-probes dark shards)", c.fed.rebalance)
		}
		// Children re-run this binary with the policy flags and the
		// compaction bound forwarded (the bound folds a journal-less
		// child's in-memory tail too); they admit synchronously (no
		// accept queue) — batching belongs to the front-end, and
		// migration steps bypass ingest anyway.
		c.fed.childArgs = []string{
			"-policy", c.policy,
			"-L", strconv.Itoa(c.nodeLimit),
			"-workers", strconv.Itoa(c.workers),
			fmt.Sprintf("-requested=%v", c.requested),
			"-speedup", strconv.FormatFloat(c.speedup, 'g', -1, 64),
			"-compact-every", strconv.Itoa(c.dur.compactEvery),
			"-ingest-pending", "0",
		}
	}
	return c, nil
}

// newPolicy builds one policy instance from the validated flags: every
// shard (and every post-crash rebuild) gets its own.
func (c config) newPolicy(int) sim.Policy {
	pol, err := schedsearch.ParsePolicy(c.policy, c.nodeLimit)
	if err != nil {
		panic(err) // parseConfig validated it
	}
	schedsearch.ApplySearchOptions(pol, c.workers)
	return pol
}

// obsOptions carry the observability flags. A non-empty traceOut turns
// tracing on; flight <= 0 turns the decision flight recorder off.
type obsOptions struct {
	traceOut  string
	debugAddr string
	flight    int
}

// tracer builds the run's tracer, or nil when tracing is off.
func (o obsOptions) tracer(now func() time.Time) *obs.Tracer {
	if o.traceOut == "" {
		return nil
	}
	return obs.NewTracer(obs.TracerOptions{Now: now})
}

// recorder builds the run's flight recorder, or nil when off.
func (o obsOptions) recorder() *obs.FlightRecorder {
	if o.flight <= 0 {
		return nil
	}
	return obs.NewFlightRecorder(o.flight)
}

// writeTraceOut exports the collected spans as Chrome trace-event JSON;
// a no-op unless -trace-out was given.
func (o obsOptions) writeTraceOut(tr *obs.Tracer) error {
	if o.traceOut == "" {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("wrote trace", "path", o.traceOut, "spans", len(tr.Spans()), "dropped", tr.Dropped())
	return nil
}

// serveDebug mounts net/http/pprof on its own listener, so profiling
// never shares a port (or a mux) with the scheduling API.
func (o obsOptions) serveDebug() (io.Closer, error) {
	if o.debugAddr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	logger.Info("pprof debug server listening", "addr", ln.Addr().String())
	return ln, nil
}

// durOptions carry the journal flags; an empty path disables the
// journal.
type durOptions struct {
	path         string
	group        int
	compactEvery int
}

// ingOptions carry the accept-queue flags; pending <= 0 admits
// synchronously without a queue.
type ingOptions struct {
	pending    int
	batch      int
	quotaRate  float64
	quotaBurst float64
}

// fedOptions carry the federation flags; shards <= 1 with neither join
// URLs nor a fanout count means a bare engine.
type fedOptions struct {
	shards    int
	rebalance job.Duration
	// join lists out-of-process shard base URLs to front; fanout spawns
	// that many shard child processes instead. Either makes the stack a
	// remote federation (RemoteShard clients behind the router).
	join      []string
	fanout    int
	childArgs []string // pass-through flags for fanout children
}

// remote reports whether the federation is out of process.
func (f fedOptions) remote() bool { return len(f.join) > 0 || f.fanout > 0 }

// federated reports whether a router fronts the machine at all.
func (f fedOptions) federated() bool { return f.shards > 1 || f.remote() }

// serve runs the daemon: a real-clock engine (or federation) behind the
// HTTP API. POST /v1/drain (or SIGINT/SIGTERM) triggers a graceful
// shutdown once the machine has emptied.
func serve(c config) error {
	// A non-empty single-engine journal is recovered before the clock
	// starts: the rebuilt engine resumes at the last journaled instant,
	// so re-armed completion timers fire in the future, never the past.
	var recovered *engine.Checkpoint
	start := job.Time(0)
	if c.dur.path != "" && !c.fed.federated() {
		if st, err := os.Stat(c.dur.path); err == nil && st.Size() > 0 {
			// RecoverCheckpoint truncates any torn tail, so the O_APPEND
			// handle opened by the stack starts on a clean line boundary.
			cp, err := engine.RecoverCheckpoint(c.dur.path)
			if err != nil {
				return err
			}
			recovered = &cp
			start = cp.LastInstant()
		}
	}
	tr := c.obs.tracer(nil)
	st, err := buildBackend(c, engine.NewRealClockAt(start, c.speedup),
		sim.Input{Capacity: c.capacity, UseRequested: c.requested}, tr, recovered)
	// Fanout children normally exit on their own after the drain the
	// router forwards to them; this reap catches error paths (and is a
	// no-op once the clean path below has waited for them).
	defer st.killChildren()
	if err != nil {
		return err
	}
	bk := st.bk

	// The accept queue sits between the HTTP layer and the backend:
	// batched submits commit through it in arrival order, one journal
	// fsync per committer group.
	var q *ingest.Queue
	var opts []server.Option
	if c.ing.pending > 0 {
		qcfg := ingest.Config{
			Backend:    bk,
			MaxPending: c.ing.pending,
			MaxBatch:   c.ing.batch,
		}
		if c.ing.quotaRate > 0 {
			qcfg.Quotas = ingest.NewQuotas(c.ing.quotaRate, c.ing.quotaBurst, bk.Now)
		}
		if q, err = ingest.NewQueue(qcfg); err != nil {
			return err
		}
		opts = append(opts, server.WithIngest(q))
	}
	if st.flight != nil && !c.fed.remote() {
		// A remote front-end has no in-process engines to record; each
		// shard daemon serves its own /v1/debug/decisions.
		opts = append(opts, server.WithFlight(st.flight))
	}
	if tr != nil {
		opts = append(opts, server.WithTracer(tr, st.frontShard()))
	}
	dbg, err := c.obs.serveDebug()
	if err != nil {
		return err
	}
	if dbg != nil {
		defer dbg.Close()
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{}
	shutdownDone := make(chan struct{})
	srv := server.New(bk, func() {
		// Drained: stop accepting connections and let serve return.
		_ = httpSrv.Shutdown(context.Background())
		close(shutdownDone)
	}, opts...)
	httpSrv.Handler = srv

	// SIGINT/SIGTERM run the same drain POST /v1/drain does.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		srv.BeginDrain()
	}()

	// The test harness and shell scripts parse this line for the port.
	if st.router != nil {
		kind := ""
		if c.fed.remote() {
			kind = " remote"
		}
		fm := st.router.Federation()
		fmt.Printf("schedd: policy %s on %d nodes (%d%s shards, %s placement), listening on %s\n",
			fm.Global.Policy, fm.Global.Capacity, fm.Shards, kind, fm.Placement, ln.Addr())
	} else {
		fmt.Printf("schedd: policy %s on %d nodes, listening on %s\n",
			bk.Metrics().Policy, c.capacity, ln.Addr())
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	// Serve returns as Shutdown begins; replies still being written — the
	// drain's own 202 on an idle machine — finish before Shutdown ends.
	<-shutdownDone
	if q != nil {
		q.Close()
	}
	for _, fj := range st.journals {
		if err := fj.Close(); err != nil {
			return err
		}
	}
	if err := bk.Err(); err != nil {
		return err
	}
	st.waitChildren()
	return st.report(c, tr)
}

// replay feeds a workload through the engine (or federation) on the
// deterministic virtual clock (as fast as the hardware allows) and
// prints the final metrics. Each job is delivered by a clock timer at
// its submit time, exactly like the engine's differential tests.
func replay(c config) error {
	input, _, err := schedsearch.LoadInput(c.swf, c.capacity,
		workload.Config{Seed: c.seed, JobScale: c.scale}, c.month,
		workload.SimOptions{TargetLoad: c.load, UseRequested: c.requested})
	if err != nil {
		return err
	}
	if c.swf == "" {
		// A generated month's jobs are drawn for workload.Capacity nodes
		// whatever machine replays them; -capacity is that machine.
		input.Capacity = c.capacity
	}
	vc := engine.NewVirtualClock()
	// Replay span timestamps come from the virtual clock, so the trace
	// timeline reads in engine time (span durations are still wall).
	tr := c.obs.tracer(func() time.Time { return time.Unix(int64(vc.Now()), 0) })
	st, err := buildBackend(c, vc, input, tr, nil)
	if err != nil {
		return err
	}
	bk := st.bk
	// The replay loop is the front door, so it mints the traces a live
	// run's HTTP submit handler would (the router then adds route spans;
	// the engine adds decide spans).
	frontShard := st.frontShard()

	var submitErr error
	var once sync.Once
	var skipped int
	for _, j := range input.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			// With tracing off (nil tracer) these mint, bind and record nothing.
			tc := tr.Mint()
			tr.Bind(j.ID, tc)
			t0 := tr.Now()
			err := bk.SubmitJob(j)
			if err == nil {
				tr.Record("submit", tc, j.ID, frontShard, t0, tr.Now().Sub(t0))
				return
			}
			if errors.Is(err, federation.ErrTooWide) {
				// A partitioned machine cannot hold the trace's widest
				// jobs; skip them rather than abort the replay.
				skipped++
				return
			}
			once.Do(func() { submitErr = err })
		})
	}
	vc.Run()
	if skipped > 0 {
		logger.Warn("skipped jobs wider than every shard partition", "count", skipped)
	}
	if submitErr != nil {
		return submitErr
	}
	if err := bk.Err(); err != nil {
		return err
	}
	return st.report(c, tr)
}

// report ends a run: the trace file, then the final whole-machine
// metrics on stdout (a federated run appends the per-shard federation
// report).
func (st *stack) report(c config, tr *obs.Tracer) error {
	if err := c.obs.writeTraceOut(tr); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st.bk.Metrics()); err != nil {
		return err
	}
	if st.router != nil {
		return enc.Encode(st.router.Federation())
	}
	return nil
}
