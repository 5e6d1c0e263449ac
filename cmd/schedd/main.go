// Command schedd is the online scheduling daemon: it serves the
// paper's policies (backfill baselines and the search schedulers)
// against a live clock, with jobs submitted over an HTTP/JSON API.
// Replaying a month or a trace through the same engine and router on a
// virtual clock is schedsim's job.
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
// Durability and ingest:
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
// appending resumes).
//
// Submissions are admitted through a bounded async accept queue:
// -ingest-pending caps accepted-but-uncommitted items (a saturated
// queue answers 503 with Retry-After; 0 disables the queue and admits
// synchronously), -ingest-batch caps how many items the committer
// folds into one journal fsync, and -quota-rate/-quota-burst put a
// per-user token bucket in front of admission (429 per item when
// exhausted; rate 0 disables quotas).
//
// Distributed federation:
//
//	schedd -addr :8081 -capacity 128 -journal a.journal   # one per shard
//	schedd -join http://10.0.0.1:8081,http://10.0.0.2:8081 -addr :8080
//
// -join fronts shard daemons that are already running (anywhere
// reachable): each is a plain schedd with its own capacity, policy and
// journal, from which it recovers on restart, and the front discovers
// their capacities, and the first job ID none of them has taken, over
// the wire. The front therefore refuses the flags it would ignore
// (-policy, -L, -workers, -requested, -capacity, -journal,
// -group-commit, -compact-every). One placement rule routes every
// job: the tightest immediate fit among shards with room and an empty
// queue, else the least loaded shard (best-fit; the rule the
// benchmark's two schedule-quality ratios picked over least-loaded and
// hash-by-user). -rebalance T runs the router's one periodic pass
// every T engine seconds (default 600, the period the benchmark
// measures): it reads every shard's load and migrates still-queued
// jobs from the most to the least loaded shard. GET /v1/federation
// reports the per-shard breakdown. Jobs wider than every shard are
// rejected. One process federating its machine in memory is
// schedsim -shards N, a replay.
//
// The shards are driven through per-call timeouts with bounded
// retries; an unreachable shard's work is routed around it
// (GET /v1/readyz answers 503 with the per-shard breakdown while any
// shard is dark), certain-failure submissions are rerouted, and
// wire-uncertain migration steps are parked and reconciled on the
// rebalance tick instead of being retried blindly (so -rebalance 0 is
// rejected with -join). A drain (POST /v1/drain or SIGINT/SIGTERM on
// the front) propagates to every shard, and each shard daemon exits
// once its machine has emptied.
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
// separate listener. Tracing is bit-identical-off-vs-on by construction
// (the engine differential tests pin this). Decisions are explained
// from the journal: `schedsim -audit JOURNAL` re-decides every
// decision it records and prints each one (policy, queue depth, search
// effort, incumbent-cost trajectory, starts); a daemon without
// -journal keeps no decision history.
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
	"strings"
	"syscall"

	"schedsearch"
	"schedsearch/internal/engine"
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
		err = serve(cfg)
	}
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
}

// logger is the daemon's structured stderr logger.
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

	fed fedOptions
	dur durOptions
	ing ingOptions
	obs obsOptions
}

// parseConfig parses the command line and rejects flag combinations the
// daemon cannot honour, so every such mistake is an error here instead of an
// exit deep in start-up.
func parseConfig(args []string) (config, error) {
	var c config
	var join string
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.StringVar(&c.policy, "policy", "DDS/lxf/dynB", "scheduling policy name (see ParsePolicy)")
	fs.IntVar(&c.nodeLimit, "L", 1000, "search node limit per decision")
	fs.IntVar(&c.workers, "workers", 1, "parallel search workers for search policies (0 or 1 sequential, -1 one per CPU)")
	fs.IntVar(&c.capacity, "capacity", workload.Capacity, "machine size in nodes")
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	fs.BoolVar(&c.requested, "requested", false, "policies plan with requested runtimes (R* = R)")
	fs.Float64Var(&c.speedup, "speedup", 1, "engine seconds per wall second")
	fs.Int64Var(&c.fed.rebalance, "rebalance", 600, "-join rebalance period in engine seconds; the front also reconciles parked wire-uncertain steps and re-probes dark shards on this tick")
	fs.StringVar(&join, "join", "", "serve as a federation front-end over these already-running out-of-process shard daemons (comma-separated base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")

	fs.StringVar(&c.dur.path, "journal", "", "append committed events to this journal file and recover from it on start")
	fs.IntVar(&c.dur.group, "group-commit", 64, "journal appends per fsync (1 = fsync every commit)")
	fs.IntVar(&c.dur.compactEvery, "compact-every", 4096, "fold the journal into a checkpoint once the tail exceeds N events (0 = never compact)")
	fs.IntVar(&c.ing.pending, "ingest-pending", 4096, "accept-queue bound on accepted-but-uncommitted submissions; saturated submits get 503 + Retry-After (0 = admit synchronously, no queue)")
	fs.IntVar(&c.ing.batch, "ingest-batch", 64, "max submissions the ingest committer folds into one commit group (= one journal fsync)")
	fs.Float64Var(&c.ing.quotaRate, "quota-rate", 0, "per-user admission tokens per engine second (0 = no quotas)")
	fs.Float64Var(&c.ing.quotaBurst, "quota-burst", 32, "per-user token bucket size")

	fs.StringVar(&c.obs.traceOut, "trace-out", "", "enable cross-process tracing and write the spans as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
	fs.StringVar(&c.obs.debugAddr, "debug-addr", "", "serve net/http/pprof on this extra listen address (empty = off)")
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
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !c.fed.remote() {
		// A bare engine has no pass to time: only the default may stand.
		if set["rebalance"] {
			return config{}, errors.New("-rebalance: only with -join (a bare engine has no shards to rebalance)")
		}
		return c, nil
	}
	if c.fed.rebalance <= 0 {
		return config{}, fmt.Errorf("-rebalance %d: -join needs the periodic pass (it reconciles wire-uncertain steps and re-probes dark shards)", c.fed.rebalance)
	}
	// Each shard daemon owns its machine, policy and journal: a front
	// would silently ignore these.
	var stray []string
	for _, name := range []string{"L", "capacity", "compact-every", "group-commit", "journal", "policy", "requested", "workers"} {
		if set[name] {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) > 0 {
		return config{}, fmt.Errorf("%s: not with -join (each shard daemon sets its own)", strings.Join(stray, ", "))
	}
	return c, nil
}

// newPolicy builds the engine's policy from the validated flags.
func (c config) newPolicy() sim.Policy {
	pol, err := schedsearch.ParsePolicy(c.policy, c.nodeLimit)
	if err != nil {
		panic(err) // parseConfig validated it
	}
	schedsearch.ApplySearchOptions(pol, c.workers)
	return pol
}

// obsOptions carry the observability flags. A non-empty traceOut turns
// tracing on.
type obsOptions struct {
	traceOut  string
	debugAddr string
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

// fedOptions carry the federation flags; no join URLs means a bare
// engine.
type fedOptions struct {
	rebalance job.Duration
	// join lists out-of-process shard base URLs to front: RemoteShard
	// clients behind the router.
	join []string
}

// remote reports whether the daemon fronts shard daemons.
func (f fedOptions) remote() bool { return len(f.join) > 0 }

// serve runs the daemon: a real-clock engine (or -join front) behind the
// HTTP API. POST /v1/drain (or SIGINT/SIGTERM) triggers a graceful
// shutdown once the machine has emptied.
func serve(c config) error {
	// A non-empty journal is recovered before the clock
	// starts: the rebuilt engine resumes at the last journaled instant,
	// so re-armed completion timers fire in the future, never the past.
	var recovered *engine.Checkpoint
	start := job.Time(0)
	if c.dur.path != "" {
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
	var tr *obs.Tracer // nil: tracing off
	if c.obs.traceOut != "" {
		tr = obs.NewTracer(obs.TracerOptions{})
	}
	st, err := buildBackend(c, engine.NewRealClockAt(start, c.speedup), tr, recovered)
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
	if tr != nil {
		// A -join front's spans carry the router's lane (-1) in the
		// trace timeline, a bare engine's shard 0.
		lane := 0
		if st.router != nil {
			lane = -1
		}
		opts = append(opts, server.WithTracer(tr, lane))
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
		fm := st.router.Federation()
		fmt.Printf("schedd: policy %s on %d nodes (%d remote shards, %s placement), listening on %s\n",
			fm.Global.Policy, fm.Global.Capacity, fm.Shards, fm.Placement, ln.Addr())
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
	if st.journal != nil {
		if err := st.journal.Close(); err != nil {
			return err
		}
	}
	if err := bk.Err(); err != nil {
		return err
	}
	if c.obs.traceOut != "" {
		if err := tr.WriteTraceFile(c.obs.traceOut); err != nil {
			return err
		}
		logger.Info("wrote trace", "path", c.obs.traceOut, "spans", len(tr.Spans()), "dropped", tr.Dropped())
	}
	// The final whole-machine metrics go to stdout; a -join front
	// appends the per-shard federation report.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bk.Metrics()); err != nil || st.router == nil {
		return err
	}
	return enc.Encode(st.router.Federation())
}
