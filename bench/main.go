// Command bench is the repository's benchmark: five workloads from
// offline suite replay to a 4-shard remote federation, six end-to-end
// metrics reported on each, and every layer timed from outside the
// product (see README.md in this directory and /BENCHMARK.json).
//
// Usage, from the repository root:
//
//	bash bench/run.sh                                  # every workload, human-readable
//	bash bench/run.sh -workload serve_month -seed 2    # one workload
//	bash bench/run.sh -workload fed_remote -trace 1 -trace-out /path/trace.json
//	bash bench/run.sh -agree                           # the whole set twice, compared
//	bash bench/run.sh -spread 10                       # ten seeds per workload, spread table
//
// The last line on standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"schedsearch/internal/benchmeta"
)

// shape says what of a workload can run at the same time, and with it
// where its rounds are run.
type shape int

const (
	// parallel: goroutines that do run at the same time (submit_storm's
	// two clients). The process's GOMAXPROCS, no processor affinity.
	parallel shape = iota
	// oneGoroutine: the timed work is a single goroutine (paper_suite,
	// deep_decide). Its thread is confined to one processor per round.
	oneGoroutine
	// oneChain: one closed loop whose calls hop between goroutines, at
	// most one of them runnable at a time (serve_month, fed_remote).
	// GOMAXPROCS 1, and the whole process is confined to one processor
	// per round.
	oneChain
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name  string
	Why   string
	Run   func(ctx *runCtx) (*result, error)
	Shape shape
}

// run runs the workload the way its shape asks for and restores the
// process afterwards.
//
// Why GOMAXPROCS 1 for a chain: on two processors every hop wakes the
// other, sleeping, one, and on a shared host that wake-up takes anything
// from microseconds to a millisecond. With the program unchanged,
// serve_month's jobs_per_s moved between 3 750 and 8 670 with the host's
// load; on one processor the hops are goroutine switches and the same
// loop is both faster and steady.
//
// Why a processor per round: the host slows one virtual processor or the
// other by 1.3 to 1.5 times for seconds to minutes, independently (two
// pinned copies of one loop read 2.09 and 2.85 ms side by side). Rounds
// alternate between the processors the process may use, and every piece
// of work is taken at its fastest round, so it is taken from whichever
// processor was the quiet one.
func (w workloadDef) run(ctx *runCtx) (*result, error) {
	ctx.Shape = w.Shape
	if w.Shape == oneChain {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fmt.Fprintf(ctx.Log, "%s: runs at GOMAXPROCS 1\n", w.Name)
	}
	if w.Shape == oneGoroutine {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	return w.Run(ctx)
}

var workloads = []workloadDef{
	{Name: "paper_suite", Why: "researcher's path: ten suite months at load 0.9 through sim.Run under DDS/lxf/dynB L=1000; core, cluster and sim do all the work", Run: runPaperSuite, Shape: oneGoroutine},
	{Name: "deep_decide", Why: "one contended decision point at depth 32/64, DDS and LDS, L=20000: pure search node rate, no simulator, no per-decision set-up", Run: runDeepDecide, Shape: oneGoroutine},
	{Name: "serve_month", Why: "whole single-node path: one client POSTs each job over loopback HTTP through ingest, journal fsync and engine on the virtual clock", Run: runServeMonth, Shape: oneChain},
	{Name: "submit_storm", Why: "two clients post 32-job batches with quotas on and the clock stopped: server, ingest, admission and journal work, search does none", Run: runSubmitStorm},
	{Name: "fed_remote", Why: "ten months at load 0.9 of 512 nodes over four remote 128-node shards: federation, wire and shard servers carry most of the wall", Run: runFedRemote, Shape: oneChain},
}

// runCtx is what one workload run is given.
type runCtx struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// TraceOut, when set on a traced run, receives the spans as Chrome
	// trace-event JSON.
	TraceOut string
	// Shape is the running workload's; it decides where rounds run.
	Shape shape
	// TmpDir holds journals; it is inside the checkout.
	TmpDir string
	Size   sizing
	// Log takes progress notes (standard error), Out the per-layer table
	// of a traced run (standard output).
	Log io.Writer
	Out io.Writer
}

// sizing fixes how much work one round of each workload is. The
// defaults are sized for a ten-second timed section on two cores; the
// tests shrink them.
type sizing struct {
	// SuiteScale is workload.Config.JobScale for paper_suite, ServeScale
	// for serve_month, FedScale for fed_remote: job count and month
	// length shrink together, so load and queueing are preserved.
	SuiteScale float64
	ServeScale float64
	FedScale   float64
	// SuiteLimit is the node budget L of the month replays.
	SuiteLimit int
	// DeepLimit is deep_decide's node budget, DeepVariants the decision
	// points per configuration, DeepMinSamples the fewest timed calls
	// per configuration (a p90 needs a hundred). A call is kept to a few
	// milliseconds and a point repeated some seventy times: when the
	// host is busy for minutes a quiet window of eleven milliseconds
	// (L=50000) hardly ever comes, one of four does.
	DeepLimit      int
	DeepVariants   int
	DeepMinSamples int
	// StormJobs is the submissions of one storm round; DrainJobs the
	// burst the drain phase schedules to completion, DrainReps times.
	StormJobs int
	DrainJobs int
	DrainReps int
	// SetupReps is the fewest repetitions of set-up; it is repeated
	// further until SetupSeconds have gone by.
	SetupReps    int
	SetupSeconds float64
}

func defaultSizing() sizing {
	return sizing{
		SuiteScale:     0.2,
		ServeScale:     0.07,
		FedScale:       0.1,
		SuiteLimit:     1000,
		DeepLimit:      20000,
		DeepVariants:   16,
		DeepMinSamples: 100,
		StormJobs:      16000,
		DrainJobs:      1024,
		DrainReps:      8,
		SetupReps:      5,
		SetupSeconds:   0.5,
	}
}

// result is what one workload run reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string
	Values    map[string]float64
}

func newResult(name string) *result {
	return &result{Workload: name, Values: make(map[string]float64)}
}

// fail counts n failed operations and keeps the reason, with the
// workload and the month (or configuration) it happened on.
func (r *result) fail(n int, where, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf("%s %s: %s", r.Workload, where, fmt.Sprintf(format, args...)))
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// line renders the result as the contract's JSON object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) line(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricOut, len(defs))}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range defs {
		v := r.Values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return out
}

// traceFlag is -trace: it takes a value (0 or 1) because the harness
// passes "--trace 0", which a boolean flag would read as "-trace" plus
// a stray argument.
type traceFlag bool

func (t *traceFlag) String() string {
	if t != nil && *t {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*t = true
	case "0", "false":
		*t = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up happens.
func run() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: all five)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs (1 for development, 2 held out)")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed section measures")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		agree    = flag.Bool("agree", false, "run the full set twice and compare every end-to-end metric against its bound in BENCHMARK.json")
		spreadN  = flag.Int("spread", 0, "run each workload once per seed 1..N and print the median, quartiles and spread of every end-to-end metric")
		spec     = flag.String("write-spec", "", "write BENCHMARK.json content generated from the metric registry to this file and exit")
		tmp      = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for journals (inside the checkout)")
		trace    traceFlag
	)
	flag.Var(&trace, "trace", "1 repeats the workload with the decorators and the product's tracer attached and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			return fail(err)
		}
		return 0
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
		}
	}

	runDir, err := makeRunDir(*tmp)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	printHeader(os.Stderr, runDir)

	mk := func() *runCtx {
		return &runCtx{Seed: *seed, Seconds: *seconds, Trace: bool(trace), TraceOut: *traceOut, TmpDir: runDir, Size: defaultSizing(), Log: os.Stderr, Out: os.Stdout}
	}
	if *agree || *spreadN > 0 {
		var ok bool
		if *agree {
			ok, err = runAgree(mk, os.Stdout)
		} else {
			ok, err = runSpread(mk, selected, *spreadN, os.Stdout)
		}
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	code := 0
	for _, w := range selected {
		ctx := mk()
		res, err := w.run(ctx)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "FAILED:", p)
		}
		printResult(os.Stdout, res, ctx.Trace)
		if res.Failed > 0 {
			code = 1
		}
		b, err := json.Marshal(res.line(ctx.Trace))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(os.Stdout, string(b))
	}
	return code
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// makeRunDir creates this process's journal directory under base.
func makeRunDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// printHeader stamps every invocation with where the numbers come
// from, and warns when they should not be trusted.
func printHeader(w io.Writer, journalDir string) {
	m := benchmeta.Collect("bench")
	commit := m.Commit
	if commit == "" {
		commit = "unknown (not built inside a git checkout)"
	}
	fmt.Fprintf(w, "bench: commit %s dirty=%v %s %s/%s num_cpu=%d gomaxprocs=%d\n",
		commit, m.Dirty, m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS)
	fmt.Fprintf(w, "bench: journals in %s (filesystem %s): write and fsync calls are real\n", journalDir, fsName(journalDir))
	if m.Dirty {
		fmt.Fprintln(w, "bench: WARNING: built from a dirty tree; the commit above does not identify this code")
	}
	if m.GOMAXPROCS == 1 {
		fmt.Fprintln(w, "bench: WARNING: gomaxprocs is 1; submit_storm's two clients and core.par_speedup_d64 need a second CPU")
	}
}

// printResult writes the human-readable report of one workload: the
// end-to-end metrics, and on a traced run every per-layer metric the
// workload entered.
func printResult(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "== %s: ops attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	names := make([]string, 0, len(defs))
	units := make(map[string]string, len(defs))
	for _, m := range defs {
		if trace && r.Values[m.Name] == 0 {
			continue
		}
		names = append(names, m.Name)
		units[m.Name] = m.Unit
	}
	if trace {
		sort.Strings(names)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, r.Values[n], units[n])
	}
}
