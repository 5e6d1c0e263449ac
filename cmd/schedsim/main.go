// Command schedsim replays a workload — a generated month or an SWF
// trace — under one scheduling policy and prints the paper's headline
// measures over the measurement window.
//
// Usage:
//
//	schedsim -month 7/03 -policy DDS/lxf/dynB -L 1000 -load 0.9
//	schedsim -swf trace.swf.gz -policy LXF-backfill
//
// Policies: FCFS-backfill, LXF-backfill, SJF-backfill, LXFW-backfill,
// Selective-backfill, Relaxed-backfill, Slack-backfill, Lookahead,
// Conservative-backfill, Maui-backfill, MultiQueue-backfill, and search
// policies of the form ALGO/HEUR/BOUND with ALGO in {DDS, LDS, DFS},
// HEUR in {fcfs, lxf} and BOUND either "dynB" or a fixed bound like
// "100h".
//
// Each job is submitted at its arrival time, on a virtual clock, to the
// federation router a schedd -join front serves, here over -shards
// in-process engines (default 1, which schedules exactly as one engine
// of the whole machine); -rebalance sets
// its migration pass. Jobs wider than every shard are skipped, and the
// report shows the search effort shard by shard. -json
// prints schedd's GET /v1/metrics schema (then, for -shards > 1, its
// GET /v1/federation report); -trace-out writes every job's spans as
// Chrome trace-event JSON, in engine time.
//
// Audit:
//
//	schedsim -audit JOURNAL -policy DDS/lxf/dynB -L 1000 -capacity 128
//
// re-decides every decision a schedd journal records under the given
// policy (engine.Audit) and prints one JSON record per decision (queue
// depth, search effort, incumbent trajectory, starts). It exits 1 at
// the first decision whose starts differ from the journal's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/job"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// options are the replay's flags.
type options struct {
	swf, month, traceOut string
	capacity, shards     int
	rebalance            job.Duration
	gen                  workload.Config
	sim                  workload.SimOptions
	verbose, json        bool
}

func main() {
	var o options
	flag.StringVar(&o.month, "month", "6/03", "month label (6/03 .. 3/04)")
	policyArg := flag.String("policy", "DDS/lxf/dynB", "policy name")
	nodeLimit := flag.Int("L", 1000, "search node limit per decision")
	workers := flag.Int("workers", 1, "parallel search workers for search policies (0 or 1 sequential, -1 one per CPU)")
	flag.Float64Var(&o.sim.TargetLoad, "load", 0, "target offered load (0 = original)")
	flag.Uint64Var(&o.gen.Seed, "seed", 1, "workload generation seed")
	flag.Float64Var(&o.gen.JobScale, "scale", 1, "job-count/duration scale factor")
	flag.BoolVar(&o.sim.UseRequested, "requested", false, "schedulers use requested runtimes (R* = R)")
	flag.BoolVar(&o.verbose, "v", false, "print per-class wait grid")
	flag.StringVar(&o.swf, "swf", "", "replay this SWF trace file (plain or .gz) instead of a generated month")
	flag.IntVar(&o.capacity, "capacity", 0, "machine size in nodes (default: 128 for a generated month, and for -audit; for -swf the trace header's MaxNodes, else the widest job; a replay refuses a machine narrower than its jobs)")
	flag.IntVar(&o.shards, "shards", 1, "engines the machine is partitioned across behind the federation router")
	flag.Int64Var(&o.rebalance, "rebalance", 600, "federation rebalance period in engine seconds (0 = off)")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace every job and write the spans as Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.BoolVar(&o.json, "json", false, "emit the run summary as JSON on stdout (the schema schedd's /v1/metrics serves)")
	auditIn := flag.String("audit", "", "re-decide every decision this schedd journal records under -policy and print them as JSON; exit 1 at the first divergence")
	flag.Parse()

	var stray []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "month", "seed", "scale", "load":
			if o.swf != "" || *auditIn != "" {
				stray = append(stray, "-"+f.Name)
			}
		case "swf", "requested", "json", "v", "shards", "rebalance", "trace-out":
			if *auditIn != "" {
				stray = append(stray, "-"+f.Name)
			}
		}
	})
	if len(stray) > 0 {
		why := "generated months only (-swf replays the trace as recorded)"
		if *auditIn != "" {
			why = "not with -audit (the journal fixes the workload, its engine and its estimates)"
		}
		fmt.Fprintf(os.Stderr, "schedsim: %s: %s\n", strings.Join(stray, ", "), why)
		os.Exit(2)
	}

	// Every engine gets its own policy instance; pols keeps them for the
	// search report.
	var pols []sim.Policy
	newPolicy := func(int) sim.Policy {
		pol, _ := schedsearch.ParsePolicy(*policyArg, *nodeLimit) // validated below, before any call
		schedsearch.ApplySearchOptions(pol, *workers)
		pols = append(pols, pol)
		return pol
	}
	_, err := schedsearch.ParsePolicy(*policyArg, *nodeLimit)
	if err == nil {
		if *auditIn != "" {
			err = audit(*auditIn, o.capacity, newPolicy(0))
		} else {
			err = run(o, newPolicy, &pols)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		os.Exit(1)
	}
}

// audit re-decides the journal at path under pol on a machine of
// capacity nodes (0 means the generated months' 128) and prints every
// decision as one JSON document. It reads the journal without
// truncating a torn tail.
func audit(path string, capacity int, pol sim.Policy) error {
	cp, err := engine.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if capacity == 0 {
		capacity = workload.Capacity
	}
	decisions := []obs.DecisionRecord{}
	if err := engine.Audit(engine.Config{Capacity: capacity, Policy: pol}, cp, func(rec *obs.DecisionRecord) {
		decisions = append(decisions, *rec)
	}); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total     int                  `json:"total"`
		Decisions []obs.DecisionRecord `json:"decisions"`
	}{Total: len(decisions), Decisions: decisions})
}

// run loads the trace or generated month, replays it and reports; pols
// holds the policy instances newPolicy built, one per shard.
func run(o options, newPolicy func(int) sim.Policy, pols *[]sim.Policy) error {
	in, m, err := schedsearch.LoadInput(o.swf, o.capacity, o.gen, o.month, o.sim)
	if err != nil {
		return err
	}
	fed, tr, err := replay(in, o, newPolicy)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := tr.WriteTraceFile(o.traceOut); err != nil {
			return err
		}
	}
	res := &sim.Result{Records: fed.Records()}
	if err := metrics.CheckConservation(res); err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fed.Metrics()); err != nil || fed.NumShards() == 1 {
			return err
		}
		return enc.Encode(fed.Federation())
	}
	fm := fed.Metrics()
	if m == nil {
		fmt.Printf("trace %s: %d jobs on %d nodes\n", o.swf, fm.Summary.Jobs, in.Capacity)
	} else {
		fmt.Printf("month %s: %d jobs, offered load %.2f (spec %.2f)\n",
			m.Spec.Label, fm.Summary.Jobs, effectiveLoad(m, o.sim.TargetLoad), m.Spec.Load)
	}
	printSummary(fm, *pols)
	if o.verbose {
		printGrid(metrics.ComputeClassGrid(res))
	}
	return nil
}

// replay submits every job of in at its arrival time to a federation of
// o.shards engines on the virtual clock and runs the clock dry. The
// loop is the front door, so it mints the traces a live run's HTTP
// submit handler would (the router then adds route spans, the engines
// decide spans).
func replay(in sim.Input, o options, newPolicy func(int) sim.Policy) (*federation.Router, *obs.Tracer, error) {
	vc := engine.NewVirtualClock()
	var tr *obs.Tracer
	if o.traceOut != "" {
		// Span timestamps come from the virtual clock, so the trace
		// timeline reads in engine time (span durations are still wall).
		tr = obs.NewTracer(obs.TracerOptions{Now: func() time.Time { return time.Unix(int64(vc.Now()), 0) }})
	}
	var measured func(id int) bool
	if in.Measured != nil {
		measured = func(id int) bool { return in.Measured[id] }
	}
	fed, err := federation.New(federation.Config{
		Capacity:       in.Capacity,
		Shards:         o.shards,
		Policy:         newPolicy,
		Clock:          vc,
		UseRequested:   in.UseRequested,
		Measured:       measured,
		MeasureStart:   in.MeasureStart,
		MeasureEnd:     in.MeasureEnd,
		RebalanceEvery: o.rebalance,
		Tracer:         tr,
	})
	if err != nil {
		return nil, nil, err
	}
	var submitErr error
	skipped := 0
	for _, j := range in.Jobs {
		vc.AfterFunc(j.Submit, func() {
			// With tracing off (nil tracer) these mint, bind and record nothing.
			tc := tr.Mint()
			tr.Bind(j.ID, tc)
			t0 := tr.Now()
			switch err := fed.SubmitJob(j); {
			case err == nil:
				tr.Record("submit", tc, j.ID, -1, t0, tr.Now().Sub(t0))
			case errors.Is(err, federation.ErrTooWide):
				// A partitioned machine cannot hold the trace's widest
				// jobs; skip them rather than abort the replay.
				skipped++
			case submitErr == nil:
				submitErr = err
			}
		})
	}
	vc.Run()
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "schedsim: skipped %d jobs wider than every shard partition\n", skipped)
	}
	if submitErr == nil {
		submitErr = fed.Err()
	}
	return fed, tr, submitErr
}

// printSummary prints the paper's measures of m and the search effort
// of every shard's policy, one shard after another.
func printSummary(m engine.Metrics, pols []sim.Policy) {
	s := m.Summary
	fmt.Printf("policy %s\n", m.Policy)
	fmt.Printf("  avg wait            %8.2f h\n", s.AvgWaitH)
	fmt.Printf("  max wait            %8.2f h\n", s.MaxWaitH)
	fmt.Printf("  98%%-ile wait        %8.2f h\n", s.P98WaitH)
	fmt.Printf("  avg bounded slowdown %7.2f\n", s.AvgBoundedSlowdown)
	fmt.Printf("  avg queue length    %8.2f\n", s.AvgQueueLen)
	fmt.Printf("  decision points     %8d\n", m.Engine.Decisions)
	for _, pol := range pols {
		sch := core.SchedulerOf(pol)
		if sch == nil {
			continue
		}
		st := sch.SearchStats
		fmt.Printf("  search: %d decisions, %d nodes, %d schedules evaluated, budget hit %d times, skipped %d\n",
			st.Decisions, st.Nodes, st.Leaves, st.BudgetHits, st.Skipped)
		fmt.Printf("  search time: %.1f ms wall, speedup %.2fx\n",
			float64(st.WallNs)/1e6, st.Speedup())
		if st.Nodes > 0 {
			fmt.Printf("  nodes-to-best share %.3f, table share %.3f (%d subtrees counted, not walked), settled share %.3f\n",
				float64(st.NodesToBest)/float64(st.Nodes), float64(st.TableNodes)/float64(st.Nodes), st.TableHits,
				float64(st.SettledNodes)/float64(st.Nodes))
		}
	}
}

func effectiveLoad(m *workload.Month, target float64) float64 {
	if target > 0 {
		return target
	}
	return m.AchievedLoad
}

func printGrid(g metrics.ClassGrid) {
	fmt.Printf("\navg wait (h) by actual runtime x requested nodes:\n%12s", "")
	for _, n := range g.NodeClasses {
		fmt.Printf("%10s", n.String())
	}
	fmt.Println()
	for t := range g.RuntimeClasses {
		fmt.Printf("%12s", g.RuntimeClasses[t].String())
		for n := range g.NodeClasses {
			if g.Count[t][n] == 0 {
				fmt.Printf("%10s", "-")
			} else {
				fmt.Printf("%10.2f", g.AvgWaitH[t][n])
			}
		}
		fmt.Println()
	}
}
