// Command schedsim runs one scheduling-policy simulation on a generated
// monthly workload and prints the paper's headline measures.
//
// Usage:
//
//	schedsim -month 7/03 -policy DDS/lxf/dynB -L 1000 -load 0.9
//
// Policies: FCFS-backfill, LXF-backfill, SJF-backfill, LXFW-backfill,
// Selective-backfill, Relaxed-backfill, Slack-backfill, Lookahead,
// Conservative-backfill, Maui-backfill, MultiQueue-backfill, and search
// policies of the form ALGO/HEUR/BOUND with ALGO in {DDS, LDS, DFS},
// HEUR in {fcfs, lxf} and BOUND either "dynB" or a fixed bound like
// "100h".
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
	"flag"
	"fmt"
	"os"
	"strings"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/metrics"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func main() {
	var (
		month     = flag.String("month", "6/03", "month label (6/03 .. 3/04)")
		policyArg = flag.String("policy", "DDS/lxf/dynB", "policy name")
		nodeLimit = flag.Int("L", 1000, "search node limit per decision")
		workers   = flag.Int("workers", 1, "parallel search workers for search policies (0 or 1 sequential, -1 one per CPU)")
		load      = flag.Float64("load", 0, "target offered load (0 = original)")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		scale     = flag.Float64("scale", 1, "job-count/duration scale factor")
		requested = flag.Bool("requested", false, "schedulers use requested runtimes (R* = R)")
		verbose   = flag.Bool("v", false, "print per-class wait grid")
		swfIn     = flag.String("swf", "", "simulate this SWF trace file (plain or .gz) instead of a generated month")
		capacity  = flag.Int("capacity", 0, "machine size in nodes (default: 128 for a generated month, which rejects fewer, and for -audit; for -swf the trace header's MaxNodes, else the widest job)")
		jsonOut   = flag.Bool("json", false, "emit the run summary as JSON on stdout (the schema schedd's /v1/metrics serves)")
		auditIn   = flag.String("audit", "", "re-decide every decision this schedd journal records under -policy and print them as JSON; exit 1 at the first divergence")
	)
	flag.Parse()

	var stray []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "month", "seed", "scale", "load":
			if *swfIn != "" || *auditIn != "" {
				stray = append(stray, "-"+f.Name)
			}
		case "swf", "requested", "json", "v":
			if *auditIn != "" {
				stray = append(stray, "-"+f.Name)
			}
		}
	})
	if len(stray) > 0 {
		why := "generated months only (-swf replays the trace as recorded)"
		if *auditIn != "" {
			why = "not with -audit (the journal fixes the workload and its estimates)"
		}
		fmt.Fprintf(os.Stderr, "schedsim: %s: %s\n", strings.Join(stray, ", "), why)
		os.Exit(2)
	}

	pol, err := schedsearch.ParsePolicy(*policyArg, *nodeLimit)
	if err == nil {
		schedsearch.ApplySearchOptions(pol, *workers)
		if *auditIn != "" {
			err = audit(*auditIn, *capacity, pol)
		} else {
			err = run(*swfIn, *capacity, workload.Config{Seed: *seed, JobScale: *scale}, *month,
				workload.SimOptions{TargetLoad: *load, UseRequested: *requested}, pol, *verbose, *jsonOut)
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

// emitJSON writes the run summary as machine-readable JSON in the
// same schema the schedd daemon serves at GET /v1/metrics.
func emitJSON(res *sim.Result, s metrics.Summary, pol sim.Policy) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(engine.OfflineMetrics(res, s, pol))
}

// run loads the trace or generated month, simulates pol over it and
// reports.
func run(swfIn string, capacity int, cfg workload.Config, month string, opt workload.SimOptions, pol sim.Policy, verbose, jsonOut bool) error {
	in, m, err := schedsearch.LoadInput(swfIn, capacity, cfg, month, opt)
	if err != nil {
		return err
	}
	res, err := sim.Run(in, pol)
	if err != nil {
		return err
	}
	if err := metrics.CheckConservation(res); err != nil {
		return err
	}
	s := metrics.Summarize(res)
	if jsonOut {
		return emitJSON(res, s, pol)
	}
	if m == nil {
		fmt.Printf("trace %s: %d jobs on %d nodes\n", swfIn, s.Jobs, in.Capacity)
	} else {
		fmt.Printf("month %s: %d jobs, offered load %.2f (spec %.2f)\n",
			m.Spec.Label, s.Jobs, effectiveLoad(m, opt.TargetLoad), m.Spec.Load)
	}
	printSummary(res, s, pol)
	if verbose {
		printGrid(metrics.ComputeClassGrid(res))
	}
	return nil
}

func printSummary(res *sim.Result, s metrics.Summary, pol sim.Policy) {
	fmt.Printf("policy %s\n", res.Policy)
	fmt.Printf("  avg wait            %8.2f h\n", s.AvgWaitH)
	fmt.Printf("  max wait            %8.2f h\n", s.MaxWaitH)
	fmt.Printf("  98%%-ile wait        %8.2f h\n", s.P98WaitH)
	fmt.Printf("  avg bounded slowdown %7.2f\n", s.AvgBoundedSlowdown)
	fmt.Printf("  avg queue length    %8.2f\n", s.AvgQueueLen)
	fmt.Printf("  decision points     %8d\n", res.Decisions)
	if sch := core.SchedulerOf(pol); sch != nil {
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
