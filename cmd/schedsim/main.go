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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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
		capacity  = flag.Int("capacity", 0, "machine size in nodes (default: 128 for a generated month, which rejects fewer; for -swf the trace header's MaxNodes, else the widest job)")
		jsonOut   = flag.Bool("json", false, "emit the run summary as JSON on stdout (the schema schedd's /v1/metrics serves)")
		flightN   = flag.Int("flight", 0, "record the last N scheduling decisions (queue depth, search effort, incumbent trajectory, commit) and print them as JSON after the summary (0 = off)")
	)
	flag.Parse()

	var stray []string
	if *swfIn != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "month", "seed", "scale", "load":
				stray = append(stray, "-"+f.Name)
			}
		})
	}
	if len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "schedsim: %s: generated months only (-swf replays the trace as recorded)\n",
			strings.Join(stray, ", "))
		os.Exit(2)
	}

	opts := searchOpts{nodeLimit: *nodeLimit, workers: *workers, flight: *flightN}
	in, m, err := schedsearch.LoadInput(*swfIn, *capacity,
		workload.Config{Seed: *seed, JobScale: *scale}, *month,
		workload.SimOptions{TargetLoad: *load, UseRequested: *requested})
	if err == nil {
		header := func(jobs int) string {
			if m == nil {
				return fmt.Sprintf("trace %s: %d jobs on %d nodes", *swfIn, jobs, in.Capacity)
			}
			return fmt.Sprintf("month %s: %d jobs, offered load %.2f (spec %.2f)",
				m.Spec.Label, jobs, effectiveLoad(m, *load), m.Spec.Load)
		}
		err = run(in, header, *policyArg, opts, *verbose, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		os.Exit(1)
	}
}

// searchOpts bundles the flags that only apply to search schedulers,
// plus the flight-recorder size (which applies to every policy).
type searchOpts struct {
	nodeLimit int
	workers   int
	flight    int
}

// parsePolicy builds the policy and applies the search-only options to
// search schedulers (other policies ignore them). With -flight N the
// policy is wrapped in the passive flight-recorder shim; the returned
// recorder is nil otherwise.
func parsePolicy(policyArg string, o searchOpts) (sim.Policy, *obs.FlightRecorder, error) {
	pol, err := schedsearch.ParsePolicy(policyArg, o.nodeLimit)
	if err != nil {
		return nil, nil, err
	}
	schedsearch.ApplySearchOptions(pol, o.workers)
	if o.flight <= 0 {
		return pol, nil, nil
	}
	f := obs.NewFlightRecorder(o.flight)
	return &flightPolicy{inner: pol, f: f}, f, nil
}

// flightPolicy shims a policy into the offline flight recorder: after
// each Decide it copies the decision's summary (search policies expose
// the full search story; heuristics get the generic record) into the
// ring. Strictly passive — it forwards the decision untouched, so
// recorded and unrecorded runs schedule identically.
type flightPolicy struct {
	inner sim.Policy
	f     *obs.FlightRecorder
	rec   obs.DecisionRecord
}

func (p *flightPolicy) Name() string { return p.inner.Name() }

// Unwrap returns the recorded policy (see core.PolicyAs).
func (p *flightPolicy) Unwrap() sim.Policy { return p.inner }

func (p *flightPolicy) Decide(snap *sim.Snapshot) []int {
	t0 := time.Now()
	starts := p.inner.Decide(snap)
	wall := time.Since(t0)
	rec := &p.rec
	engine.FillDecisionRecord(rec, p.inner, snap.Now, len(snap.Queue), wall)
	for _, qi := range starts {
		rec.Started = append(rec.Started, snap.Queue[qi].Job.ID)
	}
	p.f.Record(rec)
	return starts
}

// printFlight dumps the recorded decisions as a JSON document on
// stdout (after the summary; with -json it is the second document).
func printFlight(f *obs.FlightRecorder) error {
	if f == nil {
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total     int64                `json:"total"`
		Decisions []obs.DecisionRecord `json:"decisions"`
	}{Total: f.Total(), Decisions: f.Snapshot()})
}

// emitJSON writes the run summary as machine-readable JSON in the
// same schema the schedd daemon serves at GET /v1/metrics.
func emitJSON(res *sim.Result, s metrics.Summary, pol sim.Policy) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(engine.OfflineMetrics(res, s, pol))
}

// run simulates the policy over the input and reports; header renders
// the human summary's first line from the measured job count.
func run(in sim.Input, header func(jobs int) string, policyArg string, opts searchOpts, verbose bool, jsonOut bool) error {
	pol, flight, err := parsePolicy(policyArg, opts)
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
		if err := emitJSON(res, s, pol); err != nil {
			return err
		}
		return printFlight(flight)
	}
	fmt.Println(header(s.Jobs))
	printSummary(res, s, pol)
	if verbose {
		printGrid(metrics.ComputeClassGrid(res))
	}
	return printFlight(flight)
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
			fmt.Printf("  nodes-to-best share %.3f, table share %.3f (%d subtrees counted, not walked)\n",
				float64(st.NodesToBest)/float64(st.Nodes), float64(st.TableNodes)/float64(st.Nodes), st.TableHits)
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
