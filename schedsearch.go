// Package schedsearch is a goal-oriented, search-based job scheduler for
// space-shared parallel machines, plus the trace-driven simulation
// infrastructure to evaluate it — a reproduction of Vasupongayya,
// Chiang & Massey, "Search-based Job Scheduling for Parallel Computer
// Workloads" (IEEE Cluster 2005).
//
// The package is a facade over the internal implementation:
//
//   - Workload synthesis calibrated to the paper's published NCSA IA-64
//     monthly statistics (NewSuite).
//   - An event-driven simulator for non-preemptive policies (RunMonth).
//   - Priority-backfill baselines (FCFS-, LXF-, SJF-backfill and
//     published variants) via ParsePolicy or the policy constructors.
//   - The paper's contribution: discrepancy-search schedulers (LDS/DDS
//     over fcfs/lxf branching with fixed or dynamic target wait bounds)
//     via NewSearchScheduler.
//
// A minimal session:
//
//	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 1})
//	pol := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
//		schedsearch.DynamicBound(), 1000)
//	sum, _, err := schedsearch.RunMonth(suite, "7/03", schedsearch.SimOptions{}, pol)
package schedsearch

import (
	"fmt"
	"sort"
	"strings"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/metasched"
	"schedsearch/internal/metrics"
	"schedsearch/internal/policy"
	"schedsearch/internal/predict"
	"schedsearch/internal/sim"
	"schedsearch/internal/trace"
	"schedsearch/internal/workload"
)

// Re-exported model types.
type (
	// Job is one rigid parallel job (nodes, actual and requested
	// runtime, submit time).
	Job = job.Job
	// Policy is a non-preemptive scheduling policy driven by the
	// simulator.
	Policy = sim.Policy
	// Snapshot is the queue/machine state a policy sees at a decision
	// point.
	Snapshot = sim.Snapshot
	// WaitingJob is a queued job as visible to a policy.
	WaitingJob = sim.WaitingJob
	// Result is a completed simulation run.
	Result = sim.Result
	// Summary holds the paper's headline measures of a run.
	Summary = metrics.Summary
	// Excess is the excessive-wait summary w.r.t. a threshold.
	Excess = metrics.Excess
	// Suite is a generated 10-month workload suite.
	Suite = workload.Suite
	// Month is one generated monthly workload.
	Month = workload.Month
	// SimOptions selects load scaling and runtime-estimate visibility.
	SimOptions = workload.SimOptions
	// SearchScheduler is the paper's search-based policy; its
	// SearchStats field exposes search-effort counters.
	SearchScheduler = core.Scheduler
	// BoundSpec selects the target wait bound of the search objective.
	BoundSpec = core.BoundSpec
	// CostFn customizes the search objective (see RuntimeScaledCost for
	// the paper's future-work variant).
	CostFn = core.CostFn
	// Backfill is the EASY-style priority-backfill policy family.
	Backfill = policy.Backfill
)

// Search algorithm and heuristic selectors.
const (
	LDS            = core.LDS
	DDS            = core.DDS
	ADDS           = core.ADDS
	CDDS           = core.CDDS
	HeuristicFCFS  = core.HeuristicFCFS
	HeuristicLXF   = core.HeuristicLXF
	Hour           = job.Hour
	Day            = job.Day
	DefaultCap     = workload.Capacity
	DefaultLimit1K = 1000
	// AutoWorkers, assigned to SearchScheduler.Workers, runs the search
	// with one worker per CPU. Parallel search commits exactly the
	// schedules sequential search would.
	AutoWorkers = core.AutoWorkers
)

// SuiteConfig mirrors the workload generator configuration.
type SuiteConfig = workload.Config

// NewSuite generates the ten-month synthetic NCSA IA-64 workload suite.
func NewSuite(cfg SuiteConfig) *Suite { return workload.NewSuite(cfg) }

// MonthLabels returns the ten month labels ("6/03" .. "3/04").
func MonthLabels() []string { return workload.MonthLabels() }

// DynamicBound selects the paper's dynB target wait bound.
func DynamicBound() BoundSpec { return core.DynamicBound() }

// FixedBound selects a fixed target wait bound ω in seconds (use
// schedsearch.Hour multiples).
func FixedBound(omega int64) BoundSpec { return core.FixedBound(omega) }

// NewSearchScheduler builds a search-based scheduler; the paper's best
// policy is NewSearchScheduler(DDS, HeuristicLXF, DynamicBound(), 1000).
func NewSearchScheduler(algo core.Algorithm, h core.Heuristic, bound BoundSpec, nodeLimit int) *SearchScheduler {
	return core.New(algo, h, bound, nodeLimit)
}

// RuntimeScaledCost is the paper's future-work objective variant: the
// target wait bound shrinks for short jobs (factor × estimate, floored
// at minBound seconds), further improving short-job service.
func RuntimeScaledCost(factor float64, minBound int64) CostFn {
	return core.RuntimeScaledCost(factor, minBound)
}

// FCFSBackfill returns the paper's FCFS-backfill baseline.
func FCFSBackfill() *Backfill { return policy.FCFSBackfill() }

// LXFBackfill returns the paper's LXF-backfill baseline.
func LXFBackfill() *Backfill { return policy.LXFBackfill() }

// Estimator produces runtime estimates for arriving jobs and learns from
// completions; plug one into RunMonthWithEstimator for the paper's
// runtime-prediction future-work direction.
type Estimator = sim.Estimator

// NewUserHistoryPredictor returns the Tsafrir-style predictor: a job's
// runtime is estimated as the average of its user's two most recent
// actual runtimes, capped at the request.
func NewUserHistoryPredictor() Estimator { return predict.NewUserHistory() }

// NewLocalScheduler returns the pure local-search scheduler (hill
// climbing over queue orderings) with the same objective and budget
// semantics as the complete-search policies.
func NewLocalScheduler(h core.Heuristic, bound BoundSpec, nodeLimit int) *core.LocalScheduler {
	return core.NewLocal(h, bound, nodeLimit)
}

// NewHybridScheduler returns the DDS-seeded local-search scheduler
// (the paper's suggested complete+local combination).
func NewHybridScheduler(h core.Heuristic, bound BoundSpec, nodeLimit int) *core.LocalScheduler {
	return core.NewHybrid(h, bound, nodeLimit)
}

// NewFairshareScheduler wraps a search scheduler with the fairshare
// objective extension: over-served users' slowdown costs are discounted
// with strength alpha, shifting service toward under-served users
// without touching the excessive-wait guarantee.
func NewFairshareScheduler(inner *SearchScheduler, alpha float64) Policy {
	return core.NewFairshare(inner, alpha)
}

// RunMonth simulates one month of the suite under the policy and
// returns the summarized measures alongside the raw result.
func RunMonth(s *Suite, label string, opt SimOptions, p Policy) (Summary, *Result, error) {
	return RunMonthWithEstimator(s, label, opt, nil, p)
}

// RunMonthWithEstimator is RunMonth with a runtime predictor supplying
// the estimates policies plan with (overriding opt.UseRequested).
func RunMonthWithEstimator(s *Suite, label string, opt SimOptions, est Estimator, p Policy) (Summary, *Result, error) {
	in, _, err := s.Input(label, opt)
	if err != nil {
		return Summary{}, nil, err
	}
	in.Estimator = est
	res, err := sim.Run(in, p)
	if err != nil {
		return Summary{}, nil, err
	}
	if err := metrics.CheckConservation(res); err != nil {
		return Summary{}, nil, err
	}
	return metrics.Summarize(res), res, nil
}

// LoadInput assembles the simulator input the commands replay. A
// non-empty swfPath reads that SWF trace (plain or .gz) onto a machine
// of capacity nodes — capacity <= 0 means the header's MaxNodes — grown
// to hold the widest job; opt.TargetLoad does not apply to traces and
// the Month is nil. Otherwise it is the generated month of the suite
// cfg describes, with warm-up/cool-down margins and measurement flags.
func LoadInput(swfPath string, capacity int, cfg SuiteConfig, month string, opt SimOptions) (sim.Input, *Month, error) {
	if swfPath == "" {
		return NewSuite(cfg).Input(month, opt)
	}
	jobs, header, err := trace.ReadSWFFile(swfPath)
	if err != nil {
		return sim.Input{}, nil, err
	}
	if len(jobs) == 0 {
		return sim.Input{}, nil, fmt.Errorf("%s: no usable jobs", swfPath)
	}
	sort.Sort(job.BySubmit(jobs))
	if capacity <= 0 {
		capacity = header.MaxNodes
	}
	for _, j := range jobs {
		if j.Nodes > capacity {
			capacity = j.Nodes
		}
	}
	return sim.Input{Capacity: capacity, Jobs: jobs, UseRequested: opt.UseRequested}, nil, nil
}

// Online serving: the engine drives any Policy against a clock instead
// of a trace, with jobs submitted while it runs (see internal/engine
// and cmd/schedd for the HTTP daemon).
type (
	// Engine is the online scheduling engine.
	Engine = engine.Engine
	// EngineConfig configures NewEngine.
	EngineConfig = engine.Config
	// Clock is the engine's time source (real or virtual).
	Clock = engine.Clock
	// VirtualClock is the deterministic, steppable clock.
	VirtualClock = engine.VirtualClock
	// EngineMetrics is the engine's running report (also the schema
	// schedsim -json emits).
	EngineMetrics = engine.Metrics
)

// NewEngine returns a started online engine for the configuration.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// NewRealClock returns a wall clock running speedup engine seconds per
// wall second (<= 0 means real time).
func NewRealClock(speedup float64) Clock { return engine.NewRealClock(speedup) }

// NewVirtualClock returns a deterministic clock at time zero; time
// moves only when the caller advances it.
func NewVirtualClock() *VirtualClock { return engine.NewVirtualClock() }

// ExcessiveWait computes the excessive-wait summary of a run with
// respect to a threshold in hours (the paper's E^t measures).
func ExcessiveWait(res *Result, thresholdH float64) Excess {
	return metrics.ExcessiveWait(res, thresholdH)
}

// MetaScheduler is the online policy-portfolio meta-scheduler: it
// shadow-simulates every portfolio member at each decision point and
// lets a greedy bandit commit one (see internal/metasched).
type MetaScheduler = metasched.Meta

// MetaConfig is the meta-scheduler's configuration (the zero value is
// the shipped behaviour).
type MetaConfig = metasched.Config

// NewMetaScheduler builds a policy-portfolio meta-scheduler over
// distinct member policy instances.
func NewMetaScheduler(members []Policy, cfg MetaConfig) (*MetaScheduler, error) {
	return metasched.New(members, cfg)
}

// ParsePolicy builds a policy from its report name. Backfill policies
// are named "FCFS-backfill", "LXF-backfill", "SJF-backfill",
// "LXFW-backfill", "Selective-backfill", "Relaxed-backfill",
// "Slack-backfill" and "Lookahead"; search policies follow the paper's
// ALGO/HEUR/BOUND scheme, e.g. "DDS/lxf/dynB" or "LDS/fcfs/100h";
// ALGO is one of DDS, LDS, DFS, ADDS or CDDS.
// Fixed bounds accept both the shorthand ("100h", "30m", "90s") and
// the canonical spelling Scheduler.Name emits ("fixB=100h"), and the
// names the built policies report ("LXF&W-backfill",
// "Conservative-backfill(FCFS)", "Maui-default-backfill") are accepted
// as aliases, so ParsePolicy(p.Name()) round-trips for every
// constructible policy (FuzzParsePolicy pins this).
// A portfolio of policies under the online meta-scheduler is spelled
// "meta(SPEC,SPEC,...)" where each SPEC is any base policy name above
// ("meta(DDS/lxf/dynB,LDS/fcfs/dynB,FCFS-backfill)").
// nodeLimit is the search node budget L (ignored for backfill; applied
// to every member of a portfolio).
func ParsePolicy(name string, nodeLimit int) (Policy, error) {
	if metasched.IsSpec(name) {
		return metasched.Parse(name, nodeLimit, parseBasePolicy)
	}
	return parseBasePolicy(name, nodeLimit)
}

// ApplySearchOptions applies a command's per-process search tuning to a
// parsed policy: a search scheduler and every search member of a
// meta(...) portfolio take it, other policies ignore it.
func ApplySearchOptions(p Policy, workers int) {
	switch pol := p.(type) {
	case *SearchScheduler:
		pol.Workers = workers
	case *MetaScheduler:
		pol.SetSearchOptions(workers)
	}
}

// parseBasePolicy parses every non-meta policy name (the portfolio
// member grammar).
func parseBasePolicy(name string, nodeLimit int) (Policy, error) {
	switch name {
	case "FCFS-backfill":
		return policy.FCFSBackfill(), nil
	case "LXF-backfill":
		return policy.LXFBackfill(), nil
	case "SJF-backfill":
		return policy.NewBackfill(policy.SJF{}), nil
	case "LXFW-backfill", "LXF&W-backfill": // the policy reports "LXF&W-backfill"
		return policy.NewBackfill(policy.NewLXFW()), nil
	case "Selective-backfill":
		return policy.NewSelectiveBackfill(), nil
	case "Relaxed-backfill":
		return policy.NewRelaxedBackfill(), nil
	case "Slack-backfill":
		return policy.NewSlackBackfill(), nil
	case "Lookahead":
		return policy.NewLookahead(), nil
	case "Conservative-backfill", "Conservative-backfill(FCFS)":
		return policy.ConservativeBackfill(policy.FCFS{}), nil
	case "Maui-backfill", "Maui-default-backfill":
		return policy.NewWeightedBackfill(policy.MauiDefault()), nil
	case "MultiQueue-backfill":
		return policy.NewMultiQueue(), nil
	}

	parts := strings.Split(name, "/")
	if len(parts) != 3 {
		return nil, fmt.Errorf("schedsearch: unknown policy %q", name)
	}
	var algo core.Algorithm
	switch parts[0] {
	case "DDS":
		algo = core.DDS
	case "LDS":
		algo = core.LDS
	case "DFS":
		algo = core.DFS
	case "ADDS":
		algo = core.ADDS
	case "CDDS":
		algo = core.CDDS
	default:
		return nil, fmt.Errorf("schedsearch: unknown search algorithm %q", parts[0])
	}
	var heur core.Heuristic
	switch parts[1] {
	case "fcfs":
		heur = core.HeuristicFCFS
	case "lxf":
		heur = core.HeuristicLXF
	default:
		return nil, fmt.Errorf("schedsearch: unknown branching heuristic %q", parts[1])
	}
	bound, err := core.ParseBound(parts[2])
	if err != nil {
		return nil, fmt.Errorf("schedsearch: %w", err)
	}
	return core.New(algo, heur, bound, nodeLimit), nil
}
