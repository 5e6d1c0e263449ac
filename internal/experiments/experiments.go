// Package experiments regenerates every table and figure of the paper's
// evaluation: the workload overview tables (Tables 3-4), the search-tree
// size table (Figure 1d), the fixed-bound sensitivity study (Figure 2),
// the policy comparisons under original and high load (Figures 3-4), the
// per-job-class analysis (Figure 5), the node-budget study (Figure 6),
// the search-algorithm comparison (Figure 7), and the inaccurate-
// estimate study (Figure 8).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"schedsearch/internal/metrics"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Seed drives workload synthesis.
	Seed uint64
	// Scale shrinks months (job count and duration together) for quick
	// runs; 1 reproduces the paper's full scale.
	Scale float64
	// Months restricts the evaluated months (default: all ten).
	Months []string
	// LimitScale scales the paper's search node limits L, so scaled-
	// down runs spend proportionally less search effort. Default 1.
	LimitScale float64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Months) == 0 {
		c.Months = workload.MonthLabels()
	}
	if c.LimitScale == 0 {
		c.LimitScale = 1
	}
	return c
}

// limit applies LimitScale to a paper node limit.
func (c Config) limit(l int) int {
	s := int(float64(l) * c.LimitScale)
	if s < 16 {
		s = 16
	}
	return s
}

func (c Config) suite() *workload.Suite {
	return workload.NewSuite(workload.Config{Seed: c.Seed, JobScale: c.Scale})
}

// PolicySpec names a policy and builds a fresh instance per simulation
// (policies may carry state across decisions within one run).
type PolicySpec struct {
	Name string
	// New builds the policy for the given month label (Figure 4 uses a
	// larger node budget for January 2004 only).
	New func(month string) sim.Policy
}

// runKey identifies one simulation.
type runKey struct {
	Month  string
	Policy string
}

// runGrid simulates every (month, policy) pair in parallel and returns
// the results keyed by month and policy name.
func runGrid(cfg Config, opt workload.SimOptions, specs []PolicySpec) (map[runKey]*sim.Result, error) {
	cfg = cfg.withDefaults()
	suite := cfg.suite()

	type task struct {
		month string
		spec  PolicySpec
	}
	var tasks []task
	for _, m := range cfg.Months {
		if _, err := suite.Month(m); err != nil {
			return nil, err
		}
		for _, s := range specs {
			tasks = append(tasks, task{month: m, spec: s})
		}
	}

	// A fixed pool of GOMAXPROCS workers drains the task channel:
	// spawning one goroutine per task would stack hundreds of
	// simulations' worth of memory for a grid run.
	// The first error is propagated and stops further work; remaining
	// tasks are skipped.
	results := make(map[runKey]*sim.Result, len(tasks))
	var mu sync.Mutex
	var firstErr error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	taskCh := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				if failed() {
					continue // drain the channel without working
				}
				in, _, err := suite.Input(t.month, opt)
				var res *sim.Result
				if err == nil {
					res, err = sim.Run(in, t.spec.New(t.month))
				}
				if err == nil {
					err = metrics.CheckConservation(res)
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("%s/%s: %w", t.month, t.spec.Name, err)
					}
				} else {
					results[runKey{Month: t.month, Policy: t.spec.Name}] = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		taskCh <- t
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All lists every experiment in paper order.
var All = []Experiment{
	{ID: "table2", Title: "Table 2: capacity and job limits", Run: RunTable2},
	{ID: "table3", Title: "Table 3: monthly job mix (spec vs generated)", Run: RunTable3},
	{ID: "table4", Title: "Table 4: runtime distribution (spec vs generated)", Run: RunTable4},
	{ID: "fig1d", Title: "Figure 1(d): search tree size vs number of waiting jobs", Run: RunFig1d},
	{ID: "fig2", Title: "Figure 2: sensitivity to fixed target bound (DDS/lxf, original load)", Run: RunFig2},
	{ID: "fig3", Title: "Figure 3: policy comparison under original load", Run: RunFig3},
	{ID: "fig4", Title: "Figure 4: policy comparison under high load (rho=0.9)", Run: RunFig4},
	{ID: "fig5", Title: "Figure 5: per-job-class average wait, July 2003, rho=0.9", Run: RunFig5},
	{ID: "fig6", Title: "Figure 6: impact of node budget L, January 2004, rho=0.9", Run: RunFig6},
	{ID: "fig7", Title: "Figure 7: search algorithms and branching heuristics (L=2K)", Run: RunFig7},
	{ID: "fig8", Title: "Figure 8: inaccurate requested runtimes (R*=R, L=4K)", Run: RunFig8},
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
