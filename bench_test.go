// Benchmarks regenerating each table and figure of the paper at reduced
// scale (months at 10-15% size, search budgets scaled to match), plus
// the ablation benchmarks called out in DESIGN.md. Run the full-scale
// reproduction with cmd/experiments instead; these benches exist to
// track the cost of each experiment and of the scheduler inner loops.
package schedsearch_test

import (
	"io"
	"testing"

	"schedsearch"
	"schedsearch/internal/cluster"
	"schedsearch/internal/core"
	"schedsearch/internal/experiments"
	"schedsearch/internal/job"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// benchCfg is the scaled-down experiment configuration shared by the
// per-figure benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Scale: 0.1, LimitScale: 0.1}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkTable3JobMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable3(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4RuntimeDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable4(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1dTreeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig1d(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2FixedBound(b *testing.B) {
	cfg := benchCfg()
	cfg.Months = []string{"6/03", "12/03"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3OriginalLoad(b *testing.B) {
	cfg := benchCfg()
	cfg.Months = []string{"6/03", "7/03", "1/04"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4HighLoad(b *testing.B) {
	cfg := benchCfg()
	cfg.Months = []string{"6/03", "7/03", "1/04"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5JobClasses(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6NodeBudget(b *testing.B) {
	cfg := benchCfg()
	cfg.LimitScale = 0.02 // L sweeps 20..2000 at bench scale
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SearchAlgos(b *testing.B) {
	cfg := benchCfg()
	cfg.Months = []string{"6/03", "1/04"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RequestedRuntimes(b *testing.B) {
	cfg := benchCfg()
	cfg.Months = []string{"6/03", "1/04"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Result(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md Section 5) --------------------------

// benchProfile builds a realistically loaded profile: ~40 running jobs
// on a 128-node machine.
func benchProfile() (*cluster.Profile, []struct {
	n int
	d job.Duration
}) {
	prof := cluster.New(128, 0)
	placements := []struct {
		n int
		d job.Duration
	}{}
	sizes := []int{1, 1, 2, 4, 8, 16, 32, 64}
	for i := 0; i < 40; i++ {
		n := sizes[i%len(sizes)]
		d := job.Duration(600 + 977*int64(i)%43200)
		t := prof.EarliestFit(job.Time(i*60), n, d)
		prof.Place(t, n, d)
		placements = append(placements, struct {
			n int
			d job.Duration
		}{n, d})
	}
	return prof, placements
}

// BenchmarkProfilePlaceUndo measures the search inner loop: earliest-fit
// place followed by LIFO undo on a loaded profile (DESIGN.md ablation 1,
// the chosen design).
func BenchmarkProfilePlaceUndo(b *testing.B) {
	prof, _ := benchProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, pl := prof.PlaceEarliest(0, 16, 3600)
		_ = t
		prof.Undo(pl)
	}
}

// BenchmarkProfilePlaceUndoComb is BenchmarkProfilePlaceUndo on the
// restart-heavy shape: 24 holes with every node free, each shorter than
// the job, so the earliest fit rejects all of them before it lands past
// the comb.
func BenchmarkProfilePlaceUndoComb(b *testing.B) {
	prof := cluster.New(128, 0)
	for i := 0; i < 24; i++ {
		prof.Place(job.Time(i*600), 120, 300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, pl := prof.PlaceEarliest(0, 16, 3600)
		prof.Undo(pl)
	}
}

// BenchmarkProfileCopyPlace measures the rejected alternative: cloning
// the profile before each speculative placement.
func BenchmarkProfileCopyPlace(b *testing.B) {
	prof, _ := benchProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := prof.Clone()
		c.PlaceEarliest(0, 16, 3600)
	}
}

// BenchmarkEarliestFit isolates the availability query.
func BenchmarkEarliestFit(b *testing.B) {
	prof, _ := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof.EarliestFit(0, 100, 7200)
	}
}

// BenchmarkAblationOmegaZero contrasts the paper's dynB bound with the
// degenerate ω=0 objective (pure average-wait minimization, which the
// paper reports destroys the maximum wait) — DESIGN.md ablation 4.
func BenchmarkAblationOmegaZero(b *testing.B) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 1, JobScale: 0.1})
	for _, bench := range []struct {
		name  string
		bound schedsearch.BoundSpec
	}{
		{"dynB", schedsearch.DynamicBound()},
		{"omega0", schedsearch.FixedBound(0)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var maxWait float64
			for i := 0; i < b.N; i++ {
				sch := schedsearch.NewSearchScheduler(schedsearch.DDS,
					schedsearch.HeuristicLXF, bench.bound, 100)
				sum, _, err := schedsearch.RunMonth(suite, "7/03",
					schedsearch.SimOptions{TargetLoad: 0.9}, sch)
				if err != nil {
					b.Fatal(err)
				}
				maxWait = sum.MaxWaitH
			}
			b.ReportMetric(maxWait, "maxWaitH")
		})
	}
}

// BenchmarkAblationReservations sweeps the backfill reservation count
// (the paper uses 1 and reports more does not help) — DESIGN.md
// ablation 5.
func BenchmarkAblationReservations(b *testing.B) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 1, JobScale: 0.1})
	for _, r := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "r1", 2: "r2", 4: "r4"}[r], func(b *testing.B) {
			var avgWait float64
			for i := 0; i < b.N; i++ {
				pol := &policy.Backfill{Priority: policy.FCFS{}, Reservations: r}
				sum, _, err := schedsearch.RunMonth(suite, "7/03",
					schedsearch.SimOptions{TargetLoad: 0.9}, pol)
				if err != nil {
					b.Fatal(err)
				}
				avgWait = sum.AvgWaitH
			}
			b.ReportMetric(avgWait, "avgWaitH")
		})
	}
}

// --- Scheduler inner-loop benchmarks -------------------------------------

// benchSnapshot builds a contended decision point with the given queue
// depth.
func benchSnapshot(queueLen int) *sim.Snapshot {
	snap := &sim.Snapshot{Now: 100000, Capacity: 128, FreeNodes: 128}
	// 30 running jobs occupy 100 nodes with staggered ends.
	used := 0
	for i := 0; i < 30 && used < 100; i++ {
		n := 1 + (i*7)%8
		if used+n > 100 {
			n = 100 - used
		}
		used += n
		snap.Running = append(snap.Running, sim.RunningJob{
			ID: 1000 + i, Nodes: n, Start: 0,
			PredictedEnd: snap.Now + job.Duration(300+i*977%21600),
		})
	}
	snap.FreeNodes = 128 - used
	for i := 0; i < queueLen; i++ {
		est := job.Duration(300 + (i*2311)%43200)
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job: job.Job{
				ID:      i + 1,
				Submit:  snap.Now - job.Time(60+(i*3571)%36000),
				Nodes:   1 + (i*13)%64,
				Runtime: est, Request: est,
			},
			Estimate: est,
			QueuePos: i,
		})
	}
	return snap
}

// BenchmarkSearchDecision measures one scheduling decision of the
// search-based policy at the paper's L=1K on a 30-job queue — the
// quantity the paper reports as 30-65 ms on 2005 hardware.
func BenchmarkSearchDecision(b *testing.B) {
	for _, bench := range []struct {
		name string
		algo core.Algorithm
	}{{"DDS", core.DDS}, {"LDS", core.LDS}} {
		b.Run(bench.name, func(b *testing.B) {
			snap := benchSnapshot(30)
			sch := core.New(bench.algo, core.HeuristicLXF, core.DynamicBound(), 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sch.Decide(snap)
			}
			b.ReportMetric(float64(sch.SearchStats.Nodes)/float64(b.N), "nodes/decision")
		})
	}
}

// BenchmarkParallelSearchDecision measures the same decision with the
// parallel search at one worker per CPU. The committed schedules are
// identical to the sequential ones; only wall time changes. On a
// single-CPU machine this degenerates to the sequential path. The
// repository benchmark's deep_decide workload (bench/) reports the same
// comparison as core.par_speedup_d64.
func BenchmarkParallelSearchDecision(b *testing.B) {
	for _, bench := range []struct {
		name string
		algo core.Algorithm
	}{{"DDS", core.DDS}, {"LDS", core.LDS}} {
		b.Run(bench.name, func(b *testing.B) {
			snap := benchSnapshot(30)
			sch := core.New(bench.algo, core.HeuristicLXF, core.DynamicBound(), 1000)
			sch.Workers = core.AutoWorkers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sch.Decide(snap)
			}
			b.ReportMetric(sch.SearchStats.Speedup(), "speedup")
		})
	}
}

// BenchmarkBackfillDecision measures one EASY-backfill decision on the
// same queue for comparison.
func BenchmarkBackfillDecision(b *testing.B) {
	snap := benchSnapshot(30)
	pol := policy.LXFBackfill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(snap)
	}
}

// BenchmarkWorkloadGeneration measures synthesizing the full ten-month
// suite at paper scale.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.NewSuite(workload.Config{Seed: uint64(i + 1)})
	}
}
