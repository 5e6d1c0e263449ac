package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"schedsearch/internal/metrics"
	"schedsearch/internal/report"
)

func init() {
	All = append(All, Experiment{
		ID:    "replicate",
		Title: "Replicate the headline comparison across 5 workload seeds (mean ± std)",
		Run:   RunReplicate,
	})
}

// Replication aggregates the headline comparison over several
// independently synthesized workload suites — a robustness check the
// paper could not do with one physical trace.
type Replication struct {
	Seeds    []uint64
	Policies []string
	// GrandMean[measure][policy] holds per-seed month-mean values.
	PerSeed map[string]map[string][]float64
	// ClaimPasses[claim id] counts seeds where the claim held.
	ClaimPasses map[string]int
	ClaimTexts  map[string]string
}

// replicationMeasures are the aggregated measures tracked per seed.
var replicationMeasures = []struct {
	Name string
	Get  func(metrics.Summary) float64
}{
	{"avg wait (h)", func(s metrics.Summary) float64 { return s.AvgWaitH }},
	{"max wait (h)", func(s metrics.Summary) float64 { return s.MaxWaitH }},
	{"avg bounded slowdown", func(s metrics.Summary) float64 { return s.AvgBoundedSlowdown }},
}

// Replicate runs Figures 3/4 plus the claim checks for each seed.
func Replicate(cfg Config, seeds []uint64) (*Replication, error) {
	cfg = cfg.withDefaults()
	rep := &Replication{
		Seeds:       seeds,
		PerSeed:     map[string]map[string][]float64{},
		ClaimPasses: map[string]int{},
		ClaimTexts:  map[string]string{},
	}
	for _, seed := range seeds {
		scfg := cfg
		scfg.Seed = seed

		fig3, err := Fig3Result(scfg)
		if err != nil {
			return nil, err
		}
		fig4, err := Fig4Result(scfg)
		if err != nil {
			return nil, err
		}
		if rep.Policies == nil {
			rep.Policies = fig4.Policies
		}
		for _, m := range replicationMeasures {
			if rep.PerSeed[m.Name] == nil {
				rep.PerSeed[m.Name] = map[string][]float64{}
			}
			for _, p := range fig4.Policies {
				var sum float64
				for _, month := range fig4.Months {
					sum += m.Get(fig4.Summaries[p][month])
				}
				rep.PerSeed[m.Name][p] = append(rep.PerSeed[m.Name][p],
					sum/float64(len(fig4.Months)))
			}
		}

		for _, c := range verifyFrom(fig3, fig4) {
			rep.ClaimTexts[c.ID] = c.Text
			if c.Holds {
				rep.ClaimPasses[c.ID]++
			}
		}
	}
	return rep, nil
}

// meanStd returns the mean and population standard deviation.
func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return m, math.Sqrt(ss / float64(len(xs)))
}

// RunReplicate renders the replication over five seeds derived from
// cfg.Seed.
func RunReplicate(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	seeds := make([]uint64, 5)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)
	}
	rep, err := Replicate(cfg, seeds)
	if err != nil {
		return err
	}
	writeReplication(w, rep)
	return nil
}

// writeReplication renders rep: each measure's month-mean and deviation
// by policy, then each claim's passes in claim-ID order.
func writeReplication(w io.Writer, rep *Replication) {
	fmt.Fprintf(w, "=== Replication across %d workload seeds (rho=0.9, month-mean +/- std) ===\n", len(rep.Seeds))
	cols := make([]string, len(rep.Policies))
	copy(cols, rep.Policies)
	t := report.NewTable("", "measure", cols...)
	for _, m := range replicationMeasures {
		cells := make([]string, len(rep.Policies))
		for i, p := range rep.Policies {
			mean, std := meanStd(rep.PerSeed[m.Name][p])
			cells[i] = fmt.Sprintf("%.2f +/- %.2f", mean, std)
		}
		t.AddRow(m.Name, cells...)
	}
	t.Write(w)
	fmt.Fprintln(w, "\nclaim stability across seeds:")
	ids := make([]string, 0, len(rep.ClaimTexts))
	for id := range rep.ClaimTexts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %d/%d  %-32s %s\n", rep.ClaimPasses[id], len(rep.Seeds), id, rep.ClaimTexts[id])
	}
}
