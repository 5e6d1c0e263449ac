package policy

import (
	"fmt"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// WeightedPriority is the Maui-style tunable priority function the
// paper's introduction describes as the status quo: a job's priority is
// a weighted sum of job measures (current wait, expansion factor,
// requested processors, requested runtime). The paper's argument is
// that such weights are hard to tune and fragile across months; the
// weighted-priority experiment demonstrates exactly that against the
// goal-oriented search policies.
type WeightedPriority struct {
	// WaitWeight is priority per hour of current wait.
	WaitWeight float64
	// XFactorWeight is priority per unit of expansion factor
	// ((wait + estimate)/estimate).
	XFactorWeight float64
	// NodesWeight is priority per requested node (positive favours
	// wide jobs, as sites often do to improve packing of large jobs).
	NodesWeight float64
	// ShortWeight is priority per hour BELOW the runtime limit,
	// favouring short jobs when positive.
	ShortWeight float64
	// name labels the configuration in reports.
	name string
}

// Name implements Priority.
func (p WeightedPriority) Name() string {
	if p.name != "" {
		return p.name
	}
	return fmt.Sprintf("W(%g,%g,%g,%g)", p.WaitWeight, p.XFactorWeight, p.NodesWeight, p.ShortWeight)
}

// WithName labels the configuration.
func (p WeightedPriority) WithName(name string) WeightedPriority {
	p.name = name
	return p
}

// Score implements Priority.
func (p WeightedPriority) Score(w *sim.WaitingJob, now job.Time) float64 {
	waitH := float64(now-w.Job.Submit) / float64(job.Hour)
	if waitH < 0 {
		waitH = 0
	}
	estH := float64(w.Estimate) / float64(job.Hour)
	xf := job.BoundedSlowdownAt(w.Job.Submit, w.Estimate, now)
	return p.WaitWeight*waitH +
		p.XFactorWeight*xf +
		p.NodesWeight*float64(w.Job.Nodes) +
		p.ShortWeight*(-estH)
}

// MauiDefault returns a configuration resembling common production
// defaults: dominated by queue time with a small expansion-factor term.
func MauiDefault() WeightedPriority {
	return WeightedPriority{WaitWeight: 1, XFactorWeight: 0.5}.WithName("Maui-default")
}

// NewWeightedBackfill wraps the priority in EASY backfill with one
// reservation, the configuration production Maui runs.
func NewWeightedBackfill(p WeightedPriority) *Backfill {
	b := NewBackfill(p)
	b.name = p.Name() + "-backfill"
	return b
}
