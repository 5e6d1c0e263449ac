// Package core implements the paper's contribution: goal-oriented,
// search-based on-line job scheduling. At each decision point the
// scheduler explores the tree of waiting-queue orderings with a complete
// discrepancy-based search algorithm (LDS or DDS), evaluates each
// complete ordering against a hierarchical objective — minimize total
// excessive wait, then minimize average bounded slowdown — under a
// node-visit budget L, and commits the job starts of the best schedule
// found.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// Cost is an additive, lexicographically ordered objective value for one
// schedule. Excess is the paper's first-level goal (total excessive
// wait, in seconds); Slowdown is the second-level goal (sum of bounded
// slowdowns — equivalent to the average, since every schedule at a
// decision point covers the same job set). Lower is better. It is a
// two-field struct, not an array, so the compiler keeps it in registers
// (DESIGN §10): the search adds one per node.
type Cost struct{ Excess, Slowdown float64 }

// Add returns the field-wise sum.
func (c Cost) Add(o Cost) Cost { return Cost{c.Excess + o.Excess, c.Slowdown + o.Slowdown} }

// Sub returns the field-wise difference.
func (c Cost) Sub(o Cost) Cost { return Cost{c.Excess - o.Excess, c.Slowdown - o.Slowdown} }

// Less compares lexicographically with a small absolute epsilon per
// level, implementing the paper's "schedule A is better than B" rule.
func (c Cost) Less(o Cost) bool {
	const eps = 1e-9
	if c.Excess < o.Excess-eps {
		return true
	}
	if c.Excess > o.Excess+eps {
		return false
	}
	return c.Slowdown < o.Slowdown-eps
}

// hierarchicalCost is the paper's objective for one placement, summed
// over a schedule's jobs: level 0 is the job's wait in excess of the
// decision's bound (seconds), level 1 its bounded slowdown under the
// runtime estimate the scheduler sees. A non-nil div divides the
// slowdown by div[w.QueuePos], which Fairshare fills with values of at
// least 1; nil is the paper's objective.
//
// Both components are non-negative and non-decreasing in start, a start
// before the job's submit included. The search relies on the first: a
// partial schedule's cost then lower-bounds every completion of it, so a
// tail whose partial cost is already no better than the incumbent's is
// counted instead of walked, and Prune cuts such subtrees. The excess is
// written with max, not a branch, so the function fits the inliner's
// budget: the search adds one per node (DESIGN §10).
func hierarchicalCost(w *sim.WaitingJob, start job.Time, bound job.Duration, div []float64) Cost {
	sd := job.BoundedSlowdownAt(w.Job.Submit, w.Estimate, start)
	if div != nil {
		sd /= div[w.QueuePos]
	}
	return Cost{float64(max((start-w.Job.Submit)-bound, 0)), sd}
}

// BoundSpec selects the target wait bound of the first-level goal.
type BoundSpec struct {
	// Dynamic selects the paper's dynB bound: the wait time of the
	// currently longest-waiting job in the queue. When false, the fixed
	// bound Omega is used.
	Dynamic bool
	// Omega is the fixed target wait bound ω (ignored when Dynamic).
	Omega job.Duration
}

// FixedBound returns a fixed target wait bound of ω.
func FixedBound(omega job.Duration) BoundSpec { return BoundSpec{Omega: omega} }

// DynamicBound returns the paper's dynB bound.
func DynamicBound() BoundSpec { return BoundSpec{Dynamic: true} }

// At resolves the bound for a decision point.
func (b BoundSpec) At(snap *sim.Snapshot) job.Duration {
	if !b.Dynamic {
		return b.Omega
	}
	var longest job.Duration
	for _, w := range snap.Queue {
		if wait := snap.Now - w.Job.Submit; wait > longest {
			longest = wait
		}
	}
	return longest
}

// String names the bound in policy names ("dynB", "fixB=100h"). Fixed
// bounds render losslessly in the largest whole unit: whole hours as
// "fixB=100h", whole minutes as "fixB=30m", anything else in seconds
// ("fixB=90s"), so ParseBound(b.String()) always round-trips.
func (b BoundSpec) String() string {
	if b.Dynamic {
		return "dynB"
	}
	switch {
	case b.Omega%job.Hour == 0:
		return fmt.Sprintf("fixB=%dh", b.Omega/job.Hour)
	case b.Omega%job.Minute == 0:
		return fmt.Sprintf("fixB=%dm", b.Omega/job.Minute)
	default:
		return fmt.Sprintf("fixB=%ds", b.Omega)
	}
}

// ParseBound parses the bound component of a policy name: "dynB", or a
// fixed bound as a non-negative integer with an h/m/s unit suffix
// ("100h", "30m", "90s"), optionally in the canonical "fixB=" spelling
// BoundSpec.String emits ("fixB=100h"). Trailing characters are
// rejected: "100h30" is an error, not 100 hours.
func ParseBound(s string) (BoundSpec, error) {
	if s == "dynB" {
		return DynamicBound(), nil
	}
	spec := strings.TrimPrefix(s, "fixB=")
	if len(spec) < 2 {
		return BoundSpec{}, fmt.Errorf("core: bound %q: want dynB or a fixed bound like 100h, 30m or 90s", s)
	}
	var unit job.Duration
	switch spec[len(spec)-1] {
	case 'h':
		unit = job.Hour
	case 'm':
		unit = job.Minute
	case 's':
		unit = 1
	default:
		return BoundSpec{}, fmt.Errorf("core: bound %q: want dynB or a fixed bound like 100h, 30m or 90s", s)
	}
	digits := spec[:len(spec)-1]
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 || n > int64(1)<<62/int64(unit) {
		// The upper limit rejects magnitudes whose seconds conversion
		// would overflow into a negative bound.
		return BoundSpec{}, fmt.Errorf("core: bound %q: want dynB or a fixed bound like 100h, 30m or 90s", s)
	}
	return FixedBound(job.Duration(n) * unit), nil
}
