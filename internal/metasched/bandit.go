package metasched

import "math"

// The bandit's tuning, fixed at the values every run has used: no
// caller or measurement ever set them otherwise.
const (
	// gamma discounts past losses so the portfolio tracks workload
	// regime changes within a month.
	gamma = 0.98
	// stickyMargin is the switch hysteresis: the portfolio switches arms
	// only when the best arm's discounted mean loss undercuts the
	// incumbent's by this relative margin.
	stickyMargin = 0.25
	// stickyGap is the absolute floor of the hysteresis: below this
	// mean-loss gap a switch is never taken, whatever the relative
	// margin says.
	stickyGap = 0.005
)

// greedyBandit is the arm-selection state machine: discounted
// follow-the-leader over full-information losses, with switch
// hysteresis. Every decision, every arm's shadow plan is scored, so no
// exploration bonus is needed. pick returns the arm to commit this
// decision using only past observations; observe feeds the round's
// normalized losses (one per arm, in [0, 1]). Ties break on the lowest
// arm index, so selection is a pure function of the observation
// history. The hysteresis keeps the current pick unless the best arm's
// discounted mean loss undercuts it by the relative margin — plan
// scores are myopic one-step estimates, so a marginal advantage is
// noise and flickering between arms mid-trajectory costs more than it
// wins.
type greedyBandit struct {
	loss   []float64 // discounted loss sums
	count  []float64 // discounted observation counts
	sticky int       // current pick (-1 before the first)
}

func newGreedyBandit(arms int) *greedyBandit {
	return &greedyBandit{
		loss:   make([]float64, arms),
		count:  make([]float64, arms),
		sticky: -1,
	}
}

func (b *greedyBandit) pick() int {
	best, bestMean := 0, math.Inf(1)
	for i := range b.loss {
		mean := 0.0
		if b.count[i] > 0 {
			mean = b.loss[i] / b.count[i]
		}
		if mean < bestMean {
			best, bestMean = i, mean
		}
	}
	if b.sticky >= 0 && best != b.sticky {
		cur := 0.0
		if b.count[b.sticky] > 0 {
			cur = b.loss[b.sticky] / b.count[b.sticky]
		}
		// Relative margin plus an absolute floor: with regret-
		// proportional losses the discounted means hover near zero on
		// quiet stretches, where a purely relative test would still
		// flicker on noise.
		if cur-bestMean <= stickyMargin*cur+stickyGap {
			return b.sticky
		}
	}
	b.sticky = best
	return best
}

func (b *greedyBandit) observe(losses []float64) {
	for i, l := range losses {
		b.loss[i] = gamma*b.loss[i] + l
		b.count[i] = gamma*b.count[i] + 1
	}
}
