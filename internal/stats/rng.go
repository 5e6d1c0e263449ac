// Package stats provides the statistical substrate used by the workload
// generator: deterministic seeded random streams, the distributions
// needed to synthesize job traces (log-uniform, mean-targeted truncated
// exponential, hyper-gamma) and small numeric solvers.
//
// Everything in this package is deterministic given a seed, so every
// experiment in the repository is exactly reproducible.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream. It wraps the stdlib PCG source so
// that independent substreams can be derived for separate purposes
// (arrivals, sizes, runtimes, ...) without cross-contamination: drawing
// more values for one purpose must not perturb another purpose's stream.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic stream seeded with (seed, stream).
// Distinct stream numbers derived from the same seed are statistically
// independent.
func NewRNG(seed, stream uint64) *RNG {
	// Mix the pair through SplitMix64 so that nearby (seed, stream)
	// pairs land far apart in PCG state space.
	s1 := splitmix64(seed ^ 0x9e3779b97f4a7c15)
	s2 := splitmix64(seed + 0x6a09e667f3bcc909*(stream+1))
	return &RNG{src: rand.New(rand.NewPCG(s1, s2))}
}

// splitmix64 is the standard SplitMix64 finalizer, used only for seeding.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// LogUniform returns a variate whose logarithm is uniform on
// [log lo, log hi]. It panics if lo <= 0 or hi < lo.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("stats: LogUniform requires 0 < lo <= hi")
	}
	if lo == hi {
		return lo
	}
	return lo * math.Exp(r.src.Float64()*math.Log(hi/lo))
}

// Exp returns an exponential variate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Choose returns an index in [0, len(weights)) drawn with probability
// proportional to weights[i]. Negative weights are treated as zero. If
// all weights are zero it returns 0.
func (r *RNG) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	u := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }
