package stats

import (
	"math"
	"testing"
)

func TestIntN(t *testing.T) {
	r := NewRNG(1, 0)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := r.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("IntN bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestExp(t *testing.T) {
	r := NewRNG(2, 0)
	const mean = 250.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-mean) > 0.02*mean {
		t.Errorf("empirical mean %v, want %v", got, mean)
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(4, 0)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sum := 0
	r.Shuffle(len(xs), func(i, k int) { xs[i], xs[k] = xs[k], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(5, 0)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) frequency %v", frac)
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Nearby inputs must produce far-apart outputs.
	a := splitmix64(1)
	b := splitmix64(2)
	diff := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		diff++
	}
	if diff < 16 {
		t.Errorf("splitmix64(1) and splitmix64(2) differ in only %d bits", diff)
	}
}
