package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 3)
	b := NewRNG(42, 3)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, stream) produced different values")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, 0)
	b := NewRNG(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams 0 and 1 coincide on %d of 100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(1, 0)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestLogUniform(t *testing.T) {
	r := NewRNG(1, 0)
	lo, hi := 2.0, 512.0
	n := 20000
	below16 := 0
	for i := 0; i < n; i++ {
		v := r.LogUniform(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		if v < 32 {
			below16++
		}
	}
	// log-uniform: P(v < 32) = log(32/2)/log(512/2) = 4/8 = 0.5.
	frac := float64(below16) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("P(v<32) = %.3f, want ~0.5", frac)
	}
	if got := r.LogUniform(7, 7); got != 7 {
		t.Errorf("degenerate LogUniform = %v", got)
	}
}

func TestLogUniformPanics(t *testing.T) {
	r := NewRNG(1, 0)
	for _, c := range [][2]float64{{0, 1}, {-1, 1}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogUniform(%v, %v) did not panic", c[0], c[1])
				}
			}()
			r.LogUniform(c[0], c[1])
		}()
	}
}

func TestChooseRespectsWeights(t *testing.T) {
	r := NewRNG(9, 0)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 40000
	for i := 0; i < n; i++ {
		counts[r.Choose(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / float64(n)
	if frac0 < 0.22 || frac0 > 0.28 {
		t.Errorf("bucket 0 frequency %.3f, want ~0.25", frac0)
	}
}

func TestChooseDegenerate(t *testing.T) {
	r := NewRNG(9, 0)
	if got := r.Choose([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero weights chose %d, want 0", got)
	}
	if got := r.Choose([]float64{-1, 2}); got != 1 {
		t.Errorf("negative weight treated as positive: chose %d", got)
	}
}

func TestTruncExpMeanMatchesSamples(t *testing.T) {
	r := NewRNG(3, 0)
	for _, c := range []struct{ lo, hi, mean float64 }{
		{0, 3600, 300},
		{3600, 18000, 9000},
		{18000, 43200, 40000},
		{0, 100, 50},
	} {
		d, err := SolveTruncExp(c.lo, c.hi, c.mean)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Mean(); math.Abs(got-c.mean) > 1e-6*(c.hi-c.lo)+1e-9 {
			t.Errorf("analytic mean %v, want %v", got, c.mean)
		}
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if v < c.lo || v > c.hi {
				t.Fatalf("sample %v outside [%v, %v]", v, c.lo, c.hi)
			}
			sum += v
		}
		emp := sum / n
		if math.Abs(emp-c.mean) > 0.02*(c.hi-c.lo) {
			t.Errorf("empirical mean %v, want %v (lo %v hi %v)", emp, c.mean, c.lo, c.hi)
		}
	}
}

func TestSolveTruncExpClampsUnreachableMeans(t *testing.T) {
	d, err := SolveTruncExp(0, 100, 1000) // mean above the interval
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() < 90 || d.Mean() > 100 {
		t.Errorf("clamped mean %v, want near 100", d.Mean())
	}
	d, err = SolveTruncExp(0, 100, -50)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() < 0 || d.Mean() > 10 {
		t.Errorf("clamped mean %v, want near 0", d.Mean())
	}
}

func TestSolveTruncExpDegenerate(t *testing.T) {
	if _, err := SolveTruncExp(10, 5, 7); err == nil {
		t.Error("hi < lo accepted")
	}
	d, err := SolveTruncExp(5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 5 {
		t.Errorf("point distribution mean %v", d.Mean())
	}
	r := NewRNG(1, 0)
	if got := d.Sample(r); got != 5 {
		t.Errorf("point distribution sample %v", got)
	}
}

func TestSolveTruncExpProperty(t *testing.T) {
	// For any feasible target, the solved distribution's analytic mean
	// hits the target within tolerance.
	prop := func(seed uint16) bool {
		r := NewRNG(uint64(seed), 0)
		lo := r.Uniform(0, 1000)
		hi := lo + r.Uniform(1, 10000)
		mean := r.Uniform(lo+0.05*(hi-lo), hi-0.05*(hi-lo))
		d, err := SolveTruncExp(lo, hi, mean)
		if err != nil {
			return false
		}
		return math.Abs(d.Mean()-mean) < 1e-6*(hi-lo)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
