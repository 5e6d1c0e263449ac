package main

import (
	"io"
	"math"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {120, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Quartiles must be Python's statistics.quantiles(xs, n=4): the
// acceptance spread is defined on them.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{3748.5, 3663.2, 3035.5, 3617.5, 4510.0, 4780.8, 4867.2, 5447.6, 5251.9, 4214.6}
	// statistics.quantiles(xs, n=4) -> [3651.775, 4362.3, 4963.375]
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 3651.775) || !near(q2, 4362.3) || !near(q3, 4963.375) {
		t.Errorf("quartiles = %v %v %v, want 3651.775 4362.3 4963.375", q1, q2, q3)
	}
	if got, want := spread(xs), (4963.375-3651.775)/4362.3; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two points extrapolate, as Python does: quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles([1 2]) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestPassSecondsTakesEachSegmentsFastestRound(t *testing.T) {
	u := newUnitTimes()
	// Unit a is timed whole; unit b in two segments.
	for _, r := range [][3]float64{{1.0, 0.5, 1.5}, {1.5, 0.4, 1.4}, {0.9, 0.7, 1.9}} {
		u.add("a", r[0])
		u.add("b", r[1], r[2])
	}
	if got := u.passSeconds(); !near(got, 0.9+0.4+1.4) {
		t.Errorf("passSeconds = %v, want 2.7", got)
	}
	if got := u.roundSeconds(); !near(got, 0.9+1.8) {
		t.Errorf("roundSeconds = %v, want 2.7", got)
	}
	if got := u.medianSeconds(); !near(got, 1.0+2.0) {
		t.Errorf("medianSeconds = %v, want 3.0", got)
	}
	if got := u.totalSeconds(); !near(got, 1.0+1.5+0.9+2.0+1.8+2.6) {
		t.Errorf("totalSeconds = %v, want 9.8", got)
	}
	// A round whose segments do not line up is kept only whole, and only
	// if it is the faster.
	u.add("b", 0.1, 0.1, 2.0)
	if got := u.passSeconds(); !near(got, 0.9+0.4+1.4) {
		t.Errorf("passSeconds after a slower misaligned round = %v, want 2.7", got)
	}
	u.add("b", 0.1, 0.1, 1.0)
	if got := u.passSeconds(); !near(got, 0.9+1.2) {
		t.Errorf("passSeconds after a faster misaligned round = %v, want 2.1", got)
	}
}

func TestMarksSegmentsAddUp(t *testing.T) {
	m := newMarks()
	m.mark(m.base.Add(2 * time.Second))
	m.mark(m.base.Add(3 * time.Second))
	got := m.segments(m.base.Add(7 * time.Second))
	if len(got) != 3 || !near(got[0], 2) || !near(got[1], 1) || !near(got[2], 4) {
		t.Errorf("segments = %v, want [2 1 4]", got)
	}
	var none *marks
	none.mark(time.Now()) // a nil *marks takes no marks
}

func TestDecideTimesTakeEachDecisionsFastestRound(t *testing.T) {
	var d decideTimes
	d.add("a", []float64{5, 1, 9})
	d.add("b", []float64{4})
	d.add("a", []float64{3, 2, 7})
	if got, want := d.all(), []float64{1, 3, 4, 7}; !slices.Equal(got, want) {
		t.Errorf("all = %v, want %v", got, want)
	}
}

// A traced run alternates untraced and traced rounds, untraced first,
// always in pairs.
func TestRoundsPairUp(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var got []round
		between := 0
		n, err := rounds(&runCtx{Seconds: 0, Trace: trace, Log: io.Discard}, 3, func() error { between++; return nil }, func(r round) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 3
		if trace {
			want = 6
		}
		if n != want || len(got) != want || between != want {
			t.Fatalf("trace=%v: %d rounds, want %d", trace, n, want)
		}
		for i, r := range got {
			if r.N != i || r.Traced != (trace && i%2 == 1) {
				t.Errorf("trace=%v round %d = %+v", trace, i, r)
			}
		}
	}
}

// Weighted by time, the median of a bimodal sample sits in the mode
// that holds the time, not on the cliff between the modes.
func TestWeightedPercentile(t *testing.T) {
	s := []float64{1, 1, 1, 1, 1, 1, 100, 100, 100, 100}
	if got := percentileSorted(s, 50); got != 1 {
		t.Errorf("plain p50 = %v, want 1", got)
	}
	if got := weightedPercentileSorted(s, 50); got != 100 {
		t.Errorf("weighted p50 = %v, want 100", got)
	}
	if got := weightedPercentileSorted([]float64{1, 2, 3, 4}, 50); got != 3 {
		t.Errorf("weighted p50 of 1..4 = %v, want 3 (1+2+3 is the first sum to reach 5)", got)
	}
	if got := weightedPercentileSorted(nil, 50); got != 0 {
		t.Errorf("weighted p50 of nothing = %v, want 0", got)
	}
}
