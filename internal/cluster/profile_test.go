package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Origin returns the earliest time the profile covers.
func (p *Profile) Origin() Time { return p.steps[0].At }

// Len returns the number of steps.
func (p *Profile) Len() int { return len(p.steps) }

// naive is a brute-force reference: free capacity per second over a
// bounded horizon.
type naive struct {
	capacity int
	origin   Time
	free     []int // free[t-origin]
}

func newNaive(capacity int, origin Time, horizon int) *naive {
	n := &naive{capacity: capacity, origin: origin, free: make([]int, horizon)}
	for i := range n.free {
		n.free[i] = capacity
	}
	return n
}

// naiveOf returns the reference for p's steps: every second from the
// origin to the last step's start (the machine is free after it).
func naiveOf(p *Profile) *naive {
	last := len(p.steps) - 1
	n := newNaive(p.capacity, p.Origin(), int(p.steps[last].At-p.Origin()))
	free := 0
	for i, s := range p.steps[:last] {
		free += s.Delta
		for x := s.At; x < p.steps[i+1].At; x++ {
			n.free[x-n.origin] = free
		}
	}
	return n
}

func (n *naive) place(t Time, nodes int, d Duration) {
	for x := t - n.origin; x < t-n.origin+d; x++ {
		n.free[x] -= nodes
	}
}

func (n *naive) unplace(t Time, nodes int, d Duration) {
	for x := t - n.origin; x < t-n.origin+d; x++ {
		n.free[x] += nodes
	}
}

func (n *naive) earliestFit(after Time, nodes int, d Duration) Time {
	for t := after - n.origin; ; t++ {
		ok := true
		for x := t; x < t+d; x++ {
			if int(x) >= len(n.free) {
				break // beyond horizon: fully free
			}
			if n.free[x] < nodes {
				ok = false
				t = x // restart after the blocking second
				break
			}
		}
		if ok {
			return n.origin + t
		}
	}
}

func TestProfileEmpty(t *testing.T) {
	p := New(16, 100)
	if got := p.EarliestFit(100, 16, 1000); got != 100 {
		t.Errorf("EarliestFit on empty profile = %d, want 100", got)
	}
	if got := p.EarliestFit(250, 1, 1); got != 250 {
		t.Errorf("EarliestFit(after=250) = %d, want 250", got)
	}
	if got := p.FreeAt(100); got != 16 {
		t.Errorf("FreeAt(origin) = %d, want 16", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsRejects hands CheckInvariants broken step lists,
// each breaking one invariant only, and requires an error for each: the
// tests that lean on the checker are only as strict as it is.
func TestCheckInvariantsRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		steps []step
	}{
		{"empty", nil},
		{"overfull", []step{{0, 4}, {10, 1}, {20, -1}}},
		{"negative free", []step{{0, 4}, {10, -5}, {20, 5}}},
		{"steps out of order", []step{{0, 2}, {10, 1}, {10, 1}}},
		{"final free short of capacity", []step{{0, 4}, {10, -1}}},
	} {
		p := &Profile{capacity: 4, steps: c.steps}
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s: steps %v pass CheckInvariants", c.name, c.steps)
		}
	}
	if err := (&Profile{capacity: 4, steps: []step{{0, 4}, {10, -3}, {20, 3}}}).CheckInvariants(); err != nil {
		t.Errorf("a valid profile fails: %v", err)
	}
}

func TestProfilePlaceThenFit(t *testing.T) {
	p := New(10, 0)
	p.Place(0, 10, 100) // machine full for [0, 100)
	if got := p.EarliestFit(0, 1, 10); got != 100 {
		t.Errorf("fit during full machine = %d, want 100", got)
	}
	p.Place(100, 4, 50) // 6 free in [100, 150)
	if got := p.EarliestFit(0, 6, 50); got != 100 {
		t.Errorf("fit of 6 nodes = %d, want 100", got)
	}
	if got := p.EarliestFit(0, 7, 50); got != 150 {
		t.Errorf("fit of 7 nodes = %d, want 150", got)
	}
	if got := p.EarliestFit(0, 7, 1); got != 150 {
		t.Errorf("fit of short 7-node job = %d, want 150", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileFitSpansHole(t *testing.T) {
	p := New(10, 0)
	p.Place(50, 8, 10) // only 2 free in [50, 60)
	// A 3-node 100-second job cannot run through the hole.
	if got := p.EarliestFit(0, 3, 100); got != 60 {
		t.Errorf("fit spanning hole = %d, want 60", got)
	}
	// But it fits before the hole if short enough.
	if got := p.EarliestFit(0, 3, 50); got != 0 {
		t.Errorf("fit before hole = %d, want 0", got)
	}
	// And a 2-node job can run through the hole.
	if got := p.EarliestFit(0, 2, 100); got != 0 {
		t.Errorf("2-node fit through hole = %d, want 0", got)
	}
}

func TestProfileZeroDuration(t *testing.T) {
	p := New(4, 0)
	p.Place(0, 4, 10)
	if got := p.EarliestFit(0, 1, 0); got != 10 {
		t.Errorf("zero-duration fit = %d, want 10", got)
	}
}

func TestProfileUndoRestoresSteps(t *testing.T) {
	p := New(8, 0)
	p.Place(0, 3, 100)
	p.Place(20, 2, 30)
	before := p.Clone()

	pl1 := p.Place(10, 1, 500)
	pl2 := p.Place(50, 2, 25)
	p.Undo(pl2)
	p.Undo(pl1)

	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != len(before.steps) {
		t.Fatalf("undo left %d steps, want %d", len(p.steps), len(before.steps))
	}
	for i := range p.steps {
		if p.steps[i] != before.steps[i] {
			t.Errorf("step %d = %+v, want %+v", i, p.steps[i], before.steps[i])
		}
	}
}

func TestProfilePlacePanicsWhenInfeasible(t *testing.T) {
	p := New(4, 0)
	p.Place(0, 4, 10)
	defer func() {
		if recover() == nil {
			t.Error("Place on a full machine did not panic")
		}
	}()
	p.Place(5, 1, 2)
}

func TestProfileEarliestFitArgValidation(t *testing.T) {
	p := New(4, 0)
	for _, n := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EarliestFit(n=%d) did not panic", n)
				}
			}()
			p.EarliestFit(0, n, 1)
		}()
	}
}

// TestProfileRandomAgainstNaive drives the profile with random
// place/fit/undo sequences and cross-checks every answer against the
// brute-force per-second reference.
func TestProfileRandomAgainstNaive(t *testing.T) {
	const horizon = 400
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(32)
		p := New(capacity, 0)
		ref := newNaive(capacity, 0, horizon)

		type placed struct {
			pl    Placement
			t     Time
			nodes int
			d     Duration
		}
		var stack []placed

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // place at earliest fit
				nodes := 1 + rng.Intn(capacity)
				d := Duration(1 + rng.Intn(60))
				after := Time(rng.Intn(horizon / 2))
				got := p.EarliestFit(after, nodes, d)
				want := ref.earliestFit(after, nodes, d)
				if got != want {
					t.Fatalf("trial %d step %d: EarliestFit(after=%d, n=%d, d=%d) = %d, want %d",
						trial, step, after, nodes, d, got, want)
				}
				if int(got)+int(d) >= horizon {
					continue // keep the reference in range
				}
				pl := p.Place(got, nodes, d)
				ref.place(got, nodes, d)
				stack = append(stack, placed{pl: pl, t: got, nodes: nodes, d: d})
			case op < 8: // undo last placement (LIFO)
				if len(stack) == 0 {
					continue
				}
				last := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				p.Undo(last.pl)
				ref.unplace(last.t, last.nodes, last.d)
			default: // spot-check FreeAt
				at := Time(rng.Intn(horizon))
				if got, want := p.FreeAt(at), ref.free[at]; got != want {
					t.Fatalf("trial %d step %d: FreeAt(%d) = %d, want %d",
						trial, step, at, got, want)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestProfileFitIsFeasibleAndMinimal is a quick-check property: the
// returned fit time is feasible for the whole duration, and starting one
// second earlier (down to `after`) is infeasible.
func TestProfileFitIsFeasibleAndMinimal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		p := New(capacity, 0)
		// Random prior load.
		for i := 0; i < rng.Intn(12); i++ {
			n := 1 + rng.Intn(capacity)
			d := Duration(1 + rng.Intn(50))
			t0, _ := p.PlaceEarliest(Time(rng.Intn(100)), n, d)
			_ = t0
		}
		nodes := 1 + rng.Intn(capacity)
		d := Duration(1 + rng.Intn(50))
		after := Time(rng.Intn(100))
		fit := p.EarliestFit(after, nodes, d)
		if fit < after {
			return false
		}
		feasible := func(start Time) bool {
			for x := start; x < start+d; x++ {
				if p.FreeAt(x) < nodes {
					return false
				}
			}
			return true
		}
		if !feasible(fit) {
			return false
		}
		// Minimality: no earlier feasible start in [after, fit).
		for s := fit - 1; s >= after && s > fit-30; s-- {
			if feasible(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileCloneIsIndependent(t *testing.T) {
	p := New(8, 0)
	p.Place(0, 4, 100)
	c := p.Clone()
	c.Place(0, 4, 50)
	if got := p.FreeAt(10); got != 4 {
		t.Errorf("original mutated by clone placement: FreeAt(10) = %d, want 4", got)
	}
	if got := c.FreeAt(10); got != 0 {
		t.Errorf("clone FreeAt(10) = %d, want 0", got)
	}
}

func TestProfileLenGrowth(t *testing.T) {
	p := New(100, 0)
	var pls []Placement
	for i := 0; i < 50; i++ {
		_, pl := p.PlaceEarliest(Time(i), 1, Duration(10+i))
		pls = append(pls, pl)
	}
	if p.Len() > 2*50+1 {
		t.Errorf("profile has %d steps after 50 placements, want <= 101", p.Len())
	}
	for i := len(pls) - 1; i >= 0; i-- {
		p.Undo(pls[i])
	}
	if p.Len() != 1 {
		t.Errorf("profile has %d steps after undoing everything, want 1", p.Len())
	}
}

// BenchmarkPlaceEarliestUndo times a search node's profile work: one
// PlaceEarliest from the origin and its Undo, on a 128-node machine with
// 100 nodes busy until staggered ends. It allocates nothing.
func BenchmarkPlaceEarliestUndo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := New(128, 0)
	for used := 0; used < 100; {
		n := min(1+rng.Intn(16), 100-used)
		p.Place(0, n, Duration(600+rng.Intn(36000)))
		used += n
	}
	type req struct {
		n int
		d Duration
	}
	reqs := make([]req, 64)
	for i := range reqs {
		reqs[i] = req{min(1<<rng.Intn(7), 128), Duration(60 * (1 + rng.Intn(240)))}
	}
	node := func(i int) {
		r := reqs[i%len(reqs)]
		_, pl := p.PlaceEarliest(0, r.n, r.d)
		p.Undo(pl)
	}
	for i := range reqs {
		node(i) // grow the steps to their widest
	}
	if avg := testing.AllocsPerRun(len(reqs), func() { node(rng.Intn(len(reqs))) }); avg > 0 {
		b.Errorf("PlaceEarliest and Undo allocate %.1f times per call", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node(i)
	}
}
