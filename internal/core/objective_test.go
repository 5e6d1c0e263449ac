package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

func TestCostLess(t *testing.T) {
	cases := []struct {
		a, b Cost
		want bool
	}{
		{Cost{0, 5}, Cost{1, 0}, true},                 // lower excess wins regardless of slowdown
		{Cost{1, 0}, Cost{0, 5}, false},                //
		{Cost{2, 3}, Cost{2, 4}, true},                 // tie on excess: lower slowdown wins
		{Cost{2, 4}, Cost{2, 3}, false},                //
		{Cost{2, 3}, Cost{2, 3}, false},                // equal is not less
		{Cost{2, 3}, Cost{2.0000000000001, 3.1}, true}, // epsilon tie on level 0
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCostLessEpsilon pins what Less's per-level epsilon decides: a gap
// of 5e-10 is a tie, passed to the next level, and a gap of 2e-9 is not;
// two summation orders of the same slowdowns, a few ulps apart, compare
// equal. A larger epsilon merges real gaps, and none at all lets float
// rounding pick between equal schedules.
func TestCostLessEpsilon(t *testing.T) {
	for _, c := range []struct {
		a, b Cost
		want bool // a.Less(b); b.Less(a) is its complement on these rows
	}{
		{Cost{100, 5}, Cost{100 + 5e-10, 3}, false}, // level 0 ties: level 1 decides
		{Cost{100, 5}, Cost{100 + 2e-9, 3}, true},   // level 0 decides
		{Cost{7, 10}, Cost{7, 10 + 2e-9}, true},     // level 1 decides
	} {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Less(c.a); got == c.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", c.b, c.a, got, !c.want)
		}
	}
	// Ties at level 1: neither is Less.
	sd := []float64{1.1, 2.2, 3.3, 10.0 / 3, 40.0 / 7, 1000.0 / 9, 0.7}
	var fwd, bwd Cost
	for i := range sd {
		fwd = fwd.Add(Cost{0, sd[i]})
		bwd = bwd.Add(Cost{0, sd[len(sd)-1-i]})
	}
	if fwd == bwd {
		t.Fatalf("both summation orders give %v: the test needs them to differ", fwd)
	}
	for _, pair := range [][2]Cost{{fwd, bwd}, {Cost{7, 10}, Cost{7, 10 + 5e-10}}} {
		if pair[0].Less(pair[1]) || pair[1].Less(pair[0]) {
			t.Errorf("%v and %v: one is Less, want a tie", pair[0], pair[1])
		}
	}
}

func TestCostLessIsStrictOrder(t *testing.T) {
	// Irreflexivity and asymmetry over random costs.
	prop := func(a0, a1, b0, b1 float64) bool {
		a, b := Cost{a0, a1}, Cost{b0, b1}
		if a.Less(a) {
			return false
		}
		if a.Less(b) && b.Less(a) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostAddSub(t *testing.T) {
	a, b := Cost{1, 2}, Cost{3, 4}
	if got := a.Add(b); got != (Cost{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Cost{2, 2}) {
		t.Errorf("Sub = %v", got)
	}
}

func waiting(id int, submit job.Time, nodes int, est job.Duration) sim.WaitingJob {
	return sim.WaitingJob{
		Job:      job.Job{ID: id, Submit: submit, Nodes: nodes, Runtime: est, Request: est},
		Estimate: est,
	}
}

func TestHierarchicalCost(t *testing.T) {
	w := waiting(1, 0, 1, 3600)
	// Started at t=7200 with bound 3600: one hour of excess.
	c := hierarchicalCost(&w, 7200, 3600, nil)
	if c.Excess != 3600 {
		t.Errorf("excess = %v, want 3600", c.Excess)
	}
	// Bounded slowdown: (wait + rt)/rt = (7200+3600)/3600 = 3.
	if c.Slowdown != 3 {
		t.Errorf("bsld = %v, want 3", c.Slowdown)
	}
	// Within the bound: zero excess.
	c = hierarchicalCost(&w, 3000, 3600, nil)
	if c.Excess != 0 {
		t.Errorf("excess = %v, want 0", c.Excess)
	}
}

func TestHierarchicalCostShortJobFloor(t *testing.T) {
	// A 10-second job uses the 1-minute floor: bsld = 1 + wait/60s.
	w := waiting(1, 0, 1, 10)
	c := hierarchicalCost(&w, 120, 1<<40, nil)
	want := float64(120+60) / 60
	if c.Slowdown != want {
		t.Errorf("bsld = %v, want %v", c.Slowdown, want)
	}
}

// TestCostNonNegativeAndMonotone checks the two properties of
// hierarchicalCost that the search's settled tails, Prune and an
// admissible remainder bound rest on: on random placements, starts
// before submit included, both components are non-negative and neither
// falls as the start moves later. It checks the paper's objective (nil
// divisors) and divisors as Fairshare fills them: any value of at least
// 1, which the divisors of real decisions are.
func TestCostNonNegativeAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 1000), 0)
	warm := fairshareScenario()
	warm.Now -= 50000
	fs.Decide(warm)
	for i := 0; i < 100; i++ {
		fs.Alpha = rng.ExpFloat64() * 10
		fs.Decide(fairshareScenario())
		for _, d := range fs.div {
			if !(d >= 1) {
				t.Fatalf("alpha %g: Fairshare filled divisors %v, want each >= 1", fs.Alpha, fs.div)
			}
		}
	}

	for i := 0; i < 20000; i++ {
		now := job.Time(rng.Int63n(1 << 30))
		w := waiting(1+rng.Intn(100), now-job.Time(rng.Int63n(1<<20)), 1+rng.Intn(128), job.Duration(rng.Int63n(1<<16)))
		start := w.Job.Submit + job.Time(rng.Int63n(1<<21)) - 1<<20
		later := start + job.Time(rng.Int63n(1<<12))
		bound := job.Duration(rng.Int63n(1 << 20))
		for _, div := range [][]float64{nil, {1 + rng.ExpFloat64()*10*float64(rng.Intn(2))}} {
			c, cl := hierarchicalCost(&w, start, bound, div), hierarchicalCost(&w, later, bound, div)
			if c.Excess < 0 || c.Slowdown < 0 {
				t.Fatalf("job %+v started at %d (bound %d, divisors %v) costs %v: a component is negative",
					w.Job, start, bound, div, c)
			}
			if cl.Excess < c.Excess || cl.Slowdown < c.Slowdown {
				t.Fatalf("job %+v (bound %d, divisors %v) costs %v at %d but %v at the later %d: a component fell",
					w.Job, bound, div, c, start, cl, later)
			}
		}
	}
}

func TestBoundSpecAt(t *testing.T) {
	fixed := FixedBound(100 * job.Hour)
	snap := &sim.Snapshot{Now: 5000}
	snap.Queue = []sim.WaitingJob{waiting(1, 2000, 1, 60), waiting(2, 4000, 1, 60)}
	if got := fixed.At(snap); got != 100*job.Hour {
		t.Errorf("fixed bound = %d", got)
	}
	dyn := DynamicBound()
	if got := dyn.At(snap); got != 3000 {
		t.Errorf("dynamic bound = %d, want 3000 (longest current wait)", got)
	}
	// Empty queue: dynamic bound is zero.
	if got := dyn.At(&sim.Snapshot{Now: 5000}); got != 0 {
		t.Errorf("dynamic bound on empty queue = %d, want 0", got)
	}
}

func TestBoundSpecString(t *testing.T) {
	if got := DynamicBound().String(); got != "dynB" {
		t.Errorf("String = %q", got)
	}
	if got := FixedBound(50 * job.Hour).String(); got != "fixB=50h" {
		t.Errorf("String = %q", got)
	}
}

// TestDynamicBoundProtectsLongestWaiter: under dynB, the schedule that
// starts the longest-waiting job now always beats one that delays it,
// all else equal — the mechanism that bounds maximum wait.
func TestDynamicBoundProtectsLongestWaiter(t *testing.T) {
	// Machine with 2 free nodes; an old 2-node job and two fresh 1-node
	// jobs. Starting both fresh jobs now fills the machine and delays
	// the old job past its (dynamic) bound; the search should start the
	// old job instead.
	now := job.Time(100 * 3600)
	old := waiting(1, now-50*3600, 2, 10*3600) // waited 50h
	f1 := waiting(2, now-60, 1, 10*3600)
	f2 := waiting(3, now-30, 1, 10*3600)
	snap := &sim.Snapshot{Now: now, Capacity: 2, FreeNodes: 2,
		Queue: []sim.WaitingJob{old, f1, f2}}
	for i := range snap.Queue {
		snap.Queue[i].QueuePos = i
	}
	sch := New(DDS, HeuristicLXF, DynamicBound(), 10000)
	starts := sch.Decide(snap)
	if len(starts) != 1 || starts[0] != 0 {
		t.Errorf("Decide = %v, want [0] (start the 50h-old 2-node job)", starts)
	}
}

// registerShape reports why the compiler would not keep a value of type
// t in registers, or "" if it would. The rule is CanSSA's in
// cmd/compile/internal/ssa (go1.24): at most four words, at most four
// fields per struct (MaxStruct), no array longer than one element, and
// the same for every field. A type that breaks it is built on the stack
// and copied, and a 16-byte reload of two 8-byte stores stalls the CPU
// (no store-to-load forwarding) on every search node (DESIGN §10).
func registerShape(t reflect.Type) string {
	if t.Size() > 4*unsafe.Sizeof(uintptr(0)) {
		return fmt.Sprintf("%s is %d bytes, more than four words", t, t.Size())
	}
	switch t.Kind() {
	case reflect.Array:
		if t.Len() > 1 {
			return fmt.Sprintf("%s is an array of %d elements", t, t.Len())
		}
		return registerShape(t.Elem())
	case reflect.Struct:
		if t.NumField() > 4 {
			return fmt.Sprintf("%s has %d fields, more than four", t, t.NumField())
		}
		for i := 0; i < t.NumField(); i++ {
			if why := registerShape(t.Field(i).Type); why != "" {
				return why
			}
		}
	}
	return ""
}

// TestCostFitsInRegisters keeps the cost every search node adds up in
// registers.
func TestCostFitsInRegisters(t *testing.T) {
	typ := reflect.TypeOf(Cost{})
	if typ.Kind() != reflect.Struct {
		t.Fatalf("%s is of kind %s, want a struct", typ, typ.Kind())
	}
	if why := registerShape(typ); why != "" {
		t.Error(why)
	}
}
