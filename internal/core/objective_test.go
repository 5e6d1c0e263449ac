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
	c := HierarchicalCost(w, 7200, 7200, 3600)
	if c.Excess != 3600 {
		t.Errorf("excess = %v, want 3600", c.Excess)
	}
	// Bounded slowdown: (wait + rt)/rt = (7200+3600)/3600 = 3.
	if c.Slowdown != 3 {
		t.Errorf("bsld = %v, want 3", c.Slowdown)
	}
	// Within the bound: zero excess.
	c = HierarchicalCost(w, 3000, 3000, 3600)
	if c.Excess != 0 {
		t.Errorf("excess = %v, want 0", c.Excess)
	}
}

func TestHierarchicalCostShortJobFloor(t *testing.T) {
	// A 10-second job uses the 1-minute floor: bsld = 1 + wait/60s.
	w := waiting(1, 0, 1, 10)
	c := HierarchicalCost(w, 120, 120, 1<<40)
	want := float64(120+60) / 60
	if c.Slowdown != want {
		t.Errorf("bsld = %v, want %v", c.Slowdown, want)
	}
}

// TestCostFnsNonNegative checks CostFn's contract, which the search's
// settled tails and Prune rely on, for the shipped costs: the paper's
// and Fairshare's wrapping of it, on random placements, starts before
// submit included.
func TestCostFnsNonNegative(t *testing.T) {
	// Fairshare builds its cost per decision: take the one the search
	// is handed, after a first decision has accrued user 7's usage.
	fs := NewFairshare(New(DDS, HeuristicLXF, DynamicBound(), 1000), 0)
	var wrapped CostFn
	fs.Inner.s.tailHook = func(s *searchState) {
		wrapped = s.cost
		refTail(s)
	}
	warm := fairshareScenario()
	warm.Now -= 50000
	fs.Decide(warm)
	fs.Decide(fairshareScenario())
	if wrapped == nil {
		t.Fatal("the search was never handed Fairshare's cost")
	}

	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 20000; i++ {
		now := job.Time(rng.Int63n(1 << 30))
		w := waiting(1+rng.Intn(100), now-job.Time(rng.Int63n(1<<20)), 1+rng.Intn(128), job.Duration(rng.Int63n(1<<16)))
		w.Job.User = []int{0, 7, 8}[rng.Intn(3)]
		start := w.Job.Submit + job.Time(rng.Int63n(1<<21)) - 1<<20
		bound := job.Duration(rng.Int63n(1 << 20))
		fs.Alpha = rng.ExpFloat64() * 10
		for name, c := range map[string]Cost{
			"HierarchicalCost": HierarchicalCost(w, start, now, bound),
			"Fairshare":        wrapped(w, start, now, bound),
		} {
			if c.Excess < 0 || c.Slowdown < 0 {
				t.Fatalf("%s of job %+v started at %d (now %d, bound %d, alpha %g) = %v: a component is negative",
					name, w.Job, start, now, bound, fs.Alpha, c)
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
