package schedsearch_test

import (
	"strings"
	"testing"

	"schedsearch"
	"schedsearch/internal/core"
)

// TestParsePolicyErrors covers every rejection path of ParsePolicy.
func TestParsePolicyErrors(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantSub string // substring the error must carry
	}{
		{"empty", "", "unknown policy"},
		{"unknown flat name", "EASY-backfill", "unknown policy"},
		{"two parts", "DDS/lxf", "unknown policy"},
		{"four parts", "DDS/lxf/dynB/extra", "unknown policy"},
		{"unknown algorithm", "BFS/lxf/dynB", "unknown search algorithm"},
		{"lowercase algorithm", "dds/lxf/dynB", "unknown search algorithm"},
		{"adjacent DDS", "ADDS/lxf/dynB", "unknown search algorithm"},
		{"climbing adjacent DDS", "CDDS/lxf/dynB", "unknown search algorithm"},
		{"unknown heuristic", "DDS/sjf/dynB", "unknown branching heuristic"},
		{"uppercase heuristic", "DDS/LXF/dynB", "unknown branching heuristic"},
		{"malformed bound", "DDS/lxf/12q", "bound"},
		{"negative bound", "DDS/lxf/-5h", "bound"},
		{"bare number bound", "DDS/lxf/12", "bound"},
		{"empty bound", "DDS/lxf/", "bound"},
		{"dynB typo", "DDS/lxf/dynb", "bound"},
		{"trailing garbage after unit", "DDS/lxf/100h30", "bound"},
		{"trailing garbage canonical", "DDS/lxf/fixB=100h30", "bound"},
		{"bare fixB prefix", "DDS/lxf/fixB=", "bound"},
		{"unit only", "DDS/lxf/h", "bound"},
		{"non-digit magnitude", "DDS/lxf/1x0h", "bound"},
		{"overflow magnitude", "DDS/lxf/99999999999999999999h", "bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := schedsearch.ParsePolicy(tc.input, 100)
			if err == nil {
				t.Fatalf("ParsePolicy(%q) accepted as %q", tc.input, pol.Name())
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ParsePolicy(%q) error %q, want mention of %q", tc.input, err, tc.wantSub)
			}
		})
	}
}

// TestParsePolicyRoundTrips: ParsePolicy(p.Name()) must reconstruct p
// for every constructible search policy — all algorithm, heuristic and
// bound combinations — and the shorthand bound spellings must build the
// same policy as the canonical "fixB=" form Scheduler.Name emits.
func TestParsePolicyRoundTrips(t *testing.T) {
	algos := []core.Algorithm{core.LDS, core.DDS, core.DFS}
	heurs := []core.Heuristic{core.HeuristicFCFS, core.HeuristicLXF}
	bounds := []core.BoundSpec{
		core.DynamicBound(),
		core.FixedBound(0),
		core.FixedBound(100 * 3600), // 100h
		core.FixedBound(30 * 60),    // 30m: must not round-trip through "0h"
		core.FixedBound(90),         // 90s
		core.FixedBound(3601),       // 1h1s: seconds spelling
	}
	for _, algo := range algos {
		for _, h := range heurs {
			for _, b := range bounds {
				sch := core.New(algo, h, b, 100)
				name := sch.Name()
				pol, err := schedsearch.ParsePolicy(name, 100)
				if err != nil {
					t.Fatalf("ParsePolicy(%q) failed: %v", name, err)
				}
				if pol.Name() != name {
					t.Fatalf("round trip %q -> %q", name, pol.Name())
				}
				back, ok := pol.(*core.Scheduler)
				if !ok {
					t.Fatalf("ParsePolicy(%q) built %T", name, pol)
				}
				if back.Algorithm != algo || back.Heuristic != h || back.Bound != b {
					t.Fatalf("ParsePolicy(%q) = {%v %v %v}, want {%v %v %v}",
						name, back.Algorithm, back.Heuristic, back.Bound, algo, h, b)
				}
			}
		}
	}

	// Shorthand and canonical spellings build identical policies.
	for _, spellings := range [][2]string{
		{"DDS/lxf/100h", "DDS/lxf/fixB=100h"},
		{"LDS/fcfs/30m", "LDS/fcfs/fixB=30m"},
		{"DFS/lxf/90s", "DFS/lxf/fixB=90s"},
		{"DDS/fcfs/0h", "DDS/fcfs/fixB=0h"},
	} {
		short, err := schedsearch.ParsePolicy(spellings[0], 100)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) failed: %v", spellings[0], err)
		}
		canon, err := schedsearch.ParsePolicy(spellings[1], 100)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) failed: %v", spellings[1], err)
		}
		if short.Name() != canon.Name() {
			t.Fatalf("%q parsed as %q, %q as %q", spellings[0], short.Name(),
				spellings[1], canon.Name())
		}
	}
}

// TestParsePolicyMeta covers the portfolio grammar through the facade:
// meta(...) names round-trip, members accept every base spelling, and
// malformed portfolios are rejected with a meaningful error.
func TestParsePolicyMeta(t *testing.T) {
	for _, name := range []string{
		"meta(DDS/lxf/dynB)",
		"meta(DDS/lxf/dynB,FCFS-backfill)",
		"meta(DDS/lxf/fixB=100h,LDS/fcfs/dynB,LXF-backfill)",
	} {
		pol, err := schedsearch.ParsePolicy(name, 100)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) failed: %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("round trip %q -> %q", name, pol.Name())
		}
		m, ok := pol.(*schedsearch.MetaScheduler)
		if !ok {
			t.Fatalf("ParsePolicy(%q) built %T", name, pol)
		}
		if len(m.Members()) == 0 {
			t.Fatalf("ParsePolicy(%q) built an empty portfolio", name)
		}
	}
	// Shorthand bounds canonicalize inside the portfolio name too.
	pol, err := schedsearch.ParsePolicy("meta(DDS/lxf/100h,FCFS-backfill)", 100)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "meta(DDS/lxf/fixB=100h,FCFS-backfill)" {
		t.Fatalf("shorthand member canonicalized to %q", pol.Name())
	}
	for _, bad := range []struct {
		input   string
		wantSub string
	}{
		{"meta()", "at least one member"},
		{"meta(DDS/lxf/dynB", "parenthesis"},
		{"meta(DDS/lxf/dynB,)", "empty member"},
		{"meta(,FCFS-backfill)", "empty member"},
		{"meta(meta(DDS/lxf/dynB))", "nested"},
		{"meta(BFS/lxf/dynB)", "unknown search algorithm"},
		{"meta(DDS/lxf/dynB,EASY-backfill)", "unknown policy"},
	} {
		pol, err := schedsearch.ParsePolicy(bad.input, 100)
		if err == nil {
			t.Fatalf("ParsePolicy(%q) accepted as %q", bad.input, pol.Name())
		}
		if !strings.Contains(err.Error(), bad.wantSub) {
			t.Fatalf("ParsePolicy(%q) error %q, want mention of %q", bad.input, err, bad.wantSub)
		}
	}
}

// TestBoundStringLossless: sub-hour fixed bounds must render in a unit
// that preserves them ("30m", not the truncated "0h").
func TestBoundStringLossless(t *testing.T) {
	cases := []struct {
		omega int64
		want  string
	}{
		{0, "fixB=0h"},
		{100 * 3600, "fixB=100h"},
		{30 * 60, "fixB=30m"},
		{90, "fixB=90s"},
		{3600, "fixB=1h"},
		{3660, "fixB=61m"},
		{3661, "fixB=3661s"},
	}
	for _, c := range cases {
		b := schedsearch.FixedBound(c.omega)
		if got := b.String(); got != c.want {
			t.Errorf("FixedBound(%d).String() = %q, want %q", c.omega, got, c.want)
		}
		back, err := core.ParseBound(b.String())
		if err != nil {
			t.Errorf("ParseBound(%q) failed: %v", b.String(), err)
		} else if back != b {
			t.Errorf("ParseBound(%q) = %+v, want %+v", b.String(), back, b)
		}
	}
}

// TestFacadeConstructors exercises every facade constructor: each must
// build a working policy whose Name round-trips where a name scheme
// exists, and survive one simulated month.
func TestFacadeConstructors(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 5, JobScale: 0.03})
	run := func(t *testing.T, p schedsearch.Policy) schedsearch.Summary {
		t.Helper()
		sum, _, err := schedsearch.RunMonth(suite, "7/03", schedsearch.SimOptions{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Jobs == 0 {
			t.Fatal("no jobs measured")
		}
		return sum
	}

	t.Run("NewSearchScheduler", func(t *testing.T) {
		p := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
			schedsearch.DynamicBound(), schedsearch.DefaultLimit1K)
		if p.Name() != "DDS/lxf/dynB" {
			t.Fatalf("name %q, want DDS/lxf/dynB", p.Name())
		}
		run(t, p)
		if p.SearchStats.Decisions == 0 {
			t.Fatal("no search decisions recorded")
		}
	})
	t.Run("FixedBound", func(t *testing.T) {
		p := schedsearch.NewSearchScheduler(schedsearch.LDS, schedsearch.HeuristicFCFS,
			schedsearch.FixedBound(100*schedsearch.Hour), 500)
		if p.Name() != "LDS/fcfs/fixB=100h" { // canonical form of "100h"
			t.Fatalf("name %q, want LDS/fcfs/fixB=100h", p.Name())
		}
		run(t, p)
	})
	t.Run("Backfill", func(t *testing.T) {
		if n := schedsearch.FCFSBackfill().Name(); n != "FCFS-backfill" {
			t.Fatalf("name %q", n)
		}
		if n := schedsearch.LXFBackfill().Name(); n != "LXF-backfill" {
			t.Fatalf("name %q", n)
		}
		run(t, schedsearch.FCFSBackfill())
	})
	t.Run("NewLocalScheduler", func(t *testing.T) {
		run(t, schedsearch.NewLocalScheduler(schedsearch.HeuristicLXF, schedsearch.DynamicBound(), 300))
	})
	t.Run("NewHybridScheduler", func(t *testing.T) {
		run(t, schedsearch.NewHybridScheduler(schedsearch.HeuristicLXF, schedsearch.DynamicBound(), 300))
	})
	t.Run("NewFairshareScheduler", func(t *testing.T) {
		inner := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
			schedsearch.DynamicBound(), 300)
		run(t, schedsearch.NewFairshareScheduler(inner, 0.5))
	})
	t.Run("NewUserHistoryPredictor", func(t *testing.T) {
		est := schedsearch.NewUserHistoryPredictor()
		p := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
			schedsearch.DynamicBound(), 300)
		sum, _, err := schedsearch.RunMonthWithEstimator(suite, "7/03", schedsearch.SimOptions{}, est, p)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Jobs == 0 {
			t.Fatal("no jobs measured")
		}
	})
}

// TestFacadeEngine drives the online engine through the facade: a
// virtual-clock engine scheduling with the paper's best policy.
func TestFacadeEngine(t *testing.T) {
	vc := schedsearch.NewVirtualClock()
	pol := schedsearch.NewSearchScheduler(schedsearch.DDS, schedsearch.HeuristicLXF,
		schedsearch.DynamicBound(), 100)
	e, err := schedsearch.NewEngine(schedsearch.EngineConfig{
		Capacity: 16, Policy: pol, Clock: vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(schedsearch.Job{Nodes: 8, Runtime: 1800, Request: 1800}); err != nil {
			t.Fatal(err)
		}
	}
	vc.Run()
	m := e.Metrics()
	if m.Jobs.Done != 4 {
		t.Fatalf("%d jobs done, want 4", m.Jobs.Done)
	}
	if m.Policy != "DDS/lxf/dynB" {
		t.Fatalf("policy %q", m.Policy)
	}
}
