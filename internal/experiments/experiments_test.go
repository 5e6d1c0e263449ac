package experiments

import (
	"slices"
	"strings"
	"testing"

	"schedsearch/internal/workload"
)

// quickCfg is a scaled-down configuration: months are 15% of paper
// scale (job count and duration), search budgets 25% of the paper's.
// Shape assertions below are made robust to this scale by aggregating
// over months rather than requiring every month individually.
func quickCfg() Config {
	return Config{Seed: 1, Scale: 0.15, LimitScale: 0.25}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3Result(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Months) != 10 {
		t.Fatalf("%d months", len(res.Months))
	}
	var fcfsMax, lxfMax, ddsMax []float64
	var fcfsBsld, lxfBsld, ddsBsld []float64
	var fcfsAvg, ddsAvg []float64
	ddsWinsMax := 0
	for _, m := range res.Months {
		f := res.Get("FCFS-backfill", m)
		l := res.Get("LXF-backfill", m)
		d := res.Get("DDS/lxf/dynB", m)
		if f.Jobs == 0 || f.Jobs != l.Jobs || f.Jobs != d.Jobs {
			t.Fatalf("%s: job counts differ: %d/%d/%d", m, f.Jobs, l.Jobs, d.Jobs)
		}
		fcfsMax = append(fcfsMax, f.MaxWaitH)
		lxfMax = append(lxfMax, l.MaxWaitH)
		ddsMax = append(ddsMax, d.MaxWaitH)
		fcfsBsld = append(fcfsBsld, f.AvgBoundedSlowdown)
		lxfBsld = append(lxfBsld, l.AvgBoundedSlowdown)
		ddsBsld = append(ddsBsld, d.AvgBoundedSlowdown)
		fcfsAvg = append(fcfsAvg, f.AvgWaitH)
		ddsAvg = append(ddsAvg, d.AvgWaitH)
		if d.MaxWaitH <= l.MaxWaitH+1e-9 {
			ddsWinsMax++
		}
	}
	// Paper shape 1: LXF-backfill improves FCFS-backfill's average
	// slowdown substantially.
	if mean(lxfBsld) >= mean(fcfsBsld) {
		t.Errorf("LXF avg bsld %.2f not below FCFS %.2f", mean(lxfBsld), mean(fcfsBsld))
	}
	// Paper shape 2: but LXF-backfill has a worse maximum wait.
	if mean(lxfMax) <= mean(fcfsMax) {
		t.Errorf("LXF mean max wait %.2f not above FCFS %.2f", mean(lxfMax), mean(fcfsMax))
	}
	// Paper shape 3: DDS/lxf/dynB beats LXF-backfill on max wait in
	// (nearly) every month and on average.
	if ddsWinsMax < 8 {
		t.Errorf("DDS max wait beats LXF in only %d/10 months", ddsWinsMax)
	}
	if mean(ddsMax) >= mean(fcfsMax)*1.1 {
		t.Errorf("DDS mean max wait %.2f well above FCFS %.2f", mean(ddsMax), mean(fcfsMax))
	}
	// Paper shape 4: DDS/lxf/dynB's averages are much closer to LXF
	// than to FCFS.
	if mean(ddsBsld) >= mean(fcfsBsld) {
		t.Errorf("DDS avg bsld %.2f not below FCFS %.2f", mean(ddsBsld), mean(fcfsBsld))
	}
	if mean(ddsAvg) >= mean(fcfsAvg)*1.05 {
		t.Errorf("DDS avg wait %.2f above FCFS %.2f", mean(ddsAvg), mean(fcfsAvg))
	}
}

func TestFig4ExcessMeasures(t *testing.T) {
	cfg := quickCfg()
	cfg.Months = []string{"6/03", "9/03", "2/04"} // keep the test quick
	res, err := Fig4Result(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.Months {
		// By definition FCFS-backfill has zero excessive wait w.r.t.
		// its own maximum wait.
		if e := res.ExcessMax["FCFS-backfill"][m]; e.TotalH != 0 || e.Count != 0 {
			t.Errorf("%s: FCFS E^max = %+v, want zero", m, e)
		}
		// The excess w.r.t. p98 is positive for FCFS (2%% of jobs wait
		// beyond p98 by construction).
		if e := res.Excess98["FCFS-backfill"][m]; e.Count == 0 {
			t.Errorf("%s: FCFS E^98 count = 0, expected ~2%% of jobs", m)
		}
		// Excess family internal consistency for every policy.
		for _, p := range res.Policies {
			e := res.ExcessMax[p][m]
			if e.Count > 0 && e.AvgH <= 0 {
				t.Errorf("%s/%s: count %d but avg %.2f", m, p, e.Count, e.AvgH)
			}
			if e.Count == 0 && e.TotalH != 0 {
				t.Errorf("%s/%s: zero count but total %.2f", m, p, e.TotalH)
			}
			s := res.Summaries[p][m]
			if s.AvgQueueLen < 0 {
				t.Errorf("%s/%s: negative queue length", m, p)
			}
		}
	}
}

func TestFig2BoundSensitivity(t *testing.T) {
	cfg := quickCfg()
	cfg.Months = []string{"6/03", "8/03", "12/03", "2/04"}
	d, err := Fig2Result(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's trend: max wait grows with the bound ω (smaller
	// bounds clamp the tail). Aggregate over months for robustness.
	m50 := mean(d.MaxWaitH[50])
	m300 := mean(d.MaxWaitH[300])
	if m50 > m300+5 {
		t.Errorf("mean max wait at w=50h (%.1f) far above w=300h (%.1f)", m50, m300)
	}
	for _, oh := range d.OmegasH {
		for mi := range d.Months {
			if d.MaxWaitH[oh][mi] < 0 || d.AvgBsld[oh][mi] < 1 {
				t.Errorf("w=%dh month %s: implausible values %v / %v",
					oh, d.Months[mi], d.MaxWaitH[oh][mi], d.AvgBsld[oh][mi])
			}
		}
	}
}

func TestFig5Grids(t *testing.T) {
	d, err := Fig5Result(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Order) != 3 {
		t.Fatalf("%d policies", len(d.Order))
	}
	totals := map[string]int{}
	for _, p := range d.Order {
		g := d.Grids[p]
		for ti := range g.Count {
			for ni := range g.Count[ti] {
				totals[p] += g.Count[ti][ni]
				if g.Count[ti][ni] == 0 && g.AvgWaitH[ti][ni] != 0 {
					t.Errorf("%s: empty cell with nonzero wait", p)
				}
			}
		}
	}
	// All policies classify the same job population.
	if totals[d.Order[0]] != totals[d.Order[1]] || totals[d.Order[0]] != totals[d.Order[2]] {
		t.Errorf("grid totals differ: %v", totals)
	}
	if totals[d.Order[0]] == 0 {
		t.Error("empty grids")
	}
}

func TestFig6NodeBudget(t *testing.T) {
	cfg := quickCfg()
	cfg.LimitScale = 0.05 // 1K..100K become 50..5000: quick but ordered
	d, err := Fig6Result(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Limits) != 6 {
		t.Fatalf("%d limits", len(d.Limits))
	}
	// The largest budget must not be much worse than the smallest on
	// the first-level objective (the anytime property: more search can
	// only help the committed measure up to workload noise).
	lo := d.ExcessBy[d.Limits[0]].TotalH
	hi := d.ExcessBy[d.Limits[len(d.Limits)-1]].TotalH
	if hi > lo*1.5+20 {
		t.Errorf("excess grew with budget: L=%d -> %.1f, L=%d -> %.1f",
			d.Limits[0], lo, d.Limits[len(d.Limits)-1], hi)
	}
	if d.FCFSEx.TotalH != 0 {
		t.Errorf("FCFS excess w.r.t. own max = %.2f, want 0", d.FCFSEx.TotalH)
	}
}

func TestFig7Algorithms(t *testing.T) {
	cfg := quickCfg()
	cfg.Months = []string{"6/03", "9/03", "1/04"}
	d, err := Fig7Result(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Policies) != 3 {
		t.Fatalf("policies: %v", d.Policies)
	}
	// Paper shape: DDS/fcfs behaves like FCFS-backfill — a clearly
	// worse average bounded slowdown than the lxf-branching policies.
	fcfsB := mean(d.AvgBsld["DDS/fcfs/dynB"])
	lxfB := mean(d.AvgBsld["DDS/lxf/dynB"])
	if fcfsB <= lxfB {
		t.Errorf("DDS/fcfs avg bsld %.2f not above DDS/lxf %.2f", fcfsB, lxfB)
	}
}

func TestFig8RequestedRuntimes(t *testing.T) {
	cfg := quickCfg()
	cfg.Months = []string{"6/03", "10/03"}
	res, err := Fig8Result(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.Months {
		for _, p := range res.Policies {
			s := res.Summaries[p][m]
			if s.Jobs == 0 {
				t.Errorf("%s/%s: no jobs", m, p)
			}
		}
	}
}

func TestRunnersRender(t *testing.T) {
	cfg := quickCfg()
	cfg.Months = []string{"6/03"}
	for _, e := range All {
		switch e.ID {
		case "fig6": // exercised separately (slow at full limits)
			continue
		case "verify", "replicate": // need all ten months / many seeds; tested separately
			continue
		case "overhead": // wall-clock measurement; smoke-tested below
			continue
		}
		var sb strings.Builder
		if err := e.Run(cfg, &sb); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s: empty output", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3"); !ok {
		t.Error("fig3 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestRunGridUnknownMonth(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.05, Months: []string{"5/03"}}
	if _, err := runGrid(cfg, workload.SimOptions{}, nil); err == nil {
		t.Error("unknown month accepted")
	}
}

func TestExtensionExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"ext-predict", "ext-local", "ext-fairshare", "ext-prune"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s not registered", id)
		}
	}
}

// TestVerifyClaimsHold checks the programmatic claim verifier at
// reduced scale over all ten months.
func TestVerifyClaimsHold(t *testing.T) {
	claims, err := VerifyClaims(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 7 {
		t.Fatalf("%d claims, want 7", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %s failed: %s (%s)", c.ID, c.Text, c.Detail)
		}
	}
}

// TestReplicateAggregates runs a tiny two-seed replication and checks
// the aggregation plumbing.
func TestReplicateAggregates(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1, LimitScale: 0.1}
	rep, err := Replicate(cfg, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) != 3 {
		t.Fatalf("policies: %v", rep.Policies)
	}
	for _, m := range replicationMeasures {
		for _, p := range rep.Policies {
			vals := rep.PerSeed[m.Name][p]
			if len(vals) != 2 {
				t.Fatalf("%s/%s: %d per-seed values", m.Name, p, len(vals))
			}
			for _, v := range vals {
				if v < 0 {
					t.Errorf("%s/%s: negative aggregate %v", m.Name, p, v)
				}
			}
		}
	}
	if len(rep.ClaimTexts) != 7 {
		t.Errorf("%d claims tracked", len(rep.ClaimTexts))
	}
	for id, n := range rep.ClaimPasses {
		if n > 2 {
			t.Errorf("claim %s passed %d times with 2 seeds", id, n)
		}
	}
}

// TestReplicationClaimsInIDOrder renders one replication report many
// times: every render is the same bytes, with the claims in ascending
// ID order, so the full experiments output diffs cleanly across runs.
func TestReplicationClaimsInIDOrder(t *testing.T) {
	rep := &Replication{Seeds: []uint64{1, 2}, ClaimPasses: map[string]int{}, ClaimTexts: map[string]string{}}
	ids := []string{"g-last", "a-first", "d-mid", "b-second", "f-sixth", "c-third", "e-fifth"}
	for i, id := range ids {
		rep.ClaimTexts[id] = "claim " + id
		rep.ClaimPasses[id] = i % 3
	}
	render := func() string {
		var b strings.Builder
		writeReplication(&b, rep)
		return b.String()
	}
	first := render()
	slices.Sort(ids)
	var at []int
	for _, id := range ids {
		at = append(at, strings.Index(first, " "+id+" "))
	}
	if !slices.IsSorted(at) || slices.Contains(at, -1) {
		t.Fatalf("claims not in ascending ID order (offsets %v):\n%s", at, first)
	}
	for i := 0; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}

// TestOverheadRuns smoke-tests the wall-clock overhead experiment.
func TestOverheadRuns(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.05, LimitScale: 0.02}
	var sb strings.Builder
	if err := RunOverhead(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "microseconds per decision") {
		t.Errorf("output: %s", sb.String())
	}
}

// TestLublinRobustness asserts the headline shape on the
// Lublin-Feitelson workload: DDS/lxf/dynB keeps the best max wait.
func TestLublinRobustness(t *testing.T) {
	var sb strings.Builder
	cfg := Config{Seed: 1, Scale: 0.3, LimitScale: 0.25}
	if err := RunExtLublin(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DDS/lxf/dynB") {
		t.Errorf("output: %s", sb.String())
	}
}
