package metasched

import (
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func testPortfolio(t *testing.T, cfg Config) *Meta {
	t.Helper()
	m, err := New([]sim.Policy{
		core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 64),
		core.New(core.LDS, core.HeuristicFCFS, core.DynamicBound(), 64),
		policy.FCFSBackfill(),
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShadowDeterminism is the shadow-simulation determinism keystone:
// two meta-schedulers with the same portfolio and the same workload
// must produce bit-identical bandit choice sequences and
// regret series — across suite months, with parallel search workers in
// the members. Run under -race this also pins the shadow path as
// data-race free.
func TestShadowDeterminism(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 13, JobScale: 0.02})
	for _, month := range []string{"7/03", "1/04"} {
		cfg := Config{RecordHistory: true}
		var first []MetaDecision
		var firstStats Stats
		for rep := 0; rep < 2; rep++ {
			in, _, err := suite.Input(month, workload.SimOptions{TargetLoad: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			m := testPortfolio(t, cfg)
			m.SetSearchOptions(2, true) // parallel + warm members
			if _, err := sim.Run(in, m); err != nil {
				t.Fatalf("%s rep %d: %v", month, rep, err)
			}
			hist := m.History()
			if len(hist) == 0 {
				t.Fatalf("%s: no decisions recorded", month)
			}
			if rep == 0 {
				first = append([]MetaDecision(nil), hist...)
				firstStats = m.MetaStats()
				continue
			}
			if len(hist) != len(first) {
				t.Fatalf("%s: rerun made %d decisions, first %d", month, len(hist), len(first))
			}
			for i := range hist {
				a, b := first[i], hist[i]
				if a.Arm != b.Arm || a.Policy != b.Policy || a.Regret != b.Regret ||
					a.NowS != b.NowS || a.Switched != b.Switched {
					t.Fatalf("%s: decision %d diverges:\nfirst %+v\nrerun %+v", month, i, a, b)
				}
			}
			st, st0 := m.MetaStats(), firstStats
			if st.Decisions != st0.Decisions || st.Switches != st0.Switches ||
				st.CumRegret != st0.CumRegret || st.ShadowNodes != st0.ShadowNodes {
				t.Fatalf("%s: stats diverge:\nfirst %+v\nrerun %+v", month, st0, st)
			}
		}
		t.Logf("%s: %d decisions, %d switches, cum regret %.1f",
			month, firstStats.Decisions, firstStats.Switches, firstStats.CumRegret)
	}
}

// TestMetaEndToEnd: the committed portfolio schedule completes every
// job and accounts shadow effort.
func TestMetaEndToEnd(t *testing.T) {
	suite := workload.NewSuite(workload.Config{Seed: 13, JobScale: 0.02})
	in, _, err := suite.Input("10/03", workload.SimOptions{TargetLoad: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	m := testPortfolio(t, Config{})
	res, err := sim.Run(in, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(in.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(res.Records), len(in.Jobs))
	}
	st := m.MetaStats()
	if st.Decisions == 0 {
		t.Fatalf("no decisions: %+v", st)
	}
	if st.ShadowNodes == 0 || st.ShadowWallNs == 0 {
		t.Fatalf("no shadow effort accounted: %+v", st)
	}
	var commits int64
	for _, c := range st.ArmCommits {
		commits += c
	}
	if commits != int64(st.Decisions) {
		t.Fatalf("arm commits %v do not sum to decisions %d", st.ArmCommits, st.Decisions)
	}
	if name, _, ok := m.LastMetaDecision(); !ok || name == "" {
		t.Fatalf("no last decision record")
	}
}

// TestGreedyBandit pins the default bandit's selection rule: lowest
// discounted mean loss wins, ties break to the lowest index.
func TestGreedyBandit(t *testing.T) {
	b := newGreedyBandit(3)
	if got := b.pick(); got != 0 {
		t.Fatalf("fresh greedy picked %d, want 0", got)
	}
	b.observe([]float64{1, 0.2, 0.6})
	if got := b.pick(); got != 1 {
		t.Fatalf("after one round picked %d, want 1", got)
	}
	// Arm 2 now does consistently better; the discount lets it overtake.
	for i := 0; i < 50; i++ {
		b.observe([]float64{1, 0.5, 0.1})
	}
	if got := b.pick(); got != 2 {
		t.Fatalf("after regime change picked %d, want 2", got)
	}
}

// TestParseMeta covers the portfolio grammar: round-trip identity,
// member errors, nesting and garbage rejection.
func TestParseMeta(t *testing.T) {
	member := func(name string, nodeLimit int) (sim.Policy, error) {
		if name == "FCFS-backfill" {
			return policy.FCFSBackfill(), nil
		}
		if name == "DDS/lxf/dynB" {
			return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), nodeLimit), nil
		}
		return nil, errEmptyPortfolio
	}
	m, err := Parse("meta(DDS/lxf/dynB,FCFS-backfill)", 100, member)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "meta(DDS/lxf/dynB,FCFS-backfill)" {
		t.Fatalf("name %q does not round-trip", m.Name())
	}
	if len(m.Members()) != 2 {
		t.Fatalf("got %d members", len(m.Members()))
	}
	for _, bad := range []string{
		"meta()", "meta(", "meta(DDS/lxf/dynB", "meta(DDS/lxf/dynB)x",
		"meta(,FCFS-backfill)", "meta(DDS/lxf/dynB,)", "meta(meta(DDS/lxf/dynB))",
		"meta(nonsense)",
	} {
		if _, err := Parse(bad, 100, member); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
