package schedsearch_test

import (
	"testing"

	"schedsearch"
	"schedsearch/internal/core"
	"schedsearch/internal/metasched"
	"schedsearch/internal/sim"
)

// metaMirrorPolicy drives a month with a singleton meta(P) portfolio
// while a bare twin of P decides every snapshot, failing on the first
// decision where the committed starts diverge. The meta decisions are
// the ones the simulator commits, so identical month-end records prove
// the pass-through is exact end to end.
type metaMirrorPolicy struct {
	t         *testing.T
	bare      sim.Policy
	meta      *metasched.Meta
	decisions int
}

func (m *metaMirrorPolicy) Name() string { return m.meta.Name() }

func (m *metaMirrorPolicy) Decide(snap *sim.Snapshot) []int {
	m.decisions++
	bareStarts := append([]int(nil), m.bare.Decide(snap)...)
	metaStarts := m.meta.Decide(snap)
	if len(bareStarts) != len(metaStarts) {
		m.t.Fatalf("decision %d: meta starts %v, bare %v", m.decisions, metaStarts, bareStarts)
	}
	for i := range bareStarts {
		if bareStarts[i] != metaStarts[i] {
			m.t.Fatalf("decision %d: meta starts %v, bare %v", m.decisions, metaStarts, bareStarts)
		}
	}
	return metaStarts
}

// TestMetaSingletonSuiteDifferential is the meta-scheduling keystone:
// meta(P) with a singleton portfolio must commit bit-identical
// schedules to bare P on every decision point of every suite month —
// the meta layer (record-keeping included) adds zero scheduling drift.
// Run under -race.
func TestMetaSingletonSuiteDifferential(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 6, JobScale: 0.025})
	for _, month := range schedsearch.MonthLabels() {
		month := month
		t.Run(month, func(t *testing.T) {
			bare := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 24)
			inner := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 24)
			meta, err := metasched.New([]sim.Policy{inner}, metasched.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if meta.Name() != "meta(DDS/lxf/dynB)" {
				t.Fatalf("singleton name %q", meta.Name())
			}

			m := &metaMirrorPolicy{t: t, bare: bare, meta: meta}
			sum, _, err := schedsearch.RunMonth(suite, month, schedsearch.SimOptions{TargetLoad: 0.95}, m)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Jobs == 0 {
				t.Fatal("no jobs measured")
			}
			st := meta.MetaStats()
			if st.Decisions != m.decisions {
				t.Errorf("meta recorded %d decisions, simulator made %d", st.Decisions, m.decisions)
			}
			if st.ShadowNodes != 0 || st.ShadowWallNs != 0 {
				t.Errorf("singleton portfolio spent shadow effort: %+v", st)
			}
			if _, regret, ok := meta.LastMetaDecision(); !ok || regret != 0 {
				t.Errorf("singleton regret %v, want 0", regret)
			}
		})
	}
}

// TestMetaParsedPortfolioRuns drives a ParsePolicy-built multi-arm
// portfolio through a suite month end to end (the grammar the cmds
// accept), checking the committed run completes and the bandit
// actually commits through more than one arm or at least accounts
// every decision.
func TestMetaParsedPortfolioRuns(t *testing.T) {
	suite := schedsearch.NewSuite(schedsearch.SuiteConfig{Seed: 6, JobScale: 0.025})
	pol, err := schedsearch.ParsePolicy("meta(DDS/lxf/dynB,LDS/fcfs/dynB,FCFS-backfill)", 64)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := pol.(*metasched.Meta)
	if !ok {
		t.Fatalf("ParsePolicy returned %T", pol)
	}
	sum, _, err := schedsearch.RunMonth(suite, "1/04", schedsearch.SimOptions{TargetLoad: 0.95}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs == 0 {
		t.Fatal("no jobs measured")
	}
	st := meta.MetaStats()
	if st.Decisions == 0 || st.ShadowNodes == 0 {
		t.Fatalf("portfolio never shadow-evaluated: %+v", st)
	}
	var commits int64
	for _, c := range st.ArmCommits {
		commits += c
	}
	if commits != int64(st.Decisions) {
		t.Fatalf("arm commits %v do not sum to %d decisions", st.ArmCommits, st.Decisions)
	}
}
