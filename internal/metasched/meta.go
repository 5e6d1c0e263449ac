// Package metasched is the online meta-scheduler: a portfolio of
// scheduling policies run side by side, with one arm's decision
// committed at every decision point and every other arm shadow-
// simulated on the same snapshot under a bounded node budget. The
// shadow plans are scored on the uniform objective (core.PlanScorer),
// the per-round losses feed a greedy follow-the-leader bandit, and the
// bandit's pick becomes the next incumbent —
// switching policies at decision-point granularity, which no fixed
// ParsePolicy string can do (the paper's own tables show no single
// policy wins every month).
//
// Determinism: shadow evaluation is passive (each arm is an
// independent policy instance deciding the same read-only snapshot;
// scoring runs on a private profile), and loss normalization and arm
// selection are pure arithmetic — so the full choice sequence and
// regret series replay bit-identically. Wall-clock is
// measured for Stats only and never influences a decision.
//
// A singleton portfolio commits its only member's decisions untouched
// — meta(P) is bit-identical to bare P (keystone differential).
package metasched

import (
	"strings"
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/sim"
)

// shadowLimit is the node budget a shadow evaluation of a search-policy
// arm runs under. Small relative to typical incumbent budgets (L=1000):
// shadows exist to rank arms, not to perfect their plans.
const shadowLimit = 200

// Config tunes the meta-scheduler; the zero value is the shipped
// behaviour.
type Config struct {
	// RecordHistory keeps the full per-decision MetaDecision series in
	// memory (tests; unbounded, off by default).
	RecordHistory bool
}

// Stats aggregates meta-scheduling effort and behaviour over a run.
type Stats struct {
	// Decisions counts non-empty decision points; Switches counts
	// decisions whose committed arm differs from the previous one.
	Decisions int
	Switches  int
	// ArmCommits counts committed decisions per arm.
	ArmCommits []int64
	// CumRegret is the summed per-decision regret: the committed
	// plan's scalar score minus the round's best arm's (0 when the
	// incumbent was the best choice in hindsight).
	CumRegret float64
	// ShadowNodes counts search nodes spent in shadow evaluations of
	// search-policy arms; ShadowWallNs/IncumbentWallNs split the
	// decision wall time between shadows and the committed arm —
	// ShadowWallNs/(ShadowWallNs+IncumbentWallNs) is the shadow
	// overhead the bench reports.
	ShadowNodes     int64
	ShadowWallNs    int64
	IncumbentWallNs int64
}

// MetaDecision describes one committed decision for observability: the
// arm the bandit chose, the per-arm scalar plan scores, and the regret
// in hindsight. Assembled from state the decision already computes;
// recording it never perturbs scheduling.
type MetaDecision struct {
	Seq      int
	NowS     int64
	Arm      int
	Policy   string
	Regret   float64
	Switched bool
	Scores   []float64
}

// Meta is the portfolio policy (sim.Policy). Build with New or through
// ParsePolicy's meta(...) grammar.
type Meta struct {
	cfg     Config
	members []sim.Policy
	name    string
	bandit  *greedyBandit
	scorer  *core.PlanScorer

	prevArm   int
	havePrev  bool
	stats     Stats
	last      MetaDecision
	haveLast  bool
	history   []MetaDecision
	plans     [][]int
	scores    []float64
	losses    []float64
	lastNodes []int64 // per-arm SearchStats.Nodes high-water, for deltas
}

// New builds a meta-scheduler over the given member policies (at least
// one). Members must be distinct policy instances — each arm carries
// its own search state.
func New(members []sim.Policy, cfg Config) (*Meta, error) {
	if len(members) == 0 {
		return nil, errEmptyPortfolio
	}
	names := make([]string, len(members))
	for i, p := range members {
		names[i] = p.Name()
	}
	m := &Meta{
		cfg:     cfg,
		members: members,
		name:    "meta(" + strings.Join(names, ",") + ")",
		bandit:  newGreedyBandit(len(members)),
		scorer:  core.NewPlanScorer(),
		plans:   make([][]int, len(members)),
		scores:  make([]float64, len(members)),
		losses:  make([]float64, len(members)),
	}
	m.stats.ArmCommits = make([]int64, len(members))
	m.lastNodes = make([]int64, len(members))
	return m, nil
}

// Name implements sim.Policy: "meta(" + member names + ")", which
// ParsePolicy round-trips.
func (m *Meta) Name() string { return m.name }

// Members returns the portfolio's policies (callers must not mutate
// mid-run).
func (m *Meta) Members() []sim.Policy { return m.members }

// SetSearchOptions applies the per-process search tuning (worker count)
// to every member that is a search scheduler — the same knob
// cmd/schedsim and cmd/schedd apply to a bare *core.Scheduler.
func (m *Meta) SetSearchOptions(workers int) {
	for _, p := range m.members {
		if sch, ok := p.(*core.Scheduler); ok {
			sch.Workers = workers
		}
	}
}

// Decide implements sim.Policy: run every arm on the snapshot, commit
// the bandit's incumbent, feed the round's losses back.
func (m *Meta) Decide(snap *sim.Snapshot) []int {
	if len(m.members) == 1 {
		// Singleton portfolio: transparent pass-through. No shadow, no
		// scoring, no bandit — bit-identical to the bare policy by
		// construction, with a zero-regret decision record.
		starts := m.members[0].Decide(snap)
		if len(snap.Queue) == 0 {
			return starts
		}
		m.commitRecord(snap, 0, nil)
		return starts
	}

	if len(snap.Queue) == 0 {
		// Not a decision point (the simulator never asks, the online
		// engine may): forward to every arm so stateful members observe
		// the same empty-queue stream they would bare, commit nothing.
		var starts []int
		for i, p := range m.members {
			s := p.Decide(snap)
			if i == m.prevIncumbent() {
				starts = s
			}
		}
		return starts
	}

	chosen := m.bandit.pick()

	// Run every arm. The committed arm runs at its configured budget;
	// search-scheduler shadows are clamped to the shadow budget.
	for i, p := range m.members {
		sch, isSearch := p.(*core.Scheduler)
		shadow := i != chosen
		limit := 0
		clamp := false
		if shadow && isSearch {
			if shadowLimit < sch.NodeLimit {
				limit, clamp = sch.NodeLimit, true
				sch.NodeLimit = shadowLimit
			}
		}
		t0 := time.Now()
		m.plans[i] = append(m.plans[i][:0], p.Decide(snap)...)
		wall := time.Since(t0).Nanoseconds()
		if clamp {
			sch.NodeLimit = limit
		}
		if shadow {
			m.stats.ShadowWallNs += wall
			if isSearch {
				m.stats.ShadowNodes += sch.SearchStats.Nodes - m.lastNodes[i]
			}
		} else {
			m.stats.IncumbentWallNs += wall
		}
		if isSearch {
			m.lastNodes[i] = sch.SearchStats.Nodes
		}
		m.scores[i] = m.scorer.Scalar(m.scorer.Score(snap, m.plans[i]))
	}

	// Turn the round's scores into [0, 1] losses proportional to the
	// arm's regret against the round's best plan, scaled by the round's
	// cost magnitude. A near-tie round yields near-zero losses for every
	// arm while a blowout yields losses near 1 — so the bandit weighs
	// decisions by how much they actually matter, instead of min-max
	// stretching every round to the full scale (which punishes losing a
	// coin-flip round as hard as losing a landslide and drives spurious
	// switches).
	minS := m.scores[0]
	for _, s := range m.scores[1:] {
		if s < minS {
			minS = s
		}
	}
	denom := minS
	if denom < 1 {
		denom = 1
	}
	for i, s := range m.scores {
		l := (s - minS) / denom
		if l > 1 {
			l = 1
		}
		m.losses[i] = l
	}
	m.bandit.observe(m.losses)
	m.stats.CumRegret += m.scores[chosen] - minS
	m.commitRecord(snap, chosen, m.scores)
	m.last.Regret = m.scores[chosen] - minS
	if m.cfg.RecordHistory {
		m.history[len(m.history)-1].Regret = m.last.Regret
	}
	return m.plans[chosen]
}

func (m *Meta) prevIncumbent() int {
	if m.havePrev {
		return m.prevArm
	}
	return 0
}

// commitRecord updates stats and the last-decision record for the
// committed arm.
func (m *Meta) commitRecord(snap *sim.Snapshot, arm int, scores []float64) {
	switched := m.havePrev && arm != m.prevArm
	if switched {
		m.stats.Switches++
	}
	m.prevArm, m.havePrev = arm, true
	m.stats.Decisions++
	m.stats.ArmCommits[arm]++
	m.last = MetaDecision{
		Seq:      m.stats.Decisions,
		NowS:     int64(snap.Now),
		Arm:      arm,
		Policy:   m.members[arm].Name(),
		Switched: switched,
	}
	m.haveLast = true
	if m.cfg.RecordHistory {
		rec := m.last
		rec.Scores = append([]float64(nil), scores...)
		m.history = append(m.history, rec)
	}
}

// MetaStats returns the accumulated meta-scheduling statistics.
func (m *Meta) MetaStats() Stats { return m.stats }

// History returns the full decision series when Config.RecordHistory
// is on (nil otherwise).
func (m *Meta) History() []MetaDecision { return m.history }

// LastMetaDecision reports the most recent committed decision's policy
// name and regret estimate for the flight recorder; ok is false before
// the first decision.
func (m *Meta) LastMetaDecision() (policy string, regret float64, ok bool) {
	if !m.haveLast {
		return "", 0, false
	}
	return m.last.Policy, m.last.Regret, true
}

// LastDecision forwards the committed arm's search summary when that
// arm exposes one (flight-recorder detail: node counts, trajectory).
func (m *Meta) LastDecision() core.DecisionSummary {
	if !m.haveLast {
		return core.DecisionSummary{}
	}
	if ds, ok := m.members[m.last.Arm].(interface{ LastDecision() core.DecisionSummary }); ok {
		return ds.LastDecision()
	}
	return core.DecisionSummary{}
}
