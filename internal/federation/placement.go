package federation

import (
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
)

// Candidate pairs a shard index with its load at routing time. The
// router hands a placement policy only eligible candidates — shards
// whose capacity can hold the job at all.
type Candidate struct {
	Shard int
	Load  engine.Load
}

// Placement picks the shard a new job is routed to. Implementations
// must be deterministic functions of the job and the candidate list
// (same inputs, same pick), so a virtual-clock federation replay is
// reproducible. Pick returns an index into cands, which is never
// empty. BestFit is the only rule the product ships; the interface is
// the seam a test hangs a skewing fake on (Config.Placement).
type Placement interface {
	Name() string
	Pick(j job.Job, cands []Candidate) int
}

// BestFit is the one built-in placement rule. It routes by node demand:
// among shards that can start the job immediately (enough free nodes,
// nothing queued ahead), pick the tightest fit — fewest free nodes left
// over — so wide holes are preserved for wide jobs. When no shard can
// start the job now, it falls back to the shard with the least
// outstanding work per capacity node (engine.Load.Score), which
// equalizes backlog. Ties go to the lowest shard index.
type BestFit struct{}

// Name implements Placement.
func (BestFit) Name() string { return "best-fit" }

// Pick implements Placement.
func (BestFit) Pick(j job.Job, cands []Candidate) int {
	best, bestSlack := -1, 0
	for i, c := range cands {
		slack := c.Load.FreeNodes - j.Nodes
		if slack < 0 || c.Load.Waiting > 0 {
			// Not startable now: no free room, or jobs already queued
			// ahead of it.
			continue
		}
		if best < 0 || slack < bestSlack {
			best, bestSlack = i, slack
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoaded(cands)
}

// leastLoaded is BestFit's fallback: the candidate with the lowest
// load score.
func leastLoaded(cands []Candidate) int {
	best := 0
	bestScore := cands[0].Load.Score()
	for i := 1; i < len(cands); i++ {
		if s := cands[i].Load.Score(); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}
