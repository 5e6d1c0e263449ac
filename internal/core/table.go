package core

import (
	"slices"

	"schedsearch/internal/job"
)

// Per-decision transposition table.
//
// Two prefixes that place the same jobs at the same starts leave the
// same profile, so everything below them — placements, costs, and the
// number of nodes and leaves the enumerator visits — is the same. The
// table remembers each walked node by the set of (job, start) pairs
// placed down to it; when a later node arrives at a remembered set, its
// subtree is not walked again: the recorded node and leaf counts are
// added to the counters and the search moves on. The nodes are counted,
// not walked, so the budget, every statistic and the committed schedule
// are what a walk produces (DESIGN §10 has the argument for skipping the
// served leaves).
//
// Key. Below the forced level of the depth-bounded enumerator, and once
// LDS has no discrepancy left to spend, the remainder is the heuristic
// tail, a function of the placed set alone. Above, what the enumerator
// may still do depends on one more small integer — the iteration (DDS)
// or the discrepancies still to spend below (LDS) — which the
// enumerator hands to visit as ctx, 0 standing for the tail.
//
// Exact. The 64-bit hash only finds candidates. An entry is served only
// after its chain of (job, start) pairs, linked through the arena by
// parent, has been checked against the current path; no schedule
// depends on a hash collision not happening.

// tableCap bounds the arena; past it nothing more is remembered.
const tableCap = 1 << 16

// tableEntry is one remembered node.
type tableEntry struct {
	key   uint64   // hash of the placed set, mixed with ctx
	start job.Time // where this node placed its job
	// nodes and leaves count the subtree below this node; nodes is -1
	// until that subtree has been walked to the end without an abort.
	nodes  int64
	leaves int64
	parent int32 // arena id of the node one level up; 0 is the root
	oi     int32 // ordered index this node placed
	ctx    int32
	level  int32
}

type table struct {
	on bool
	// index is open-addressed with linear probing over arena ids, 0
	// meaning empty; the arena is kept to half its length.
	index   []int32
	entries []tableEntry // append-only; entries[0] is the root, the empty set
	// cur is the arena id of the current path's last node, or -1 when
	// that node is not in the arena (its descendants then are not
	// inserted either: a chain has to reach the root to be checkable).
	cur    int32
	hash   uint64 // XOR of pairHash over the placed (oi, start) pairs
	placed []bool // per ordered index: on the current path
	// pairHash replaces mixPair when set; tests make it constant to
	// force every lookup to collide.
	pairHash func(oi int, start job.Time) uint64

	// servedNodes is the part of the decision's node count that was
	// added from entries instead of walked, over hits lookups;
	// settledNodes the part settle counted.
	servedNodes  int64
	hits         int64
	settledNodes int64
}

// mixPair hashes one (ordered index, start) pair: the splitmix64
// finalizer over the two packed into a word.
func mixPair(oi int, start job.Time) uint64 {
	x := uint64(start)*0x9E3779B97F4A7C15 + uint64(oi) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// reset prepares the table for a decision over n jobs under a budget of
// limit nodes; with on false every node is walked and nothing else here
// is touched. The index is sized for the nodes the decision can walk —
// the budget, the whole tree of a short queue, or the arena's cap,
// whichever is least — so a small decision under a large budget does not
// pay to clear a large index.
func (tb *table) reset(on bool, n int, limit int64) {
	tb.on = on
	tb.servedNodes, tb.hits, tb.settledNodes = 0, 0, 0
	if !on {
		return
	}
	tb.placed = Resize(tb.placed, n)
	walk := min(limit, tableCap)
	// The whole tree over n jobs has n + n(n-1) + ... + n! nodes.
	tree, level := int64(0), int64(1)
	for d := 0; d < n && tree < walk; d++ {
		level *= int64(n - d)
		tree += level
	}
	walk = min(walk, tree)
	slots := 2
	for int64(slots) < 2*walk {
		slots <<= 1
	}
	tb.index = Resize(tb.index, slots)
	clear(tb.index)
	// An insert keeps the arena within half the index, plus the root, so
	// it is reserved here once and never regrown during the search.
	tb.entries = append(slices.Grow(tb.entries[:0], len(tb.index)/2+1), tableEntry{})
	tb.cur, tb.hash = 0, 0
}

// tableEnter puts the job just placed at ordered index oi, at start, on
// the table's path and looks the placed set up under ctx. If an entry for
// that set and ctx holds counts the budget covers, they are added to the
// counters and tableEnter reports true: the subtree is served. Otherwise
// the caller walks it, with tb.cur naming the set's entry — the one
// found, or one inserted here with nodes -1, or -1 where the arena is
// full or the chain broken above — for the caller to complete once the
// subtree has been walked to its end. Either way the caller takes oi off
// the table's path afterwards: tb.hash and tb.cur back to what they were,
// tb.placed[oi] cleared.
func (s *searchState) tableEnter(oi int, start job.Time, ctx int32) (served bool) {
	tb := &s.tab
	if tb.pairHash != nil {
		tb.hash ^= tb.pairHash(oi, start)
	} else {
		tb.hash ^= mixPair(oi, start)
	}
	tb.placed[oi] = true
	level := int32(len(s.curPath) - 1)
	key := tb.hash ^ uint64(ctx)*0xD6E8FEB86659FD93

	// Probe for an entry describing the current set. The arena holds at
	// most half the index, so an empty slot always ends the probe.
	mask := len(tb.index) - 1
	slot := int(key) & mask
	var id int32
	for {
		id = tb.index[slot]
		if id == 0 {
			break
		}
		if e := &tb.entries[id]; e.key == key && e.ctx == ctx && e.level == level && s.onPath(id) {
			break
		}
		slot = (slot + 1) & mask
	}

	switch {
	case id == 0:
		id = -1
		if tb.cur >= 0 && len(tb.entries) <= len(tb.index)/2 {
			// Grow by a zero entry and fill it in place: an 8-field
			// literal would be built on the stack and copied (DESIGN §10).
			id = int32(len(tb.entries))
			tb.entries = append(tb.entries, tableEntry{})
			e := &tb.entries[id]
			e.key, e.start, e.nodes, e.parent = key, start, -1, tb.cur
			e.oi, e.ctx, e.level = int32(oi), ctx, level
			tb.index[slot] = id
		}
	case tb.entries[id].nodes >= 0 && s.nodes+tb.entries[id].nodes <= s.limit:
		// Serve only what the budget covers whole: otherwise the abort
		// must land on the node it lands on in a walk, so walk.
		e := &tb.entries[id]
		s.nodes += e.nodes
		s.leaves += e.leaves
		tb.servedNodes += e.nodes
		tb.hits++
		return true
	}
	tb.cur = id
	return false
}

// tableDown is down() through the table, called by visit once the job
// at ordered index oi is placed at start and on the path: serve the
// subtree if the table can, otherwise walk it and remember its counts.
func (s *searchState) tableDown(oi int, start job.Time, ctx int32, down func()) {
	tb := &s.tab
	hash, parent := tb.hash, tb.cur
	if !s.tableEnter(oi, start, ctx) {
		id, nodes, leaves := tb.cur, s.nodes, s.leaves
		down()
		if id > 0 && !s.aborted {
			e := &tb.entries[id] // the arena may have moved under down
			e.nodes, e.leaves = s.nodes-nodes, s.leaves-leaves
		}
	}
	tb.placed[oi] = false
	tb.hash, tb.cur = hash, parent
}

// onPath reports whether the chain of entry id is the current placed
// set. The caller has matched the entry's level with the path's, so the
// chain and the path hold equally many distinct jobs, and it is enough
// that every link is on the path at the same start.
func (s *searchState) onPath(id int32) bool {
	tb := &s.tab
	for id != 0 {
		e := &tb.entries[id]
		if !tb.placed[e.oi] || s.curStart[e.oi] != e.start {
			return false
		}
		id = e.parent
	}
	return true
}
