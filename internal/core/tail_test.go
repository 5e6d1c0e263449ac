package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"schedsearch/internal/cluster"
	"schedsearch/internal/sim"
)

// refTail walks a tail the way the enumerators did before tail existed:
// the first free job through visit — unlinked, undone, its table entry
// completed on the way back up — recursing from visit's closure down to
// the leaf.
func refTail(s *searchState) {
	if s.freeHead < 0 {
		s.leaf()
		return
	}
	s.visit(s.freeHead, 0, func() { refTail(s) })
}

// tailCase is one configuration of the tail-versus-visit comparison: a
// search configuration with the table on or off, or with a leaf hook
// (which turns the table off too, and is observed).
type tailCase struct {
	tableCase
	noTable bool
	hook    bool
}

func (c tailCase) String() string {
	return fmt.Sprintf("%v noTable=%v hook=%v", c.tableCase, c.noTable, c.hook)
}

// seenLeaf is one leafHook call.
type seenLeaf struct {
	path []int
	cost Cost
}

// tailTally is what the comparisons of one test saw, so the test can
// tell that they exercised what a tail has to get right.
type tailTally struct {
	budgetHits, tableHits int
	pruned                int64
}

// compareTailWithVisit decides every snapshot in turn on a scheduler
// whose tails are walked by tail and on one whose tails refTail walks,
// and fails unless the two agree on everything a decision reports and
// leaves behind: starts, plan, summary, statistics, the leaves seen, the
// table's arena, and a search state and profile back at rest.
func compareTailWithVisit(t testing.TB, c tailCase, snaps []*sim.Snapshot, tally *tailTally) {
	t.Helper()
	loop, ref := c.scheduler(), c.scheduler()
	// A parallel decision's tables belong to whichever worker drew which
	// iteration: what they hold and serve is the scheduler's to vary. A
	// sequential decision's table is deterministic and compared.
	parallel := c.workers > 1
	ref.s.tailHook = refTail
	loop.s.noTable, ref.s.noTable = c.noTable, c.noTable
	var loopLeaves, refLeaves []seenLeaf
	if c.hook {
		loop.s.leafHook = func(path []int, cost Cost) {
			loopLeaves = append(loopLeaves, seenLeaf{slices.Clone(path), cost})
		}
		ref.s.leafHook = func(path []int, cost Cost) {
			refLeaves = append(refLeaves, seenLeaf{slices.Clone(path), cost})
		}
	}
	for i, snap := range snaps {
		got := slices.Clone(loop.Decide(snap))
		want := ref.Decide(snap)
		if !slices.Equal(got, want) {
			t.Fatalf("%v decision %d: starts %v by tail, %v by visit", c, i, got, want)
		}
		if !slices.Equal(loop.LastPlan(), ref.LastPlan()) {
			t.Fatalf("%v decision %d: plan %v by tail, %v by visit", c, i, loop.LastPlan(), ref.LastPlan())
		}
		// BestCost, Nodes, Leaves, Pruned, NodesToBest, TableNodes,
		// TableHits, BudgetHit, the trajectory: every field, bit for bit.
		a, b := loop.LastDecision(), ref.LastDecision()
		if parallel {
			a.TableNodes, a.TableHits, b.TableNodes, b.TableHits = 0, 0, 0, 0
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v decision %d:\nby tail  %+v\nby visit %+v", c, i, a, b)
		}
		if !reflect.DeepEqual(loopLeaves, refLeaves) {
			t.Fatalf("%v decision %d: leaves seen\nby tail  %v\nby visit %v", c, i, loopLeaves, refLeaves)
		}
		if !parallel && !slices.Equal(loop.s.tab.entries, ref.s.tab.entries) {
			t.Fatalf("%v decision %d: arena\nby tail  %+v\nby visit %+v", c, i, loop.s.tab.entries, ref.s.tab.entries)
		}
		for _, s := range append([]*searchState{&loop.s}, loop.wstates...) {
			requireAtRest(t, c, i, s, snap)
		}
	}
	ls, rs := loop.SearchStats, ref.SearchStats
	ls.WallNs, ls.BusyNs, rs.WallNs, rs.BusyNs = 0, 0, 0, 0
	if parallel {
		ls.TableNodes, ls.TableHits, rs.TableNodes, rs.TableHits = 0, 0, 0, 0
	}
	if ls != rs {
		t.Fatalf("%v: stats\nby tail  %+v\nby visit %+v", c, ls, rs)
	}
	tally.budgetHits += ls.BudgetHits
	tally.tableHits += int(ls.TableHits)
	tally.pruned += ls.Pruned
}

// requireAtRest fails unless s is where a finished decision leaves a
// search state: the path empty, nothing on the table's path, and the
// profile the snapshot's own.
func requireAtRest(t testing.TB, c tailCase, i int, s *searchState, snap *sim.Snapshot) {
	t.Helper()
	if s.ev.now != snap.Now {
		return // a worker state this decision did not use
	}
	if len(s.curPath) != 0 || s.curCost != (Cost{}) {
		t.Fatalf("%v decision %d: path %v at cost %v left behind", c, i, s.curPath, s.curCost)
	}
	if s.tab.on && (s.tab.hash != 0 || s.tab.cur != 0 || slices.Contains(s.tab.placed, true)) {
		t.Fatalf("%v decision %d: table left on a path: hash %#x cur %d placed %v", c, i, s.tab.hash, s.tab.cur, s.tab.placed)
	}
	var fresh cluster.Profile
	snap.FillProfile(&fresh)
	if !reflect.DeepEqual(s.ev.prof.Clone(), fresh.Clone()) {
		t.Fatalf("%v decision %d: profile %+v after the decision, the snapshot's is %+v", c, i, s.ev.prof.Clone(), fresh.Clone())
	}
	if err := s.ev.prof.CheckInvariants(); err != nil {
		t.Fatalf("%v decision %d: %v", c, i, err)
	}
}

// tailCases is every configuration TestTailMatchesVisit runs on an n-job
// queue: tableCases' (DFS has no tail) with the table, without it, and
// — sequential ones — with the leaves observed.
func tailCases(n int) []tailCase {
	var cases []tailCase
	for _, c := range tableCases(n) {
		if c.algo == DFS {
			continue
		}
		cases = append(cases, tailCase{tableCase: c}, tailCase{tableCase: c, noTable: true})
		if c.workers <= 1 {
			cases = append(cases, tailCase{tableCase: c, hook: true})
		}
	}
	return cases
}

// TestTailMatchesVisit is the tail's keystone: over random decision
// points, idle and contended, a search whose tails are walked by the
// loop is indistinguishable from one whose tails go through visit, node
// by node — for every algorithm that has tails, at a budget of one node,
// one path, the paper's L and the whole tree, plain and pruned,
// sequential and on three workers, with the table, without it and with
// every leaf observed.
func TestTailMatchesVisit(t *testing.T) {
	trials := 18
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(23))
	var tally tailTally
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(40)
		if trial%3 == 0 {
			n = 1 + rng.Intn(7) // whole trees
		}
		first := tableSnapshot(rng, n, trial%2 == 0)
		snaps := []*sim.Snapshot{first, nextSnapshot(rng, first)}
		for _, c := range tailCases(n) {
			compareTailWithVisit(t, c, snaps, &tally)
		}
	}
	if tally.budgetHits == 0 || tally.tableHits == 0 || tally.pruned == 0 {
		t.Errorf("the comparison never saw an abort, a served subtree or a pruned one: %+v", tally)
	}
}

// FuzzTail runs the tail-versus-visit comparison on a decision point,
// algorithm, budget and mode decoded from the fuzz bytes.
func FuzzTail(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), uint16(1000), uint8(0))
	f.Add(int64(2), uint8(5), uint8(0), uint16(0), uint8(1))
	f.Add(int64(3), uint8(30), uint8(3), uint16(200), uint8(8))
	f.Add(int64(4), uint8(7), uint8(2), uint16(40), uint8(2))
	f.Add(int64(5), uint8(20), uint8(1), uint16(333), uint8(4))
	f.Add(int64(6), uint8(9), uint8(0), uint16(90), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, n, algo uint8, limit uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		first := tableSnapshot(rng, 1+int(n)%40, mode&1 == 0)
		snaps := []*sim.Snapshot{first, nextSnapshot(rng, first)}
		c := tailCase{
			tableCase: tableCase{
				algo:  []Algorithm{LDS, DDS, ADDS, CDDS}[int(algo)%4],
				limit: 1 + int(limit)%3000,
				prune: mode&2 != 0,
			},
			noTable: mode&8 != 0,
		}
		if mode&4 != 0 && !c.prune && c.algo != CDDS {
			c.workers = 3
		} else {
			c.hook = mode&16 != 0
		}
		compareTailWithVisit(t, c, snaps, &tailTally{})
	})
}
