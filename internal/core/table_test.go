package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// tableSnapshot builds a decision point over n queued jobs. Idle, the
// machine is empty and the jobs narrow, so most of them start now in
// any order and transpositions abound; contended, running jobs hold
// nodes and the queue holds wide jobs, so orders change starts.
func tableSnapshot(rng *rand.Rand, n int, idle bool) *sim.Snapshot {
	if !idle {
		return randomSnapshot(rng, n)
	}
	capacity := 64 + rng.Intn(64)
	now := job.Time(50000)
	snap := &sim.Snapshot{Now: now, Capacity: capacity, FreeNodes: capacity}
	for i := 0; i < n; i++ {
		est := job.Duration(60 + rng.Intn(3600))
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job: job.Job{
				ID: i + 1, Submit: now - job.Time(rng.Intn(4000)),
				Nodes: 1 + rng.Intn(capacity/4), Runtime: est, Request: est,
			},
			Estimate: est,
			QueuePos: i,
		})
	}
	return snap
}

// nextSnapshot is the decision after snap: a little later, the head of
// the queue gone and one arrival, so a scheduler decides again on
// scratch a previous decision has used.
func nextSnapshot(rng *rand.Rand, snap *sim.Snapshot) *sim.Snapshot {
	next := *snap
	next.Now += job.Time(1 + rng.Intn(300))
	next.Queue = append([]sim.WaitingJob(nil), snap.Queue[1:]...)
	est := job.Duration(60 + rng.Intn(3600))
	next.Queue = append(next.Queue, sim.WaitingJob{
		Job: job.Job{
			ID: 1000 + len(snap.Queue), Submit: next.Now - job.Time(rng.Intn(300)),
			Nodes: 1 + rng.Intn(snap.Capacity/2), Runtime: est, Request: est,
		},
		Estimate: est,
	})
	for i := range next.Queue {
		next.Queue[i].QueuePos = i
	}
	return &next
}

// tableCase is one configuration of the table-versus-walk comparison.
type tableCase struct {
	algo    Algorithm
	limit   int
	prune   bool
	workers int
}

func (c tableCase) String() string {
	return fmt.Sprintf("%s L=%d prune=%v workers=%d", c.algo, c.limit, c.prune, c.workers)
}

func (c tableCase) scheduler() *Scheduler {
	sch := New(c.algo, HeuristicLXF, DynamicBound(), c.limit)
	sch.Prune, sch.Workers = c.prune, c.workers
	return sch
}

// compareTableWithWalk decides every snapshot in turn on a scheduler
// with the table and on one without, and fails unless the two agree on
// everything a decision reports except how many of its nodes were
// served. It returns the nodes the table served.
func compareTableWithWalk(t testing.TB, c tableCase, snaps []*sim.Snapshot, pairHash func(int, job.Time) uint64) int64 {
	t.Helper()
	with, without := c.scheduler(), c.scheduler()
	with.s.tab.pairHash = pairHash
	without.s.noTable = true
	for i, snap := range snaps {
		got := slices.Clone(with.Decide(snap))
		want := without.Decide(snap)
		if !slices.Equal(got, want) {
			t.Fatalf("%v decision %d: starts %v with the table, %v walked", c, i, got, want)
		}
		if !slices.Equal(with.LastPlan(), without.LastPlan()) {
			t.Fatalf("%v decision %d: plan %v with the table, %v walked", c, i, with.LastPlan(), without.LastPlan())
		}
		a, b := with.LastDecision(), without.LastDecision()
		if b.TableNodes != 0 || b.TableHits != 0 {
			t.Fatalf("%v decision %d: noTable served %d nodes in %d hits", c, i, b.TableNodes, b.TableHits)
		}
		if a.TableNodes > a.Nodes {
			t.Fatalf("%v decision %d: %d of %d nodes served", c, i, a.TableNodes, a.Nodes)
		}
		a.TableNodes, a.TableHits = 0, 0
		// BestCost, Nodes, Leaves, NodesToBest, BudgetHit, the trajectory
		// and every other field, bit for bit.
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v decision %d:\nwith the table %+v\nwalked         %+v", c, i, a, b)
		}
	}
	ws, wos := with.SearchStats, without.SearchStats
	served := ws.TableNodes
	ws.TableNodes, ws.TableHits = 0, 0
	ws.WallNs, ws.BusyNs, wos.WallNs, wos.BusyNs = 0, 0, 0, 0
	if ws != wos {
		t.Fatalf("%v: stats\nwith the table %+v\nwalked         %+v", c, ws, wos)
	}
	return served
}

// tableCases is every configuration TestTableInert runs on an n-job
// queue: the five algorithms at a budget of one node, one path, the
// paper's L and (short queues) the whole tree, plain and pruned, plus
// the parallel search where it exists.
func tableCases(n int) []tableCase {
	limits := []int{1, n, 1000}
	if n <= 7 {
		limits = append(limits, 1<<30)
	}
	var cases []tableCase
	for _, algo := range []Algorithm{LDS, DDS, ADDS, CDDS, DFS} {
		for _, limit := range limits {
			for _, prune := range []bool{false, true} {
				cases = append(cases, tableCase{algo: algo, limit: limit, prune: prune})
			}
			if algo != CDDS && algo != DFS {
				cases = append(cases, tableCase{algo: algo, limit: limit, workers: 3})
			}
		}
	}
	return cases
}

// TestTableInert is the table's keystone: over random decision points,
// idle and contended, every algorithm, budget and prune setting
// commits the same plan and reports the same counts, incumbent
// trajectory and budget outcome with the table as with a plain walk.
func TestTableInert(t *testing.T) {
	trials := 36
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(18))
	served := map[Algorithm]int64{}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(40)
		if trial%3 == 0 {
			n = 1 + rng.Intn(7) // whole trees
		}
		first := tableSnapshot(rng, n, trial%2 == 0)
		snaps := []*sim.Snapshot{first, nextSnapshot(rng, first)}
		for _, c := range tableCases(n) {
			got := compareTableWithWalk(t, c, snaps, nil)
			if c.prune || c.algo == DFS {
				if got != 0 {
					t.Fatalf("%v: the table is off here, yet served %d nodes", c, got)
				}
				continue
			}
			served[c.algo] += got
		}
	}
	for _, algo := range []Algorithm{LDS, DDS, ADDS, CDDS} {
		if served[algo] == 0 {
			t.Errorf("%s: the table never served a node; the comparison proved nothing", algo)
		}
	}
}

// TestTableSurvivesCollisions makes every (job, start) pair hash alike,
// so every lookup lands on a chain of entries for other sets: a hash
// match alone must never serve one, and the true matches must still be
// found behind the false ones.
func TestTableSurvivesCollisions(t *testing.T) {
	constant := func(int, job.Time) uint64 { return 42 }
	rng := rand.New(rand.NewSource(19))
	var served int64
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(9)
		first := tableSnapshot(rng, n, trial%2 == 0)
		snaps := []*sim.Snapshot{first, nextSnapshot(rng, first)}
		for _, algo := range []Algorithm{LDS, DDS, ADDS, CDDS} {
			for _, limit := range []int{n + 3, 400} {
				served += compareTableWithWalk(t, tableCase{algo: algo, limit: limit}, snaps, constant)
			}
		}
	}
	if served == 0 {
		t.Error("no node was served under forced collisions; the true matches were lost")
	}
}

// placedPair is one link of a table entry's chain.
type placedPair struct {
	oi    int
	start job.Time
}

// chainOf returns entry id's chain, root first.
func chainOf(tb *table, id int32) []placedPair {
	var chain []placedPair
	for ; id != 0; id = tb.entries[id].parent {
		chain = append(chain, placedPair{int(tb.entries[id].oi), tb.entries[id].start})
	}
	slices.Reverse(chain)
	return chain
}

// walkBelow places chain in order on s, which must run without a
// table, requires every job to land on its recorded start, and returns
// the nodes and leaves run visits below the last of them.
func walkBelow(t *testing.T, s *searchState, chain []placedPair, run func()) (nodes, leaves int64) {
	t.Helper()
	var place func(i int)
	place = func(i int) {
		if i == len(chain) {
			n0, l0 := s.nodes, s.leaves
			run()
			nodes, leaves = s.nodes-n0, s.leaves-l0
			return
		}
		s.visit(chain[i].oi, 0, func() {
			if got := s.curStart[chain[i].oi]; got != chain[i].start {
				t.Fatalf("chain %v: job %d lands at %d on a fresh profile", chain, chain[i].oi, got)
			}
			place(i + 1)
		})
	}
	place(0)
	return nodes, leaves
}

// TestTableEntriesMatchFreshWalks checks what the table remembered
// after whole-tree searches of short queues: every completed entry's
// chain is a real path (replayed on a fresh profile, each job lands on
// its recorded start) and its node and leaf counts are what the real
// enumerator visits below that path when nothing is served.
func TestTableEntriesMatchFreshWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	checked := 0
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		snap := tableSnapshot(rng, n, trial%2 == 0)
		bound := DynamicBound().At(snap)
		for _, algo := range []Algorithm{LDS, DDS, ADDS} {
			var s, fresh searchState
			fresh.noTable = true
			s.reset(snap, algo, HeuristicLXF, bound, nil, 1<<30, false)
			fresh.reset(snap, algo, HeuristicLXF, bound, nil, 1<<30, false)
			if algo == LDS {
				s.runLDS()
			} else {
				s.runDDS()
			}
			for id := int32(1); int(id) < len(s.tab.entries); id++ {
				e := s.tab.entries[id]
				if e.nodes < 0 {
					t.Fatalf("%s n=%d: entry %d never completed in an unaborted search", algo, n, id)
				}
				nodes, leaves := walkBelow(t, &fresh, chainOf(&s.tab, id), func() {
					// ctx is what the enumerator below depends on: LDS's
					// discrepancies to spend, DDS's iteration, 0 the tail
					// (which is what iteration 0 walks from any level).
					if algo == LDS {
						fresh.ldsDFS(int(e.level)+1, int(e.ctx))
					} else {
						fresh.ddsDFS(int(e.level)+1, int(e.ctx))
					}
				})
				if nodes != e.nodes || leaves != e.leaves {
					t.Fatalf("%s n=%d: entry %d (chain %v, ctx %d) recorded %d nodes / %d leaves, a fresh walk visits %d / %d",
						algo, n, id, chainOf(&s.tab, id), e.ctx, e.nodes, e.leaves, nodes, leaves)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no entry checked")
	}
}

// TestTableHitsAreTheSamePlacedSet enumerates every ordering of a short
// queue through visit with an enumerator of the test's own, where a
// node whose subtree was not walked is visibly a hit. Every hit must
// come on a set of (job, start) pairs an earlier, different path placed
// and completed, add exactly the nodes and leaves of the full subtree
// below it, and every repeat of a completed set with jobs left must hit.
func TestTableHitsAreTheSamePlacedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	hits := 0
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		snap := tableSnapshot(rng, n, trial%2 == 0)
		var s searchState
		s.reset(snap, DDS, HeuristicLXF, DynamicBound().At(snap), nil, 1<<30, false)

		// subtree[m] is what lies below a node with m jobs left: every
		// ordering of them.
		subNodes, subLeaves := make([]int64, n+1), make([]int64, n+1)
		subLeaves[0] = 1
		for m := 1; m <= n; m++ {
			subNodes[m] = int64(m) * (1 + subNodes[m-1])
			subLeaves[m] = int64(m) * subLeaves[m-1]
		}
		setKey := func() string {
			pairs := make([]placedPair, 0, n)
			for _, oi := range s.curPath {
				pairs = append(pairs, placedPair{oi, s.curStart[oi]})
			}
			slices.SortFunc(pairs, func(a, b placedPair) int { return a.oi - b.oi })
			return fmt.Sprint(pairs)
		}
		completed := map[string]bool{}
		var walk func()
		walk = func() {
			if len(s.curPath) == n {
				s.leaf()
				return
			}
			left := n - len(s.curPath) - 1
			for oi := s.freeHead; oi >= 0; oi = s.freeNext[oi] {
				walked, key := false, ""
				n0, l0 := s.nodes, s.leaves
				s.visit(oi, 0, func() {
					// The table has had its say; the job is on the path.
					walked, key = true, setKey()
					walk()
				})
				if walked {
					// (The last job has only its leaf below it; visit does
					// not consult the table there.)
					if completed[key] && left > 0 {
						t.Fatalf("n=%d: set %s was completed before, yet walked again", n, key)
					}
					completed[key] = true
					continue
				}
				hits++
				// visit has undone the placement but curStart keeps it.
				s.curPath = append(s.curPath, oi)
				key = setKey()
				s.curPath = s.curPath[:len(s.curPath)-1]
				if !completed[key] {
					t.Fatalf("n=%d: served set %s, which no earlier path completed", n, key)
				}
				if gotN, gotL := s.nodes-n0-1, s.leaves-l0; gotN != subNodes[left] || gotL != subLeaves[left] {
					t.Fatalf("n=%d: hit on %s added %d nodes / %d leaves, the subtree holds %d / %d",
						n, key, gotN, gotL, subNodes[left], subLeaves[left])
				}
			}
		}
		walk()
		if s.nodes != subNodes[n] || s.leaves != subLeaves[n] {
			t.Fatalf("n=%d: counted %d nodes / %d leaves, the tree holds %d / %d", n, s.nodes, s.leaves, subNodes[n], subLeaves[n])
		}
	}
	if hits == 0 {
		t.Fatal("no hit observed")
	}
}

// FuzzSearchTable runs the table-versus-walk comparison on a decision
// point, algorithm, budget and mode decoded from the fuzz bytes.
func FuzzSearchTable(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), uint16(1000), uint8(0))
	f.Add(int64(2), uint8(5), uint8(0), uint16(0), uint8(1))
	f.Add(int64(3), uint8(30), uint8(3), uint16(200), uint8(4))
	f.Add(int64(4), uint8(7), uint8(2), uint16(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, algo uint8, limit uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		first := tableSnapshot(rng, 1+int(n)%40, mode&1 == 0)
		snaps := []*sim.Snapshot{first, nextSnapshot(rng, first)}
		c := tableCase{
			algo:  []Algorithm{LDS, DDS, ADDS, CDDS, DFS}[int(algo)%5],
			limit: 1 + int(limit)%3000,
			prune: mode&2 != 0,
		}
		if mode&4 != 0 && !c.prune && c.algo != CDDS && c.algo != DFS {
			c.workers = 3
		}
		compareTableWithWalk(t, c, snaps, nil)
	})
}
