package core

import (
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// handSnapshot builds a decision point on an idle machine of the given
// capacity from (nodes, wait, estimate) triples, in queue order.
func handSnapshot(capacity int, jobs ...[3]int64) *sim.Snapshot {
	now := job.Time(50000)
	snap := &sim.Snapshot{Now: now, Capacity: capacity, FreeNodes: capacity}
	for i, j := range jobs {
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job:      job.Job{ID: i + 1, Submit: now - j[1], Nodes: int(j[0]), Runtime: j[2], Request: j[2]},
			Estimate: j[2],
			QueuePos: i,
		})
	}
	return snap
}

// settleLoses is a decision point where a discrepancy loses at once:
// three one-node jobs that have waited long and a machine-wide one that
// has not. The heuristic starts the narrow jobs now and the wide one
// after them; a path that starts the wide job first pushes the next
// narrow job past the wait bound, so the rest of its tail cannot win.
func settleLoses() *sim.Snapshot {
	return handSnapshot(4, [3]int64{1, 1000, 60}, [3]int64{1, 990, 60}, [3]int64{1, 980, 60}, [3]int64{4, 100, 10000})
}

// settleTies is a decision point where, under the paper's cost, a path
// reaches the incumbent's cost bit for bit with a job left to place. Two
// nodes; a one-node job that has waited 1100 s (the dynB bound), a
// two-node job that has waited 900 s and a fresh ten-second one-node
// job. The LXF heuristic runs the two-node job now and the other two at
// 100: excess 100, slowdowns 10 + 5 + 8/3. The discrepancy that starts
// the long waiter first delays the two-node job to 300: excess 100,
// slowdowns 14/3 + 13, the same float64, with the fresh job still to
// place.
func settleTies() *sim.Snapshot {
	return handSnapshot(2, [3]int64{1, 1100, 300}, [3]int64{2, 900, 100}, [3]int64{1, 0, 10})
}

// TestSettleCountsTheWalk checks settle on hand-built decision points,
// each against a walk without the table (compareTableWithWalk), and
// pins what it counted: a tail the budget covers, one the budget ends
// inside, a partial cost that exactly ties the incumbent, Prune (which
// keeps its own counts) and a leaf hook (which must see every leaf).
func TestSettleCountsTheWalk(t *testing.T) {
	loses, ties := []*sim.Snapshot{settleLoses()}, []*sim.Snapshot{settleTies()}
	for _, tc := range []struct {
		name  string
		c     tableCase
		snaps []*sim.Snapshot
		// want's Nodes, Leaves, BudgetHits, Pruned, NodesToBest and
		// SettledNodes are compared.
		want Stats
	}{
		{"whole tree", tableCase{algo: DDS, limit: 1 << 30}, loses,
			Stats{Nodes: 84, Leaves: 24, NodesToBest: 4, SettledNodes: 8}},
		{"whole tree", tableCase{algo: LDS, limit: 1 << 30}, loses,
			Stats{Nodes: 84, Leaves: 24, NodesToBest: 4, SettledNodes: 8}},
		// DDS iteration 1 starts the wide job first at node 13 and delays
		// a narrow one at node 14; the two nodes left and the leaf settle.
		{"budget covers the tail exactly", tableCase{algo: DDS, limit: 16}, loses,
			Stats{Nodes: 16, Leaves: 4, BudgetHits: 1, NodesToBest: 4, SettledNodes: 2}},
		{"budget ends inside the tail", tableCase{algo: DDS, limit: 15}, loses,
			Stats{Nodes: 15, Leaves: 3, BudgetHits: 1, NodesToBest: 4, SettledNodes: 1}},
		// A path reaches the incumbent's cost exactly with a job left: it
		// settles, and the first incumbent (node 3) stays.
		{"exact tie", tableCase{algo: DDS, limit: 1 << 30}, ties,
			Stats{Nodes: 18, Leaves: 6, NodesToBest: 3, SettledNodes: 1}},
		{"exact tie", tableCase{algo: LDS, limit: 1 << 30}, ties,
			Stats{Nodes: 18, Leaves: 6, NodesToBest: 3, SettledNodes: 1}},
		{"prune", tableCase{algo: DDS, limit: 1 << 30, prune: true}, loses,
			Stats{Nodes: 72, Leaves: 1, Pruned: 23, NodesToBest: 4}},
		{"prune", tableCase{algo: DDS, limit: 15, prune: true}, loses,
			Stats{Nodes: 15, Leaves: 1, BudgetHits: 1, Pruned: 3, NodesToBest: 4}},
	} {
		st := compareTableWithWalk(t, tc.c, tc.snaps, nil)
		got := Stats{Nodes: st.Nodes, Leaves: st.Leaves, BudgetHits: st.BudgetHits, Pruned: st.Pruned,
			NodesToBest: st.NodesToBest, SettledNodes: st.SettledNodes}
		if got != tc.want {
			t.Errorf("%s, %v:\ngot  %+v\nwant %+v", tc.name, tc.c, got, tc.want)
		}
	}

	// A leaf hook turns the table, and so settle, off: it sees every leaf.
	sch := tableCase{algo: DDS, limit: 1 << 30}.scheduler()
	seen := int64(0)
	sch.s.leafHook = func([]int, Cost) { seen++ }
	sch.Decide(settleLoses())
	if st := sch.SearchStats; seen != 24 || st.Leaves != 24 || st.Nodes != 84 || st.SettledNodes != 0 {
		t.Errorf("with a leaf hook: %d leaves seen, stats %+v; want all 24 leaves of 84 nodes, none settled", seen, st)
	}
}
