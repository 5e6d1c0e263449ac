package policy

import (
	"math/rand"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

func wjob(id int, submit job.Time, nodes int, est job.Duration) sim.WaitingJob {
	return sim.WaitingJob{
		Job:      job.Job{ID: id, Submit: submit, Nodes: nodes, Runtime: est, Request: est},
		Estimate: est,
	}
}

// orderOf returns the queue positions in p's priority order.
func orderOf(snap *sim.Snapshot, p Priority) []int {
	var order []int
	for _, r := range new(scratch).priorityOrder(snap, p) {
		order = append(order, r.qi)
	}
	return order
}

func snapOf(now job.Time, capacity int, running []sim.RunningJob, queue []sim.WaitingJob) *sim.Snapshot {
	free := capacity
	for _, r := range running {
		free -= r.Nodes
	}
	for i := range queue {
		queue[i].QueuePos = i
	}
	return &sim.Snapshot{Now: now, Capacity: capacity, FreeNodes: free, Running: running, Queue: queue}
}

func TestFCFSBackfillStartsInOrder(t *testing.T) {
	snap := snapOf(0, 4, nil, []sim.WaitingJob{
		wjob(1, 0, 2, 100),
		wjob(2, 1, 2, 100),
		wjob(3, 2, 2, 100),
	})
	starts := FCFSBackfill().Decide(snap)
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 1 {
		t.Errorf("starts = %v, want [0 1]", starts)
	}
}

func TestBackfillFillsHoleWithoutDelayingReservation(t *testing.T) {
	// 4-node machine; 3 nodes busy until t=100. Head job wants 4 nodes
	// (reserved at t=100). A 1-node 50s job fits in the hole; a 1-node
	// 200s job would delay the reservation and must NOT start.
	running := []sim.RunningJob{{ID: 9, Nodes: 3, Start: 0, PredictedEnd: 100}}
	queue := []sim.WaitingJob{
		wjob(1, 0, 4, 1000), // head, cannot start
		wjob(2, 1, 1, 200),  // would delay reservation
		wjob(3, 2, 1, 50),   // fits the hole
	}
	starts := FCFSBackfill().Decide(snapOf(0, 4, running, queue))
	if len(starts) != 1 || starts[0] != 2 {
		t.Errorf("starts = %v, want [2] (only the 50s job backfills)", starts)
	}
}

func TestBackfillZeroReservationsStarvesHead(t *testing.T) {
	// Without reservations, the long backfill job is allowed to delay
	// the head job — showing the reservation is what protects it.
	running := []sim.RunningJob{{ID: 9, Nodes: 3, Start: 0, PredictedEnd: 100}}
	queue := []sim.WaitingJob{
		wjob(1, 0, 4, 1000),
		wjob(2, 1, 1, 200),
	}
	b := &Backfill{Priority: FCFS{}, Reservations: 0}
	starts := b.Decide(snapOf(0, 4, running, queue))
	if len(starts) != 1 || starts[0] != 1 {
		t.Errorf("starts = %v, want [1]", starts)
	}
}

func TestBackfillMultipleReservations(t *testing.T) {
	// Two reservations: the second-priority job also gets a protected
	// start time, further restricting backfill.
	running := []sim.RunningJob{{ID: 9, Nodes: 3, Start: 0, PredictedEnd: 100}}
	queue := []sim.WaitingJob{
		wjob(1, 0, 4, 100), // reserved at t=100
		wjob(2, 1, 4, 100), // reserved at t=200
		wjob(3, 2, 1, 150), // fits neither hole (delays 2nd reservation)
		wjob(4, 3, 1, 100), // fits the first hole exactly
	}
	b := &Backfill{Priority: FCFS{}, Reservations: 2}
	starts := b.Decide(snapOf(0, 4, running, queue))
	if len(starts) != 1 || starts[0] != 3 {
		t.Errorf("starts = %v, want [3]", starts)
	}
}

func TestLXFPriorityOrdersBySlowdown(t *testing.T) {
	now := job.Time(1000)
	// Short job waited as long as long job: short job has larger
	// slowdown, so LXF puts it first.
	queue := []sim.WaitingJob{
		wjob(1, 0, 1, 10000), // slowdown (1000+10000)/10000 = 1.1
		wjob(2, 0, 1, 100),   // slowdown (1000+100)/100 = 11
	}
	snap := snapOf(now, 4, nil, queue)
	order := orderOf(snap, LXF{})
	if order[0] != 1 {
		t.Errorf("LXF order = %v, want job 2 (queue index 1) first", order)
	}
	// FCFS prefers earlier submit with ID tiebreak.
	order = orderOf(snap, FCFS{})
	if order[0] != 0 {
		t.Errorf("FCFS order = %v, want queue index 0 first", order)
	}
}

func TestSJFPriority(t *testing.T) {
	queue := []sim.WaitingJob{
		wjob(1, 0, 1, 5000),
		wjob(2, 10, 1, 50),
	}
	order := orderOf(snapOf(100, 4, nil, queue), SJF{})
	if order[0] != 1 {
		t.Errorf("SJF order = %v, want the short job first", order)
	}
}

func TestLXFWAddsWaitWeight(t *testing.T) {
	p := LXFW{WaitWeight: 1000} // exaggerated weight: wait dominates
	queue := []sim.WaitingJob{
		wjob(1, 0, 1, 10000),      // long wait
		wjob(2, 999*3600, 1, 100), // tiny wait, bigger slowdown
	}
	order := orderOf(snapOf(1000*3600, 4, nil, queue), p)
	if order[0] != 0 {
		t.Errorf("LXF&W with huge wait weight should prefer the old job: %v", order)
	}
}

func TestPriorityOrderDeterministicTiebreak(t *testing.T) {
	queue := []sim.WaitingJob{
		wjob(5, 100, 1, 100),
		wjob(2, 100, 1, 100),
		wjob(9, 100, 1, 100),
	}
	order := orderOf(snapOf(200, 4, nil, queue), FCFS{})
	// Equal submit and score: lower job ID first.
	wantIDs := []int{2, 5, 9}
	for i, qi := range order {
		if queue[qi].Job.ID != wantIDs[i] {
			t.Fatalf("order %v: position %d has job %d, want %d",
				order, i, queue[qi].Job.ID, wantIDs[i])
		}
	}
}

func TestBuildProfileAccountsRunning(t *testing.T) {
	running := []sim.RunningJob{
		{ID: 1, Nodes: 2, Start: 0, PredictedEnd: 100},
		{ID: 2, Nodes: 1, Start: 0, PredictedEnd: 50},
	}
	prof := BuildProfile(snapOf(10, 4, running, nil))
	if got := prof.FreeAt(10); got != 1 {
		t.Errorf("FreeAt(now) = %d, want 1", got)
	}
	if got := prof.FreeAt(60); got != 2 {
		t.Errorf("FreeAt(60) = %d, want 2", got)
	}
	if got := prof.FreeAt(150); got != 4 {
		t.Errorf("FreeAt(150) = %d, want 4", got)
	}
}

func TestBuildProfileOverdueRunningJob(t *testing.T) {
	// A job past its predicted end still holds nodes; the profile must
	// not underflow.
	running := []sim.RunningJob{{ID: 1, Nodes: 4, Start: 0, PredictedEnd: 50}}
	prof := BuildProfile(snapOf(100, 4, running, nil))
	if got := prof.FreeAt(100); got != 0 {
		t.Errorf("FreeAt(now) = %d, want 0 (overdue job still running)", got)
	}
}

// TestBackfillNeverExceedsCapacity drives all backfill variants with
// random queues and verifies the started set always fits.
func TestBackfillNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := []func() sim.Policy{
		func() sim.Policy { return FCFSBackfill() },
		func() sim.Policy { return LXFBackfill() },
		func() sim.Policy { return NewBackfill(SJF{}) },
		func() sim.Policy { return NewBackfill(NewLXFW()) },
		func() sim.Policy { return NewSelectiveBackfill() },
		func() sim.Policy { return NewRelaxedBackfill() },
		func() sim.Policy { return NewSlackBackfill() },
		func() sim.Policy { return NewLookahead() },
	}
	for trial := 0; trial < 100; trial++ {
		capacity := 4 + rng.Intn(28)
		now := job.Time(10000)
		var running []sim.RunningJob
		used := 0
		for used < capacity && rng.Float64() < 0.7 {
			n := 1 + rng.Intn(capacity-used)
			running = append(running, sim.RunningJob{
				ID: 1000 + len(running), Nodes: n, Start: 0,
				PredictedEnd: now + job.Duration(1+rng.Intn(5000)),
			})
			used += n
		}
		var queue []sim.WaitingJob
		for i := 0; i < 1+rng.Intn(12); i++ {
			queue = append(queue, wjob(i+1, job.Time(rng.Intn(int(now))),
				1+rng.Intn(capacity), job.Duration(1+rng.Intn(7200))))
		}
		snap := snapOf(now, capacity, running, queue)
		for _, f := range mk {
			pol := f()
			starts := pol.Decide(snap)
			total := 0
			seen := map[int]bool{}
			for _, qi := range starts {
				if qi < 0 || qi >= len(queue) || seen[qi] {
					t.Fatalf("trial %d %s: bad starts %v", trial, pol.Name(), starts)
				}
				seen[qi] = true
				total += queue[qi].Job.Nodes
			}
			if total > snap.FreeNodes {
				t.Fatalf("trial %d %s: started %d nodes with %d free",
					trial, pol.Name(), total, snap.FreeNodes)
			}
		}
	}
}

// TestBackfillWorkConserving: if any queued job fits in the free nodes
// for its full estimate without delaying the reservation, plain EASY
// backfill starts at least one job.
func TestBackfillWorkConservingOnIdleMachine(t *testing.T) {
	queue := []sim.WaitingJob{wjob(1, 0, 3, 100), wjob(2, 0, 2, 100)}
	for _, pol := range []sim.Policy{FCFSBackfill(), LXFBackfill(), NewLookahead(),
		NewSelectiveBackfill(), NewRelaxedBackfill(), NewSlackBackfill()} {
		starts := pol.Decide(snapOf(0, 4, nil, append([]sim.WaitingJob(nil), queue...)))
		if len(starts) == 0 {
			t.Errorf("%s started nothing on an idle machine", pol.Name())
		}
	}
}

func TestLookaheadMaximizesUtilization(t *testing.T) {
	// 8-node machine, 2 busy until far future; the 7-node head job is
	// reserved. Backfill candidates: 4, 3, 3 nodes. Greedy FCFS
	// backfill starts the 4-node job (then neither 3-node job fits);
	// lookahead's knapsack should pick 3+3 = 6 nodes instead.
	queue := []sim.WaitingJob{
		wjob(1, 0, 7, 100), // head: cannot start, gets the reservation
		wjob(2, 1, 4, 100),
		wjob(3, 2, 3, 100),
		wjob(4, 3, 3, 100),
	}
	running := []sim.RunningJob{{ID: 9, Nodes: 2, Start: 0, PredictedEnd: 1000000}}
	starts := NewLookahead().Decide(snapOf(10, 8, running, queue))
	total := 0
	for _, qi := range starts {
		total += queue[qi].Job.Nodes
	}
	if total != 6 {
		t.Errorf("lookahead packed %d nodes (starts %v), want 6", total, starts)
	}
	// Greedy FCFS backfill on the same snapshot packs only 4 nodes —
	// the contrast that motivates lookahead.
	gStarts := FCFSBackfill().Decide(snapOf(10, 8, running, queue))
	gTotal := 0
	for _, qi := range gStarts {
		gTotal += queue[qi].Job.Nodes
	}
	if gTotal != 4 {
		t.Errorf("FCFS-backfill packed %d nodes (starts %v), want 4", gTotal, gStarts)
	}
}

func TestSelectiveBackfillGrantsReservationWhenExpanded(t *testing.T) {
	// A job far past the expansion threshold gets a reservation that
	// blocks a conflicting backfill.
	running := []sim.RunningJob{{ID: 9, Nodes: 3, Start: 0, PredictedEnd: 100000}}
	queue := []sim.WaitingJob{
		wjob(1, 0, 4, 1000),      // waited 50000s on a 1000s job: xf huge
		wjob(2, 49000, 1, 90000), // would delay job 1 behind the running job
	}
	s := NewSelectiveBackfill()
	starts := s.Decide(snapOf(50000, 4, running, queue))
	if len(starts) != 0 {
		t.Errorf("starts = %v, want [] (reservation for the expanded job blocks backfill)", starts)
	}
}

func TestBackfillName(t *testing.T) {
	if got := FCFSBackfill().Name(); got != "FCFS-backfill" {
		t.Errorf("Name = %q", got)
	}
	if got := LXFBackfill().WithName("custom").Name(); got != "custom" {
		t.Errorf("Name = %q", got)
	}
}
