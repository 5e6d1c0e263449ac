package core

import (
	"math/rand"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// TestSchedulerEmptyQueueClearsState is the regression for the stale
// LastPlan/LastCost bug: after a decision over a non-empty queue, a
// decision over an empty queue must not keep reporting the previous
// plan and cost.
func TestSchedulerEmptyQueueClearsState(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 100)
	sch.WarmStart = true
	sch.Decide(fourJobSnapshot())
	if len(sch.LastPlan()) != 4 || sch.LastCost() == (Cost{}) {
		t.Fatalf("precondition: first decision planned %d jobs at cost %v",
			len(sch.LastPlan()), sch.LastCost())
	}
	empty := &sim.Snapshot{Now: 2000, Capacity: 100, FreeNodes: 100}
	if starts := sch.Decide(empty); len(starts) != 0 {
		t.Fatalf("Decide on empty queue = %v, want empty", starts)
	}
	if got := sch.LastPlan(); len(got) != 0 {
		t.Errorf("LastPlan after empty decision = %v, want empty", got)
	}
	if got := sch.LastCost(); got != (Cost{}) {
		t.Errorf("LastCost after empty decision = %v, want zero", got)
	}
	if sch.warm.valid {
		t.Error("warm carry still valid after empty decision")
	}
}

// TestWarmSeedSplice pins the seed construction: survivors keep their
// carried relative order, departures vanish, arrivals enter at their
// heuristic rank.
func TestWarmSeedSplice(t *testing.T) {
	snap := &sim.Snapshot{Now: 1000, Capacity: 100, FreeNodes: 100}
	// fcfs branch order: 1, 5, 3, 4 (ordered indices 0..3).
	for i, id := range []int{1, 5, 3, 4} {
		j := job.Job{ID: id, Submit: job.Time(i), Nodes: 1, Runtime: 60, Request: 60}
		snap.Queue = append(snap.Queue, sim.WaitingJob{Job: j, Estimate: 60, QueuePos: i})
	}
	sch := New(DDS, HeuristicFCFS, DynamicBound(), 100)
	sch.WarmStart = true
	// Carried ordering from the "previous" decision: job 2 departed,
	// job 5 (ordered index 1) is a new arrival.
	sch.warm.order = []int{4, 2, 3, 1}
	sch.warm.valid = true

	s := &sch.s
	s.reset(snap, DDS, HeuristicFCFS, 0, HierarchicalCost, 100, false)
	sch.seedWarm(s)

	// Survivors in carried order: 4, 3, 1 -> ordered indices 3, 2, 0.
	// Arrival 5 has heuristic rank 1, so it splices in at position 1.
	want := []int{3, 1, 2, 0}
	if len(sch.warm.seq) != len(want) {
		t.Fatalf("seed %v, want %v", sch.warm.seq, want)
	}
	for i := range want {
		if sch.warm.seq[i] != want[i] {
			t.Fatalf("seed %v, want %v", sch.warm.seq, want)
		}
	}
	if !s.seedSet || !s.ntbSet || s.nodesToBest != 0 {
		t.Errorf("seed not installed as incumbent: seedSet=%v ntbSet=%v ntb=%d",
			s.seedSet, s.ntbSet, s.nodesToBest)
	}
	if sch.SearchStats.WarmDecisions != 1 || sch.SearchStats.WarmSeedNodes != 4 {
		t.Errorf("warm accounting: %+v", sch.SearchStats)
	}
}

// evolvingQueue mutates a queue the way decision points see it: some
// jobs leave (started or completed), new jobs arrive with fresh IDs.
type evolvingQueue struct {
	rng    *rand.Rand
	nextID int
	jobs   []sim.WaitingJob
	now    job.Time
}

func (q *evolvingQueue) step(capacity int) *sim.Snapshot {
	q.now += job.Time(1 + q.rng.Intn(600))
	// Departures.
	kept := q.jobs[:0]
	for _, w := range q.jobs {
		if q.rng.Float64() < 0.35 {
			continue
		}
		kept = append(kept, w)
	}
	q.jobs = kept
	// Arrivals.
	for len(q.jobs) < 2 || q.rng.Float64() < 0.5 {
		if len(q.jobs) >= 7 {
			break
		}
		est := job.Duration(60 + q.rng.Intn(7200))
		q.jobs = append(q.jobs, sim.WaitingJob{
			Job: job.Job{
				ID:      q.nextID,
				Submit:  q.now - job.Time(q.rng.Intn(3000)),
				Nodes:   1 + q.rng.Intn(capacity),
				Runtime: est, Request: est,
			},
			Estimate: est,
		})
		q.nextID++
	}
	snap := &sim.Snapshot{Now: q.now, Capacity: capacity, FreeNodes: capacity}
	used := 0
	if q.rng.Float64() < 0.5 {
		used = q.rng.Intn(capacity)
		if used > 0 {
			snap.Running = append(snap.Running, sim.RunningJob{
				ID: 1_000_000, Nodes: used, Start: 0,
				PredictedEnd: q.now + job.Duration(1+q.rng.Intn(3600)),
			})
		}
	}
	snap.FreeNodes = capacity - used
	for i := range q.jobs {
		q.jobs[i].QueuePos = i
		snap.Queue = append(snap.Queue, q.jobs[i])
	}
	return snap
}

// TestWarmMatchesColdSequences is the keystone discipline at unit
// scale: over evolving decision sequences — every algorithm, pruning on
// and off, budgets from starvation to full enumeration — a warm-started
// scheduler must commit bit-identical schedules, plans, costs and
// enumeration counters to a cold one.
func TestWarmMatchesColdSequences(t *testing.T) {
	algos := []Algorithm{DDS, LDS, DFS, ADDS, CDDS}
	for _, algo := range algos {
		for _, prune := range []bool{false, true} {
			rng := rand.New(rand.NewSource(61))
			limit := []int{5, 60, 1 << 30}[rng.Intn(3)]
			cold := New(algo, HeuristicLXF, DynamicBound(), limit)
			warm := New(algo, HeuristicLXF, DynamicBound(), limit)
			cold.Prune, warm.Prune = prune, prune
			warm.WarmStart = true
			q := &evolvingQueue{rng: rng, nextID: 1}
			for step := 0; step < 30; step++ {
				snap := q.step(16)
				assertSameDecision(t, warm.Name(), snap, cold, warm)
				if d := warm.SearchStats.NodesToBest - cold.SearchStats.NodesToBest; d > 0 {
					t.Fatalf("%s prune=%v step %d: warm nodes-to-best exceeds cold by %d",
						warm.Name(), prune, step, d)
				}
			}
			if warm.SearchStats.WarmDecisions == 0 {
				t.Errorf("%s prune=%v: no decision was ever seeded", warm.Name(), prune)
			}
		}
	}
}

// TestWarmParallelMatchesSequential: warm seeding must compose with the
// parallel search — identical commits AND identical NodesToBest, since
// the merge replays the sequential improvement order.
func TestWarmParallelMatchesSequential(t *testing.T) {
	for _, algo := range []Algorithm{DDS, LDS, ADDS} {
		rng := rand.New(rand.NewSource(67))
		seq := New(algo, HeuristicLXF, DynamicBound(), 150)
		par := New(algo, HeuristicLXF, DynamicBound(), 150)
		seq.WarmStart, par.WarmStart = true, true
		par.Workers = 4
		q := &evolvingQueue{rng: rng, nextID: 1}
		for step := 0; step < 25; step++ {
			snap := q.step(16)
			assertSameDecision(t, par.Name(), snap, seq, par)
			if seq.SearchStats.NodesToBest != par.SearchStats.NodesToBest {
				t.Fatalf("%s step %d: nodes-to-best %d parallel, %d sequential",
					par.Name(), step, par.SearchStats.NodesToBest, seq.SearchStats.NodesToBest)
			}
		}
		if par.SearchStats.WarmDecisions == 0 {
			t.Errorf("%s: no decision was ever seeded", par.Name())
		}
	}
}

// TestWarmSeedNeverCommitted: the seed is accounting only — even when
// the budget is too small to re-find the carried schedule, the commit
// comes from the enumerated tree (here: the heuristic path), exactly as
// cold search would.
func TestWarmSeedNeverCommitted(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cold := New(DDS, HeuristicLXF, DynamicBound(), 1)
	warm := New(DDS, HeuristicLXF, DynamicBound(), 1)
	warm.WarmStart = true
	q := &evolvingQueue{rng: rng, nextID: 1}
	for step := 0; step < 20; step++ {
		snap := q.step(12)
		assertSameDecision(t, "L=1", snap, cold, warm)
	}
}

// TestOrderJobsLXFKeysBitIdentical: the precomputed-key LXF sort must
// order exactly as the direct recomputing comparator did.
func TestOrderJobsLXFKeysBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 50; trial++ {
		now := job.Time(10000 + rng.Intn(50000))
		n := 1 + rng.Intn(10)
		mk := func() []sim.WaitingJob {
			rj := rand.New(rand.NewSource(int64(trial)))
			var jobs []sim.WaitingJob
			for i := 0; i < n; i++ {
				est := job.Duration(1 + rj.Intn(14400))
				jobs = append(jobs, sim.WaitingJob{
					Job: job.Job{
						ID:     i + 1,
						Submit: now - job.Time(rj.Intn(40000)),
					},
					Estimate: est, QueuePos: i,
				})
			}
			return jobs
		}
		got := mk()
		orderJobs(got, HeuristicLXF, now, nil)

		// Reference: the original insertion sort recomputing the key in
		// every comparison.
		want := mk()
		for i := 1; i < len(want); i++ {
			for k := i; k > 0; k-- {
				a, b := &want[k], &want[k-1]
				sa := job.BoundedSlowdownAt(a.Job.Submit, a.Estimate, now)
				sb := job.BoundedSlowdownAt(b.Job.Submit, b.Estimate, now)
				if !(sa != sb && sa > sb ||
					sa == sb && (a.Job.Submit < b.Job.Submit ||
						a.Job.Submit == b.Job.Submit && a.Job.ID < b.Job.ID)) {
					break
				}
				want[k], want[k-1] = want[k-1], want[k]
			}
		}
		for i := range want {
			if got[i].Job.ID != want[i].Job.ID {
				t.Fatalf("trial %d: order %v, want %v at %d", trial, got[i].Job.ID, want[i].Job.ID, i)
			}
		}
	}
}

// TestDecideSteadyStateAllocFree: the sequential search — warm start,
// LXF keys and all — must not allocate per decision once its scratch is
// sized.
func TestDecideSteadyStateAllocFree(t *testing.T) {
	sch := New(DDS, HeuristicLXF, DynamicBound(), 200)
	sch.WarmStart = true
	snap := fourJobSnapshot()
	sch.Decide(snap) // size the scratch
	sch.Decide(snap)
	if avg := testing.AllocsPerRun(20, func() { sch.Decide(snap) }); avg > 0 {
		t.Errorf("Decide allocates %.1f times per decision in steady state", avg)
	}
	if sch.SearchStats.TableNodes == 0 {
		t.Error("the transposition table served nothing: its arena and index went unmeasured")
	}
}
