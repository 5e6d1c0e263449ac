package policy

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// The reference below is the backfill family as it decided before
// FitsAt and the kept scratch: a fresh profile per decision, a full
// EarliestFit scan for every "can it start now?", and the queue sorted
// through sort.SliceStable. The policies must decide exactly as it does.

func refPriorityOrder(snap *sim.Snapshot, p Priority) []int {
	type scored struct {
		qi    int
		score float64
	}
	ss := make([]scored, len(snap.Queue))
	for i, w := range snap.Queue {
		ss[i] = scored{qi: i, score: p.Score(&w, snap.Now)}
	}
	sort.SliceStable(ss, func(a, c int) bool {
		if ss[a].score != ss[c].score {
			return ss[a].score > ss[c].score
		}
		ja, jc := snap.Queue[ss[a].qi].Job, snap.Queue[ss[c].qi].Job
		if ja.Submit != jc.Submit {
			return ja.Submit < jc.Submit
		}
		return ja.ID < jc.ID
	})
	order := make([]int, len(ss))
	for i, s := range ss {
		order[i] = s.qi
	}
	return order
}

func refBackfill(snap *sim.Snapshot, p Priority, reservations int) []int {
	order := refPriorityOrder(snap, p)
	prof := BuildProfile(snap)
	var starts []int
	reserved := 0
	for _, qi := range order {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		t := prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		switch {
		case t == snap.Now:
			prof.Place(t, w.Job.Nodes, est)
			starts = append(starts, qi)
		case reserved < reservations:
			prof.Place(t, w.Job.Nodes, est)
			reserved++
		}
	}
	return starts
}

func refSelective(s *SelectiveBackfill, snap *sim.Snapshot) []int {
	order := refPriorityOrder(snap, LXF{})
	thr := s.threshold()
	prof := BuildProfile(snap)
	var starts []int
	for _, qi := range order {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		xf := job.BoundedSlowdownAt(w.Job.Submit, est, snap.Now)
		t := prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		switch {
		case t == snap.Now:
			prof.Place(t, w.Job.Nodes, est)
			starts = append(starts, qi)
			s.startedXF += xf
			s.startedCnt++
		case xf >= thr:
			prof.Place(t, w.Job.Nodes, est)
		}
	}
	return starts
}

func refRelaxed(r *RelaxedBackfill, snap *sim.Snapshot) []int {
	order := refPriorityOrder(snap, r.Priority)
	prof := BuildProfile(snap)
	var starts []int
	headIdx := -1
	var headLimit job.Time
	for oi, qi := range order {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		t := prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		if t == snap.Now {
			prof.Place(t, w.Job.Nodes, est)
			starts = append(starts, qi)
			continue
		}
		headIdx = oi
		headLimit = t + job.Duration(r.Relax*float64(est))
		break
	}
	if headIdx < 0 {
		return starts
	}
	head := snap.Queue[order[headIdx]]
	headEst := head.PlanEstimate()
	for _, qi := range order[headIdx+1:] {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		if prof.EarliestFit(snap.Now, w.Job.Nodes, est) != snap.Now {
			continue
		}
		pl := prof.Place(snap.Now, w.Job.Nodes, est)
		if prof.EarliestFit(snap.Now, head.Job.Nodes, headEst) > headLimit {
			prof.Undo(pl)
			continue
		}
		starts = append(starts, qi)
	}
	return starts
}

func refSlack(s *SlackBackfill, snap *sim.Snapshot) []int {
	if s.promises == nil {
		s.promises = make(map[int]job.Time)
	}
	order := refPriorityOrder(snap, s.Priority)
	prof := BuildProfile(snap)
	infos := make([]pinfo, 0, len(order))
	for _, qi := range order {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		fit := prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		infos = append(infos, pinfo{qi: qi, est: est, fit: fit})
		slack := job.Duration(s.SlackFactor * float64(est))
		if slack < s.MinSlack {
			slack = s.MinSlack
		}
		if p, ok := s.promises[w.Job.ID]; !ok || fit > p {
			s.promises[w.Job.ID] = fit + slack
		}
	}
	var starts []int
	var held []pinfo
	for _, in := range infos {
		w := snap.Queue[in.qi]
		t := prof.EarliestFit(snap.Now, w.Job.Nodes, in.est)
		if t != snap.Now {
			in.fit = t
			held = append(held, in)
			continue
		}
		for hi := range held {
			hw := snap.Queue[held[hi].qi]
			held[hi].fit = prof.EarliestFit(snap.Now, hw.Job.Nodes, held[hi].est)
		}
		pl := prof.Place(snap.Now, w.Job.Nodes, in.est)
		violated := false
		for _, h := range held {
			hw := snap.Queue[h.qi]
			after := prof.EarliestFit(snap.Now, hw.Job.Nodes, h.est)
			promise := s.promises[hw.Job.ID]
			if after > promise && h.fit <= promise {
				violated = true
				break
			}
		}
		if violated {
			prof.Undo(pl)
			held = append(held, in)
			continue
		}
		starts = append(starts, in.qi)
	}
	live := make(map[int]bool, len(snap.Queue))
	for _, w := range snap.Queue {
		live[w.Job.ID] = true
	}
	for id := range s.promises {
		if !live[id] {
			delete(s.promises, id)
		}
	}
	return starts
}

func refLookahead(l *Lookahead, snap *sim.Snapshot) []int {
	order := refPriorityOrder(snap, l.Priority)
	prof := BuildProfile(snap)
	var starts []int
	rest := order
	for len(rest) > 0 {
		w := snap.Queue[rest[0]]
		est := w.PlanEstimate()
		t := prof.EarliestFit(snap.Now, w.Job.Nodes, est)
		if t != snap.Now {
			prof.Place(t, w.Job.Nodes, est)
			break
		}
		prof.Place(t, w.Job.Nodes, est)
		starts = append(starts, rest[0])
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return starts
	}
	rest = rest[1:]
	type cand struct {
		qi    int
		nodes int
		est   job.Duration
	}
	var cands []cand
	free := prof.FreeAt(snap.Now)
	for _, qi := range rest {
		w := snap.Queue[qi]
		est := w.PlanEstimate()
		if w.Job.Nodes <= free && prof.EarliestFit(snap.Now, w.Job.Nodes, est) == snap.Now {
			cands = append(cands, cand{qi: qi, nodes: w.Job.Nodes, est: est})
		}
	}
	if len(cands) == 0 {
		return starts
	}
	best := make([]int, free+1)
	take := make([][]bool, len(cands))
	for i := range take {
		take[i] = make([]bool, free+1)
	}
	for i, c := range cands {
		for u := free; u >= c.nodes; u-- {
			if v := best[u-c.nodes] + c.nodes; v > best[u] {
				best[u] = v
				take[i][u] = true
			}
		}
	}
	chosen := make([]bool, len(cands))
	u := free
	for i := len(cands) - 1; i >= 0; i-- {
		if take[i][u] {
			chosen[i] = true
			u -= cands[i].nodes
		}
	}
	var picked []cand
	for i, c := range cands {
		if chosen[i] {
			picked = append(picked, c)
		}
	}
	sort.SliceStable(picked, func(a, b int) bool { return picked[a].nodes > picked[b].nodes })
	for _, c := range picked {
		if prof.EarliestFit(snap.Now, c.nodes, c.est) == snap.Now {
			prof.Place(snap.Now, c.nodes, c.est)
			starts = append(starts, c.qi)
		}
	}
	return starts
}

// randomSnapshot is a decision point on a machine of capacity nodes,
// busy of them held by running jobs (some past their predicted end),
// with depth queued jobs. Widths lean small, as real workloads do;
// submits and estimates repeat often enough that every priority's
// tie-breaks are taken, and an estimate of 0 exercises the floor.
func randomSnapshot(rng *rand.Rand, capacity, busy, depth int) *sim.Snapshot {
	const now = job.Time(100000)
	var running []sim.RunningJob
	for used := 0; used < busy; {
		n := min(1+rng.Intn(16), busy-used)
		running = append(running, sim.RunningJob{
			ID: 1_000_000 + len(running), Nodes: n, Start: now - job.Time(rng.Intn(3600)),
			PredictedEnd: now - 600 + job.Time(rng.Intn(36000)),
		})
		used += n
	}
	queue := make([]sim.WaitingJob, depth)
	for i := range queue {
		n := min(1<<rng.Intn(7), capacity)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(capacity)
		}
		submit := now - job.Time(rng.Intn(86400))
		if rng.Intn(3) == 0 {
			submit = now - job.Time(60*rng.Intn(20))
		}
		est := job.Duration(60 * (1 + rng.Intn(240)))
		if rng.Intn(50) == 0 {
			est = 0
		}
		queue[i] = wjob(i+1, submit, n, est)
	}
	return snapOf(now, capacity, running, queue)
}

// arrivalOrdered puts the snapshot's queue in the ledger's order: by
// submit time, with IDs numbered in that order, so FCFS finds the queue
// already in priority order.
func arrivalOrdered(snap *sim.Snapshot) *sim.Snapshot {
	slices.SortStableFunc(snap.Queue, func(a, c sim.WaitingJob) int { return cmp.Compare(a.Job.Submit, c.Job.Submit) })
	for i := range snap.Queue {
		snap.Queue[i].Job.ID, snap.Queue[i].QueuePos = i+1, i
	}
	return snap
}

// differentialSnapshots is the sequence every policy decides in turn:
// small random machines, the empty queue, and the deep queues of a
// 128-node machine with 100 nodes busy, so one instance's kept scratch
// shrinks and grows between decisions; then queues in arrival order,
// full machines, and machines with a few nodes free that the first
// starts fill, in random and in arrival order.
func differentialSnapshots() []*sim.Snapshot {
	rng := rand.New(rand.NewSource(47))
	var snaps []*sim.Snapshot
	for trial := 0; trial < 120; trial++ {
		capacity := 4 + rng.Intn(60)
		snaps = append(snaps, randomSnapshot(rng, capacity, rng.Intn(capacity+1), rng.Intn(48)))
	}
	for _, depth := range []int{1024, 64, 4096, 0, 1024} {
		snaps = append(snaps, randomSnapshot(rng, 128, 100, depth))
	}
	snaps = append(snaps, randomSnapshot(rng, 128, 0, 300))
	for trial := 0; trial < 120; trial++ {
		capacity := 4 + rng.Intn(60)
		busy := rng.Intn(capacity + 1)
		switch trial % 3 {
		case 1:
			busy = capacity
		case 2:
			busy = max(0, capacity-1-rng.Intn(4))
		}
		snap := randomSnapshot(rng, capacity, busy, rng.Intn(48))
		if trial%2 == 0 {
			snap = arrivalOrdered(snap)
		}
		snaps = append(snaps, snap)
	}
	for _, busy := range []int{100, 128, 124} {
		snaps = append(snaps, arrivalOrdered(randomSnapshot(rng, 128, busy, 1024)), randomSnapshot(rng, 128, busy, 1024))
	}
	return snaps
}

// filled reports whether starts leave no node free now while jobs are
// still queued: the decision stopped, or could have, at a full machine.
func filled(snap *sim.Snapshot, starts []int) bool {
	free := snap.FreeNodes
	for _, qi := range starts {
		free -= snap.Queue[qi].Job.Nodes
	}
	return free == 0 && len(starts) < len(snap.Queue)
}

// TestBackfillFamilyMatchesReference holds every backfill-family policy
// to the reference, decision for decision, over one sequence of
// snapshots: the same starts in the same order, and the same state
// carried to the next decision (Selective's started expansion factors,
// Slack's promises). Each policy must meet machines that are full, or
// that its own starts fill, and queues already in arrival order, so the
// early stop and the skipped sort are both held to the reference.
func TestBackfillFamilyMatchesReference(t *testing.T) {
	mq, mqRef := NewMultiQueue(), NewMultiQueue()
	sel, selRef := NewSelectiveBackfill(), NewSelectiveBackfill()
	rel, relRef := NewRelaxedBackfill(), NewRelaxedBackfill()
	slack, slackRef := NewSlackBackfill(), NewSlackBackfill()
	la, laRef := NewLookahead(), NewLookahead()
	type pair struct {
		pol sim.Policy
		ref func(*sim.Snapshot) []int
	}
	backfill := func(b *Backfill) pair {
		return pair{b, func(s *sim.Snapshot) []int { return refBackfill(s, b.Priority, b.Reservations) }}
	}
	pairs := []pair{
		backfill(FCFSBackfill()),
		backfill(LXFBackfill()),
		backfill(NewBackfill(SJF{})),
		backfill(NewBackfill(NewLXFW())),
		backfill(ConservativeBackfill(FCFS{})),
		backfill(ConservativeBackfill(LXF{})),
		backfill(NewWeightedBackfill(MauiDefault())),
		{mq, func(s *sim.Snapshot) []int { return refBackfill(s, queuePriority{m: mqRef}, mqRef.Reservations) }},
		{sel, func(s *sim.Snapshot) []int { return refSelective(selRef, s) }},
		{rel, func(s *sim.Snapshot) []int { return refRelaxed(relRef, s) }},
		{slack, func(s *sim.Snapshot) []int { return refSlack(slackRef, s) }},
		{la, func(s *sim.Snapshot) []int { return refLookahead(laRef, s) }},
	}
	snaps := differentialSnapshots()
	for _, p := range pairs {
		started, full, fills := 0, 0, 0
		for i, snap := range snaps {
			want := p.ref(snap)
			got := p.pol.Decide(snap)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, snapshot %d (depth %d): started %v, the reference started %v",
					p.pol.Name(), i, len(snap.Queue), got, want)
			}
			started += len(got)
			switch {
			case snap.FreeNodes == 0 && len(snap.Queue) > 0:
				full++
			case len(got) > 0 && filled(snap, got):
				fills++
			}
		}
		if started == 0 || full == 0 || fills == 0 {
			t.Errorf("%s over %d snapshots: %d starts, %d full machines, %d filled by its starts; each must be positive",
				p.pol.Name(), len(snaps), started, full, fills)
		}
	}
	if sel.startedXF != selRef.startedXF || sel.startedCnt != selRef.startedCnt {
		t.Errorf("Selective-backfill carried %v/%d started expansion, the reference %v/%d",
			sel.startedXF, sel.startedCnt, selRef.startedXF, selRef.startedCnt)
	}
	if !maps.Equal(slack.promises, slackRef.promises) {
		t.Error("Slack-backfill carried different promises from the reference")
	}
}

// TestBackfillDecideAllocFree: once its scratch is sized, a backfill
// decision allocates nothing, as the search's does not.
func TestBackfillDecideAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	deep, shallow := randomSnapshot(rng, 128, 100, 1024), randomSnapshot(rng, 128, 100, 64)
	for _, pol := range []sim.Policy{FCFSBackfill(), LXFBackfill(), ConservativeBackfill(FCFS{}), NewMultiQueue()} {
		pol.Decide(deep) // size the scratch
		for _, snap := range []*sim.Snapshot{deep, shallow} {
			if avg := testing.AllocsPerRun(10, func() { pol.Decide(snap) }); avg > 0 {
				t.Errorf("%s allocates %.1f times per decision at depth %d in steady state",
					pol.Name(), avg, len(snap.Queue))
			}
		}
	}
}

// BenchmarkBackfillDecide times one steady FCFS-backfill decision on a
// 128-node machine with 100 nodes busy, at several queue depths, with
// the queue in random order (the sort runs) and in arrival order, the
// ledger's (FCFS finds it sorted). It fails if a steady decision
// allocates.
func BenchmarkBackfillDecide(b *testing.B) {
	for _, order := range []string{"random", "arrival"} {
		for _, depth := range []int{64, 1024, 4096, 16384} {
			snap := randomSnapshot(rand.New(rand.NewSource(int64(depth))), 128, 100, depth)
			if order == "arrival" {
				snap = arrivalOrdered(snap)
			}
			b.Run(fmt.Sprintf("order=%s/depth=%d", order, depth), func(b *testing.B) {
				pol := FCFSBackfill()
				pol.Decide(snap) // size the scratch
				if avg := testing.AllocsPerRun(1, func() { pol.Decide(snap) }); avg > 0 {
					b.Errorf("Decide allocates %.1f times per decision in steady state", avg)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol.Decide(snap)
				}
			})
		}
	}
}
