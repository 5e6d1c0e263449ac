package core

// Warm-started (incremental) search. Between consecutive decision
// points the queue typically changes by one job, so the previous
// decision's best ordering is usually still the best reachable
// schedule. WarmStart carries that ordering across decisions by job ID,
// drops departed jobs, splices arrivals in at their heuristic rank, and
// evaluates the result once against the new availability profile. The
// seed is deliberately kept OUT of the enumeration: the committed
// schedule is still the argmin over enumerated leaves, so warm and cold
// search commit bit-identical schedules at equal budget (the keystone
// differential enforces this over every suite month). What the seed
// changes is accounting and pruning: it initializes the nodes-to-best
// incumbent (Stats.NodesToBest drops to ~0 on decisions where the
// carried plan is never beaten) and, with Prune on, joins the
// branch-and-bound cutoff as soon as one enumerated schedule exists.

// warmState is the carry between decisions plus reusable scratch.
type warmState struct {
	// valid marks order as the previous decision's best ordering.
	valid bool
	// order is the carried ordering as job IDs (robust against queue
	// reordering and arrivals/departures between decisions).
	order []int

	pos map[int]int // scratch: job ID -> current ordered index
	seq []int       // scratch: spliced seed as ordered indices
}

// spliceCarried maps the carried ordering onto the current queue:
// survivors keep their carried relative order, departed jobs are
// dropped, and arrivals splice in at their heuristic rank. It returns
// the result as ordered indices (reusing the warm scratch), or nil
// when there is no valid carry to splice.
func (sch *Scheduler) spliceCarried(s *searchState) []int {
	w := &sch.warm
	if !w.valid || len(w.order) == 0 {
		return nil
	}
	n := len(s.ordered)
	if w.pos == nil {
		w.pos = make(map[int]int, n)
	}
	clear(w.pos)
	for oi := range s.ordered {
		w.pos[s.ordered[oi].Job.ID] = oi
	}

	// Survivors keep their carried relative order; consuming the map
	// entries as we go leaves exactly the arrivals behind.
	seq := w.seq[:0]
	for _, id := range w.order {
		if oi, ok := w.pos[id]; ok {
			seq = append(seq, oi)
			delete(w.pos, id)
		}
	}
	// Arrivals splice in at their heuristic rank (their index in the
	// branch order, clamped to the current seed length), most urgent
	// first so earlier insertions do not displace later ones.
	for oi := 0; oi < n; oi++ {
		if _, ok := w.pos[s.ordered[oi].Job.ID]; !ok {
			continue
		}
		at := oi
		if at > len(seq) {
			at = len(seq)
		}
		seq = append(seq, 0)
		copy(seq[at+1:], seq[at:])
		seq[at] = oi
	}
	w.seq = seq
	return seq
}

// seedWarm builds the warm seed for the current decision from the
// carried ordering and installs its cost as the initial incumbent. The
// search state must be freshly reset.
func (sch *Scheduler) seedWarm(s *searchState) {
	seq := sch.spliceCarried(s)
	if seq == nil {
		return
	}
	// Evaluated on the search's own profile and restored before the
	// enumeration starts. The placements are charged to WarmSeedNodes,
	// not to s.nodes: the seed is not part of the enumerated tree.
	cost, _ := s.ev.Eval(s.ordered, seq, s.cost, s.bound)
	s.seedCost = cost
	s.seedSet = true
	s.ntbCost = cost
	s.ntbSet = true
	s.nodesToBest = 0
	sch.SearchStats.WarmDecisions++
	sch.SearchStats.WarmSeedNodes += int64(len(seq))
}

// carryBest records the committed ordering for the next decision and
// updates the seed-held counter. Called after the search ran.
func (sch *Scheduler) carryBest(s *searchState) {
	if s.seedSet && s.bestFound && !s.bestCost.Less(s.seedCost) {
		sch.SearchStats.WarmSeedHeld++
	}
	w := &sch.warm
	w.order = w.order[:0]
	for _, oi := range s.bestPath {
		w.order = append(w.order, s.ordered[oi].Job.ID)
	}
	w.valid = len(w.order) == len(s.ordered) && len(w.order) > 0
}
