package core

// Adjacent discrepancy search (Lahimer, Lopez & Haouari: climbing
// depth-bounded adjacent discrepancy search, arXiv:1103.1516).
//
// ADDS is DDS with every discrepancy restricted to the branch adjacent
// to the heuristic choice: at any level the search takes branch rank 0
// (the heuristic) or rank 1 (the adjacent discrepancy), never deeper.
// The restricted tree holds 2^(n-1) leaves — the orderings reachable by
// swapping a job with its heuristic neighbor at any subset of levels —
// partitioned by iteration exactly like DDS: iteration i forces the
// rank-1 branch at level i-1, branches freely over {0, 1} above it and
// follows the heuristic below. It is the same enumerator (ddsDFS) at
// branch width 2 instead of n.
//
// CDDS adds climbing: the reference ordering the ranks are measured
// against starts as the heuristic order; whenever a sweep improves the
// incumbent, the free list is relinked to the incumbent ordering and
// the sweep restarts from the shallowest discrepancy. With an unbounded
// budget CDDS terminates at a local optimum of the adjacent
// neighborhood (a full sweep without improvement); under a budget it
// aborts like every other algorithm, with the iteration-0 schedule
// always in hand.

// runCDDS runs climbing ADDS (reset with CDDS fixed s.width at 2): sweep
// the adjacent iterations against the current reference ordering; on
// improvement, re-anchor the reference to the incumbent and restart the
// sweep. Terminates on a full sweep without improvement (a local
// optimum of the adjacent neighborhood) or on budget.
func (s *searchState) runCDDS() {
	n := len(s.ordered)
	s.ddsDFS(0, 0) // evaluate the initial (heuristic) reference
	if n < 2 {
		return
	}
	for {
		improved := false
		ref := s.bestCost // incumbent at sweep start (iteration 0 set it)
		for i := 1; i <= n-1; i++ {
			s.ddsDFS(0, i)
			if s.aborted {
				return
			}
			if s.bestCost.Less(ref) {
				improved = true
				break
			}
		}
		if !improved {
			return
		}
		// Each climb strictly improves the incumbent, so the loop
		// terminates: costs cannot cycle downward forever over a finite
		// leaf set.
		s.climbToBest()
	}
}

// relinkOrder rebuilds the (fully linked) free list so it enumerates
// the ordered indices in the given order: branch rank 0 at every level
// then follows that ordering. order must cover every ordered index
// exactly once, and every job must currently be free (no partial path).
func (s *searchState) relinkOrder(order []int) {
	n := len(order)
	for l, oi := range order {
		if l > 0 {
			s.freePrev[oi] = order[l-1]
		} else {
			s.freePrev[oi] = -1
			s.freeHead = oi
		}
		if l < n-1 {
			s.freeNext[oi] = order[l+1]
		} else {
			s.freeNext[oi] = -1
		}
	}
}

// climbToBest re-anchors the search on the incumbent: the free list is
// relinked into bestPath order, so branch rank 0 now follows the
// incumbent ordering, and the table forgets — the order a remembered
// tail followed is gone.
func (s *searchState) climbToBest() {
	s.relinkOrder(s.bestPath)
	if s.tab.on {
		s.tab.forget()
	}
}
