package federation

import (
	"errors"
	"fmt"
	"slices"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
)

// stage is which call of a parked wire-uncertain step went unanswered
// (pendingMig.stage); log records name it.
type stage int

const (
	// stageWithdraw: a migration withdraw's outcome is unknown — the
	// job is on the source, or tombstoned there with the ack lost.
	stageWithdraw stage = iota
	// stageAdmit: the job is withdrawn and held by the router; its
	// admission to pendingMig.shard has not certainly succeeded.
	stageAdmit
	// stageSubmit: a routed submission's outcome is unknown; the ID is
	// burned and the directory entry provisional until the shard
	// answers a lookup.
	stageSubmit
)

func (s stage) String() string { return [...]string{"withdraw", "admit", "submit"}[s] }

// pendingMig is one parked step: the job (held only in stageAdmit),
// the shard whose answer resolves it, and the stage.
type pendingMig struct {
	id    int
	shard int
	j     job.Job
	stage stage
}

// parkLocked parks one step for the next rebalance tick to retry.
func (r *Router) parkLocked(p pendingMig) {
	r.pending = append(r.pending, p)
	r.logJob(p.id).Warn("parked wire-uncertain step", "shard", p.shard, "stage", p.stage.String())
}

// maxMigrationsPerPass bounds the jobs one rebalance pass moves.
const maxMigrationsPerPass = 8

// armRebalanceLocked keeps at most one rebalance timer outstanding. The
// timer re-arms itself only while jobs or parked steps are outstanding,
// so a virtual-clock replay terminates; the next submission re-arms it.
// It arms with one shard too: the pass is also what reconciles parked
// wire-uncertain steps, and a one-shard tick polls and moves nothing.
func (r *Router) armRebalanceLocked() {
	if r.cfg.RebalanceEvery <= 0 || r.rebArmed || r.draining {
		return
	}
	r.rebArmed = true
	r.cfg.Clock.AfterFunc(r.cfg.RebalanceEvery, r.onRebalance)
}

// onRebalance is the one periodic pass: retry every parked step, read
// every shard's load (a live call for a dark shard or a closed window —
// for remote shards that also refreshes reachability and the last-known
// load degraded routing falls back on), then migrate up to
// maxMigrationsPerPass queued jobs (none while draining: a drain must
// not shuffle the remaining backlog).
func (r *Router) onRebalance() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebArmed = false
	r.resolvePendingLocked()
	loads := make([]engine.Load, len(r.shards))
	jobs := 0
	for i := range r.shards {
		loads[i] = r.loadLocked(i, 0)
		jobs += loads[i].Waiting + loads[i].Running
	}
	if !r.draining {
		r.rebalances++
		for n := 0; n < maxMigrationsPerPass; n++ {
			if !r.migrateOneLocked(loads) {
				break
			}
		}
	}
	if jobs > 0 || len(r.pending) > 0 {
		r.armRebalanceLocked()
	}
}

// shiftLoad books one queued job's move in the pass's load view, so
// the next move of the same pass sees it without polling again. The
// source's MinQueuedNodeSec stays as it was, a lower bound now.
func shiftLoad(loads []engine.Load, from, to int, demand int64) {
	loads[from].Waiting--
	loads[from].QueuedNodeSec -= demand
	if loads[to].Waiting == 0 || demand < loads[to].MinQueuedNodeSec {
		loads[to].MinQueuedNodeSec = demand
	}
	loads[to].Waiting++
	loads[to].QueuedNodeSec += demand
}

// lowersMax reports whether moving demand node-seconds from src to dst
// leaves the destination strictly below the source's old score — else
// the move just trades places.
func lowersMax(loads []engine.Load, src, dst int, demand int64) bool {
	return loads[dst].Score()+float64(demand)/float64(loads[dst].Capacity) < loads[src].Score()
}

// moveLocked withdraws job id from src and admits it on dst, parking
// any wire-uncertain step for later reconciliation. Reports whether
// the job landed on dst; on false the job is back on src, parked
// pending, or (certainly) still running on src.
func (r *Router) moveLocked(id, src, dst int) bool {
	t0 := r.cfg.Tracer.Now()
	j, err := r.writeLocked(src).Withdraw(id)
	if err != nil {
		if errors.Is(err, ErrUncertain) {
			// The withdraw may have committed with the ack lost; the
			// source's tombstone will answer the reconciliation retry.
			r.parkLocked(pendingMig{id: id, shard: src, stage: stageWithdraw})
		}
		// ErrUnreachable: certainly still queued on src. ErrNotQueued:
		// started in the meantime. Either way, nothing moved.
		return false
	}
	if err := r.writeLocked(dst).Admit(j); err != nil {
		if errors.Is(err, ErrUncertain) {
			// May be admitted on dst — re-admitting to src could
			// double-admit. Hold the job and let reconciliation finish
			// the admit once dst answers.
			r.dir[id] = dst
			r.parkLocked(pendingMig{id: id, shard: dst, j: j, stage: stageAdmit})
			return false
		}
		// Certainly not on dst (unreachable, or a definitive
		// rejection): the job must not be lost — put it back.
		if err2 := r.writeLocked(src).Admit(j); err2 != nil {
			if errors.Is(err2, ErrUncertain) || errors.Is(err2, ErrUnreachable) {
				r.parkLocked(pendingMig{id: id, shard: src, j: j, stage: stageAdmit})
				return false
			}
			r.failLocked(fmt.Errorf("federation: job %d lost in migration %d->%d: %v; re-admit: %v",
				id, src, dst, err, err2))
		}
		return false
	}
	r.dir[id] = dst
	r.traceSpan("migrate", id, dst, t0)
	return true
}

// resolvePendingLocked retries every parked wire-uncertain step once;
// steps whose shard is still dark stay parked for the next tick. Every
// step that leaves the parked set — resolved one way or the other (the
// fail path sets r.failure, which routes report) — records a reconcile
// span and a log line, so every "parked" record is answered by one
// "reconciled" record of the same stage.
func (r *Router) resolvePendingLocked() {
	pending := r.pending
	r.pending = nil
	for _, p := range pending {
		t0 := r.cfg.Tracer.Now()
		if r.retryPendingLocked(p) {
			r.pending = append(r.pending, p)
			continue
		}
		r.traceSpan("reconcile", p.id, p.shard, t0)
		r.logJob(p.id).Info("reconciled parked step", "shard", p.shard, "stage", p.stage.String())
	}
}

// retryPendingLocked retries one parked step and reports whether its
// outcome is still unknown. A withdraw now known to have committed is
// resolved even when the admit that puts the job back parks in its turn:
// that is a new step, parked where p stood.
func (r *Router) retryPendingLocked(p pendingMig) (parked bool) {
	switch p.stage {
	case stageWithdraw:
		j, err := r.writeLocked(p.shard).Withdraw(p.id)
		if errors.Is(err, engine.ErrNotQueued) {
			// Never withdrawn — the job started (or finished) on the
			// source. Resolved.
			return false
		}
		if err != nil {
			return true
		}
		// Committed — originally (tombstone) or just now. The migration
		// itself is stale; put the job back where it came from.
		if aerr := r.writeLocked(p.shard).Admit(j); aerr != nil {
			if errors.Is(aerr, ErrUncertain) || errors.Is(aerr, ErrUnreachable) {
				r.parkLocked(pendingMig{id: p.id, shard: p.shard, j: j, stage: stageAdmit})
				return false
			}
			r.failLocked(fmt.Errorf("federation: job %d lost reconciling withdraw on shard %d: %v",
				p.id, p.shard, aerr))
		}
	case stageAdmit:
		err := r.writeLocked(p.shard).Admit(p.j)
		if err != nil && !errors.Is(err, engine.ErrDuplicateID) {
			return true
		}
		// Landed now, or had landed all along.
		r.dir[p.id] = p.shard
	case stageSubmit:
		_, present, err := r.shards[p.shard].Job(p.id)
		if err != nil {
			return true
		}
		if present {
			r.dir[p.id] = p.shard
		} else {
			// Certainly never admitted; free the directory entry (the
			// ID stays burned).
			delete(r.dir, p.id)
		}
	}
	return false
}

// migrateOneLocked moves one still-queued job from the most to the
// least loaded shard if — and only if — the move strictly reduces the
// pair's maximum load score, which rules out oscillation. Candidates
// are taken from the back of the source queue (the youngest arrivals),
// so the migration disturbs the source shard's arrival-order queue as
// little as possible. The source's queue is read only when its load
// says a job there can pass the move test: a waiting job, and a
// smallest demand that lowers the pair's maximum (a larger one cannot
// where the smallest does not). Reports whether a job moved.
func (r *Router) migrateOneLocked(loads []engine.Load) bool {
	src, dst := -1, -1
	for i := range loads {
		// Dark shards neither give up nor receive work: their loads are
		// stale caches and a migration leg against them can only park.
		if !r.healthyLocked(i) {
			continue
		}
		if src == -1 || loads[i].Score() > loads[src].Score() {
			src = i
		}
		if dst == -1 || loads[i].Score() < loads[dst].Score() {
			dst = i
		}
	}
	if src == -1 || src == dst || loads[src].Waiting == 0 ||
		!lowersMax(loads, src, dst, loads[src].MinQueuedNodeSec) {
		return false
	}
	queue, err := r.shards[src].Queue()
	if err != nil {
		return false
	}
	for k := len(queue) - 1; k >= 0; k-- {
		st := queue[k]
		// A job with a parked step is not this pass's to move: where it is
		// is exactly what is unknown, and the reconcile retry would
		// re-admit the copy it holds (or drop the directory entry) behind
		// the migration's back — one job on two shards.
		if st.Job.Nodes > r.caps[dst] || slices.ContainsFunc(r.pending, func(p pendingMig) bool { return p.id == st.Job.ID }) {
			continue
		}
		d := st.Demand()
		if !lowersMax(loads, src, dst, d) {
			continue
		}
		if !r.moveLocked(st.Job.ID, src, dst) {
			// Started between Queue() and Withdraw (real clock): try an
			// earlier arrival. Any wire trouble: stop the pass — the
			// loads are suspect now.
			if r.healthyLocked(src) && r.healthyLocked(dst) && len(r.pending) == 0 {
				continue
			}
			return false
		}
		r.migrations++
		shiftLoad(loads, src, dst, d)
		return true
	}
	return false
}

func (r *Router) failLocked(err error) {
	if r.failure == nil {
		r.failure = err
	}
}
