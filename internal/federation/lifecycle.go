package federation

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
)

// healthyLocked reports whether shard i's last call reached it.
func (r *Router) healthyLocked(i int) bool { return r.shards[i].Healthy() == nil }

// RebuildShard simulates a crash of shard i: the shard's committed
// journal is checkpointed, a fresh engine (fresh policy instance,
// same clock) is rebuilt from it via
// engine.Rebuild, and the router swaps it in. The other shards keep
// scheduling throughout; the abandoned incarnation's timers may still
// fire but mutate only the discarded engine.
func (r *Router) RebuildShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("federation: rebuild shard %d of %d", i, len(r.shards))
	}
	// Only an engine this router constructed can be rebuilt here: an
	// externally-owned shard (NewWithShards, which clears Policy)
	// owns its policy and journal, in-process engine or not.
	e, ok := r.shards[i].(*engine.Engine)
	if !ok || r.cfg.Policy == nil {
		return errors.New("federation: remote shards rebuild from their own journals; restart the shard process instead")
	}
	ne, err := engine.Rebuild(r.shardConfig(i), e.Checkpoint())
	if err != nil {
		return err
	}
	r.loads[i] = cachedLoad{}
	r.shards[i] = ne
	return nil
}

// SyncJournal is a no-op that satisfies server.Backend and
// ingest.Syncer: in-process shards keep no journal, and a remote shard
// fsyncs its own before it answers an admit or a submit.
func (r *Router) SyncJournal() error { return nil }

// Drain stops admitting jobs on the router and every shard, then blocks
// until all shards have emptied (or ctx is cancelled). Rebalancing
// stops with admission — a drain must not shuffle the remaining
// backlog.
func (r *Router) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	shards := r.shardList()
	errs := make(chan error, len(shards))
	for _, s := range shards {
		s := s
		go func() { errs <- s.Drain(ctx) }()
	}
	var first error
	for range shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Draining reports whether Drain has been requested.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Err returns the first fatal error: a lost-job migration failure or
// any shard engine's fatal.
func (r *Router) Err() error {
	r.mu.Lock()
	failure := r.failure
	r.mu.Unlock()
	if failure != nil {
		return failure
	}
	for _, s := range r.shardList() {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ShardHealth reports per-shard reachability for readiness probes: a
// federated /v1/readyz answers 503 with this breakdown while any shard
// is dark. In-process shards are unhealthy only on a fatal engine
// error; remote shards also while their last call failed. A shard
// mid journal-rebuild holds the router lock, so probes block until the
// rebuilt shard is swapped in rather than reporting it ready early.
func (r *Router) ShardHealth() []engine.ShardHealth {
	shards := r.shardList()
	out := make([]engine.ShardHealth, len(shards))
	for i, s := range shards {
		out[i] = engine.ShardHealth{Shard: i, Healthy: true}
		if err := cmp.Or(s.Healthy(), s.Err()); err != nil {
			out[i].Healthy = false
			out[i].Err = err.Error()
		}
	}
	return out
}

// Now returns the shared clock's current time.
func (r *Router) Now() job.Time { return r.cfg.Clock.Now() }
