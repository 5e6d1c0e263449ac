package main

import (
	"fmt"
	"os"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/obs"
	"schedsearch/internal/server"
)

// stack is what the daemon serves: the backend (a bare engine or a
// -join front over shard daemons) and everything that was opened or
// started to build it.
type stack struct {
	bk     server.Backend
	router *federation.Router // nil for a bare engine

	journal *engine.FileJournal // nil without -journal
}

// buildBackend is the one place a stack is wired. recovered, when
// non-nil, is the journal the engine is rebuilt from.
func buildBackend(c config, clock engine.Clock, tr *obs.Tracer, recovered *engine.Checkpoint) (*stack, error) {
	st := &stack{}
	fed, dur := c.fed, c.dur
	if fed.remote() {
		shards := make([]engine.Shard, len(fed.join))
		for i, u := range fed.join {
			shards[i] = federation.NewRemoteShard(u, federation.RemoteShardOptions{Logger: logger, Tracer: tr})
		}
		var err error
		st.router, err = federation.NewWithShards(federation.Config{
			Clock:          clock,
			RebalanceEvery: fed.rebalance,
			Tracer:         tr,
			Logger:         obs.NewLogger(os.Stderr, "router"),
		}, shards)
		if err != nil {
			return st, err
		}
		st.bk = st.router
		return st, nil
	}

	cfg := engine.Config{
		Capacity:     c.capacity,
		Policy:       c.newPolicy(),
		Clock:        clock,
		UseRequested: c.requested,
		CompactEvery: dur.compactEvery,
		Tracer:       tr,
	}
	if dur.path != "" {
		fj, err := engine.OpenFileJournal(dur.path, dur.group)
		if err != nil {
			return st, err
		}
		st.journal = fj
		cfg.Journal = fj
	}
	if recovered == nil {
		e, err := engine.New(cfg)
		if err != nil {
			return st, err
		}
		st.bk = e
		return st, nil
	}
	e, err := engine.Rebuild(cfg, *recovered)
	if err != nil {
		return st, fmt.Errorf("recover %s: %w", dur.path, err)
	}
	base := 0
	if b := recovered.Base; b != nil {
		base = len(b.Done) + len(b.Running) + len(b.Waiting)
	}
	logger.Info("recovered journal", "path", dur.path,
		"base_jobs", base, "tail_events", len(recovered.Events), "resumed_t", int64(clock.Now()))
	st.bk = e
	return st, nil
}
