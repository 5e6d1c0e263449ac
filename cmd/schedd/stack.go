package main

import (
	"fmt"
	"os"

	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/obs"
	"schedsearch/internal/server"
)

// stack is what the daemon serves: the backend (a bare engine, an
// in-process federation or a remote one) and everything that was opened
// or started to build it.
type stack struct {
	bk     server.Backend
	router *federation.Router // nil for a bare engine

	journals []*engine.FileJournal
}

// buildBackend is the one place a stack is wired. recovered, when
// non-nil, is the single-engine journal the engine is rebuilt from.
func buildBackend(c config, clock engine.Clock, tr *obs.Tracer, recovered *engine.Checkpoint) (*stack, error) {
	st := &stack{}
	fed, dur := c.fed, c.dur
	if fed.federated() {
		fcfg := federation.Config{
			Capacity:       c.capacity,
			Shards:         fed.shards,
			Policy:         c.newPolicy,
			Clock:          clock,
			UseRequested:   c.requested,
			RebalanceEvery: fed.rebalance,
			// With or without a journal file: the in-memory event tail is
			// what a journal-less daemon would otherwise grow for life.
			CompactEvery: dur.compactEvery,
			Tracer:       tr,
			Logger:       obs.NewLogger(os.Stderr, "router"),
		}
		var err error
		if fed.remote() {
			shards := make([]engine.Shard, len(fed.join))
			for i, u := range fed.join {
				shards[i] = federation.NewRemoteShard(u, federation.RemoteShardOptions{Logger: logger, Tracer: tr})
			}
			st.router, err = federation.NewWithShards(fcfg, shards)
		} else {
			if dur.path != "" {
				// Shard journals are opened up front so factory calls (initial
				// construction and any crash-rebuild) cannot fail; a rebuild of
				// shard i keeps appending to the same open file.
				for i := 0; i < fed.shards; i++ {
					spath, err := rotateShardJournal(dur.path, i)
					if err != nil {
						return st, err
					}
					fj, err := engine.OpenFileJournal(spath, dur.group)
					if err != nil {
						return st, err
					}
					st.journals = append(st.journals, fj)
				}
				fcfg.Journal = func(shard int) engine.JournalSink { return st.journals[shard] }
				logger.Info("journaling shards (write-only; start-up recovery is single-engine)",
					"shards", fed.shards, "path", dur.path+".shard-N")
			}
			st.router, err = federation.New(fcfg)
		}
		if err != nil {
			return st, err
		}
		st.bk = st.router
		return st, nil
	}

	cfg := engine.Config{
		Capacity:     c.capacity,
		Policy:       c.newPolicy(0),
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
		st.journals = append(st.journals, fj)
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

// rotateShardJournal names shard i's journal under base and moves a
// leftover non-empty one aside to <path>.old. In-process federated
// start-up does not recover from shard journals, and the
// front-end assigns job IDs from 1 on every boot, so appending a fresh
// run (restarted clock, reused IDs) after the old run's events would
// corrupt both.
func rotateShardJournal(base string, i int) (string, error) {
	path := fmt.Sprintf("%s.shard-%d", base, i)
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		if err := os.Rename(path, path+".old"); err != nil {
			return "", fmt.Errorf("rotate shard journal %s: %w", path, err)
		}
		logger.Warn("rotated a non-empty shard journal (federated start-up does not recover it)", "to", path+".old")
	}
	return path, nil
}

// frontShard is the shard lane the front door's spans carry: 0 for a
// bare engine, -1 (the router's lane in the trace timeline) when
// federated.
func (st *stack) frontShard() int {
	if st.router != nil {
		return -1
	}
	return 0
}
