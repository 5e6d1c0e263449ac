package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/wire"
)

// This file is the shard-facing half of the distributed-federation wire
// protocol: the endpoints a federation router (federation.RemoteShard)
// drives on a single-engine schedd process to treat it as one shard.
//
//	POST /v1/shard/admit      admit a migrated job, preserving ID and submit time
//	POST /v1/shard/withdraw   withdraw a still-queued job (migration source side)
//	GET  /v1/shard/load       cheap occupancy summary (engine.Load)
//	GET  /v1/shard/records    completion records with shard-local node IDs
//
// The routes are registered only when the backend exposes the full
// shard seam (a bare *engine.Engine does; a federation router does
// not — routers are not shards of other routers).
//
// Idempotency is the load-bearing property. A migration is two calls
// with side effects — Withdraw on the source, Admit on the destination
// — and either acknowledgment can be lost on the wire while the
// operation itself committed. Both handlers therefore answer a retry
// like the original:
//
//   - A retried withdraw whose original landed finds the engine's
//     withdraw tombstone (engine.Withdrawn) and returns the same job
//     with "retried": true, instead of a not_queued error.
//   - A retried admit whose original landed is a duplicate-ID 409; the
//     client verifies the job exists on this shard and treats it as
//     success.
//
// Both mutation handlers fsync the journal before acknowledging, so an
// acknowledged migration step survives a process kill — the invariant
// the remote chaos tier (chaos.RunFederationRemote) exercises.

// ShardBackend is the engine-only extension of Backend the shard
// endpoints need: the whole engine.Shard seam and the withdraw
// tombstones. A bare *engine.Engine satisfies it.
type ShardBackend interface {
	Backend
	engine.Shard
	Withdrawn(id int) (job.Job, bool)
}

// registerShardRoutes mounts the shard wire protocol; called from New
// when the backend satisfies ShardBackend.
func (s *Server) registerShardRoutes(sb ShardBackend) {
	s.mux.HandleFunc("POST /v1/shard/admit", func(w http.ResponseWriter, r *http.Request) {
		s.shardAdmit(w, r, sb)
	})
	s.mux.HandleFunc("POST /v1/shard/withdraw", func(w http.ResponseWriter, r *http.Request) {
		s.shardWithdraw(w, r, sb)
	})
	s.mux.HandleFunc("GET /v1/shard/load", func(w http.ResponseWriter, r *http.Request) {
		ld, _ := sb.Load() // an engine is always asked: its reads return no error
		lr := wire.LoadResponse(ld)
		writeAppended(w, http.StatusOK, func(b []byte) []byte { return wire.AppendLoad(b, &lr) })
	})
	s.mux.HandleFunc("GET /v1/shard/records", func(w http.ResponseWriter, r *http.Request) {
		recs := sb.Records()
		resp := wire.RecordsResponse{Records: make([]wire.WireRecord, len(recs))}
		for i, rec := range recs {
			resp.Records[i] = wire.WireRecord{
				Job: wire.JobToWire(rec.Job), StartS: rec.Start, EndS: rec.End,
				NodeIDs: rec.NodeIDs, Measured: rec.Measured,
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// decodeShardBody strictly decodes a shard-protocol request body,
// mapping oversized and malformed payloads to structured errors (the
// fuzz tier pins "never a panic, never a bare 500" down).
func decodeShardBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_json", err)
		return false
	}
	return true
}

func (s *Server) shardAdmit(w http.ResponseWriter, r *http.Request, sb ShardBackend) {
	t0 := s.tracer.Now() // nil-safe: the zero time with tracing off
	var wj wire.WireJob
	if !decodeShardBody(w, r, &wj) {
		return
	}
	if wj.ID < 1 {
		writeError(w, http.StatusBadRequest, "invalid_job",
			fmt.Errorf("invalid job ID %d", wj.ID))
		return
	}
	if err := sb.Admit(wj.ToJob()); err != nil {
		status, code := s.submitStatus(err)
		writeError(w, status, code, err)
		return
	}
	// The admit is acknowledged only once durable: a group-buffered
	// journal must not lose a committed migration step to a process
	// kill after the router has already withdrawn the job elsewhere.
	if err := s.e.SyncJournal(); err != nil {
		writeError(w, http.StatusInternalServerError, "journal", err)
		return
	}
	if tr := s.tracer; tr != nil {
		// A shard only continues traces propagated over the federation
		// wire; it never originates one here (an untraced router stays
		// untraced end to end).
		if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
			tr.Bind(wj.ID, tc)
			tr.Record("admit", tc, wj.ID, s.traceShard, t0, tr.Now().Sub(t0))
		}
	}
	writeJSON(w, http.StatusCreated, wire.AdmitResponse{ID: wj.ID})
}

func (s *Server) shardWithdraw(w http.ResponseWriter, r *http.Request, sb ShardBackend) {
	var req wire.WithdrawRequest
	if !decodeShardBody(w, r, &req) {
		return
	}
	if req.ID < 1 {
		writeError(w, http.StatusBadRequest, "invalid_job",
			fmt.Errorf("invalid job ID %d", req.ID))
		return
	}
	j, err := sb.Withdraw(req.ID)
	if err == nil {
		if serr := s.e.SyncJournal(); serr != nil {
			// The withdrawal committed but is not durable; refusing
			// the ack keeps the job from being admitted elsewhere
			// while this shard could resurrect it after a crash.
			writeError(w, http.StatusInternalServerError, "journal", serr)
			return
		}
		writeJSON(w, http.StatusOK, wire.WithdrawResponse{Job: wire.JobToWire(j)})
		return
	}
	if errors.Is(err, engine.ErrNotQueued) {
		// Idempotent replay: the original withdraw landed and the ack
		// was lost. The tombstone (journal-backed, rebuilt on crash
		// recovery) returns the same job again.
		if tj, ok := sb.Withdrawn(req.ID); ok {
			writeJSON(w, http.StatusOK, wire.WithdrawResponse{Job: wire.JobToWire(tj), Retried: true})
			return
		}
		if _, ok, _ := sb.Job(req.ID); ok {
			// Known but running or done: a legitimate race with the
			// dispatcher, not an error worth retrying.
			writeError(w, http.StatusConflict, "not_queued", err)
			return
		}
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err)
}
