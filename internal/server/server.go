// Package server exposes the online scheduling engine over an
// HTTP/JSON API:
//
//	POST /v1/jobs      submit a job            {"nodes":8,"runtime_s":3600}
//	                   or a batch of jobs      [{...}, {...}] → per-item results
//	GET  /v1/jobs/{id} one job's state         waiting | running | done
//	GET  /v1/queue     the waiting queue, in queue order
//	GET  /v1/machine   machine occupancy snapshot
//	GET  /v1/metrics   running Summary + engine counters (engine.Metrics)
//	GET  /v1/healthz   liveness (always 200 while serving)
//	GET  /v1/readyz    readiness (503 while draining or ingest-saturated)
//	GET  /v1/federation  per-shard federation report (federated daemons only)
//	POST /v1/drain     stop admitting, finish running jobs, then shut down
//
// With an ingest queue attached (WithIngest), submissions flow through
// the async accept path: array bodies get per-item results (one bad
// job rejects only itself), per-user token-bucket quotas answer 429,
// and a saturated accept queue answers 503 with a Retry-After hint
// instead of buffering unboundedly.
//
// GET /v1/metrics also speaks the Prometheus text exposition format:
// a request whose Accept header prefers text/plain over
// application/json gets schedsearch_* gauges and counters instead of
// the JSON report.
//
// All responses are JSON; errors are a structured
// {"error": "...", "code": "..."} body with a matching status code
// (400 malformed request, 404 unknown job, 409 duplicate job ID, 413
// oversized body, 503 draining or shards unreachable, with Retry-After
// on a single submit; 202 outcome_unknown when a front lost a shard's
// answer, with the job's Location). A panic in a handler is recovered
// into a generic 500 JSON body — never a stack trace on the wire.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
	"schedsearch/internal/sim"
	"schedsearch/internal/wire"
)

// Backend is what the server fronts: a bare *engine.Engine or a
// *federation.Router (both satisfy it). Submissions, queries and the
// drain all pass through this interface untouched.
type Backend interface {
	Submit(spec job.Job) (int, error)
	SubmitJob(j job.Job) error
	// Job, Queue and Machine fail with engine.ErrUnreachable when a
	// front could not ask a shard the answer needs (answered 503).
	Job(id int) (engine.JobStatus, bool, error)
	Queue() ([]engine.JobStatus, error)
	Machine() (engine.Machine, error)
	Metrics() engine.Metrics
	Records() []sim.Record
	// SyncJournal makes every committed event durable (a no-op without
	// a journal); the handlers that acknowledge a mutation outside the
	// ingest queue's group commit call it before answering.
	SyncJournal() error
	Drain(ctx context.Context) error
	Draining() bool
	Err() error
	Now() job.Time
}

// FederationBackend is the router-only extension of Backend: per-shard
// federation metrics (serving one enables GET /v1/federation) and
// per-shard reachability, which readiness consults so a router fronting
// an unreachable or rebuilding shard reports 503 with the per-shard
// breakdown instead of claiming readiness it cannot honor for jobs
// routed to the dead shard.
type FederationBackend interface {
	Backend
	Federation() engine.FederationMetrics
	ShardHealth() []engine.ShardHealth
}

// Server is the HTTP front end of one backend.
type Server struct {
	e   Backend
	mux *http.ServeMux
	// ingest, when configured (WithIngest), carries submissions through
	// the async accept queue: batched POST /v1/jobs bodies become
	// per-item results, quotas and backpressure apply, and admissions
	// are group-committed to the journal.
	ingest *ingest.Queue
	// tracer, when configured (WithTracer), propagates and originates
	// X-Schedsearch-Trace contexts on the submit paths; traceShard tags
	// this server's spans.
	tracer     *obs.Tracer
	traceShard int

	drainOnce sync.Once
	// onDrained runs once, after a requested drain completes (the
	// daemon uses it to stop the HTTP listener).
	onDrained func()
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithIngest routes submissions through the given accept queue. The
// queue must front the same backend the server does; its lifecycle
// (Close) stays with the caller.
func WithIngest(q *ingest.Queue) Option {
	return func(s *Server) { s.ingest = q }
}

// New returns a server for the backend. onDrained, if non-nil, is
// called once after a requested drain (POST /v1/drain or BeginDrain)
// has fully drained the backend.
func New(e Backend, onDrained func(), opts ...Option) *Server {
	s := &Server{e: e, mux: http.NewServeMux(), onDrained: onDrained}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.job)
	s.mux.HandleFunc("GET /v1/queue", s.queue)
	s.mux.HandleFunc("GET /v1/machine", s.machine)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	s.mux.HandleFunc("GET /v1/readyz", s.readyz)
	s.mux.HandleFunc("POST /v1/drain", s.drain)
	if _, ok := e.(FederationBackend); ok {
		s.mux.HandleFunc("GET /v1/federation", s.federation)
	}
	if sb, ok := e.(ShardBackend); ok {
		// A bare engine can serve as one shard of a distributed
		// federation; a federation router cannot (routers are not
		// shards of other routers), so it never exposes these routes.
		s.registerShardRoutes(sb)
	}
	return s
}

// maxBodyBytes bounds request bodies; a submit request is tiny.
const maxBodyBytes = 1 << 20

// ServeHTTP implements http.Handler. Handler panics are converted into
// a 500 JSON error body; the details stay server-side.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			// The response may be partially written; best effort. No
			// panic value or stack trace leaves the process.
			writeError(w, http.StatusInternalServerError, "internal",
				errors.New("internal server error"))
		}
	}()
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) jobResponse(st engine.JobStatus) wire.JobResponse {
	resp := wire.JobResponse{
		ID:        st.Job.ID,
		State:     st.State.String(),
		Nodes:     st.Job.Nodes,
		User:      st.Job.User,
		SubmitS:   st.Job.Submit,
		RuntimeS:  st.Job.Runtime,
		RequestS:  st.Job.Request,
		EstimateS: st.Estimate,
		NodeIDs:   st.NodeIDs,
	}
	switch st.State {
	case engine.StateWaiting:
		resp.WaitS = s.e.Now() - st.Job.Submit
	case engine.StateRunning:
		start := st.Start
		resp.StartS = &start
		resp.WaitS = st.Start - st.Job.Submit
	case engine.StateDone:
		start, end := st.Start, st.End
		resp.StartS = &start
		resp.EndS = &end
		resp.WaitS = st.Start - st.Job.Submit
		bsld := job.BoundedSlowdown(st.Job, st.Start)
		resp.BoundedSlowdown = &bsld
	}
	return resp
}

// submit handles POST /v1/jobs. The body is either a single job object
// (the original API, response shape unchanged) or an array of jobs —
// the batched path through the ingest queue with per-item results.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_json", err)
		return
	}
	st := s.beginSubmitTrace(r)
	if firstJSONByte(body) == '[' {
		s.submitBatch(w, body, st)
		return
	}
	spec, err := wire.DecodeJob(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", err)
		return
	}
	if spec.ID < 0 {
		writeError(w, http.StatusBadRequest, "invalid_job",
			fmt.Errorf("invalid job ID %d", spec.ID))
		return
	}
	id := spec.ID
	if s.ingest != nil {
		// Single submits share the ingest path so quotas and
		// backpressure apply uniformly; the response shape is the same.
		results, qerr := s.ingest.SubmitBatch([]job.Job{spec})
		if qerr != nil {
			s.writeSaturated(w, qerr)
			return
		}
		if rerr := results[0].Err; rerr != nil {
			s.writeRefusal(w, max(results[0].ID, id), rerr)
			return
		}
		id = results[0].ID
	} else {
		var serr error
		if id == 0 {
			id, serr = s.e.Submit(spec)
		} else {
			serr = s.e.SubmitJob(spec)
		}
		if serr != nil {
			s.writeRefusal(w, id, serr)
			return
		}
		// Without an ingest queue there is no committer to force the
		// group-commit boundary, so a 201 must carry its own fsync — a
		// group-buffered journal would otherwise lose acknowledged
		// submits on crash.
		if err := s.e.SyncJournal(); err != nil {
			writeError(w, http.StatusInternalServerError, "journal", err)
			return
		}
	}
	s.bindSubmitTrace(&st, id, 0)
	js, ok, err := s.e.Job(id)
	if err != nil || !ok { // admitted, but a -join front lost the read-back: answer as submitted
		spec.ID, spec.Submit = id, s.e.Now()
		js = engine.JobStatus{Job: spec}
	}
	s.writeJob(w, http.StatusCreated, js)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_job_id", err)
		return
	}
	st, ok, err := s.e.Job(id)
	if err != nil {
		s.writeRefusal(w, id, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", errors.New("no such job"))
		return
	}
	s.writeJob(w, http.StatusOK, st)
}

func (s *Server) queue(w http.ResponseWriter, r *http.Request) {
	q, err := s.e.Queue()
	if err != nil {
		s.writeRefusal(w, 0, err)
		return
	}
	resp := wire.QueueResponse{Length: len(q), Jobs: make([]wire.JobResponse, len(q))}
	for i, st := range q {
		resp.Jobs[i] = s.jobResponse(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) machine(w http.ResponseWriter, r *http.Request) {
	m, err := s.e.Machine()
	if err != nil {
		s.writeRefusal(w, 0, err)
		return
	}
	resp := wire.MachineResponse{
		NowS:      m.Now,
		Capacity:  m.Capacity,
		FreeNodes: m.FreeNodes,
		Running:   make([]wire.RunningJob, len(m.Running)),
	}
	for i, rj := range m.Running {
		resp.Running[i] = wire.RunningJob{
			ID: rj.ID, Nodes: rj.Nodes, User: rj.User,
			StartS: rj.Start, PredictedEndS: rj.PredictedEnd,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	m := s.e.Metrics()
	var ing *ingest.Stats
	if s.ingest != nil {
		st := s.ingest.Stats()
		ing = &st
	}
	if acceptsPromText(r.Header.Get("Accept")) {
		var fed *engine.FederationMetrics
		if fb, ok := s.e.(FederationBackend); ok {
			f := fb.Federation()
			fed = &f
		}
		writeProm(w, m, fed, ing, s.tracer)
		return
	}
	if ing != nil {
		// Wrap rather than mutate the schema: the JSON report stays an
		// engine.Metrics with an extra ingest section.
		writeJSON(w, http.StatusOK, struct {
			engine.Metrics
			Ingest *ingest.Stats `json:"ingest"`
		}{m, ing})
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) federation(w http.ResponseWriter, r *http.Request) {
	fb := s.e.(FederationBackend) // route is only registered for one
	writeJSON(w, http.StatusOK, fb.Federation())
}

// BeginDrain starts the one shutdown sequence, shared by POST /v1/drain
// and the daemon's signal handler, and returns at once: batches the
// accept queue already holds commit first, then admission stops and
// the machine empties, then onDrained runs. Later calls do nothing.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		go func() {
			if s.ingest != nil {
				s.ingest.Flush()
			}
			// Context.Background: the drain outlives any request. The
			// backend records its own fatal errors (Err).
			_ = s.e.Drain(context.Background())
			if s.onDrained != nil {
				s.onDrained()
			}
		}()
	})
}

func (s *Server) drain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	// Counts only: Metrics would summarize the whole history (and fetch
	// every shard's records on a router) to answer with two numbers. A
	// shard that cannot be asked counts nothing: the drain is under way.
	q, _ := s.e.Queue()
	m, _ := s.e.Machine()
	writeJSON(w, http.StatusAccepted, wire.DrainResponse{Draining: len(q), Running: len(m.Running)})
}

// writeJob answers status with the job's wire.JobResponse.
func (s *Server) writeJob(w http.ResponseWriter, status int, st engine.JobStatus) {
	resp := s.jobResponse(st)
	writeAppended(w, status, func(b []byte) []byte { return wire.AppendJob(b, &resp) })
}

// replyBufs holds the buffers the hand-encoded replies are appended into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers status with the JSON document that add appends:
// the bytes writeJSON writes for the same value.
func writeAppended(w http.ResponseWriter, status int, add func([]byte) []byte) {
	buf := replyBufs.Get().(*[]byte)
	*buf = add((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(*buf)
	replyBufs.Put(buf)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, wire.ErrorResponse{Error: err.Error(), Code: code})
}
