package server

import (
	"net/http"
	"time"

	"schedsearch/internal/obs"
)

// WithFlight exposes the decision flight recorder the backend's
// policies record into over GET /v1/debug/decisions. The recorder stays
// owned by the caller (it is the one engine.Recorded wraps them with).
func WithFlight(f *obs.FlightRecorder) Option {
	return func(s *Server) { s.flight = f }
}

// WithTracer attaches the cross-process tracer: the submit paths parse
// (or mint) X-Schedsearch-Trace contexts, bind them to admitted job
// IDs, and record the front-door span — "admit" when the context
// arrived on the wire, "submit" when this process minted it. shard
// tags this server's spans with its shard index (0 standalone).
func WithTracer(tr *obs.Tracer, shard int) Option {
	return func(s *Server) { s.tracer = tr; s.traceShard = shard }
}

// submitTrace is one submit request's trace state, threaded from the
// header parse to the per-job bind.
type submitTrace struct {
	tc     obs.TraceContext
	parsed bool // arrived on the wire (span "admit") vs. minted here ("submit")
	start  time.Time
}

// beginSubmitTrace reads the request's trace header. Malformed,
// oversized or absent headers degrade to a freshly minted trace —
// never an error: a garbage header must not reject a submit.
func (s *Server) beginSubmitTrace(r *http.Request) submitTrace {
	if s.tracer == nil {
		return submitTrace{}
	}
	tc, parsed := s.tracer.ParseOrMint(r.Header.Get(obs.TraceHeader))
	return submitTrace{tc: tc, parsed: parsed, start: s.tracer.Now()}
}

// bindSubmitTrace binds the trace to an admitted job and records its
// front-door span. Batch items past the first re-mint unparsed traces
// so each job roots its own span tree; a propagated context is shared
// by the whole batch (the spans stay distinguishable by job ID).
func (s *Server) bindSubmitTrace(st *submitTrace, id, item int) {
	tr := s.tracer
	if tr == nil || id == 0 {
		return
	}
	tc := st.tc
	if item > 0 && !st.parsed {
		tc = tr.Mint()
	}
	name := "submit"
	if st.parsed {
		name = "admit"
	}
	tr.Bind(id, tc)
	tr.Record(name, tc, id, s.traceShard, st.start, tr.Now().Sub(st.start))
}

// DecisionsResponse is the GET /v1/debug/decisions body: the retained
// window of the decision flight recorder, oldest first, plus the
// all-time decision count (Total - len(Decisions) decisions have
// scrolled out of the ring).
type DecisionsResponse struct {
	Total     int64                `json:"total"`
	Decisions []obs.DecisionRecord `json:"decisions"`
}

// debugDecisions serves GET /v1/debug/decisions; registered only when
// a flight recorder is attached (WithFlight).
func (s *Server) debugDecisions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DecisionsResponse{
		Total:     s.flight.Total(),
		Decisions: s.flight.Snapshot(),
	})
}
