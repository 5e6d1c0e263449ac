package server

import (
	"net/http"
	"time"

	"schedsearch/internal/obs"
)

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
