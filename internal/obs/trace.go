// Package obs is the observability layer: the structured per-decision
// record a journal audit reports (engine.Audit), cross-process trace
// propagation (trace/span IDs minted at submit and carried on
// every shard wire call), Chrome trace-event export, latency
// histograms, runtime self-metrics and structured-logging helpers.
//
// The package is a leaf — it imports only the standard library — so
// core, engine, server, federation and the cmds can all attach to it
// without cycles. Everything here is strictly passive: instrumentation
// must never change a scheduling decision, which the suite-wide
// inertness differentials pin down (tracing on vs. off stays
// bit-identical across every suite month).
package obs

// TraceHeader is the HTTP header carrying the trace context on every
// cross-process call: submits through the front-end, and every
// /v1/shard/* request a federation router makes to a remote shard.
const TraceHeader = "X-Schedsearch-Trace"

// TraceContext identifies one request's position in a trace: the
// trace ID shared by every span of the job's journey, and the span ID
// of the caller's current span (the parent of whatever span the
// receiver opens).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a real trace (a zero
// trace ID is "no trace").
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// String renders the canonical wire form: 16 lowercase hex digits of
// trace ID, a dash, 16 of span ID.
func (tc TraceContext) String() string {
	var b [33]byte
	putHex16(b[0:16], tc.TraceID)
	b[16] = '-'
	putHex16(b[17:33], tc.SpanID)
	return string(b[:])
}

func putHex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ParseTraceContext parses the canonical wire form. It is deliberately
// strict (exactly 33 bytes, lowercase hex, non-zero trace ID) and
// never returns an error: a malformed, oversized or zero header yields
// ok=false and the receiver mints a fresh trace instead — a bad header
// must never fail a submit.
func ParseTraceContext(h string) (TraceContext, bool) {
	if len(h) != 33 || h[16] != '-' {
		return TraceContext{}, false
	}
	tid, ok := parseHex16(h[:16])
	if !ok || tid == 0 {
		return TraceContext{}, false
	}
	sid, ok := parseHex16(h[17:])
	if !ok {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: tid, SpanID: sid}, true
}

func parseHex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
