package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: 1, SpanID: 0},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef},
		{TraceID: ^uint64(0), SpanID: ^uint64(0)},
	}
	for _, tc := range cases {
		h := tc.String()
		if len(h) != 33 {
			t.Fatalf("header %q: len %d", h, len(h))
		}
		got, ok := ParseTraceContext(h)
		if !ok || got != tc {
			t.Fatalf("round trip %v -> %q -> %v ok=%v", tc, h, got, ok)
		}
	}
}

func TestParseTraceContextRejects(t *testing.T) {
	bad := []string{
		"",
		"xyz",
		strings.Repeat("0", 33),              // no dash
		"0000000000000000-0000000000000000",  // zero trace ID
		"DEADBEEFCAFEF00D-0123456789abcdef",  // uppercase is not canonical
		"deadbeefcafef00d-0123456789abcde",   // short span
		"deadbeefcafef00d-0123456789abcdef0", // long
		"deadbeefcafef00d_0123456789abcdef",  // wrong separator
		strings.Repeat("a", 4096) + "-" + strings.Repeat("b", 4096), // oversized
	}
	for _, h := range bad {
		if _, ok := ParseTraceContext(h); ok {
			t.Errorf("ParseTraceContext(%.40q) accepted", h)
		}
	}
}

func TestTracerMintBindLookup(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 7})
	tc := tr.Mint()
	if !tc.Valid() || tc.SpanID == 0 {
		t.Fatalf("minted %v", tc)
	}
	tr.Bind(42, tc)
	got, ok := tr.Lookup(42)
	if !ok || got != tc {
		t.Fatalf("lookup: %v ok=%v", got, ok)
	}
	if h := tr.Header(42); h != tc.String() {
		t.Fatalf("header %q want %q", h, tc.String())
	}
	if h := tr.Header(43); h != "" {
		t.Fatalf("unbound job header %q", h)
	}
	// ParseOrMint: a valid header continues the trace, junk mints.
	got2, parsed := tr.ParseOrMint(tc.String())
	if !parsed || got2 != tc {
		t.Fatalf("ParseOrMint valid: %v parsed=%v", got2, parsed)
	}
	got3, parsed := tr.ParseOrMint("garbage")
	if parsed || !got3.Valid() || got3.TraceID == tc.TraceID {
		t.Fatalf("ParseOrMint junk: %v parsed=%v", got3, parsed)
	}
}

func TestTracerBindEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 1, MaxJobs: 4})
	for id := 1; id <= 6; id++ {
		tr.Bind(id, TraceContext{TraceID: uint64(id), SpanID: 1})
	}
	for id := 1; id <= 2; id++ {
		if _, ok := tr.Lookup(id); ok {
			t.Errorf("job %d should have been evicted", id)
		}
	}
	for id := 3; id <= 6; id++ {
		if tc, ok := tr.Lookup(id); !ok || tc.TraceID != uint64(id) {
			t.Errorf("job %d: %v ok=%v", id, tc, ok)
		}
	}
}

func TestTracerSpanBoundAndStats(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 1, MaxSpans: 2})
	tc := tr.Mint()
	for i := 0; i < 5; i++ {
		tr.Record("decide", tc, i+1, 0, time.Unix(0, 0), time.Millisecond)
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	st := tr.Stats()["decide"]
	if st.Count != 5 || st.TotalNs != 5*int64(time.Millisecond) {
		t.Fatalf("stats %+v", st)
	}
	// Invalid contexts and nil tracers no-op.
	tr.Record("x", TraceContext{}, 0, 0, time.Unix(0, 0), time.Second)
	if _, ok := tr.Stats()["x"]; ok {
		t.Fatal("invalid context recorded")
	}
	var nilT *Tracer
	nilT.Record("x", tc, 0, 0, time.Unix(0, 0), 0)
	nilT.Bind(1, tc)
	if _, ok := nilT.Lookup(1); ok {
		t.Fatal("nil tracer lookup")
	}
}

func TestJobCoverage(t *testing.T) {
	tr := NewTracer(TracerOptions{Seed: 1})
	tc := TraceContext{TraceID: 9, SpanID: 9}
	at := time.Unix(0, 0)
	tr.Record("submit", tc, 1, 0, at, 0)
	tr.Record("decide", tc, 1, 0, at, 0)
	tr.Record("submit", tc, 2, 0, at, 0)
	covered, total := tr.JobCoverage("submit", "decide")
	if covered != 1 || total != 2 {
		t.Fatalf("coverage %d/%d, want 1/2", covered, total)
	}
}

func TestHistFsyncShape(t *testing.T) {
	var h Hist
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.ObserveN(100*time.Microsecond, 3)
	s := h.Snapshot()
	if s.Count != 5 || s.MaxUs != 100 {
		t.Fatalf("snapshot %+v", s)
	}
	if len(s.BucketLeUs) == 0 || s.BucketCount[len(s.BucketCount)-1] != 5 {
		t.Fatalf("buckets %v %v", s.BucketLeUs, s.BucketCount)
	}
	if s.P99Us < 100 {
		t.Fatalf("p99 %d", s.P99Us)
	}
}

// TestWriteTraceParses checks the export is valid trace-event JSON
// with the expected envelope; the exact byte format is pinned by
// TestWriteTraceGolden.
func TestWriteTraceParses(t *testing.T) {
	base := time.Unix(100, 0)
	tr := NewTracer(TracerOptions{Seed: 1, Now: func() time.Time { return base }})
	tc := tr.Mint()
	tr.Record("submit", tc, 1, 0, base.Add(5*time.Microsecond), 2*time.Microsecond)
	tr.Record("decide", tc, 1, 3, base.Add(9*time.Microsecond), 7*time.Microsecond)
	var sb strings.Builder
	if err := tr.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not trace-event JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "decide" || ev.Ph != "X" || ev.Ts != 9 || ev.Dur != 7 || ev.Tid != 3 {
		t.Fatalf("event %+v", ev)
	}
	if ev.Args["job"].(float64) != 1 {
		t.Fatalf("args %v", ev.Args)
	}
}

func TestHistQuantilesAndBuckets(t *testing.T) {
	var h Hist
	if s := h.Snapshot(); s.Count != 0 || s.P99Us != 0 {
		t.Fatalf("zero hist snapshot %+v", s)
	}
	// 90 fast samples (~3µs) and 10 slow (~1000µs).
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	// Quantiles are conservative bucket upper bounds: p50 covers the
	// 3µs mass (bucket le=4), p99 the 1000µs mass (le=1024).
	if s.P50Us != 4 {
		t.Fatalf("p50 %dµs, want 4", s.P50Us)
	}
	if s.P99Us != 1024 {
		t.Fatalf("p99 %dµs, want 1024", s.P99Us)
	}
	if s.MaxUs != 1000 {
		t.Fatalf("max %dµs", s.MaxUs)
	}
	// Cumulative buckets end at the last non-empty one, monotone.
	if len(s.BucketLeUs) == 0 || s.BucketCount[len(s.BucketCount)-1] != 100 {
		t.Fatalf("buckets %+v", s)
	}
	for i := 1; i < len(s.BucketCount); i++ {
		if s.BucketCount[i] < s.BucketCount[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", s.BucketCount)
		}
	}
	// ObserveN attributes the same latency to every item of a batch.
	h.ObserveN(3*time.Microsecond, 5)
	if got := h.Snapshot().Count; got != 105 {
		t.Fatalf("count after ObserveN %d", got)
	}
	h.ObserveN(time.Microsecond, 0) // no-op
	if got := h.Snapshot().Count; got != 105 {
		t.Fatalf("ObserveN(0) changed count to %d", got)
	}
}
