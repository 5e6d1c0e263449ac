package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one completed, named unit of work attributed to a trace:
// route/probe on the router, submit/admit on the receiving server,
// decide on the shard engine, migrate/reconcile on rebalance paths.
type Span struct {
	Name    string
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	JobID   int
	Shard   int
	Start   time.Time
	Dur     time.Duration
}

// SpanStat aggregates one span name's durations for the Prometheus
// exposition.
type SpanStat struct {
	Count   int64
	TotalNs int64
}

// TracerOptions configure a Tracer; the zero value gives sensible
// bounds, wall-clock time and a time-derived ID seed.
type TracerOptions struct {
	// MaxSpans bounds the retained span buffer (default 1<<17); spans
	// past the bound are dropped from the export but still counted in
	// the per-name stats.
	MaxSpans int
	// MaxJobs bounds the job ID -> trace context registry (default
	// 1<<16, FIFO eviction).
	MaxJobs int
	// Now supplies timestamps (default time.Now). Tests pin it for
	// byte-stable trace output.
	Now func() time.Time
	// Seed seeds the span/trace ID sequence (default from Now); a
	// fixed seed makes minted IDs reproducible for golden tests.
	Seed uint64
}

// Tracer mints trace contexts, keeps the bounded job registry that
// carries a context from submit to the decide that starts the job, and
// collects completed spans for the Chrome trace-event export and the
// per-span-name Prometheus series. All methods are goroutine-safe. A
// nil *Tracer is a valid "tracing off" value: every method no-ops.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time
	epoch   time.Time
	rng     uint64
	spans   []Span
	max     int
	dropped int64
	stats   map[string]*SpanStat
	byJob   map[int]TraceContext
	order   []int
	maxJobs int
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = 1 << 17
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1 << 16
	}
	t := &Tracer{
		now:     opts.Now,
		max:     opts.MaxSpans,
		maxJobs: opts.MaxJobs,
		stats:   make(map[string]*SpanStat),
		byJob:   make(map[int]TraceContext),
	}
	t.epoch = t.now()
	t.rng = opts.Seed
	if t.rng == 0 {
		t.rng = uint64(t.epoch.UnixNano()) | 1
	}
	return t
}

// nextID steps the splitmix64 sequence; the caller holds t.mu.
func (t *Tracer) nextID() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Now returns the tracer's clock reading (span start timestamps come
// from here so pinned-clock tests stay byte-stable).
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

// Mint creates a fresh trace context (new trace ID, new root span ID).
func (t *Tracer) Mint() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceContext{TraceID: t.nextID(), SpanID: t.nextID()}
}

// ParseOrMint parses an incoming trace header, minting a fresh context
// when the header is absent or malformed. parsed reports which: a
// parsed context means this process continues a remote caller's trace
// (an "admit" hop), a minted one means the trace starts here.
func (t *Tracer) ParseOrMint(header string) (tc TraceContext, parsed bool) {
	if t == nil {
		return TraceContext{}, false
	}
	if tc, ok := ParseTraceContext(header); ok {
		return tc, true
	}
	return t.Mint(), false
}

// Bind associates a job ID with its trace context so later hops (the
// decide that starts the job, shard wire calls about it) can pick the
// trace back up. The registry is bounded with FIFO eviction.
func (t *Tracer) Bind(jobID int, tc TraceContext) {
	if t == nil || jobID < 1 || !tc.Valid() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byJob[jobID]; !ok {
		t.order = append(t.order, jobID)
		for len(t.order) > t.maxJobs {
			delete(t.byJob, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.byJob[jobID] = tc
}

// Lookup returns the job's bound trace context.
func (t *Tracer) Lookup(jobID int) (TraceContext, bool) {
	if t == nil {
		return TraceContext{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tc, ok := t.byJob[jobID]
	return tc, ok
}

// Header returns the wire header value for the job's trace, or "" when
// the job has no bound trace (the caller then sends no header).
func (t *Tracer) Header(jobID int) string {
	tc, ok := t.Lookup(jobID)
	if !ok {
		return ""
	}
	return tc.String()
}

// Record completes a span: a child of tc (the new span's parent is
// tc.SpanID) named name, attributed to jobID (0 = none) on shard,
// spanning [start, start+dur). Stats are always counted; the span
// itself is kept only while the buffer has room.
func (t *Tracer) Record(name string, tc TraceContext, jobID, shard int, start time.Time, dur time.Duration) {
	if t == nil || !tc.Valid() {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[name]
	if st == nil {
		st = &SpanStat{}
		t.stats[name] = st
	}
	st.Count++
	st.TotalNs += dur.Nanoseconds()
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{
		Name: name, TraceID: tc.TraceID, SpanID: t.nextID(), Parent: tc.SpanID,
		JobID: jobID, Shard: shard, Start: start, Dur: dur,
	})
}

// Stats returns a copy of the per-span-name duration aggregates.
func (t *Tracer) Stats() map[string]SpanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]SpanStat, len(t.stats))
	for k, v := range t.stats {
		out[k] = *v
	}
	return out
}

// Dropped reports spans lost to the buffer bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// JobCoverage reports how many distinct traced jobs have a span of
// every required name, out of all distinct traced jobs — the span-tree
// completeness measure the federation keystone asserts on.
func (t *Tracer) JobCoverage(required ...string) (covered, total int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make(map[int]map[string]bool)
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.JobID < 1 {
			continue
		}
		m := names[sp.JobID]
		if m == nil {
			m = make(map[string]bool, 4)
			names[sp.JobID] = m
		}
		m[sp.Name] = true
	}
	total = len(names)
	for _, m := range names {
		ok := true
		for _, want := range required {
			if !m[want] {
				ok = false
				break
			}
		}
		if ok {
			covered++
		}
	}
	return covered, total
}

// WriteTrace emits the retained spans as Chrome trace-event JSON
// (the "traceEvents" array of complete "X" events, timestamps in
// microseconds since the tracer epoch) — loadable directly in
// Perfetto or chrome://tracing with zero external dependencies.
// Events are ordered by start time (record order breaks ties) so the
// output is stable for golden tests.
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	epoch := t.epoch
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	for i := range spans {
		sp := &spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw,
			`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{"trace":"%016x","span":"%016x","parent":"%016x","job":%d}}`,
			sp.Name, sp.Start.Sub(epoch).Microseconds(), sp.Dur.Microseconds(),
			sp.Shard, sp.TraceID, sp.SpanID, sp.Parent, sp.JobID)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteTraceFile writes the trace (WriteTrace) to a new file at path.
func (t *Tracer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
