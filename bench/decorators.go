package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// The decorators below sit on seams the product already exposes as
// interfaces, so every layer is timed from outside and the product is
// not touched. Each one records a span when it has a recorder and is
// otherwise a plain pass-through; untimed sections are built without
// them (timedPolicy excepted: it supplies an end-to-end metric, at the
// price of two clock reads per decision).

// timedPolicy times every Decide of the policy it wraps. One engine (or
// one sim.Run) serialises its calls, so the sample slice needs no lock.
// With marks, every Decide also begins a segment of the replay.
type timedPolicy struct {
	inner sim.Policy
	rec   *recorder
	marks *marks
	durNs []float64
	sumNs int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(snap *sim.Snapshot) []int {
	id := p.rec.begin("core", "decide", 0)
	t0 := time.Now()
	p.marks.mark(t0)
	starts := p.inner.Decide(snap)
	d := time.Since(t0).Nanoseconds()
	p.rec.end(id)
	p.durNs = append(p.durNs, float64(d))
	p.sumNs += d
	return starts
}

// spanHeader carries the client-side span a request belongs to, so a
// handler span can name its cause even when clients are concurrent.
const spanHeader = "X-Bench-Span"

// timedHandler times the whole server-side handling of a request.
type timedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int32(-1)
	if v := r.Header.Get(spanHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			parent = int32(n)
		}
	}
	id := h.rec.beginUnder(parent, "server", "handler", 0)
	h.inner.ServeHTTP(w, r)
	h.rec.end(id)
}

// timedBackend times the admission calls the ingest committer makes
// into the engine, and the group-commit sync that follows them.
type timedBackend struct {
	inner interface {
		ingest.Backend
		ingest.Syncer
	}
	rec *recorder
}

func (b *timedBackend) Submit(spec job.Job) (int, error) {
	id := b.rec.begin("engine", "submit", 0)
	n, err := b.inner.Submit(spec)
	b.rec.end(id)
	return n, err
}

func (b *timedBackend) SubmitJob(j job.Job) error {
	id := b.rec.begin("engine", "submit", j.ID)
	err := b.inner.SubmitJob(j)
	b.rec.end(id)
	return err
}

func (b *timedBackend) SyncJournal() error {
	id := b.rec.begin("engine", "sync_journal", 0)
	err := b.inner.SyncJournal()
	b.rec.end(id)
	return err
}

// deviceTimer takes the time the journal spends in calls that reach its
// device (the flush, write and fsync behind Commit, Sync and Compact) out
// of the replay's segments. The calls are real and counted, but the
// checkout's disk is shared: between two hours of one day its fsync went
// from 215 to 450 microseconds and stayed there, which moved jobs_per_s
// of serve_month by a factor of two with the program unchanged. (The
// issue put journals on /dev/shm for that reason; the harness confines
// the benchmark to its checkout.) The device's time is a per-layer
// metric, engine.journal_sync_*.
type deviceTimer struct {
	inner engine.JournalSink
	mk    *marks
}

func (d *deviceTimer) Append(ev engine.Event) error { return d.inner.Append(ev) }

func (d *deviceTimer) Commit() error {
	t0 := time.Now()
	err := d.inner.Commit()
	d.mk.exclude(time.Since(t0))
	return err
}

func (d *deviceTimer) Sync() error {
	t0 := time.Now()
	err := d.inner.Sync()
	d.mk.exclude(time.Since(t0))
	return err
}

func (d *deviceTimer) Compact(base engine.Base) error {
	t0 := time.Now()
	err := d.inner.Compact(base)
	d.mk.exclude(time.Since(t0))
	return err
}

// timedJournal times the journal sink. Commit is timed because a full
// group makes it fsync; Append is counted and timed in aggregate only
// (three events per job would triple the span count for a call that
// only fills a buffer).
type timedJournal struct {
	inner    engine.JournalSink
	rec      *recorder
	appends  atomic.Int64
	appendNs atomic.Int64
}

func (t *timedJournal) Append(ev engine.Event) error {
	t0 := time.Now()
	err := t.inner.Append(ev)
	t.appendNs.Add(time.Since(t0).Nanoseconds())
	t.appends.Add(1)
	return err
}

func (t *timedJournal) Commit() error {
	id := t.rec.begin("journal", "commit", 0)
	err := t.inner.Commit()
	t.rec.end(id)
	return err
}

func (t *timedJournal) Sync() error {
	id := t.rec.begin("journal", "sync", 0)
	err := t.inner.Sync()
	t.rec.end(id)
	return err
}

func (t *timedJournal) Compact(base engine.Base) error {
	id := t.rec.begin("journal", "compact", 0)
	err := t.inner.Compact(base)
	t.rec.end(id)
	return err
}

// wireCall is one HTTP round trip between the router and a shard.
type wireCall struct {
	Key   string // "METHOD /path" with IDs folded
	Ns    int64
	Bytes int64
	Err   bool
}

// countingTransport counts and times every round trip of the remote
// shards' HTTP client, keyed by method and path. The span ends when
// the response body is closed, so it covers the whole exchange.
type countingTransport struct {
	inner http.RoundTripper
	rec   *recorder
	mu    sync.Mutex
	calls []wireCall
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + foldPath(req.URL.Path)
	id := t.rec.begin("wire", key, 0)
	t0 := time.Now()
	var sent int64
	if req.ContentLength > 0 {
		sent = req.ContentLength
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		t.note(wireCall{Key: key, Ns: time.Since(t0).Nanoseconds(), Bytes: sent, Err: true})
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(read int64) {
		t.rec.end(id)
		t.note(wireCall{Key: key, Ns: time.Since(t0).Nanoseconds(), Bytes: sent + read})
	}}
	return resp, nil
}

func (t *countingTransport) note(c wireCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

func (t *countingTransport) snapshot() []wireCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]wireCall(nil), t.calls...)
}

type countingBody struct {
	io.ReadCloser
	read int64
	once sync.Once
	done func(read int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.read) })
	return err
}

// foldPath replaces numeric path segments with {id} so calls about
// different jobs share one key.
func foldPath(p string) string {
	parts := strings.Split(p, "/")
	for i, s := range parts {
		if s == "" {
			continue
		}
		if _, err := strconv.Atoi(s); err == nil {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}
