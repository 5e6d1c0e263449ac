package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/policy"
)

// gatedBackend wraps the engine so a test can hold the ingest
// committer mid-commit (submissions block until the gate opens),
// keeping items pending long enough to observe saturation.
type gatedBackend struct {
	*engine.Engine
	gate chan struct{}
}

func (g *gatedBackend) Submit(spec job.Job) (int, error) {
	<-g.gate
	return g.Engine.Submit(spec)
}

func (g *gatedBackend) SubmitJob(j job.Job) error {
	<-g.gate
	return g.Engine.SubmitJob(j)
}

type ingestFixture struct {
	*fixture
	q *ingest.Queue
}

// newIngestFixture wires engine → ingest queue → server, optionally
// through a gate and with quotas, mirroring how cmd/schedd assembles
// the ingest path.
func newIngestFixture(t *testing.T, capacity int, icfg ingest.Config, gate chan struct{}) *ingestFixture {
	t.Helper()
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: capacity, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	var backend Backend = e
	icfg.Backend = e
	if gate != nil {
		gb := &gatedBackend{Engine: e, gate: gate}
		icfg.Backend = gb
		backend = gb
	}
	q, err := ingest.NewQueue(icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	f := &fixture{vc: vc, e: e, drained: make(chan struct{})}
	f.srv = New(backend, func() { close(f.drained) }, WithIngest(q))
	return &ingestFixture{fixture: f, q: q}
}

// batch runs a batched POST /v1/jobs and decodes the typed response.
func (f *ingestFixture) batch(t *testing.T, body string) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, r)
	var resp BatchResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("batch response not a BatchResponse: %q", w.Body.String())
		}
	}
	return w, resp
}

func TestBatchSubmit(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	w, resp := f.batch(t, `[
		{"nodes":4,"runtime_s":3600},
		{"nodes":2,"runtime_s":1800,"user":7},
		{"nodes":1,"runtime_s":600}
	]`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	if resp.Accepted != 3 || resp.Rejected != 0 || len(resp.Items) != 3 {
		t.Fatalf("batch response %+v", resp)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusCreated || it.ID != i+1 || it.Index != i {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
	// The jobs really are in the engine, in batch order.
	for id := 1; id <= 3; id++ {
		if _, ok, _ := f.e.Job(id); !ok {
			t.Fatalf("job %d missing from engine", id)
		}
	}
}

func TestBatchOneBadItemDoesNotRejectTheBatch(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	w, resp := f.batch(t, `[
		{"nodes":4,"runtime_s":3600},
		{"nodes":0,"runtime_s":60},
		{"id":-4,"nodes":1,"runtime_s":60},
		{"nodes":1,"runtime_s":600}
	]`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	if resp.Accepted != 2 || resp.Rejected != 2 {
		t.Fatalf("batch response %+v", resp)
	}
	if it := resp.Items[1]; it.Status != http.StatusBadRequest || it.Code != "invalid_job" {
		t.Fatalf("zero-width item %+v, want 400 invalid_job", it)
	}
	if it := resp.Items[2]; it.Status != http.StatusBadRequest || it.Code != "invalid_job" {
		t.Fatalf("negative-ID item %+v, want 400 invalid_job", it)
	}
	if resp.Items[0].Status != http.StatusCreated || resp.Items[3].Status != http.StatusCreated {
		t.Fatalf("good items rejected: %+v", resp.Items)
	}
}

// TestBatchDuplicateIDWithinBatch is the satellite: two entries with
// the same client-assigned ID in one batch yield a per-item 409 for
// the second, the batch itself succeeds, and the queue keeps working.
func TestBatchDuplicateIDWithinBatch(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	w, resp := f.batch(t, `[
		{"id":5,"nodes":2,"runtime_s":600},
		{"id":5,"nodes":2,"runtime_s":600},
		{"id":6,"nodes":1,"runtime_s":60}
	]`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch rejected whole: %d %s", w.Code, w.Body.String())
	}
	if resp.Accepted != 2 || resp.Rejected != 1 {
		t.Fatalf("batch response %+v", resp)
	}
	if it := resp.Items[0]; it.Status != http.StatusCreated || it.ID != 5 {
		t.Fatalf("first ID-5 item %+v, want 201", it)
	}
	if it := resp.Items[1]; it.Status != http.StatusConflict || it.Code != "duplicate_id" {
		t.Fatalf("second ID-5 item %+v, want 409 duplicate_id", it)
	}
	if it := resp.Items[2]; it.Status != http.StatusCreated {
		t.Fatalf("trailing item %+v, want 201", it)
	}
	// The queue is not corrupted: a follow-up batch commits cleanly.
	w, resp = f.batch(t, `[{"nodes":1,"runtime_s":60}]`)
	if w.Code != http.StatusOK || resp.Accepted != 1 {
		t.Fatalf("follow-up batch: %d %+v", w.Code, resp)
	}
	if st := f.q.Stats(); st.Committed != 3 || st.Rejected != 1 {
		t.Fatalf("queue stats %+v", st)
	}
}

func TestBatchRequestErrors(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `[{"nodes":4,`, http.StatusBadRequest, "bad_json"},
		{"empty", `[]`, http.StatusBadRequest, "empty_batch"},
		{"not-an-array-of-objects", `["x"]`, http.StatusBadRequest, "bad_json"},
		{"too-many-items", "[" + strings.Repeat(`{},`, maxBatchItems) + `{}]`,
			http.StatusRequestEntityTooLarge, "batch_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, resp := f.do(t, "POST", "/v1/jobs", tc.body)
			if w.Code != tc.status || resp["code"] != tc.code {
				t.Fatalf("%s: %d %v, want %d %s", tc.name, w.Code, resp, tc.status, tc.code)
			}
		})
	}
}

func TestBatchWithoutIngestQueue(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	w, resp := f.do(t, "POST", "/v1/jobs", `[{"nodes":1,"runtime_s":60}]`)
	if w.Code != http.StatusBadRequest || resp["code"] != "batch_unsupported" {
		t.Fatalf("batch without ingest: %d %v", w.Code, resp)
	}
}

func TestSingleSubmitThroughIngest(t *testing.T) {
	f := newIngestFixture(t, 8, ingest.Config{}, nil)
	w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":4,"runtime_s":3600}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %v", w.Code, resp)
	}
	if resp["id"] != float64(1) || resp["state"] != "waiting" {
		t.Fatalf("single-through-ingest response %v", resp)
	}
	// Duplicate client IDs still answer 409 on the single path.
	f.do(t, "POST", "/v1/jobs", `{"id":9,"nodes":1,"runtime_s":60}`)
	w, resp = f.do(t, "POST", "/v1/jobs", `{"id":9,"nodes":1,"runtime_s":60}`)
	if w.Code != http.StatusConflict || resp["code"] != "duplicate_id" {
		t.Fatalf("duplicate single: %d %v", w.Code, resp)
	}
}

func TestQuotaRejections(t *testing.T) {
	// Quotas on the engine clock: burst 2, near-zero refill.
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: 16, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ingest.NewQueue(ingest.Config{
		Backend: e,
		Quotas:  ingest.NewQuotas(0.001, 2, e.Now),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	f := &ingestFixture{fixture: &fixture{vc: vc, e: e}, q: q}
	f.srv = New(e, nil, WithIngest(q))

	// Burst of 2 allowed; the third same-user submission answers 429.
	for i := 0; i < 2; i++ {
		w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60,"user":3}`)
		if w.Code != http.StatusCreated {
			t.Fatalf("in-quota submit %d: %d %v", i, w.Code, resp)
		}
	}
	w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60,"user":3}`)
	if w.Code != http.StatusTooManyRequests || resp["code"] != "quota_exceeded" {
		t.Fatalf("over-quota single: %d %v", w.Code, resp)
	}
	if w.Header().Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("over-quota single Retry-After %q, want %q", w.Header().Get("Retry-After"), retryAfterSeconds)
	}
	// Batched: the over-quota item is a per-item 429, neighbors commit.
	br, batch := f.batch(t, `[
		{"nodes":1,"runtime_s":60,"user":3},
		{"nodes":1,"runtime_s":60,"user":4}
	]`)
	if br.Code != http.StatusOK {
		t.Fatalf("quota batch: %d %s", br.Code, br.Body.String())
	}
	if it := batch.Items[0]; it.Status != http.StatusTooManyRequests || it.Code != "quota_exceeded" {
		t.Fatalf("over-quota item %+v", it)
	}
	if it := batch.Items[1]; it.Status != http.StatusCreated {
		t.Fatalf("other user's item %+v", it)
	}
}

func TestSaturationBackpressure(t *testing.T) {
	gate := make(chan struct{})
	f := newIngestFixture(t, 16, ingest.Config{MaxPending: 1}, gate)

	// One submission stalls at the gated backend, filling the queue.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"nodes":1,"runtime_s":60}`))
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, r)
		done <- w
	}()
	waitFor(t, func() bool { return f.q.Stats().Pending == 1 })

	// The next submission must bounce: 503, Retry-After, nothing queued.
	w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60}`)
	if w.Code != http.StatusServiceUnavailable || resp["code"] != "saturated" {
		t.Fatalf("over-limit submit: %d %v", w.Code, resp)
	}
	if w.Header().Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("Retry-After %q, want %q", w.Header().Get("Retry-After"), retryAfterSeconds)
	}
	// Batches bounce whole under saturation.
	wb, _ := f.batch(t, `[{"nodes":1,"runtime_s":60},{"nodes":1,"runtime_s":60}]`)
	if wb.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch under saturation: %d %s", wb.Code, wb.Body.String())
	}
	if st := f.q.Stats(); st.Saturations != 2 || st.PeakPending > st.MaxPending {
		t.Fatalf("stats %+v", st)
	}

	close(gate)
	if w := <-done; w.Code != http.StatusCreated {
		t.Fatalf("gated submit finished with %d %s", w.Code, w.Body.String())
	}
}

// TestHTTPDrainCommitsAcceptedBatch: a batch the accept queue already
// holds when POST /v1/drain arrives must commit, exactly as it does when
// a signal starts the drain — both run Server.BeginDrain, which flushes
// the queue before the backend stops admitting. The committer is held
// mid-batch, so without the flush every item would come back 503.
func TestHTTPDrainCommitsAcceptedBatch(t *testing.T) {
	gate := make(chan struct{})
	f := newIngestFixture(t, 16, ingest.Config{}, gate)

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(
			`[{"nodes":1,"runtime_s":60},{"nodes":2,"runtime_s":60},{"nodes":1,"runtime_s":30}]`))
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, r)
		done <- w
	}()
	waitFor(t, func() bool { return f.q.Stats().Pending == 3 })

	if w, _ := f.do(t, "POST", "/v1/drain", ""); w.Code != http.StatusAccepted {
		t.Fatalf("drain: %d", w.Code)
	}
	// The drain runs on its own goroutine: give it every chance to reach
	// the backend while the committer is still held.
	early := false
	for i := 0; i < 1000 && !early; i++ {
		runtime.Gosched()
		early = f.e.Draining()
	}
	close(gate) // before any Fatal: the queue's cleanup waits for the committer
	if early {
		t.Fatal("backend stopped admitting while accepted items were still uncommitted")
	}
	w := <-done
	var batch BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil || batch.Accepted != 3 || batch.Rejected != 0 {
		t.Fatalf("batch accepted before the drain: %d %s", w.Code, w.Body.String())
	}
	// With the queue flushed the drain proceeds: admission stops, the
	// three committed jobs run to completion, onDrained fires.
	waitFor(t, f.e.Draining)
	if w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after the flush: %d %v", w.Code, resp)
	}
	f.vc.Run()
	select {
	case <-f.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("onDrained never fired")
	}
	if m := f.e.Metrics(); m.Jobs.Done != 3 {
		t.Fatalf("%d of 3 accepted jobs completed", m.Jobs.Done)
	}
}

// TestHealthAndReadiness is the satellite: healthz is pure liveness;
// readyz flips to 503 while the accept queue is saturated and during a
// drain.
func TestHealthAndReadiness(t *testing.T) {
	gate := make(chan struct{})
	f := newIngestFixture(t, 16, ingest.Config{MaxPending: 1}, gate)

	readyz := func() (int, ReadyResponse) {
		r := httptest.NewRequest("GET", "/v1/readyz", nil)
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, r)
		var resp ReadyResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("readyz body %q", w.Body.String())
		}
		return w.Code, resp
	}

	// Fresh daemon: alive and ready.
	w, resp := f.do(t, "GET", "/v1/healthz", "")
	if w.Code != http.StatusOK || resp["ok"] != true {
		t.Fatalf("healthz: %d %v", w.Code, resp)
	}
	if code, r := readyz(); code != http.StatusOK || !r.Ready || r.Draining || r.Saturated {
		t.Fatalf("fresh readyz: %d %+v", code, r)
	}

	// Saturated: readyz answers 503 with the saturated flag.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"nodes":1,"runtime_s":60}`))
		f.srv.ServeHTTP(httptest.NewRecorder(), r)
	}()
	waitFor(t, func() bool { return f.q.Stats().Pending == 1 })
	if code, r := readyz(); code != http.StatusServiceUnavailable || r.Ready || !r.Saturated {
		t.Fatalf("saturated readyz: %d %+v", code, r)
	}
	// Liveness is unaffected by saturation.
	if w, _ := f.do(t, "GET", "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", w.Code)
	}
	close(gate)
	<-done
	waitFor(t, func() bool { return f.q.Stats().Pending == 0 })
	if code, r := readyz(); code != http.StatusOK || !r.Ready {
		t.Fatalf("drained-queue readyz: %d %+v", code, r)
	}

	// Draining: readyz flips and stays down.
	f.vc.Run() // finish the committed job so the drain completes
	if w, _ := f.do(t, "POST", "/v1/drain", ""); w.Code != http.StatusAccepted {
		t.Fatalf("drain: %d", w.Code)
	}
	waitFor(t, func() bool {
		code, r := readyz()
		return code == http.StatusServiceUnavailable && r.Draining && !r.Ready
	})
	if w, _ := f.do(t, "GET", "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", w.Code)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMetricsIncludeIngest(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	if w, _ := f.batch(t, `[{"nodes":1,"runtime_s":60},{"nodes":2,"runtime_s":60}]`); w.Code != http.StatusOK {
		t.Fatalf("batch: %d", w.Code)
	}

	// JSON: the report grows an ingest section.
	w, resp := f.do(t, "GET", "/v1/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	ing, ok := resp["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing ingest section: %v", resp)
	}
	if ing["committed"] != float64(2) {
		t.Fatalf("ingest section %v, want committed=2", ing)
	}

	// Prometheus text: ingest counters and the latency histogram.
	r := httptest.NewRequest("GET", "/v1/metrics", nil)
	r.Header.Set("Accept", "text/plain;version=0.0.4,*/*;q=0.1")
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, r)
	body := rec.Body.String()
	for _, want := range []string{
		"schedsearch_ingest_pending 0",
		"schedsearch_ingest_committed_total 2",
		"schedsearch_ingest_batches_total 1",
		"schedsearch_ingest_accept_latency_seconds_bucket{le=\"+Inf\"} 2",
		"schedsearch_ingest_accept_latency_seconds_count 2",
		"schedsearch_journal_tail_events",
		"schedsearch_journal_syncs_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	if rec.Header().Get("Content-Type") != promContentType {
		t.Errorf("content type %q", rec.Header().Get("Content-Type"))
	}
}

func TestMetricsWithoutIngestHaveNoIngestSection(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	_, resp := f.do(t, "GET", "/v1/metrics", "")
	if _, ok := resp["ingest"]; ok {
		t.Fatalf("bare-engine metrics grew an ingest section: %v", resp)
	}
	r := httptest.NewRequest("GET", "/v1/metrics", nil)
	r.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, r)
	if strings.Contains(rec.Body.String(), "schedsearch_ingest_") {
		t.Fatal("prom exposition exports ingest series without a queue")
	}
}

func TestBatchBodyTooLarge(t *testing.T) {
	f := newIngestFixture(t, 16, ingest.Config{}, nil)
	// One valid item padded past the 1 MiB body cap.
	big := fmt.Sprintf(`[{"nodes":1,"runtime_s":60},{"nodes":1,"runtime_s":%s60}]`,
		strings.Repeat(" ", maxBodyBytes))
	w, resp := f.do(t, "POST", "/v1/jobs", big)
	if w.Code != http.StatusRequestEntityTooLarge || resp["code"] != "body_too_large" {
		t.Fatalf("oversized body: %d %v", w.Code, resp)
	}
}
