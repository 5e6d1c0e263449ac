package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/federation"
	"schedsearch/internal/obs"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
)

// TestAcceptsPromText pins the content-negotiation rule: Prometheus
// text only on a strict text/plain preference, JSON otherwise.
func TestAcceptsPromText(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{"text/plain", true},
		{"text/*", true},
		{"TEXT/PLAIN", true},
		{"text/plain; version=0.0.4", true},
		// The canonical Prometheus scraper header.
		{"text/plain;version=0.0.4;q=0.5, */*;q=0.1", true},
		// Explicit JSON preference beats a weaker text preference.
		{"application/json, text/plain;q=0.5", false},
		{"text/plain;q=0.2, application/json;q=0.9", false},
		// Equal preference ties to JSON.
		{"text/plain, application/json", false},
		{"text/plain;q=0.8, */*;q=0.8", false},
		// Garbage q-values fall back to 1.
		{"text/plain;q=banana, application/json;q=0.5", true},
		{"text/html", false},
	}
	for _, tc := range cases {
		if got := acceptsPromText(tc.accept); got != tc.want {
			t.Errorf("acceptsPromText(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestMetricsContentNegotiation drives GET /v1/metrics through both
// representations against a live engine backend.
func TestMetricsContentNegotiation(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	w, _ := f.do(t, "POST", "/v1/jobs", `{"nodes":4,"runtime_s":3600}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d", w.Code)
	}

	jsonReq := httptest.NewRequest("GET", "/v1/metrics", nil)
	jsonReq.Header.Set("Accept", "application/json")
	jw := httptest.NewRecorder()
	f.srv.ServeHTTP(jw, jsonReq)
	if ct := jw.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON content type %q", ct)
	}
	var m engine.Metrics
	if err := json.Unmarshal(jw.Body.Bytes(), &m); err != nil {
		t.Fatalf("JSON body: %v", err)
	}
	if m.Capacity != 8 {
		t.Errorf("JSON metrics capacity %d, want 8", m.Capacity)
	}

	promReq := httptest.NewRequest("GET", "/v1/metrics", nil)
	promReq.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5, */*;q=0.1")
	pw := httptest.NewRecorder()
	f.srv.ServeHTTP(pw, promReq)
	if ct := pw.Header().Get("Content-Type"); ct != promContentType {
		t.Fatalf("prom content type %q", ct)
	}
	body := pw.Body.String()
	for _, want := range []string{
		"# TYPE schedsearch_jobs gauge",
		"schedsearch_capacity_nodes 8",
		`schedsearch_jobs{state="waiting"} 1`,
		"# TYPE schedsearch_decisions_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom body missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "schedsearch_shard_util") {
		t.Error("bare engine exposition leaked federation metrics")
	}
}

// TestPromSearchNodesToBest: a cold search policy exports the node count
// at which each decision found its incumbent, like every other search
// counter.
func TestPromSearchNodesToBest(t *testing.T) {
	f := newFixture(t, 8, core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 100))
	for _, body := range []string{`{"nodes":8,"runtime_s":3600}`, `{"nodes":4,"runtime_s":600}`, `{"nodes":2,"runtime_s":60}`} {
		if w, _ := f.do(t, "POST", "/v1/jobs", body); w.Code != http.StatusCreated {
			t.Fatalf("submit %s: %d", body, w.Code)
		}
	}
	f.vc.RunDue()
	want := f.e.Metrics().Engine.SearchNodesToBest
	if want == 0 {
		t.Fatal("the search reported no nodes-to-best")
	}
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, req)
	if line := fmt.Sprintf("schedsearch_search_nodes_to_best_total %d\n", want); !strings.Contains(w.Body.String(), line) {
		t.Errorf("prom body missing %q:\n%s", line, w.Body.String())
	}
}

// TestServerFederation serves a federation router: submissions route
// through it, /v1/federation reports the shard geometry, and the
// Prometheus exposition grows per-shard series.
func TestServerFederation(t *testing.T) {
	vc := engine.NewVirtualClock()
	r, err := federation.New(federation.Config{
		Capacity: 64,
		Shards:   4,
		Clock:    vc,
		Policy:   func(int) sim.Policy { return policy.FCFSBackfill() },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(r, nil)

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"nodes":8,"runtime_s":600}`)))
	if w.Code != http.StatusCreated {
		t.Fatalf("submit through router: %d %s", w.Code, w.Body.String())
	}

	// A job wider than every 16-node shard is a 400, not a 500.
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"nodes":17,"runtime_s":600}`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("too-wide job: %d %s", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/federation", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/federation: %d", w.Code)
	}
	var fm engine.FederationMetrics
	if err := json.Unmarshal(w.Body.Bytes(), &fm); err != nil {
		t.Fatalf("federation body: %v", err)
	}
	if fm.Shards != 4 || len(fm.PerShard) != 4 || fm.Placement == "" {
		t.Fatalf("federation report %+v", fm)
	}
	if fm.RoutingDecisions != 1 {
		t.Errorf("routing decisions %d, want 1", fm.RoutingDecisions)
	}
	if fm.Global.Capacity != 64 {
		t.Errorf("global capacity %d, want 64", fm.Global.Capacity)
	}

	promReq := httptest.NewRequest("GET", "/v1/metrics", nil)
	promReq.Header.Set("Accept", "text/plain")
	pw := httptest.NewRecorder()
	srv.ServeHTTP(pw, promReq)
	body := pw.Body.String()
	for _, want := range []string{
		"schedsearch_shards 4",
		`schedsearch_shard_util{shard="3"}`,
		"# TYPE schedsearch_migrations_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("federated prom body missing %q", want)
		}
	}

	// A bare-engine server must not register the federation route.
	bare := newFixture(t, 8, policy.FCFSBackfill())
	w = httptest.NewRecorder()
	bare.srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/federation", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("bare engine GET /v1/federation: %d, want 404", w.Code)
	}
}

// TestPromRuntimeJournalAndSpanSeries pins the observability series of
// the Prometheus exposition: process runtime gauges (always on), the
// journal fsync latency histogram (once the journal has synced), and
// the per-span-name duration counters (when the server carries a
// tracer).
func TestPromRuntimeJournalAndSpanSeries(t *testing.T) {
	vc := engine.NewVirtualClock()
	fj, err := engine.OpenFileJournal(t.TempDir()+"/j.journal", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	tr := obs.NewTracer(obs.TracerOptions{Seed: 7})
	e, err := engine.New(engine.Config{
		Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc,
		Journal: fj, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(e, nil, WithTracer(tr, 0))

	// One traced submit (continues the wire header: an "admit" span)
	// and one untraced ("submit" span, minted here).
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"nodes":2,"runtime_s":600}`))
	req.Header.Set(obs.TraceHeader, "00000000000000ab-00000000000000cd")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("traced submit: %d %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs",
		strings.NewReader(`{"nodes":1,"runtime_s":600}`)))
	if w.Code != http.StatusCreated {
		t.Fatalf("untraced submit: %d %s", w.Code, w.Body.String())
	}

	promReq := httptest.NewRequest("GET", "/v1/metrics", nil)
	promReq.Header.Set("Accept", "text/plain")
	pw := httptest.NewRecorder()
	srv.ServeHTTP(pw, promReq)
	body := pw.Body.String()
	for _, want := range []string{
		// Runtime self-metrics are unconditional.
		"# TYPE schedsearch_goroutines gauge",
		"schedsearch_heap_alloc_bytes ",
		"schedsearch_gc_cycles_total ",
		// The group-commit journal (group 1) fsynced both submits.
		`schedsearch_journal_fsync_seconds_bucket{le="+Inf"} 2`,
		"schedsearch_journal_fsync_seconds_count 2",
		"schedsearch_journal_fsync_seconds_sum ",
		// One continued trace, one minted trace.
		`schedsearch_spans_total{span="admit"} 1`,
		`schedsearch_spans_total{span="submit"} 1`,
		`schedsearch_span_seconds_total{span="admit"} `,
		"schedsearch_spans_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom body missing %q", want)
		}
	}

	// An untraced server must not emit span series, and a journal-less
	// engine must not emit the fsync histogram.
	bare := newFixture(t, 8, policy.FCFSBackfill())
	pw = httptest.NewRecorder()
	bare.srv.ServeHTTP(pw, promReq)
	body = pw.Body.String()
	if strings.Contains(body, "schedsearch_spans_total") {
		t.Error("untraced exposition leaked span series")
	}
	if strings.Contains(body, "schedsearch_journal_fsync_seconds") {
		t.Error("journal-less exposition leaked the fsync histogram")
	}
	if !strings.Contains(body, "schedsearch_goroutines") {
		t.Error("runtime gauges should be unconditional")
	}
}
