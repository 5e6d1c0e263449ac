package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/obs"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
)

type fixture struct {
	srv *Server
	vc  *engine.VirtualClock
	e   *engine.Engine
	// drained is closed when onDrained fires.
	drained chan struct{}
}

func newFixture(t *testing.T, capacity int, pol sim.Policy) *fixture {
	t.Helper()
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{Capacity: capacity, Policy: pol, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{vc: vc, e: e, drained: make(chan struct{})}
	f.srv = New(e, func() { close(f.drained) })
	return f
}

func (f *fixture) do(t *testing.T, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, r)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, w.Body.String())
	}
	return w, decoded
}

func TestServerSubmitAndLifecycle(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":4,"runtime_s":3600}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %v", w.Code, resp)
	}
	if resp["state"] != "waiting" || resp["id"] != float64(1) {
		t.Fatalf("submit response %v, want id=1 waiting", resp)
	}
	f.vc.RunDue() // decision point fires

	w, resp = f.do(t, "GET", "/v1/jobs/1", "")
	if w.Code != http.StatusOK || resp["state"] != "running" {
		t.Fatalf("job 1: %d %v, want running", w.Code, resp)
	}
	if resp["start_s"] != float64(0) {
		t.Fatalf("job 1 start %v, want 0", resp["start_s"])
	}

	f.vc.AdvanceTo(3600)
	w, resp = f.do(t, "GET", "/v1/jobs/1", "")
	if resp["state"] != "done" || resp["end_s"] != float64(3600) {
		t.Fatalf("job 1: %v, want done at 3600", resp)
	}
	if resp["bounded_slowdown"] != float64(1) {
		t.Fatalf("bounded slowdown %v, want 1 (no wait)", resp["bounded_slowdown"])
	}
}

func TestServerQueueAndMachine(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	f.do(t, "POST", "/v1/jobs", `{"nodes":4,"runtime_s":100}`)
	f.do(t, "POST", "/v1/jobs", `{"nodes":2,"runtime_s":100}`)
	f.vc.RunDue() // job 1 starts, job 2 queues behind it

	w, resp := f.do(t, "GET", "/v1/queue", "")
	if w.Code != http.StatusOK || resp["length"] != float64(1) {
		t.Fatalf("queue: %d %v, want length 1", w.Code, resp)
	}
	w, resp = f.do(t, "GET", "/v1/machine", "")
	if w.Code != http.StatusOK || resp["free_nodes"] != float64(0) || resp["capacity"] != float64(4) {
		t.Fatalf("machine: %d %v, want 0 free of 4", w.Code, resp)
	}
	running := resp["running"].([]any)
	if len(running) != 1 {
		t.Fatalf("machine running %v, want 1 job", running)
	}
}

func TestServerValidationAndNotFound(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	if w, _ := f.do(t, "POST", "/v1/jobs", `{"nodes":0,"runtime_s":10}`); w.Code != http.StatusBadRequest {
		t.Fatalf("zero-node submit: %d, want 400", w.Code)
	}
	if w, _ := f.do(t, "POST", "/v1/jobs", `not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", w.Code)
	}
	if w, _ := f.do(t, "GET", "/v1/jobs/99", ""); w.Code != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", w.Code)
	}
	if w, _ := f.do(t, "GET", "/v1/jobs/abc", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric id: %d, want 400", w.Code)
	}
	// The shard protocol of a bare engine serves its load, but no
	// checkpoint: no router reads one over the wire. Decisions are
	// audited from the journal (schedsim -audit), not served.
	for path, want := range map[string]int{
		"/v1/shard/load":       http.StatusOK,
		"/v1/shard/checkpoint": http.StatusNotFound,
		"/v1/debug/decisions":  http.StatusNotFound,
	} {
		w := httptest.NewRecorder()
		f.srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != want {
			t.Fatalf("GET %s: %d, want %d", path, w.Code, want)
		}
	}
}

func TestServerMetricsWithSearchPolicy(t *testing.T) {
	pol := core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 100)
	f := newFixture(t, 8, pol)
	for i := 0; i < 3; i++ {
		f.do(t, "POST", "/v1/jobs", `{"nodes":8,"runtime_s":600}`)
		f.vc.RunDue()
	}
	f.vc.Run() // drain all completions

	var m engine.Metrics
	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/metrics", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Policy != "DDS/lxf/dynB" {
		t.Fatalf("policy %q", m.Policy)
	}
	if m.Jobs.Done != 3 || m.Summary.Jobs != 3 {
		t.Fatalf("metrics %+v, want 3 done", m)
	}
	if m.Engine.Decisions == 0 || m.Engine.SearchNodes == 0 {
		t.Fatalf("engine counters %+v, want non-zero decisions and search nodes", m.Engine)
	}
	if m.Engine.SearchWallMs <= 0 || m.Engine.SearchSpeedup < 1 {
		t.Fatalf("engine counters %+v, want search wall time and speedup >= 1", m.Engine)
	}
	// Jobs 2 and 3 each waited 600s behind the previous full-machine
	// job: the running summary must reflect that.
	if m.Summary.AvgWaitH <= 0 || m.Summary.MaxWaitH < 0.3 {
		t.Fatalf("summary %+v, want positive waits", m.Summary)
	}
}

func TestServerDrain(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60}`)
	f.vc.RunDue()

	if w, _ := f.do(t, "POST", "/v1/drain", ""); w.Code != http.StatusAccepted {
		t.Fatalf("drain: %d, want 202", w.Code)
	}
	// Submissions are refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, _ := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":1}`)
		if w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: %d, want 503", w.Code)
		}
		time.Sleep(time.Millisecond)
	}
	f.vc.Run() // finish the running job
	select {
	case <-f.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("onDrained never fired")
	}
	if _, resp := f.do(t, "GET", "/v1/metrics", ""); resp["draining"] != true {
		t.Fatalf("metrics %v, want draining=true", resp)
	}
}

// noMetricsBackend is an engine whose Metrics must not be called.
type noMetricsBackend struct{ *engine.Engine }

func (noMetricsBackend) Metrics() engine.Metrics { panic("Metrics called") }

// TestServerDrainCountsWithoutMetrics: POST /v1/drain answers its two
// counts from the queue and the running set, never from Metrics, which
// summarizes the whole history under the engine lock.
func TestServerDrainCountsWithoutMetrics(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	f.srv = New(noMetricsBackend{f.e}, nil)
	for _, body := range []string{`{"nodes":4,"runtime_s":60}`, `{"nodes":2,"runtime_s":60}`, `{"nodes":2,"runtime_s":60}`} {
		if w, _ := f.do(t, "POST", "/v1/jobs", body); w.Code != http.StatusCreated {
			t.Fatalf("submit: %d", w.Code)
		}
	}
	f.vc.RunDue()
	w, resp := f.do(t, "POST", "/v1/drain", "")
	if w.Code != http.StatusAccepted || resp["draining"] != float64(2) || resp["running"] != float64(1) {
		t.Fatalf("drain: %d %v, want 202 with 2 waiting and 1 running", w.Code, resp)
	}
	f.vc.Run()
}

// TestDecisionsAuditedFromJournal: the decisions a server's submissions
// trigger are read back by auditing the engine's history, not from a
// route: every decision re-decides under the deciding policy, the
// records carry its name and start each submitted job once, and
// GET /v1/debug/decisions does not exist.
func TestDecisionsAuditedFromJournal(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	for i := 0; i < 2; i++ {
		if w, _ := f.do(t, "POST", "/v1/jobs", `{"nodes":2,"runtime_s":600}`); w.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body.String())
		}
		f.vc.RunDue() // fire the decision point
	}

	var recs []*obs.DecisionRecord
	err := engine.Audit(engine.Config{Capacity: 8, Policy: policy.FCFSBackfill()}, f.e.Checkpoint(),
		func(r *obs.DecisionRecord) { recs = append(recs, r) })
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if d := f.e.Metrics().Engine.Decisions; d < 2 || int64(len(recs)) != d {
		t.Fatalf("audit re-decided %d decisions, the engine made %d (want >= 2)", len(recs), d)
	}
	started := map[int]int{}
	for _, r := range recs {
		if r.Policy != "FCFS-backfill" {
			t.Errorf("decision policy %q", r.Policy)
		}
		for _, id := range r.Started {
			started[id]++
		}
	}
	if len(started) != 2 || started[1] != 1 || started[2] != 1 {
		t.Errorf("decisions started %v, want jobs 1 and 2 once each", started)
	}

	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/debug/decisions", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/debug/decisions: %d, want 404", w.Code)
	}
}

// TestServerSingleSubmitSyncsJournal: without an ingest queue there is
// no committer to force the group-commit boundary, so a 201 on the
// synchronous submit path must carry its own fsync — a group-buffered
// journal would otherwise lose acknowledged submits on crash.
func TestServerSingleSubmitSyncsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := engine.OpenFileJournal(path, 64) // group >> 1: Commit alone never syncs
	if err != nil {
		t.Fatal(err)
	}
	vc := engine.NewVirtualClock()
	e, err := engine.New(engine.Config{
		Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc, Journal: fj,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(e, nil)
	r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"nodes":4,"runtime_s":3600}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	if st := fj.Stats(); st.Syncs == 0 {
		t.Fatalf("acknowledged submit left %d appends unsynced (stats %+v)", st.Appends, st)
	}
	// The acknowledged submit is already on disk.
	cp, err := engine.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Events) == 0 || cp.Events[0].Kind != engine.EvSubmit {
		t.Fatalf("journal holds %d events, want the acknowledged EvSubmit first", len(cp.Events))
	}
}

// TestServerDeadBackend: an engine whose journal sits on a full device
// goes fatal on its first committed event. From then on no submission is
// the client's fault — the single, batched and shard-admit paths must
// answer 5xx with a code of their own instead of 400 invalid_job — and
// the daemon is not ready.
func TestServerDeadBackend(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	newDead := func(withIngest bool) *Server {
		fj, err := engine.OpenFileJournal("/dev/full", 1)
		if err != nil {
			t.Skipf("open /dev/full: %v", err)
		}
		e, err := engine.New(engine.Config{
			Capacity: 8, Policy: policy.FCFSBackfill(), Clock: engine.NewVirtualClock(), Journal: fj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !withIngest {
			return New(e, nil)
		}
		q, err := ingest.NewQueue(ingest.Config{Backend: e})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(q.Close)
		return New(e, nil, WithIngest(q))
	}
	const spec = `{"id":7,"nodes":4,"runtime_s":60,"request_s":60}`
	for _, tc := range []struct {
		name, method, path, body string
		ingest                   bool
	}{
		{"single submit", "POST", "/v1/jobs", spec, false},
		{"single submit through ingest", "POST", "/v1/jobs", spec, true},
		{"batched item", "POST", "/v1/jobs", "[" + spec + "]", true},
		{"shard admit", "POST", "/v1/shard/admit", `{"id":7,"submit_s":0,"nodes":4,"runtime_s":60,"request_s":60}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newDead(tc.ingest)
			// The first answer carries the ENOSPC itself, the second the
			// fatal error it left behind; neither is the job's fault.
			for attempt := 1; attempt <= 2; attempt++ {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
				status, code := w.Code, ""
				if batch := (BatchResponse{}); w.Code == http.StatusOK && json.Unmarshal(w.Body.Bytes(), &batch) == nil && len(batch.Items) == 1 {
					status, code = batch.Items[0].Status, batch.Items[0].Code
				} else {
					var er struct{ Code string }
					_ = json.Unmarshal(w.Body.Bytes(), &er)
					code = er.Code
				}
				if status != http.StatusInternalServerError || code != "backend_failed" {
					t.Fatalf("attempt %d: %d %q (%s), want 500 backend_failed", attempt, status, code, w.Body.String())
				}
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/readyz", nil))
			var ready ReadyResponse
			if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil || w.Code != http.StatusServiceUnavailable || ready.Ready {
				t.Fatalf("readyz of a dead backend: %d %s", w.Code, w.Body.String())
			}
		})
	}
}
