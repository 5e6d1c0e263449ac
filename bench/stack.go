package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/obs"
	"schedsearch/internal/server"
	"schedsearch/internal/sim"
)

// The serving stack runs at the daemon's shipped defaults (cmd/schedd):
// group commit of 64 journal appends, a 4096-item accept queue, commit
// groups of at most 64 items. The benchmark adds no knob of its own.
const (
	groupCommit   = 64
	ingestPending = 4096
	ingestBatch   = 64
)

// stackOpts describes one single-node serving stack.
type stackOpts struct {
	Policy   sim.Policy
	Capacity int
	Clock    engine.Clock
	// JournalPath is the engine's journal file; writes and fsyncs are
	// real.
	JournalPath string
	// Quotas turns per-user token buckets on, sized so that an honest
	// load never trips them: their bookkeeping is measured, not their
	// rejections.
	Quotas bool
	// In, when set, supplies the measurement window and measured flags.
	In *sim.Input
	// Marks, when set, has the journal's device time taken out of the
	// segment it falls in.
	Marks *marks
	// Rec and Tracer are set on traced rounds only: the decorators go
	// on the seams, and the product's own tracer is attached.
	Rec    *recorder
	Tracer *obs.Tracer
}

// stack is a server.Server with WithIngest over ingest.Queue over
// engine.Engine over engine.FileJournal, listening on loopback TCP.
type stack struct {
	Eng     *engine.Engine
	Journal *engine.FileJournal
	TJ      *timedJournal // nil on untraced rounds
	Queue   *ingest.Queue
	URL     string
	Client  *http.Client

	path   string
	srv    *http.Server
	served chan struct{}
}

func bootStack(o stackOpts) (*stack, error) {
	fj, err := engine.OpenFileJournal(o.JournalPath, groupCommit)
	if err != nil {
		return nil, err
	}
	s := &stack{Journal: fj, path: o.JournalPath}
	var sink engine.JournalSink = fj
	if o.Marks != nil {
		sink = &deviceTimer{inner: sink, mk: o.Marks}
	}
	if o.Rec != nil {
		s.TJ = &timedJournal{inner: sink, rec: o.Rec}
		sink = s.TJ
	}
	cfg := engine.Config{
		Capacity: o.Capacity,
		Policy:   o.Policy,
		Clock:    o.Clock,
		Journal:  sink,
		Tracer:   o.Tracer,
	}
	if o.In != nil {
		cfg.UseRequested = o.In.UseRequested
		cfg.MeasureStart, cfg.MeasureEnd = o.In.MeasureStart, o.In.MeasureEnd
		if measured := o.In.Measured; measured != nil {
			cfg.Measured = func(id int) bool { return measured[id] }
		}
	}
	s.Eng, err = engine.New(cfg)
	if err != nil {
		fj.Close()
		return nil, err
	}
	var backend ingest.Backend = s.Eng
	if o.Rec != nil {
		backend = &timedBackend{inner: s.Eng, rec: o.Rec}
	}
	qcfg := ingest.Config{Backend: backend, MaxPending: ingestPending, MaxBatch: ingestBatch}
	if o.Quotas {
		qcfg.Quotas = ingest.NewQuotas(1000, 256, s.Eng.Now)
	}
	s.Queue, err = ingest.NewQueue(qcfg)
	if err != nil {
		fj.Close()
		return nil, err
	}
	opts := []server.Option{server.WithIngest(s.Queue)}
	if o.Tracer != nil {
		opts = append(opts, server.WithTracer(o.Tracer, 0))
	}
	var handler http.Handler = server.New(s.Eng, nil, opts...)
	if o.Rec != nil {
		handler = &timedHandler{inner: handler, rec: o.Rec}
	}
	s.URL, s.srv, s.served, err = serveLoopback(handler)
	if err != nil {
		s.Queue.Close()
		fj.Close()
		return nil, err
	}
	s.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return s, nil
}

// serveLoopback serves the handler on a fresh loopback TCP listener;
// served is closed when the serving goroutine has returned.
func serveLoopback(h http.Handler) (url string, srv *http.Server, served chan struct{}, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv = &http.Server{Handler: h}
	served = make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), srv, served, nil
}

// close tears the stack down, waits for its goroutines and removes the
// journal file; the journal's size is returned for the bytes-per-job
// metric.
func (s *stack) close() (journalBytes int64, err error) {
	s.srv.Close()
	<-s.served
	s.Client.CloseIdleConnections()
	s.Queue.Close()
	err = s.Journal.Close()
	if st, serr := os.Stat(s.path); serr == nil {
		journalBytes = st.Size()
	}
	os.Remove(s.path)
	return journalBytes, err
}

// post sends one POST /v1/jobs body and returns the status and the
// response body. parent, when non-zero, is the client-side span the
// request belongs to.
func post(c *http.Client, url string, body []byte, parent int32) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(parent)))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newTracer returns a product tracer on the wall clock, so its spans and
// the benchmark's line up on one timeline.
func newTracer(seed uint64, jobs int) *obs.Tracer {
	return obs.NewTracer(obs.TracerOptions{Seed: seed | 1, Now: time.Now, MaxSpans: 1 << 20, MaxJobs: jobs + 1024})
}
