package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/sim"
)

// panicPolicy panics on every decision; the engine must survive on the
// FCFS fallback.
type panicPolicy struct{}

func (panicPolicy) Name() string               { return "panic" }
func (panicPolicy) Decide(*sim.Snapshot) []int { panic("injected policy failure") }

// TestPolicyPanicFallback runs a whole trace against a policy that
// panics at every decision point. No panic may escape, every job must
// complete through the FCFS fallback, the recovered panics must be
// counted, and the committed schedule must satisfy the oracle.
func TestPolicyPanicFallback(t *testing.T) {
	const capacity = 16
	vc := NewVirtualClock()
	orc := oracle.New(capacity)
	e, err := New(Config{Capacity: capacity, Policy: panicPolicy{}, Clock: vc, Observer: orc})
	if err != nil {
		t.Fatal(err)
	}
	var submitted []job.Job
	at := job.Time(0)
	for i := 0; i < 40; i++ {
		spec := job.Job{
			Nodes:   1 + i%capacity,
			Runtime: job.Duration(30 + (i*97)%3600),
			User:    i % 4,
		}
		at += job.Time((i * 61) % 300)
		submitAt := at
		vc.AfterFunc(submitAt, func() {
			id, err := e.Submit(spec)
			if err != nil {
				t.Errorf("submit at t=%d: %v", submitAt, err)
				return
			}
			spec.ID = id
			spec.Submit = submitAt
			submitted = append(submitted, spec)
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatalf("engine died despite panic recovery: %v", err)
	}
	m := e.Metrics()
	if m.Engine.PolicyPanics == 0 {
		t.Fatal("no panics recovered from a policy that always panics")
	}
	if m.Engine.PolicyPanics != m.Engine.Decisions {
		t.Errorf("recovered %d panics over %d decisions, want every decision to panic",
			m.Engine.PolicyPanics, m.Engine.Decisions)
	}
	if got := len(e.Records()); got != len(submitted) {
		t.Fatalf("completed %d of %d jobs under the fallback", got, len(submitted))
	}
	if err := orc.Final(); err != nil {
		t.Errorf("oracle: %v", err)
	}
	if err := oracle.CheckRecords(capacity, submitted, e.Records()); err != nil {
		t.Errorf("record sweep: %v", err)
	}
}

// TestRebuildEdgeCases covers the checkpoint/rebuild failure modes: a
// corrupted journal must be rejected loudly, never replayed into an
// inconsistent engine.
func TestRebuildEdgeCases(t *testing.T) {
	cfg := func() Config {
		return Config{Capacity: 8, Policy: panicPolicy{}, Clock: NewVirtualClock()}
	}
	ok := job.Job{ID: 1, Nodes: 2, Runtime: 100, Request: 100}

	t.Run("empty-checkpoint", func(t *testing.T) {
		e, err := Rebuild(cfg(), Checkpoint{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(e.Records()); n != 0 {
			t.Fatalf("empty checkpoint rebuilt %d records", n)
		}
	})
	t.Run("draining-preserved", func(t *testing.T) {
		e, err := Rebuild(cfg(), Checkpoint{Draining: true})
		if err != nil {
			t.Fatal(err)
		}
		if !e.Draining() {
			t.Fatal("Draining flag lost across rebuild")
		}
		if _, err := e.Submit(job.Job{Nodes: 1, Runtime: 10}); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit on rebuilt draining engine: %v, want ErrDraining", err)
		}
	})
	bad := []struct {
		name   string
		events []Event
	}{
		{"duplicate-submit", []Event{
			{Kind: EvSubmit, At: 0, Job: ok},
			{Kind: EvSubmit, At: 5, Job: ok},
		}},
		{"invalid-job", []Event{
			{Kind: EvSubmit, At: 0, Job: job.Job{ID: 1, Nodes: 99, Runtime: 10}},
		}},
		{"start-unknown-job", []Event{
			{Kind: EvDecide, At: 0, Starts: []Start{{ID: 42, NodeIDs: []int{0}}}},
		}},
		{"estimate-unknown-job", []Event{
			{Kind: EvDecide, At: 0, Estimates: []Estimate{{ID: 42, Estimate: 10}}},
		}},
		{"finish-nothing-due", []Event{
			{Kind: EvFinish, At: 50, ID: 1},
		}},
		{"finish-wrong-time", []Event{
			{Kind: EvSubmit, At: 0, Job: ok},
			{Kind: EvDecide, At: 0, Estimates: []Estimate{{ID: 1, Estimate: 100}}, Starts: []Start{{ID: 1, NodeIDs: []int{0, 1}}}},
			{Kind: EvFinish, At: 50, ID: 1},
		}},
		{"reallocated-nodes", []Event{
			{Kind: EvSubmit, At: 0, Job: ok},
			{Kind: EvDecide, At: 0, Estimates: []Estimate{{ID: 1, Estimate: 100}}, Starts: []Start{{ID: 1, NodeIDs: []int{6, 7}}}},
		}},
		{"start-twice", []Event{
			{Kind: EvSubmit, At: 0, Job: ok},
			{Kind: EvDecide, At: 0, Estimates: []Estimate{{ID: 1, Estimate: 100}}, Starts: []Start{{ID: 1, NodeIDs: []int{0, 1}}, {ID: 1, NodeIDs: []int{2, 3}}}},
		}},
		{"unknown-kind", []Event{
			{Kind: EventKind(99), At: 0},
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Rebuild(cfg(), Checkpoint{Events: tc.events}); err == nil {
				t.Fatal("corrupted journal accepted")
			}
		})
	}
}

// TestDrainShutdownOrdering races concurrent submitters against Drain
// and a metrics scraper on a fast real clock (run under -race): every
// job the engine accepted must complete exactly once, every rejected
// submit must have failed with ErrDraining, and nothing may be lost or
// double-counted across the shutdown.
func TestDrainShutdownOrdering(t *testing.T) {
	const (
		capacity = 32
		workers  = 8
		perW     = 25
	)
	e, err := New(Config{
		Capacity: capacity,
		Policy:   panicPolicy{}, // worst case: every decision takes the fallback path
		Clock:    NewRealClock(36000),
	})
	if err != nil {
		t.Fatal(err)
	}

	// attempted is bumped before each Submit and rejected after a
	// refused one, so at any instant the engine holds at most
	// attempted-rejected jobs, whatever the submitters have yet to tally.
	var attempted, accepted, rejected int64
	var submitWG sync.WaitGroup
	drainAfter := int64(workers * perW / 2)
	drainOnce := sync.OnceFunc(func() { go e.Drain(context.Background()) })
	for g := 0; g < workers; g++ {
		submitWG.Add(1)
		go func(g int) {
			defer submitWG.Done()
			for k := 0; k < perW; k++ {
				atomic.AddInt64(&attempted, 1)
				_, err := e.Submit(job.Job{
					Nodes:   1 + (g*5+k)%capacity,
					Runtime: job.Duration(1 + (g*37+k*11)%120),
					User:    g,
				})
				switch {
				case err == nil:
					if atomic.AddInt64(&accepted, 1) >= drainAfter {
						drainOnce()
					}
				case errors.Is(err, ErrDraining):
					atomic.AddInt64(&rejected, 1)
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(g)
	}

	// Scrape metrics and snapshots concurrently with submits and drain.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Read rejected before the scrape and attempted after it: a
			// job the scrape counts was attempted by then and is never
			// rejected, while accepted may not have been bumped yet.
			rej := atomic.LoadInt64(&rejected)
			m := e.Metrics()
			att := atomic.LoadInt64(&attempted)
			if got := int64(m.Jobs.Waiting + m.Jobs.Running + m.Jobs.Done); got > att-rej {
				t.Errorf("metrics count %d jobs, only %d attempted and %d of them rejected", got, att, rej)
			}
			e.Queue()
			e.Machine()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	submitWG.Wait()
	drainOnce() // all submits accepted without tripping the threshold
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapeWG.Wait()

	acc, rej := atomic.LoadInt64(&accepted), atomic.LoadInt64(&rejected)
	if acc+rej != workers*perW {
		t.Fatalf("accepted %d + rejected %d != %d submitted", acc, rej, workers*perW)
	}
	recs := e.Records()
	if int64(len(recs)) != acc {
		t.Fatalf("drained with %d records for %d accepted jobs", len(recs), acc)
	}
	seen := make(map[int]bool, len(recs))
	for _, r := range recs {
		if seen[r.Job.ID] {
			t.Fatalf("job %d completed twice", r.Job.ID)
		}
		seen[r.Job.ID] = true
	}
	m := e.Metrics()
	if m.Jobs.Waiting != 0 || m.Jobs.Running != 0 || int64(m.Jobs.Done) != acc {
		t.Fatalf("post-drain job counts %+v, want all %d done", m.Jobs, acc)
	}
}
