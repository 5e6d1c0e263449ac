package engine

import (
	"context"
	"testing"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
)

func newVirtualEngine(t *testing.T, capacity int, pol sim.Policy) (*Engine, *VirtualClock) {
	t.Helper()
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: capacity, Policy: pol, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	return e, vc
}

func TestEngineLifecycle(t *testing.T) {
	e, vc := newVirtualEngine(t, 4, policy.FCFSBackfill())
	id, err := e.Submit(job.Job{Nodes: 2, Runtime: 100, Request: 100})
	if err != nil {
		t.Fatal(err)
	}
	st, ok, _ := e.Job(id)
	if !ok || st.State != StateWaiting {
		t.Fatalf("before decide: state %v, want waiting", st.State)
	}
	vc.RunDue() // fire the coalesced decision at t=0
	st, _, _ = e.Job(id)
	if st.State != StateRunning || st.Start != 0 || len(st.NodeIDs) != 2 {
		t.Fatalf("after decide: %+v, want running at t=0 on 2 nodes", st)
	}
	m, _ := e.Machine()
	if m.FreeNodes != 2 || len(m.Running) != 1 {
		t.Fatalf("machine %+v, want 2 free, 1 running", m)
	}
	vc.AdvanceTo(100)
	st, _, _ = e.Job(id)
	if st.State != StateDone || st.End != 100 {
		t.Fatalf("after completion: %+v, want done at t=100", st)
	}
	met := e.Metrics()
	if met.Jobs.Done != 1 || met.Engine.Decisions != 1 {
		t.Fatalf("metrics %+v, want 1 done, 1 decision", met)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineQueuesWhenFull(t *testing.T) {
	e, vc := newVirtualEngine(t, 4, policy.FCFSBackfill())
	a, _ := e.Submit(job.Job{Nodes: 4, Runtime: 50, Request: 50})
	vc.RunDue()
	b, _ := e.Submit(job.Job{Nodes: 4, Runtime: 50, Request: 50})
	vc.RunDue()
	if st, _, _ := e.Job(b); st.State != StateWaiting {
		t.Fatalf("job %d state %v, want waiting behind job %d", b, st.State, a)
	}
	if q, _ := e.Queue(); len(q) != 1 || q[0].Job.ID != b {
		t.Fatalf("queue %+v, want just job %d", q, b)
	}
	vc.Run() // completes a at t=50, starts b, completes b at t=100
	if st, _, _ := e.Job(b); st.State != StateDone || st.Start != 50 || st.End != 100 {
		t.Fatalf("job %d %+v, want start=50 end=100", b, st)
	}
}

func TestEngineSubmitValidation(t *testing.T) {
	e, _ := newVirtualEngine(t, 4, policy.FCFSBackfill())
	if _, err := e.Submit(job.Job{Nodes: 0, Runtime: 10}); err == nil {
		t.Fatal("zero-node job accepted")
	}
	if _, err := e.Submit(job.Job{Nodes: 8, Runtime: 10}); err == nil {
		t.Fatal("job wider than the machine accepted")
	}
	if _, err := e.Submit(job.Job{Nodes: 2, Runtime: -1}); err == nil {
		t.Fatal("negative runtime accepted")
	}
}

func TestEngineDrain(t *testing.T) {
	e, vc := newVirtualEngine(t, 4, policy.FCFSBackfill())
	if _, err := e.Submit(job.Job{Nodes: 1, Runtime: 30, Request: 30}); err != nil {
		t.Fatal(err)
	}
	vc.RunDue()

	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	for !e.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(job.Job{Nodes: 1, Runtime: 1, Request: 1}); err != ErrDraining {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	vc.Run() // finish the running job
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
}

func TestEngineDrainContextCancel(t *testing.T) {
	e, vc := newVirtualEngine(t, 4, policy.FCFSBackfill())
	e.Submit(job.Job{Nodes: 1, Runtime: 1000, Request: 1000})
	vc.RunDue()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Drain(ctx); err != context.Canceled {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
}

// stallPolicy refuses to start anything, which on an idle machine is a
// fatal policy bug the engine must surface rather than hang on.
type stallPolicy struct{}

func (stallPolicy) Name() string               { return "stall" }
func (stallPolicy) Decide(*sim.Snapshot) []int { return nil }

func TestEngineFatalOnStalledPolicy(t *testing.T) {
	e, vc := newVirtualEngine(t, 4, stallPolicy{})
	e.Submit(job.Job{Nodes: 1, Runtime: 10, Request: 10})
	vc.Run()
	if err := e.Err(); err == nil {
		t.Fatal("no fatal error after policy stalled on idle machine")
	}
	if _, err := e.Submit(job.Job{Nodes: 1, Runtime: 10, Request: 10}); err == nil {
		t.Fatal("submit accepted after fatal error")
	}
	if m := e.Metrics(); m.Error == "" {
		t.Fatal("metrics hide the fatal error")
	}
	if err := e.Drain(context.Background()); err == nil {
		t.Fatal("Drain reports success after fatal error")
	}
}

func TestEngineRealClock(t *testing.T) {
	// 6000 engine seconds per wall second: a 600-second job runs for
	// ~100ms of wall time.
	e, err := New(Config{Capacity: 4, Policy: policy.FCFSBackfill(), Clock: NewRealClock(6000)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Submit(job.Job{Nodes: 2, Runtime: 600, Request: 600}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	for _, r := range recs {
		if r.End != r.Start+600 {
			t.Fatalf("record %+v: end != start+600", r)
		}
	}
}
