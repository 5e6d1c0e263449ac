package policy

import (
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

func TestWeightedPriorityComponents(t *testing.T) {
	now := job.Time(2 * job.Hour)
	w := wjob(1, 0, 8, job.Hour) // waited 2h, est 1h, 8 nodes

	cases := []struct {
		p    WeightedPriority
		want float64
	}{
		{WeightedPriority{WaitWeight: 1}, 2},                   // 2 hours waited
		{WeightedPriority{XFactorWeight: 1}, 3},                // (2h+1h)/1h
		{WeightedPriority{NodesWeight: 1}, 8},                  // nodes
		{WeightedPriority{ShortWeight: 1}, -1},                 // -est hours
		{WeightedPriority{WaitWeight: 1, NodesWeight: 0.5}, 6}, // 2 + 4
	}
	for _, c := range cases {
		if got := c.p.Score(&w, now); got != c.want {
			t.Errorf("%s.Score = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

func TestWeightedPriorityNames(t *testing.T) {
	if got := (WeightedPriority{WaitWeight: 1}).Name(); got != "W(1,0,0,0)" {
		t.Errorf("Name = %q", got)
	}
	if got := MauiDefault().Name(); got != "Maui-default" {
		t.Errorf("Name = %q", got)
	}
	if got := NewWeightedBackfill(MauiDefault()).Name(); got != "Maui-default-backfill" {
		t.Errorf("backfill Name = %q", got)
	}
}

func TestWeightedPriorityNegativeWaitClamped(t *testing.T) {
	p := WeightedPriority{WaitWeight: 1}
	w := wjob(1, 100, 1, 60)
	if got := p.Score(&w, 50); got != 0 {
		t.Errorf("future-submitted job scored %v, want 0", got)
	}
}

func TestMultiQueueRouting(t *testing.T) {
	m := NewMultiQueue()
	cases := []struct {
		est  job.Duration
		want string
	}{
		{30 * job.Minute, "short"},
		{job.Hour, "short"},
		{job.Hour + 1, "medium"},
		{5 * job.Hour, "medium"},
		{5*job.Hour + 1, "long"},
		{24 * job.Hour, "long"},
	}
	for _, c := range cases {
		w := wjob(1, 0, 1, c.est)
		ci := m.classOf(&w)
		if got := m.Classes[ci].Name; got != c.want {
			t.Errorf("est %d routed to %q, want %q", c.est, got, c.want)
		}
	}
}

func TestMultiQueuePrefersHighPriorityClass(t *testing.T) {
	// A later-submitted short job must outrank an earlier long job.
	m := NewMultiQueue()
	queue := []sim.WaitingJob{
		wjob(1, 0, 4, 10*job.Hour),     // long, first
		wjob(2, 100, 4, 30*job.Minute), // short, later
	}
	order := orderOf(snapOf(1000, 4, nil, queue), queuePriority{m: m})
	if order[0] != 1 {
		t.Errorf("order = %v, want the short job first", order)
	}
}

func TestMultiQueueStarvesLongQueueUnderShortStream(t *testing.T) {
	// The paper's criticism of queue-based priority: a steady stream of
	// short jobs starves the long queue. A long 4-node job arrives at
	// t=10; 4-node short (30 min) jobs arrive every 1800s. MultiQueue
	// keeps picking the short queue; FCFS-backfill serves arrival order.
	var jobs []job.Job
	id := 1
	add := func(submit job.Time, runtime job.Duration) {
		jobs = append(jobs, job.Job{ID: id, Submit: submit, Nodes: 4,
			Runtime: runtime, Request: runtime})
		id++
	}
	add(0, 1800)        // initial short job running
	add(10, 8*job.Hour) // the long job
	for i := 1; i <= 30; i++ {
		add(job.Time(i)*1800-100, 1800)
	}
	startOfLong := func(p sim.Policy) job.Time {
		res, err := sim.Run(sim.Input{Capacity: 4, Jobs: append([]job.Job(nil), jobs...)}, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			if r.Job.ID == 2 {
				return r.Start
			}
		}
		t.Fatal("long job never ran")
		return 0
	}
	mq := startOfLong(NewMultiQueue())
	fcfs := startOfLong(FCFSBackfill())
	if fcfs > 2*1800 {
		t.Errorf("FCFS-backfill delayed the long job to %d", fcfs)
	}
	if mq < 10*1800 {
		t.Errorf("MultiQueue started the long job at %d; expected starvation behind the short stream", mq)
	}
}

func TestMultiQueueString(t *testing.T) {
	if got := NewMultiQueue().String(); got != "MultiQueue[short(p3) medium(p2) long(p1)]" {
		t.Errorf("String = %q", got)
	}
	if got := NewMultiQueue().Name(); got != "MultiQueue-backfill" {
		t.Errorf("Name = %q", got)
	}
}

func TestMultiQueueMaxNodesRouting(t *testing.T) {
	m := &MultiQueue{Classes: []QueueClass{
		{Name: "narrow", MaxNodes: 8, Priority: 2},
		{Name: "wide", Priority: 1},
	}, Reservations: 1}
	narrow, wide := wjob(1, 0, 4, job.Hour), wjob(1, 0, 64, job.Hour)
	if ci := m.classOf(&narrow); m.Classes[ci].Name != "narrow" {
		t.Errorf("4-node job routed to %q", m.Classes[ci].Name)
	}
	if ci := m.classOf(&wide); m.Classes[ci].Name != "wide" {
		t.Errorf("64-node job routed to %q", m.Classes[ci].Name)
	}
}
