package policy

import (
	"fmt"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// QueueClass is one class of a multi-queue scheduler: jobs whose
// estimate falls in (0, MaxRuntime] and whose size falls within
// MaxNodes route to the first matching class.
type QueueClass struct {
	// Name labels the queue ("short", "medium", "long").
	Name string
	// MaxRuntime admits jobs with estimates up to this bound
	// (0 = unbounded).
	MaxRuntime job.Duration
	// MaxNodes admits jobs up to this width (0 = unbounded).
	MaxNodes int
	// Priority orders the queues: higher drains first.
	Priority int
}

// MultiQueue is the PBS/LSF-style queue-based priority scheduler of the
// paper's introduction: jobs are routed to classes by size, classes are
// served strictly by priority (FCFS within a class), with EASY backfill
// across the whole queue. The paper's criticism — low-priority queues
// can starve — is demonstrated by the queue-based experiment and the
// starvation test.
type MultiQueue struct {
	Classes []QueueClass
	// Reservations protects the head of the highest-priority non-empty
	// class (1 = EASY-style).
	Reservations int
	bf           Backfill // kept, so its scratch serves every decision
}

// NewMultiQueue returns the conventional three-queue configuration:
// short jobs (<= 1h) highest priority, medium (<= 5h), then long.
func NewMultiQueue() *MultiQueue {
	return &MultiQueue{
		Classes: []QueueClass{
			{Name: "short", MaxRuntime: job.Hour, Priority: 3},
			{Name: "medium", MaxRuntime: 5 * job.Hour, Priority: 2},
			{Name: "long", Priority: 1},
		},
		Reservations: 1,
	}
}

// Name implements sim.Policy.
func (m *MultiQueue) Name() string { return "MultiQueue-backfill" }

// classOf routes a job to the first matching class index.
func (m *MultiQueue) classOf(w *sim.WaitingJob) int {
	for i, c := range m.Classes {
		if c.MaxRuntime > 0 && w.Estimate > c.MaxRuntime {
			continue
		}
		if c.MaxNodes > 0 && w.Job.Nodes > c.MaxNodes {
			continue
		}
		return i
	}
	return len(m.Classes) - 1 // last class is the catch-all
}

// queuePriority scores a job: class priority dominates, FCFS within the
// class.
type queuePriority struct{ m *MultiQueue }

func (q queuePriority) Name() string { return "MultiQueue" }

func (q queuePriority) Score(w *sim.WaitingJob, _ job.Time) float64 {
	ci := q.m.classOf(w)
	// Class priority dominates; earlier submits win within a class.
	// Submit times fit comfortably in float64's integer range.
	return float64(q.m.Classes[ci].Priority)*1e15 - float64(w.Job.Submit)
}

// Decide implements sim.Policy: EASY backfill over the class-then-FCFS
// priority order.
func (m *MultiQueue) Decide(snap *sim.Snapshot) []int {
	if len(m.Classes) == 0 {
		panic("policy: MultiQueue with no classes")
	}
	m.bf.Priority, m.bf.Reservations = queuePriority{m: m}, m.Reservations
	return m.bf.Decide(snap)
}

// String describes the configuration.
func (m *MultiQueue) String() string {
	s := "MultiQueue["
	for i, c := range m.Classes {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s(p%d)", c.Name, c.Priority)
	}
	return s + "]"
}
