package chaos

import (
	"errors"
	"fmt"
	"sync"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// The accept queue's shape: a bound that a saturating run of jobs
// overflows, and token buckets (FaultQuotaStorm's) that refill too
// slowly to absorb the hot user's run.
const (
	maxPending, maxBatch  = 32, 16
	quotaRate, quotaBurst = 0.001, 5
	saturationRun         = maxPending + 8   // FaultSaturation's run of jobs
	quotaStorm            = 2*quotaBurst + 4 // the hot user's run of jobs
	hotUser               = 0                // every other job is its own user
)

// IngestResult is the outcome of one ingest chaos scenario.
type IngestResult struct {
	Result
	// Shed counts whole batches bounced with ErrSaturated; Retried
	// counts those the queue took on retry (every one must land).
	Shed, Retried int
	// DupRejected counts items refused with engine.ErrDuplicateID.
	DupRejected int
	// QuotaRejected lists the IDs of the items refused with ErrQuota.
	QuotaRejected []int
	// Abandoned counts tickets dropped without reading results.
	Abandoned int
	// Stats is the final accept-queue snapshot.
	Stats ingest.Stats
}

// stallableBackend fronts the live engine incarnation for the accept
// queue; stall holds commits mid-flight so a delivery can fill the queue
// to its bound deterministically (the committer blocks here, keeping
// items pending).
type stallableBackend struct {
	t  *engineTarget
	mu sync.RWMutex
}

func (b *stallableBackend) Submit(spec job.Job) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.t.cur.Submit(spec)
}

func (b *stallableBackend) SubmitJob(j job.Job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.t.cur.SubmitJob(j)
}

func (b *stallableBackend) stall()  { b.mu.Lock() }
func (b *stallableBackend) resume() { b.mu.Unlock() }

// clientBatch is one client's share of a delivery: its items, their
// slots in the delivery's errors, and its ticket once enqueued.
type clientBatch struct {
	jobs   []job.Job
	errs   []error
	ticket *ingest.Ticket
}

// ingestTarget is the engine behind the accept queue. A delivery is
// split into client batches, each one delivered whole, one item per
// commit group (FaultSlowClients) or abandoned (FaultDisconnects) — or,
// when a FaultSaturation delivery holds more than the queue's bound, all
// enqueued against a stalled backend. Every delivery ends in Flush, so
// the committer is idle whenever the clock moves.
type ingestTarget struct {
	*engineTarget
	q       *ingest.Queue
	backend *stallableBackend
	faults  Fault
	rng     *stats.RNG // run-time fault choices; the plan never sees them
	// The first eligible batch of each kind is forced, so an enabled
	// class always fires even when seeded rolls would starve it.
	slowSeen bool

	tickets []*clientBatch // enqueued in this delivery, folded after Flush
	refused map[int]bool   // quota-refused IDs not committed since
	res     IngestResult
}

func (t *ingestTarget) submit(jobs []job.Job) []error {
	errs := make([]error, len(jobs))
	var batches []*clientBatch
	for lo := 0; lo < len(jobs); {
		hi := min(lo+1+t.rng.IntN(6), len(jobs))
		batches = append(batches, &clientBatch{jobs: jobs[lo:hi], errs: errs[lo:hi]})
		lo = hi
	}
	if t.faults&FaultSaturation != 0 && len(jobs) > maxPending {
		t.saturate(batches)
	} else {
		for _, b := range batches {
			switch {
			case t.faults&FaultDisconnects != 0 && (t.res.Abandoned == 0 || t.rng.IntN(6) == 0):
				t.res.Abandoned++
				t.enqueue(b)
			case t.faults&FaultSlowClients != 0 && (!t.slowSeen || t.rng.IntN(5) == 0):
				t.slowSeen = true
				for k := range b.jobs {
					t.q.Flush()
					t.deliver(&clientBatch{jobs: b.jobs[k : k+1], errs: b.errs[k : k+1]})
				}
			default:
				t.deliver(b)
			}
		}
	}
	t.q.Flush()
	for _, b := range t.tickets {
		<-b.ticket.Done() // the committer closes it just after Flush wakes
		t.fold(b)
	}
	t.tickets = t.tickets[:0]
	return errs
}

// saturate delivers every batch against a stalled backend: pending only
// grows, so batches past the bound must shed (verify holds the queue's
// peak to it). Shed batches come back once the queue has drained, as
// clients honoring Retry-After, and must land.
func (t *ingestTarget) saturate(batches []*clientBatch) {
	var shed []*clientBatch
	t.backend.stall()
	for _, b := range batches {
		if errors.Is(t.enqueue(b), ingest.ErrSaturated) {
			shed = append(shed, b)
		}
	}
	t.backend.resume()
	t.res.Shed += len(shed)
	for _, b := range shed {
		t.q.Flush()
		if t.deliver(b) {
			t.res.Retried++
		}
	}
}

// enqueue queues b without waiting for it. A batch refused whole carries
// the refusal as every item's error, so a legitimate one fails the run
// unless a retry lands it.
func (t *ingestTarget) enqueue(b *clientBatch) error {
	tk, err := t.q.Enqueue(b.jobs)
	if err != nil {
		for i := range b.errs {
			b.errs[i] = err
		}
		return err
	}
	b.ticket = tk
	t.tickets = append(t.tickets, b)
	return nil
}

// deliver submits b and waits until it has committed, reporting whether
// the queue took it.
func (t *ingestTarget) deliver(b *clientBatch) bool {
	if t.enqueue(b) != nil {
		return false
	}
	<-b.ticket.Done()
	return true
}

// fold copies a resolved batch's per-item outcomes into its errors and
// the result's counts.
func (t *ingestTarget) fold(b *clientBatch) {
	for _, r := range b.ticket.Results() {
		id := b.jobs[r.Index].ID
		b.errs[r.Index] = r.Err
		switch {
		case r.Err == nil:
			delete(t.refused, id)
		case errors.Is(r.Err, ingest.ErrQuota):
			t.refused[id] = true
			t.res.QuotaRejected = append(t.res.QuotaRejected, id)
		case errors.Is(r.Err, engine.ErrDuplicateID):
			t.res.DupRejected++
		}
	}
}

func (t *ingestTarget) open(err error) bool { return errors.Is(err, ingest.ErrQuota) }

// verify adds the queue's own invariants to the engine's oracle: a
// quota-refused job never reached the engine, the queue never held more
// than its bound, and its accounting balances.
func (t *ingestTarget) verify(accepted []job.Job) error {
	for id := range t.refused {
		if _, ok := t.cur.Job(id); ok {
			return fmt.Errorf("chaos: quota-refused job %d reached the engine", id)
		}
	}
	st := t.q.Stats()
	if st.PeakPending > maxPending {
		return fmt.Errorf("chaos: peak pending %d exceeded bound %d", st.PeakPending, maxPending)
	}
	if st.Accepted != st.Committed+st.Rejected {
		return fmt.Errorf("chaos: queue accounting broken: %+v", st)
	}
	return t.engineTarget.verify(accepted)
}

// RunIngest executes one scenario against the engine behind the batched
// accept queue, on top of the engine's fault classes (bar
// FaultHostileSpecs: a zero ID asks the queue for a fresh one) with the
// four ingest ones. A nil error certifies that every invariant held:
// accepted jobs committed exactly once, duplicates and over-quota items
// refused item by item, FaultSaturation shed batches that all landed on
// retry, the queue kept to its bound, and the oracle cleared the schedule.
func RunIngest(config Config) (*IngestResult, error) {
	cfg, err := config.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Faults&FaultHostileSpecs != 0 {
		return nil, errors.New("chaos: RunIngest does not inject hostile specs")
	}
	t := &ingestTarget{
		engineTarget: &engineTarget{capacity: cfg.Capacity},
		faults:       cfg.Faults,
		rng:          stats.NewRNG(cfg.Seed, 203),
		refused:      map[int]bool{},
	}
	t.backend = &stallableBackend{t: t.engineTarget}
	icfg := ingest.Config{Backend: t.backend, MaxPending: maxPending, MaxBatch: maxBatch}
	if cfg.Faults&FaultQuotaStorm != 0 {
		icfg.Quotas = ingest.NewQuotas(quotaRate, quotaBurst, func() job.Time { return t.cur.Now() })
	}
	if t.q, err = ingest.NewQueue(icfg); err != nil {
		return nil, err
	}
	defer t.q.Close()
	out, err := runScenario(cfg, cfg.Capacity, func(vc *engine.VirtualClock, newPolicy func() sim.Policy) (target, error) {
		_, err := t.engineTarget.build(vc, newPolicy)
		return t, err
	}, nil)
	if err != nil {
		return nil, err
	}
	// Hostile specs refused above, every refusal must be a duplicate's.
	if t.res.DupRejected != out.Rejected {
		return nil, fmt.Errorf("chaos: %d injected duplicates refused, %d of them with ErrDuplicateID",
			out.Rejected, t.res.DupRejected)
	}
	if cfg.Faults&FaultSaturation != 0 && t.res.Shed == 0 {
		return nil, errors.New("chaos: the saturation run failed to saturate the queue")
	}
	res := t.res
	res.Result = t.result(out)
	res.Stats = t.q.Stats()
	return &res, nil
}
