package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
)

// IngestFault is a bitmask of fault classes injected into the ingest
// path (the accept queue between clients and the engine).
type IngestFault uint

const (
	// IngestFaultBursts fires sustained over-limit submission bursts
	// while the backend is artificially stalled, so the accept queue
	// must shed whole batches with ErrSaturated instead of growing past
	// MaxPending. Shed batches are retried, like clients honoring
	// Retry-After.
	IngestFaultBursts IngestFault = 1 << iota
	// IngestFaultSlowClients trickles some batches one item at a time
	// with the clock creeping between items — a client too slow to
	// deliver its batch in one go.
	IngestFaultSlowClients
	// IngestFaultDisconnects abandons some tickets without ever reading
	// the results — a client that vanished mid-batch. The batch must
	// still commit (admission is not tied to the connection).
	IngestFaultDisconnects
	// IngestFaultDuplicates re-submits already-committed job IDs in
	// fresh batches; every duplicate must be rejected per-item without
	// failing its batch.
	IngestFaultDuplicates
	// IngestFaultQuotaStorm routes a burst of one hot user's jobs at
	// the queue; items beyond the user's token bucket must be rejected
	// with ErrQuota while every other user's jobs sail through.
	IngestFaultQuotaStorm
)

// AllIngestFaults enables every ingest fault class.
const AllIngestFaults = IngestFaultBursts | IngestFaultSlowClients |
	IngestFaultDisconnects | IngestFaultDuplicates | IngestFaultQuotaStorm

// String names the enabled fault classes.
func (f IngestFault) String() string {
	return bitNames(uint(f), []string{"bursts", "slow-clients", "disconnects", "duplicate-ids", "quota-storm"})
}

// IngestConfig describes one ingest chaos scenario.
type IngestConfig struct {
	// Seed derives every random choice in the scenario.
	Seed uint64
	// Capacity is the machine size in nodes (default 64).
	Capacity int
	// Jobs is the number of legitimate jobs (default 150).
	Jobs int
	// Users is the user-ID space jobs draw from (default 1000).
	Users int
	// Faults selects the injected fault classes.
	Faults IngestFault
	// Policy constructs the scheduling policy (required).
	Policy func() sim.Policy
	// MaxPending bounds the accept queue (default 32 — small, so
	// bursts genuinely overflow it).
	MaxPending int
	// MaxBatch caps committer groups (default 16).
	MaxBatch int
	// QuotaRate/QuotaBurst shape the hot user's token bucket when
	// IngestFaultQuotaStorm is set (defaults 0.001 tokens/s, burst 5).
	QuotaRate  float64
	QuotaBurst float64
}

func (c *IngestConfig) withDefaults() (IngestConfig, error) {
	out := *c
	if out.Policy == nil {
		return out, errors.New("chaos: IngestConfig.Policy is required")
	}
	if out.Capacity == 0 {
		out.Capacity = 64
	}
	if out.Jobs == 0 {
		out.Jobs = 150
	}
	if out.Users == 0 {
		out.Users = 1000
	}
	if out.MaxPending == 0 {
		out.MaxPending = 32
	}
	if out.MaxBatch == 0 {
		out.MaxBatch = 16
	}
	if out.QuotaRate == 0 {
		// Slow enough that inter-wave refill cannot absorb the storm.
		out.QuotaRate = 0.001
	}
	if out.QuotaBurst == 0 {
		out.QuotaBurst = 5
	}
	return out, nil
}

// IngestResult is the outcome of one ingest chaos scenario.
type IngestResult struct {
	// Records is the committed schedule in completion order.
	Records []sim.Record
	// Accepted is every committed job with its engine-stamped submit
	// time, in ID order.
	Accepted []job.Job
	// Shed counts whole batches bounced with ErrSaturated; Retried
	// counts their successful re-submissions (every shed batch must
	// eventually land).
	Shed, Retried int
	// DupRejected counts injected duplicate items refused per-item.
	DupRejected int
	// QuotaRejected lists the job IDs refused by the hot user's token
	// bucket (those jobs legitimately never run).
	QuotaRejected []int
	// Abandoned counts tickets dropped without reading results.
	Abandoned int
	// Stats is the final accept-queue snapshot; Metrics the engine's.
	Stats   ingest.Stats
	Metrics engine.Metrics
}

// stallableBackend fronts the engine for the accept queue; Stall holds
// commits mid-flight so the driver can fill the queue to its bound
// deterministically (the committer blocks here, keeping items pending).
type stallableBackend struct {
	e  *engine.Engine
	mu sync.RWMutex
}

func (b *stallableBackend) Submit(spec job.Job) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.e.Submit(spec)
}

func (b *stallableBackend) SubmitJob(j job.Job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.e.SubmitJob(j)
}

func (b *stallableBackend) stall()  { b.mu.Lock() }
func (b *stallableBackend) resume() { b.mu.Unlock() }

// ingestWave is one deterministic step of the scenario: a clock
// advance followed by a volley of batches.
type ingestWave struct {
	at      job.Time
	batches [][]job.Job
	burst   bool
}

// buildIngestPlan derives the wave script from the seed. The
// legitimate workload stream is independent of the fault bits, so the
// same seed submits the same jobs whatever faults are enabled.
func buildIngestPlan(cfg IngestConfig) []ingestWave {
	rngW := stats.NewRNG(cfg.Seed, 201) // workload shape
	rngF := stats.NewRNG(cfg.Seed, 202) // fault weaving

	specs := make([]job.Job, cfg.Jobs)
	for i := range specs {
		rt := job.Duration(1 + rngW.IntN(5400))
		specs[i] = job.Job{
			ID:      i + 1,
			Nodes:   1 + rngW.IntN(cfg.Capacity),
			Runtime: rt,
			Request: rt + job.Duration(rngW.IntN(1800)),
			User:    1 + rngW.IntN(cfg.Users),
		}
	}
	if cfg.Faults&IngestFaultQuotaStorm != 0 {
		// The hot user owns a contiguous run of mid-plan jobs — enough
		// to blow through the token bucket inside one wave.
		storm := 2*int(cfg.QuotaBurst) + 4
		start := cfg.Jobs / 3
		for i := start; i < start+storm && i < cfg.Jobs; i++ {
			specs[i].User = 0 // user 0 is the hot user
		}
	}

	var waves []ingestWave
	at := job.Time(0)
	i := 0
	for i < len(specs) {
		at += job.Time(300 + rngW.IntN(900))
		w := ingestWave{at: at}
		// Every third wave (seeded) is a burst — and the first eligible
		// one always is, so the fault genuinely fires. A burst wave
		// swallows enough of the spec stream to guarantee it overflows
		// the queue bound while the backend is stalled.
		if cfg.Faults&IngestFaultBursts != 0 && (len(waves) == 1 || rngF.IntN(3) == 0) {
			w.burst = true
		}
		nBatches := 2 + rngW.IntN(3)
		items := 0 // quota-safe items: only these are guaranteed to occupy pending slots
		for b := 0; i < len(specs); b++ {
			if w.burst {
				if items > cfg.MaxPending+4 {
					break
				}
			} else if b >= nBatches {
				break
			}
			size := 1 + rngW.IntN(6)
			if i+size > len(specs) {
				size = len(specs) - i
			}
			w.batches = append(w.batches, specs[i:i+size])
			for _, s := range specs[i : i+size] {
				if s.User != 0 {
					items++
				}
			}
			i += size
		}
		// A trailing burst wave that ran out of jobs before reaching the
		// bound cannot overflow; demote it.
		if w.burst && items <= cfg.MaxPending {
			w.burst = false
		}
		waves = append(waves, w)
	}
	return waves
}

// RunIngest executes one ingest chaos scenario to completion. The
// driver is single-threaded against a virtual clock, faults included,
// so a scenario replays bit-identically: same seed and fault mask,
// same committed schedule. A nil error certifies that every invariant
// held: accepted jobs committed exactly once, duplicates and
// over-quota items rejected per-item, shed batches landed on retry,
// the queue never held more than MaxPending items, and the oracle
// cleared the final schedule.
func RunIngest(config IngestConfig) (*IngestResult, error) {
	cfg, err := config.withDefaults()
	if err != nil {
		return nil, err
	}
	waves := buildIngestPlan(cfg)
	rngF := stats.NewRNG(cfg.Seed, 203) // run-time fault choices

	vc := engine.NewVirtualClock()
	// The engine under its live oracle, as Run's target builds it; no
	// crash is injected here, so the incarnation never changes.
	t := &engineTarget{capacity: cfg.Capacity, mkCfg: func() engine.Config {
		return engine.Config{Capacity: cfg.Capacity, Policy: cfg.Policy(), Clock: vc}
	}}
	if err := t.incarnate(nil); err != nil {
		return nil, err
	}
	e := t.cur
	backend := &stallableBackend{e: e}
	icfg := ingest.Config{
		Backend:    backend,
		MaxPending: cfg.MaxPending,
		MaxBatch:   cfg.MaxBatch,
	}
	if cfg.Faults&IngestFaultQuotaStorm != 0 {
		icfg.Quotas = ingest.NewQuotas(cfg.QuotaRate, cfg.QuotaBurst, e.Now)
	}
	q, err := ingest.NewQueue(icfg)
	if err != nil {
		return nil, err
	}
	defer q.Close()

	res := &IngestResult{}
	committed := []int{} // IDs committed so far, for duplicate picks
	dupUser := 0         // distinct synthetic user per injected duplicate

	// recordResults folds one batch's per-item outcomes into the
	// bookkeeping; only ErrQuota is a tolerated rejection here.
	recordResults := func(batch []job.Job, results []ingest.ItemResult) error {
		for _, r := range results {
			switch {
			case r.Err == nil:
				committed = append(committed, batch[r.Index].ID)
			case errors.Is(r.Err, ingest.ErrQuota):
				res.QuotaRejected = append(res.QuotaRejected, batch[r.Index].ID)
			default:
				return fmt.Errorf("chaos: legitimate job %d rejected: %w", batch[r.Index].ID, r.Err)
			}
		}
		return nil
	}
	submit := func(batch []job.Job) error {
		results, err := q.SubmitBatch(batch)
		if err != nil {
			return fmt.Errorf("chaos: batch rejected whole: %w", err)
		}
		return recordResults(batch, results)
	}

	var abandoned []struct {
		t     *ingest.Ticket
		batch []job.Job
	}
	// The first eligible batch of each kind is forced, so an enabled
	// fault class always fires at least once even when seeded rolls and
	// burst waves would starve it.
	needDisc := cfg.Faults&IngestFaultDisconnects != 0
	needSlow := cfg.Faults&IngestFaultSlowClients != 0
	now := job.Time(0)
	for _, w := range waves {
		vc.AdvanceTo(w.at)
		now = w.at

		// Duplicate injection: re-submit committed IDs in a fresh batch;
		// every item must be refused without failing the batch.
		if cfg.Faults&IngestFaultDuplicates != 0 && len(committed) > 0 {
			n := 1 + rngF.IntN(3)
			dups := make([]job.Job, n)
			for d := range dups {
				victim := committed[rngF.IntN(len(committed))]
				// Each dup comes from a fresh user outside the workload's
				// ID space, so quota buckets can never mask the
				// duplicate-ID rejection we are probing for.
				dupUser++
				dups[d] = job.Job{ID: victim, Nodes: 1 + rngF.IntN(4), Runtime: 60, Request: 60,
					User: cfg.Users + dupUser}
			}
			results, err := q.SubmitBatch(dups)
			if err != nil {
				return nil, fmt.Errorf("chaos: duplicate batch rejected whole: %w", err)
			}
			for _, r := range results {
				if r.Err == nil {
					return nil, fmt.Errorf("chaos: duplicate of job %d was accepted", dups[r.Index].ID)
				}
				if !errors.Is(r.Err, engine.ErrDuplicateID) {
					return nil, fmt.Errorf("chaos: duplicate of job %d rejected with %v, want ErrDuplicateID", dups[r.Index].ID, r.Err)
				}
				res.DupRejected++
			}
		}

		if w.burst {
			// Sustained over-limit burst: the backend stalls, so pending
			// only grows; batches past MaxPending must shed — and the
			// queue's memory must stay bounded the whole time.
			backend.stall()
			type accepted struct {
				t     *ingest.Ticket
				batch []job.Job
			}
			var live []accepted
			var shed [][]job.Job
			for _, batch := range w.batches {
				t, err := q.Enqueue(batch)
				if errors.Is(err, ingest.ErrSaturated) {
					shed = append(shed, batch)
					res.Shed++
					continue
				}
				if err != nil {
					backend.resume()
					return nil, fmt.Errorf("chaos: burst enqueue: %w", err)
				}
				live = append(live, accepted{t, batch})
				if p := q.Stats().Pending; p > cfg.MaxPending {
					backend.resume()
					return nil, fmt.Errorf("chaos: pending %d exceeded bound %d", p, cfg.MaxPending)
				}
			}
			if len(shed) == 0 {
				backend.resume()
				return nil, errors.New("chaos: burst wave failed to saturate the queue")
			}
			backend.resume()
			for _, a := range live {
				<-a.t.Done()
				if err := recordResults(a.batch, a.t.Results()); err != nil {
					return nil, err
				}
			}
			// Clients honor Retry-After: shed batches come back and must
			// land now that the queue drained.
			for _, batch := range shed {
				q.Flush()
				if err := submit(batch); err != nil {
					return nil, err
				}
				res.Retried++
			}
			q.Flush()
			continue
		}

		for _, batch := range w.batches {
			switch {
			case cfg.Faults&IngestFaultDisconnects != 0 && (needDisc || rngF.IntN(6) == 0):
				needDisc = false
				// The client vanishes without reading results; the batch
				// must still commit. Results are reconciled after Flush.
				t, err := q.Enqueue(batch)
				if err != nil {
					return nil, fmt.Errorf("chaos: disconnect enqueue: %w", err)
				}
				abandoned = append(abandoned, struct {
					t     *ingest.Ticket
					batch []job.Job
				}{t, batch})
				res.Abandoned++
			case cfg.Faults&IngestFaultSlowClients != 0 && (needSlow || rngF.IntN(5) == 0):
				needSlow = false
				// A slow client trickles its batch one item at a time,
				// the clock creeping between deliveries.
				for k := range batch {
					q.Flush()
					now++
					vc.AdvanceTo(now)
					if err := submit(batch[k : k+1]); err != nil {
						return nil, err
					}
				}
			default:
				if err := submit(batch); err != nil {
					return nil, err
				}
			}
		}
		// Rendezvous before the next clock advance keeps fault timing
		// deterministic: the committer is idle between waves.
		q.Flush()
	}

	q.Flush()
	for _, a := range abandoned {
		select {
		case <-a.t.Done():
		default:
			return nil, errors.New("chaos: abandoned ticket not resolved after Flush")
		}
		if err := recordResults(a.batch, a.t.Results()); err != nil {
			return nil, err
		}
	}
	vc.Run()
	if err := e.Err(); err != nil {
		return nil, err
	}

	// Every legitimate job either committed exactly once and completed,
	// or was quota-rejected and must be absent.
	for _, id := range res.QuotaRejected {
		if _, ok := e.Job(id); ok {
			return nil, fmt.Errorf("chaos: quota-rejected job %d reached the engine", id)
		}
	}
	if res.Accepted, err = sweep(cfg.Jobs, e.Job, func(id int) bool { return slices.Contains(res.QuotaRejected, id) }); err != nil {
		return nil, err
	}

	res.Records = e.Records()
	res.Stats = q.Stats()
	res.Metrics = e.Metrics()
	if res.Stats.PeakPending > cfg.MaxPending {
		return nil, fmt.Errorf("chaos: peak pending %d exceeded bound %d (unbounded queue memory)",
			res.Stats.PeakPending, cfg.MaxPending)
	}
	if res.Stats.Accepted != res.Stats.Committed+res.Stats.Rejected {
		return nil, fmt.Errorf("chaos: queue accounting broken: %+v", res.Stats)
	}
	return res, t.verify(res.Accepted)
}
