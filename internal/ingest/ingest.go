// Package ingest is the high-throughput admission path between the
// HTTP front end (internal/server) and a scheduling backend (a bare
// engine or a federation router): an async accept queue with bounded
// memory and explicit backpressure, per-user token-bucket quotas, and
// group-committed handoff to the backend — one journal fsync per
// accepted batch group instead of one per job.
//
// The queue preserves submission order: a single committer goroutine
// drains enqueued batches FIFO and commits their items one at a time
// through the same Submit/SubmitJob calls a serial client would make,
// so batched ingest produces bit-identical schedules to the serial
// path (the differential tests assert this over the whole suite). One
// bad job rejects only its own slot: every item gets an individual
// result, and the batch as a whole succeeds.
//
// Backpressure is explicit and immediate: when accepting a batch would
// push the pending-item count past MaxPending, Enqueue fails with
// ErrSaturated and nothing is queued — the HTTP layer translates that
// into 503 + Retry-After, and the queue's memory stays bounded no
// matter how hard clients push.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/obs"
)

// ErrSaturated is returned by Enqueue when accepting the batch would
// exceed MaxPending. Nothing was queued; the client should retry after
// a short backoff.
var ErrSaturated = errors.New("ingest: accept queue saturated")

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("ingest: queue closed")

// ErrQuota is wrapped by per-item results when the submitting user's
// token bucket is empty (test with errors.Is). The item was never
// queued; the rest of its batch proceeds.
var ErrQuota = errors.New("ingest: user quota exceeded")

// Backend is the admission surface the committer drives; both
// *engine.Engine and *federation.Router satisfy it (it is a subset of
// server.Backend).
type Backend interface {
	// Submit admits a job with a backend-assigned ID.
	Submit(spec job.Job) (int, error)
	// SubmitJob admits a job keeping its caller-assigned ID.
	SubmitJob(j job.Job) error
}

// Syncer is the optional Backend extension for group commit: after
// committing a group of items, the committer calls SyncJournal once,
// making the whole group durable on a single fsync boundary.
type Syncer interface {
	SyncJournal() error
}

// Config configures a Queue.
type Config struct {
	// Backend receives the committed jobs.
	Backend Backend
	// MaxPending bounds accepted-but-uncommitted items across all
	// batches; 0 means 4096. Enqueue fails with ErrSaturated rather
	// than grow past it.
	MaxPending int
	// MaxBatch caps the items the committer folds into one commit
	// group (= one journal sync); 0 means 256. A single enqueued batch
	// larger than MaxBatch still commits as one group.
	MaxBatch int
	// Quotas, when non-nil, rate-limits items per user at accept time.
	Quotas *Quotas
}

// ItemResult is one batch item's outcome.
type ItemResult struct {
	// Index is the item's position in the submitted batch.
	Index int
	// ID is the admitted job's ID (assigned by the backend when the
	// item carried ID 0). Zero when Err != nil.
	ID int
	// Err is nil for admitted items; otherwise the admission error
	// (engine.ErrDuplicateID, engine.ErrDraining, ErrQuota, a
	// validation error, ...).
	Err error
}

// Ticket tracks one accepted batch through the queue. Done is closed
// once every item has been committed or rejected; Results is valid
// after that. A client that disconnects mid-batch simply abandons its
// ticket — the batch still commits (admission is not tied to the
// client's connection).
type Ticket struct {
	g *group
}

// Done returns a channel closed when the batch has fully committed.
func (t *Ticket) Done() <-chan struct{} { return t.g.done }

// Results returns the per-item outcomes, in item order. It must not be
// called before Done is closed.
func (t *Ticket) Results() []ItemResult { return t.g.results }

type group struct {
	items   []job.Job
	skip    []bool // pre-resolved at accept time (quota); committer skips
	results []ItemResult
	enq     time.Time
	done    chan struct{}
}

func (g *group) live() int {
	n := 0
	for _, s := range g.skip {
		if !s {
			n++
		}
	}
	return n
}

// Queue is the async accept queue. All methods are goroutine-safe.
type Queue struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	groups  []*group
	pending int // items accepted but not yet committed (in-flight included)
	closed  bool
	idle    chan struct{} // closed when the committer exits

	accepted    int64
	committed   int64
	rejected    int64
	quotaHits   int64
	saturations int64
	batches     int64
	syncGroups  int64
	peakPending int

	hist obs.Hist
}

// NewQueue returns a started queue; Close releases its committer.
func NewQueue(cfg Config) (*Queue, error) {
	if cfg.Backend == nil {
		return nil, errors.New("ingest: nil backend")
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	q := &Queue{cfg: cfg, idle: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.run()
	return q, nil
}

// Enqueue accepts a batch for asynchronous admission and returns its
// Ticket, or ErrSaturated (nothing queued, retry later) / ErrClosed.
// Quota rejections are resolved immediately: those items are never
// queued and carry ErrQuota in the ticket's results, while the rest of
// the batch proceeds.
func (q *Queue) Enqueue(jobs []job.Job) (*Ticket, error) {
	if len(jobs) == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	g := &group{
		items:   jobs,
		skip:    make([]bool, len(jobs)),
		results: make([]ItemResult, len(jobs)),
		enq:     time.Now(),
		done:    make(chan struct{}),
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if q.pending+len(jobs) > q.cfg.MaxPending {
		q.saturations++
		q.mu.Unlock()
		return nil, ErrSaturated
	}
	live := len(jobs)
	for i := range jobs {
		g.results[i] = ItemResult{Index: i}
		if q.cfg.Quotas != nil && !q.cfg.Quotas.Allow(jobs[i].User) {
			g.skip[i] = true
			g.results[i].Err = fmt.Errorf("user %d: %w", jobs[i].User, ErrQuota)
			q.quotaHits++
			live--
		}
	}
	q.accepted += int64(live)
	q.batches++
	q.pending += live
	if q.pending > q.peakPending {
		q.peakPending = q.pending
	}
	if live == 0 {
		// Every item was quota-rejected; nothing to commit.
		q.mu.Unlock()
		close(g.done)
		return &Ticket{g: g}, nil
	}
	q.groups = append(q.groups, g)
	q.cond.Broadcast()
	q.mu.Unlock()
	return &Ticket{g: g}, nil
}

// SubmitBatch enqueues the batch and blocks until it has committed,
// returning the per-item results. It is the synchronous rendezvous the
// HTTP handler uses: the response is written only after the batch is
// durable (group commit included).
func (q *Queue) SubmitBatch(jobs []job.Job) ([]ItemResult, error) {
	t, err := q.Enqueue(jobs)
	if err != nil {
		return nil, err
	}
	<-t.Done()
	return t.Results(), nil
}

// run is the committer: it drains batches FIFO, folding consecutive
// batches into commit groups of up to MaxBatch items, commits each
// item through the backend in order, then syncs the backend journal
// once per group before resolving the tickets.
func (q *Queue) run() {
	defer close(q.idle)
	for {
		q.mu.Lock()
		for len(q.groups) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.groups) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		var take []*group
		n := 0
		for len(q.groups) > 0 {
			g := q.groups[0]
			if len(take) > 0 && n+g.live() > q.cfg.MaxBatch {
				break
			}
			take = append(take, g)
			n += g.live()
			q.groups = q.groups[1:]
		}
		q.mu.Unlock()

		committed := int64(0)
		for _, g := range take {
			for i := range g.items {
				if g.skip[i] {
					continue
				}
				j := g.items[i]
				if j.ID == 0 {
					id, err := q.cfg.Backend.Submit(j)
					g.results[i].ID = id
					g.results[i].Err = err
				} else {
					g.results[i].ID = j.ID
					if err := q.cfg.Backend.SubmitJob(j); err != nil {
						g.results[i].ID = 0
						g.results[i].Err = err
					}
				}
				if g.results[i].Err == nil {
					committed++
				}
			}
		}
		var syncErr error
		if committed > 0 {
			if s, ok := q.cfg.Backend.(Syncer); ok {
				syncErr = s.SyncJournal()
			}
		}

		q.mu.Lock()
		q.pending -= n
		q.committed += committed
		q.rejected += int64(n) - committed
		q.syncGroups++
		if syncErr != nil {
			// The group is not durable; fail every item that thought it
			// had committed (the backend is fatal at this point anyway).
			for _, g := range take {
				for i := range g.results {
					if !g.skip[i] && g.results[i].Err == nil {
						g.results[i].ID = 0
						g.results[i].Err = syncErr
					}
				}
			}
			q.committed -= committed
			q.rejected += committed
		}
		for _, g := range take {
			q.hist.ObserveN(time.Since(g.enq), len(g.items))
		}
		q.cond.Broadcast() // wake Flush waiters
		q.mu.Unlock()
		for _, g := range take {
			close(g.done)
		}
	}
}

// Flush blocks until every accepted item has been committed or
// rejected. The chaos harness calls it before advancing a virtual
// clock so fault schedules stay deterministic.
func (q *Queue) Flush() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pending > 0 {
		q.cond.Wait()
	}
}

// Close stops accepting, lets the committer drain what was already
// accepted, and waits for it to exit.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.idle
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.idle
}

// Ready reports whether the queue is accepting: open and below the
// pending bound. The server's /v1/readyz consults it.
func (q *Queue) Ready() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && q.pending < q.cfg.MaxPending
}

// Stats is a point-in-time snapshot of the queue's counters.
type Stats struct {
	// Pending and PeakPending are the current and high-water pending
	// item counts; MaxPending is the configured bound PeakPending can
	// never exceed.
	Pending     int `json:"pending"`
	PeakPending int `json:"peak_pending"`
	MaxPending  int `json:"max_pending"`
	// Accepted counts items taken into the queue (quota rejections
	// excluded); Committed and Rejected split their outcomes.
	Accepted  int64 `json:"accepted"`
	Committed int64 `json:"committed"`
	Rejected  int64 `json:"rejected"`
	// QuotaRejected counts items refused at accept time by the per-
	// user token buckets; Saturations counts whole batches refused
	// with ErrSaturated.
	QuotaRejected int64 `json:"quota_rejected"`
	Saturations   int64 `json:"saturations"`
	// Batches counts accepted batches; SyncGroups counts committer
	// groups (= journal fsync boundaries). Batches/SyncGroups > 1
	// means group commit is folding concurrent batches.
	Batches    int64 `json:"batches"`
	SyncGroups int64 `json:"sync_groups"`
	// QuotaUsers is the number of live token buckets (recently active
	// users), when quotas are enabled.
	QuotaUsers int `json:"quota_users,omitempty"`
	// Latency is the accept-to-commit latency histogram.
	Latency obs.HistSnapshot `json:"latency"`
}

// Stats returns the queue's counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Pending:       q.pending,
		PeakPending:   q.peakPending,
		MaxPending:    q.cfg.MaxPending,
		Accepted:      q.accepted,
		Committed:     q.committed,
		Rejected:      q.rejected,
		QuotaRejected: q.quotaHits,
		Saturations:   q.saturations,
		Batches:       q.batches,
		SyncGroups:    q.syncGroups,
		Latency:       q.hist.Snapshot(),
	}
	if q.cfg.Quotas != nil {
		st.QuotaUsers = q.cfg.Quotas.Users()
	}
	return st
}
