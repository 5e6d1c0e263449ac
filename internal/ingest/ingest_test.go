package ingest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"schedsearch/internal/job"
)

// fakeBackend is a scriptable Backend: Submit assigns sequential IDs,
// SubmitJob rejects IDs in reject, and an optional gate blocks every
// commit until released (to hold items pending for saturation tests).
type fakeBackend struct {
	mu       sync.Mutex
	nextID   int
	accepted []job.Job
	reject   map[int]error
	gate     chan struct{}
	syncs    int
	syncErr  error
}

func (b *fakeBackend) wait() {
	if b.gate != nil {
		<-b.gate
	}
}

func (b *fakeBackend) Submit(spec job.Job) (int, error) {
	b.wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	spec.ID = b.nextID
	b.accepted = append(b.accepted, spec)
	return spec.ID, nil
}

func (b *fakeBackend) SubmitJob(j job.Job) error {
	b.wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.reject[j.ID]; err != nil {
		return err
	}
	b.accepted = append(b.accepted, j)
	return nil
}

func (b *fakeBackend) SyncJournal() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncs++
	return b.syncErr
}

func (b *fakeBackend) committed() []job.Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]job.Job(nil), b.accepted...)
}

func newTestQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := NewQueue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	return q
}

func TestQueueCommitsInOrder(t *testing.T) {
	b := &fakeBackend{}
	q := newTestQueue(t, Config{Backend: b})
	var jobs []job.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, job.Job{ID: i + 1, Nodes: 1, Runtime: 60, Request: 60, User: i % 3})
	}
	results, err := q.SubmitBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.ID != i+1 {
			t.Fatalf("item %d got ID %d", i, r.ID)
		}
	}
	got := b.committed()
	for i, j := range got {
		if j.ID != i+1 {
			t.Fatalf("commit order broken: position %d holds job %d", i, j.ID)
		}
	}
	st := q.Stats()
	if st.Accepted != 10 || st.Committed != 10 || st.Rejected != 0 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
	if b.syncs != 1 {
		t.Fatalf("backend synced %d times, want 1 group sync", b.syncs)
	}
	if st.Latency.Count != 10 {
		t.Fatalf("latency histogram saw %d samples, want 10", st.Latency.Count)
	}
}

func TestQueueAssignsIDsForZeroIDItems(t *testing.T) {
	b := &fakeBackend{}
	q := newTestQueue(t, Config{Backend: b})
	results, err := q.SubmitBatch([]job.Job{
		{Nodes: 1, Runtime: 60, Request: 60},
		{Nodes: 2, Runtime: 60, Request: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != 1 || results[1].ID != 2 {
		t.Fatalf("backend-assigned IDs: %+v", results)
	}
}

func TestQueuePerItemRejection(t *testing.T) {
	dup := errors.New("duplicate id")
	b := &fakeBackend{reject: map[int]error{2: dup}}
	q := newTestQueue(t, Config{Backend: b})
	results, err := q.SubmitBatch([]job.Job{
		{ID: 1, Nodes: 1, Runtime: 60, Request: 60},
		{ID: 2, Nodes: 1, Runtime: 60, Request: 60},
		{ID: 3, Nodes: 1, Runtime: 60, Request: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good items rejected: %+v", results)
	}
	if !errors.Is(results[1].Err, dup) || results[1].ID != 0 {
		t.Fatalf("bad item result %+v, want the backend error and ID 0", results[1])
	}
	st := q.Stats()
	if st.Committed != 2 || st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got := b.committed(); len(got) != 2 {
		t.Fatalf("backend holds %d jobs, want 2", len(got))
	}
}

func TestQueueSaturation(t *testing.T) {
	gate := make(chan struct{})
	b := &fakeBackend{gate: gate}
	q := newTestQueue(t, Config{Backend: b, MaxPending: 3})

	// Two items go in and stall at the gated backend.
	first, err := q.Enqueue([]job.Job{
		{ID: 1, Nodes: 1, Runtime: 60, Request: 60},
		{ID: 2, Nodes: 1, Runtime: 60, Request: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A batch that would push pending to 4 > 3 must bounce whole.
	if _, err := q.Enqueue([]job.Job{
		{ID: 3, Nodes: 1, Runtime: 60, Request: 60},
		{ID: 4, Nodes: 1, Runtime: 60, Request: 60},
	}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("enqueue past bound: %v, want ErrSaturated", err)
	}
	if q.Ready() {
		// pending=2 < 3, so Ready stays true: saturation is per-batch.
		// (Only a full queue flips readiness.)
	}
	// One more item still fits.
	if _, err := q.Enqueue([]job.Job{{ID: 5, Nodes: 1, Runtime: 60, Request: 60}}); err != nil {
		t.Fatalf("enqueue within bound: %v", err)
	}
	if q.Ready() {
		t.Fatal("queue at MaxPending must report not ready")
	}
	st := q.Stats()
	if st.Saturations != 1 || st.Pending != 3 || st.PeakPending != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.PeakPending > st.MaxPending {
		t.Fatalf("peak pending %d exceeded bound %d", st.PeakPending, st.MaxPending)
	}

	close(gate)
	<-first.Done()
	q.Flush()
	if !q.Ready() {
		t.Fatal("drained queue must be ready again")
	}
	if got := q.Stats(); got.Pending != 0 || got.Committed != 3 {
		t.Fatalf("after drain: %+v", got)
	}
}

func TestQueueCloseRejectsAndDrains(t *testing.T) {
	b := &fakeBackend{}
	q, err := NewQueue(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := q.Enqueue([]job.Job{{ID: 1, Nodes: 1, Runtime: 60, Request: 60}})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	// The accepted batch drained before Close returned.
	select {
	case <-tk.Done():
	default:
		t.Fatal("Close returned before the accepted batch committed")
	}
	if r := tk.Results()[0]; r.Err != nil {
		t.Fatalf("drained item failed: %v", r.Err)
	}
	if _, err := q.Enqueue([]job.Job{{ID: 2, Nodes: 1, Runtime: 60, Request: 60}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	if q.Ready() {
		t.Fatal("closed queue must not be ready")
	}
	q.Close() // idempotent
}

func TestQueueEmptyBatch(t *testing.T) {
	q := newTestQueue(t, Config{Backend: &fakeBackend{}})
	if _, err := q.Enqueue(nil); err == nil {
		t.Fatal("empty batch must error")
	}
}

func TestQueueSyncFailureFailsGroup(t *testing.T) {
	b := &fakeBackend{syncErr: errors.New("disk gone")}
	q := newTestQueue(t, Config{Backend: b})
	results, err := q.SubmitBatch([]job.Job{{ID: 1, Nodes: 1, Runtime: 60, Request: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, b.syncErr) || results[0].ID != 0 {
		t.Fatalf("item survived a failed group sync: %+v", results[0])
	}
	st := q.Stats()
	if st.Committed != 0 || st.Rejected != 1 {
		t.Fatalf("stats after sync failure: %+v", st)
	}
}

func TestQueueGroupCommitFoldsBatches(t *testing.T) {
	gate := make(chan struct{})
	b := &fakeBackend{gate: gate}
	q := newTestQueue(t, Config{Backend: b, MaxBatch: 100, MaxPending: 1000})
	// First batch engages the committer and stalls at the gate; the
	// rest pile up and must fold into one commit group = one sync.
	var tickets []*Ticket
	for i := 0; i < 10; i++ {
		tk, err := q.Enqueue([]job.Job{{ID: i + 1, Nodes: 1, Runtime: 60, Request: 60}})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	close(gate)
	for _, tk := range tickets {
		<-tk.Done()
	}
	st := q.Stats()
	if st.Batches != 10 {
		t.Fatalf("batches %d, want 10", st.Batches)
	}
	if st.SyncGroups >= st.Batches {
		t.Fatalf("no folding: %d sync groups for %d batches", st.SyncGroups, st.Batches)
	}
	if b.syncs != int(st.SyncGroups) {
		t.Fatalf("backend saw %d syncs, stats say %d groups", b.syncs, st.SyncGroups)
	}
}

func TestQuotaRejectionsResolveImmediately(t *testing.T) {
	clock := job.Time(0)
	quotas := NewQuotas(1, 2, func() job.Time { return clock })
	b := &fakeBackend{}
	q := newTestQueue(t, Config{Backend: b, Quotas: quotas})

	// Burst 2: the third same-user item in one instant is rejected.
	results, err := q.SubmitBatch([]job.Job{
		{ID: 1, Nodes: 1, Runtime: 60, Request: 60, User: 7},
		{ID: 2, Nodes: 1, Runtime: 60, Request: 60, User: 7},
		{ID: 3, Nodes: 1, Runtime: 60, Request: 60, User: 7},
		{ID: 4, Nodes: 1, Runtime: 60, Request: 60, User: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil || results[3].Err != nil {
		t.Fatalf("in-quota items rejected: %+v", results)
	}
	if !errors.Is(results[2].Err, ErrQuota) {
		t.Fatalf("over-quota item: %v, want ErrQuota", results[2].Err)
	}
	st := q.Stats()
	if st.QuotaRejected != 1 || st.Accepted != 3 || st.Committed != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.QuotaUsers != 2 {
		t.Fatalf("quota users %d, want 2", st.QuotaUsers)
	}

	// A batch rejected in full resolves without touching the committer.
	tk, err := q.Enqueue([]job.Job{{ID: 5, Nodes: 1, Runtime: 60, Request: 60, User: 7}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(time.Second):
		t.Fatal("all-quota-rejected batch did not resolve immediately")
	}
	if !errors.Is(tk.Results()[0].Err, ErrQuota) {
		t.Fatalf("result %+v", tk.Results()[0])
	}

	// Refill: one engine-second restores one token.
	clock = 1
	results, err = q.SubmitBatch([]job.Job{{ID: 6, Nodes: 1, Runtime: 60, Request: 60, User: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("refilled user still rejected: %v", results[0].Err)
	}
}

func TestQuotasRefillAndSweep(t *testing.T) {
	clock := job.Time(0)
	q := NewQuotas(0.5, 4, func() job.Time { return clock })

	for i := 0; i < 4; i++ {
		if !q.Allow(1) {
			t.Fatalf("burst draw %d refused", i)
		}
	}
	if q.Allow(1) {
		t.Fatal("empty bucket allowed a draw")
	}
	// 0.5 tokens/s: after 1s still empty, after 2s one token.
	clock = 1
	if q.Allow(1) {
		t.Fatal("refill too fast")
	}
	clock = 2
	if !q.Allow(1) {
		t.Fatal("token not refilled")
	}
	if q.Users() != 1 {
		t.Fatalf("users %d, want 1", q.Users())
	}

	// Full buckets are swept: long idle → table empties even though
	// other users keep arriving.
	clock = 100
	if !q.Allow(2) {
		t.Fatal("fresh user refused")
	}
	if n := q.Users(); n > 2 {
		t.Fatalf("users %d after sweep window", n)
	}
	clock = 200
	q.Allow(3) // triggers the next sweep; users 1 and 2 are full again
	if n := q.Users(); n > 2 {
		t.Fatalf("sweep kept %d buckets", n)
	}
}

func TestQuotasClamping(t *testing.T) {
	q := NewQuotas(-1, 0, func() job.Time { return 0 })
	if !q.Allow(1) {
		t.Fatal("clamped quotas must allow at least one draw")
	}
	if q.Allow(1) {
		t.Fatal("burst clamped to 1, second draw must fail")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	b := &fakeBackend{}
	q := newTestQueue(t, Config{Backend: b, MaxPending: 10000})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				results, err := q.SubmitBatch([]job.Job{{
					Nodes: 1, Runtime: 60, Request: 60, User: w,
				}})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if results[0].Err != nil {
					t.Errorf("worker %d item: %v", w, results[0].Err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := q.Stats()
	if st.Committed != workers*perWorker {
		t.Fatalf("committed %d, want %d", st.Committed, workers*perWorker)
	}
	seen := make(map[int]bool)
	for _, j := range b.committed() {
		if seen[j.ID] {
			t.Fatalf("job %d committed twice", j.ID)
		}
		seen[j.ID] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d unique jobs, want %d", len(seen), workers*perWorker)
	}
}

func TestNewQueueValidation(t *testing.T) {
	if _, err := NewQueue(Config{}); err == nil {
		t.Fatal("nil backend must error")
	}
}

func TestStatsInvariant(t *testing.T) {
	// Accepted = Committed + Rejected + Pending must hold at rest.
	b := &fakeBackend{reject: map[int]error{3: fmt.Errorf("no")}}
	q := newTestQueue(t, Config{Backend: b})
	if _, err := q.SubmitBatch([]job.Job{
		{ID: 1, Nodes: 1, Runtime: 60, Request: 60},
		{ID: 3, Nodes: 1, Runtime: 60, Request: 60},
	}); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Accepted != st.Committed+st.Rejected+int64(st.Pending) {
		t.Fatalf("invariant broken: %+v", st)
	}
}
