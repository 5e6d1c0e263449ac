package engine

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/policy"
)

// TestWithdrawAdmit exercises the migration primitives: a queued job
// can be withdrawn and re-admitted (submit time preserved), a running
// or finished job cannot, and the books stay balanced throughout.
func TestWithdrawAdmit(t *testing.T) {
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	var wide, queued int
	vc.AfterFunc(0, func() {
		// Fills the machine for an hour; everything behind it queues.
		if wide, err = e.Submit(job.Job{Nodes: 8, Runtime: 3600, Request: 3600}); err != nil {
			t.Error(err)
		}
		if queued, err = e.Submit(job.Job{Nodes: 2, Runtime: 60, Request: 60}); err != nil {
			t.Error(err)
		}
	})
	vc.AfterFunc(10, func() {
		if _, err := e.Withdraw(wide); !errors.Is(err, ErrNotQueued) {
			t.Errorf("withdraw of running job: %v, want ErrNotQueued", err)
		}
		if _, err := e.Withdraw(999); !errors.Is(err, ErrNotQueued) {
			t.Errorf("withdraw of unknown job: %v, want ErrNotQueued", err)
		}
		j, err := e.Withdraw(queued)
		if err != nil {
			t.Fatalf("withdraw queued job: %v", err)
		}
		if j.ID != queued || j.Submit != 0 {
			t.Fatalf("withdrew %+v, want ID %d submitted at 0", j, queued)
		}
		if _, ok, _ := e.Job(queued); ok {
			t.Error("withdrawn job still known to the engine")
		}
		// Double withdraw must fail, re-admission must preserve the
		// original submit time even though the clock moved.
		if _, err := e.Withdraw(queued); !errors.Is(err, ErrNotQueued) {
			t.Errorf("double withdraw: %v, want ErrNotQueued", err)
		}
		if err := e.Admit(j); err != nil {
			t.Fatalf("re-admit: %v", err)
		}
		st, ok, _ := e.Job(queued)
		if !ok || st.Job.Submit != 0 {
			t.Fatalf("re-admitted job: %+v, want submit time 0 preserved", st)
		}
	})
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Job.ID == queued && r.Job.Submit != 0 {
			t.Errorf("migrated job's record submit %d, want 0", r.Job.Submit)
		}
	}
}

// TestRebuildReplaysWithdraw checkpoints an engine whose journal holds
// a withdrawal and rebuilds it: the replayed engine must agree on the
// queue and never resurrect the withdrawn job.
func TestRebuildReplaysWithdraw(t *testing.T) {
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: 4, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	var gone int
	vc.AfterFunc(0, func() {
		if _, err := e.Submit(job.Job{Nodes: 4, Runtime: 7200, Request: 7200}); err != nil {
			t.Error(err)
		}
		if gone, err = e.Submit(job.Job{Nodes: 1, Runtime: 60, Request: 60}); err != nil {
			t.Error(err)
		}
		if _, err := e.Submit(job.Job{Nodes: 2, Runtime: 120, Request: 120}); err != nil {
			t.Error(err)
		}
	})
	var rebuilt *Engine
	vc.AfterFunc(30, func() {
		if _, err := e.Withdraw(gone); err != nil {
			t.Fatalf("withdraw: %v", err)
		}
		cp := e.Checkpoint()
		found := false
		for _, ev := range cp.Events {
			if ev.Kind == EvWithdraw && ev.ID == gone {
				found = true
			}
		}
		if !found {
			t.Fatal("journal has no EvWithdraw event")
		}
		rebuilt, err = Rebuild(Config{Capacity: 4, Policy: policy.FCFSBackfill(), Clock: vc}, cp)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
	})
	vc.Run()
	if err := rebuilt.Err(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := rebuilt.Job(gone); ok {
		t.Error("rebuild resurrected the withdrawn job")
	}
	if got := len(rebuilt.Records()); got != 2 {
		t.Fatalf("rebuilt engine completed %d jobs, want 2", got)
	}
}

// TestLoadScore sanity-checks the load snapshot the federation router
// places by.
func TestLoadScore(t *testing.T) {
	vc := NewVirtualClock()
	e, err := New(Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := e.Load(); l.Score() != 0 || l.FreeNodes != 8 {
		t.Fatalf("idle load: %+v", l)
	}
	vc.AfterFunc(0, func() {
		if _, err := e.Submit(job.Job{Nodes: 8, Runtime: 100, Request: 100}); err != nil {
			t.Error(err)
		}
		if _, err := e.Submit(job.Job{Nodes: 4, Runtime: 50, Request: 50}); err != nil {
			t.Error(err)
		}
	})
	var mid Load
	vc.AfterFunc(10, func() { mid, _ = e.Load() })
	vc.Run()
	if mid.Running != 1 || mid.Waiting != 1 || mid.FreeNodes != 0 {
		t.Fatalf("mid-run load: %+v", mid)
	}
	// Remaining work at t=10: 8 nodes x 90s running + 4 x 50 queued.
	if mid.RemainingNodeSec != 8*90 || mid.QueuedNodeSec != 4*50 {
		t.Fatalf("demand integrals: %+v", mid)
	}
	if want := float64(8*90+4*50) / 8; mid.Score() != want {
		t.Fatalf("score %v, want %v", mid.Score(), want)
	}
}

// TestCompactedRebuildKeepsTombstones compacts an engine holding a
// withdraw tombstone into its file journal and rebuilds it from that
// file: the rebuilt engine must still answer Withdrawn for the job, or
// a retried withdraw after the restart reads "not queued" and the
// router takes the job for started while it is on no shard.
func TestCompactedRebuildKeepsTombstones(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	fj, err := OpenFileJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	vc := NewVirtualClock()
	cfg := Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: vc}
	live := cfg
	live.Journal = fj
	e, err := New(live)
	if err != nil {
		t.Fatal(err)
	}
	var want job.Job
	vc.AfterFunc(0, func() {
		for i := 0; i < 2; i++ {
			if _, err := e.Submit(job.Job{Nodes: 8, Runtime: 600, Request: 600}); err != nil {
				t.Fatal(err)
			}
		}
	})
	vc.AfterFunc(10, func() {
		if want, err = e.Withdraw(2); err != nil {
			t.Fatalf("withdraw the waiting job: %v", err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	vc.AdvanceTo(10)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Base == nil || len(cp.Events) != 0 {
		t.Fatalf("compacted journal holds base %v and %d events, want a base alone", cp.Base != nil, len(cp.Events))
	}
	re, err := Rebuild(cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Withdrawn(2); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt engine: Withdrawn(2) = %+v, %v; want %+v, true", got, ok, want)
	}
}
