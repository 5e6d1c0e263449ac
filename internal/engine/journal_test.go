package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/oracle"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

// journalInput is a small month for file-journal tests: enough jobs to
// exercise every event kind without making fsync loops slow.
func journalInput(t *testing.T) sim.Input {
	t.Helper()
	suite := workload.NewSuite(workload.Config{Seed: 23, JobScale: 0.02})
	in, _, err := suite.Input("6/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// runWithJournal drives a trace through an engine wired to a
// FileJournal and returns the engine (journal synced and closed).
func runWithJournal(t *testing.T, in sim.Input, path string, group, compactEvery int) *Engine {
	t.Helper()
	fj, err := OpenFileJournal(path, group)
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	e, err := New(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: vc,
		MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
		Journal: fj, CompactEvery: compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFileJournalRoundtrip: the on-disk journal decodes back to the
// exact event sequence the engine holds in memory, and a rebuild from
// the loaded checkpoint reproduces the records.
func TestFileJournalRoundtrip(t *testing.T) {
	in := journalInput(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	e := runWithJournal(t, in, path, 8, 0)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Base != nil {
		t.Fatal("uncompacted journal decoded a base")
	}
	mem := e.Checkpoint().Events
	if len(cp.Events) != len(mem) {
		t.Fatalf("loaded %d events, engine holds %d", len(cp.Events), len(mem))
	}
	for i := range cp.Events {
		if !reflect.DeepEqual(cp.Events[i], mem[i]) {
			t.Fatalf("event %d: loaded %+v, engine %+v", i, cp.Events[i], mem[i])
		}
	}

	re, err := Rebuild(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: NewVirtualClock(),
		MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
	}, cp)
	if err != nil {
		t.Fatal(err)
	}
	diffRecords(t, e.Records(), re.Records())
}

// TestFileJournalCompactedRoundtrip: with auto-compaction on, the file
// holds a base line plus a bounded tail, and rebuilding from it still
// reproduces the full record set.
func TestFileJournalCompactedRoundtrip(t *testing.T) {
	in := journalInput(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	const every = 32
	e := runWithJournal(t, in, path, 8, every)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Base == nil {
		t.Fatal("compacted journal has no base line")
	}
	tail := e.Checkpoint().Events
	if len(cp.Events) != len(tail) {
		t.Fatalf("file tail %d events, engine tail %d", len(cp.Events), len(tail))
	}
	if len(cp.Events) > every+in.Capacity {
		t.Fatalf("tail %d events, want bounded near %d", len(cp.Events), every)
	}

	re, err := Rebuild(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: NewVirtualClock(),
		MeasureStart: in.MeasureStart, MeasureEnd: in.MeasureEnd,
	}, cp)
	if err != nil {
		t.Fatal(err)
	}
	diffRecords(t, e.Records(), re.Records())
	if err := oracle.CheckRecords(in.Capacity, in.Jobs, re.Records()); err != nil {
		t.Fatal(err)
	}
}

// TestFileJournalCrashRecovery simulates a daemon crash: half the
// month runs against a journal, the process "dies", a new engine loads
// the checkpoint from disk and the remaining jobs arrive. Every job
// must complete exactly once and the combined schedule must satisfy
// the oracle. (Bit-identity to an uninterrupted run is not asserted
// here: disk recovery conservatively schedules a decision on wake,
// which may legitimately reorder the queue; the in-memory differential
// in compact_test.go covers bit-identity.)
func TestFileJournalCrashRecovery(t *testing.T) {
	in := journalInput(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	half := len(in.Jobs) / 2
	tCrash := in.Jobs[half].Submit

	fj, err := OpenFileJournal(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	e1, err := New(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: vc, Journal: fj,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs[:half] {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := e1.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.AdvanceTo(tCrash)
	if err := e1.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e1.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Rebuild(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: vc,
	}, cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs[half:] {
		j := j
		vc.AfterFunc(j.Submit-vc.Now(), func() {
			if err := e2.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e2.Err(); err != nil {
		t.Fatal(err)
	}
	recs := e2.Records()
	if len(recs) != len(in.Jobs) {
		t.Fatalf("%d records after recovery, want %d", len(recs), len(in.Jobs))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.Job.ID] {
			t.Fatalf("job %d completed twice", r.Job.ID)
		}
		seen[r.Job.ID] = true
	}
	if err := oracle.CheckRecords(in.Capacity, in.Jobs, recs); err != nil {
		t.Fatal(err)
	}
}

// TestFileJournalGroupCommit: with group=16, the journal coalesces
// commit boundaries into roughly appends/16 fsyncs instead of one per
// event.
func TestFileJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := OpenFileJournal(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		ev := Event{Kind: EvSubmit, At: job.Time(i), Job: job.Job{ID: i + 1, Nodes: 1, Runtime: 60}}
		if err := fj.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := fj.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := fj.Stats()
	if st.Appends != n {
		t.Fatalf("appends %d, want %d", st.Appends, n)
	}
	if want := int64(n / 16); st.Syncs != want {
		t.Fatalf("syncs %d, want %d (group commit not coalescing)", st.Syncs, want)
	}
	if err := fj.Sync(); err != nil { // flush the partial group
		t.Fatal(err)
	}
	if st := fj.Stats(); st.Syncs != n/16+1 {
		t.Fatalf("syncs after explicit Sync %d, want %d", st.Syncs, n/16+1)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Events) != n {
		t.Fatalf("loaded %d events, want %d", len(cp.Events), n)
	}
}

// TestLoadJournalTornTail: a torn final line (the crash wrote half a
// record) is tolerated; garbage in the middle of the file is not.
func TestLoadJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := OpenFileJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := Event{Kind: EvSubmit, At: job.Time(i), Job: job.Job{ID: i + 1, Nodes: 1, Runtime: 60}}
		if err := fj.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: append half a JSON object with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":{"k":1,"t":99`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(cp.Events) != 3 {
		t.Fatalf("loaded %d events, want 3", len(cp.Events))
	}

	// Mid-file corruption: a broken line followed by a good one errors.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, []byte("\n"+`{"ev":{"k":1,"t":100,"job":{"ID":9,"Nodes":1,"Runtime":60}}}`+"\n")...)
	if err := os.WriteFile(path, raw, 0644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("mid-file corruption silently ignored")
	}
}

// TestRecoverCheckpointTruncatesTornTail reproduces the post-crash
// append hazard: a torn final line must be truncated before the
// journal is reopened O_APPEND, or the first post-recovery event
// merges onto the partial line and the *next* restart reads the merged
// garbage as mid-file corruption.
func TestRecoverCheckpointTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := OpenFileJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := Event{Kind: EvSubmit, At: job.Time(i), Job: job.Job{ID: i + 1, Nodes: 1, Runtime: 60}}
		if err := fj.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := fj.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":{"k":1,"t":99`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := RecoverCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Events) != 3 {
		t.Fatalf("recovered %d events, want 3", len(cp.Events))
	}

	// The first fsync-acknowledged event after recovery must land on a
	// clean line boundary and survive the next load.
	fj2, err := OpenFileJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: EvSubmit, At: 100, Job: job.Job{ID: 4, Nodes: 1, Runtime: 60}}
	if err := fj2.Append(ev); err != nil {
		t.Fatal(err)
	}
	if err := fj2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fj2.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("journal unreadable after post-recovery append: %v", err)
	}
	if len(cp.Events) != 4 {
		t.Fatalf("loaded %d events after post-recovery append, want 4", len(cp.Events))
	}
	if cp.Events[3].Job.ID != 4 {
		t.Fatalf("post-recovery event holds job %d, want 4", cp.Events[3].Job.ID)
	}
}

// TestLoadJournalUnterminatedTail: a final line missing its newline was
// never fsync-acknowledged (a sync flushes the trailing newline before
// the fsync that acknowledges it), so it is dropped even when it
// decodes — keeping it would let the next O_APPEND write merge onto
// it.
func TestLoadJournalUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := OpenFileJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: EvSubmit, At: 0, Job: job.Job{ID: 1, Nodes: 1, Runtime: 60}}
	if err := fj.Append(ev); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the (decodable) line without its trailing newline.
	complete := int64(len(raw))
	if err := os.WriteFile(path, append(raw, raw[:len(raw)-1]...), 0644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Events) != 1 {
		t.Fatalf("loaded %d events, want 1 (unterminated tail kept)", len(cp.Events))
	}
	if _, err := RecoverCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != complete {
		t.Fatalf("recovered journal is %d bytes, want %d (tail truncated)", st.Size(), complete)
	}
}

// TestFileJournalCompactRewritesFile: an explicit Compact rewrites the
// file to a base line (atomic rename), after which LoadCheckpoint sees
// the base and an empty tail.
func TestFileJournalCompactRewritesFile(t *testing.T) {
	in := journalInput(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	fj, err := OpenFileJournal(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	e, err := New(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: vc, Journal: fj,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.Jobs {
		j := j
		vc.AfterFunc(j.Submit, func() {
			if err := e.SubmitJob(j); err != nil {
				t.Errorf("submit job %d: %v", j.ID, err)
			}
		})
	}
	vc.Run()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fj.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Base == nil {
		t.Fatal("compacted file has no base")
	}
	if len(cp.Events) != 0 {
		t.Fatalf("compacted file has %d tail events, want 0", len(cp.Events))
	}
	if len(cp.Base.Done) != len(in.Jobs) {
		t.Fatalf("base holds %d done jobs, want %d", len(cp.Base.Done), len(in.Jobs))
	}
	re, err := Rebuild(Config{
		Capacity: in.Capacity, Policy: policy.FCFSBackfill(), Clock: NewVirtualClock(),
	}, cp)
	if err != nil {
		t.Fatal(err)
	}
	diffRecords(t, e.Records(), re.Records())
}

// TestEventKindsAreTheFormat pins the journal's kind numbers, which are
// its on-disk format, and that a line of a retired kind (1 or 2, from a
// journal written before a decision was one event) still decodes but
// is refused at replay instead of being read as something else.
func TestEventKindsAreTheFormat(t *testing.T) {
	for k, want := range map[EventKind]uint8{EvSubmit: 0, EvFinish: 3, EvWithdraw: 4, EvDecide: 5} {
		if uint8(k) != want {
			t.Errorf("%v is kind %d, the format says %d", k, uint8(k), want)
		}
	}
	for _, old := range []string{
		`{"ev":{"k":1,"t":0,"id":1,"est":100}}`,
		`{"ev":{"k":2,"t":0,"id":1,"nodes":[0,1]}}`,
	} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		fj, err := OpenFileJournal(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fj.Append(Event{Kind: EvSubmit, Job: job.Job{ID: 1, Nodes: 2, Runtime: 100, Request: 100}}); err != nil {
			t.Fatal(err)
		}
		if err := fj.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(old + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil || len(cp.Events) != 2 {
			t.Fatalf("%s: loaded %d events, err %v; want both lines decoded", old, len(cp.Events), err)
		}
		_, err = Rebuild(Config{Capacity: 8, Policy: policy.FCFSBackfill(), Clock: NewVirtualClock()}, cp)
		if err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("%s: rebuild returned %v, want an unknown kind", old, err)
		}
	}
}
