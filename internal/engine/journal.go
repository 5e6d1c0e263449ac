package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/obs"
)

// JournalSink persists the engine's committed event journal. The engine
// calls Append for every committed event (under its own mutex, so
// implementations see a serialized stream) and Commit at the end of
// every mutation (a submit, a decision, a completion batch, a
// withdrawal). A sink is free to defer durability inside Commit — that
// is the group-commit lever — but Sync must make everything appended so
// far durable before returning. Compact atomically replaces the
// persisted journal with a Base snapshot, truncating the event tail.
//
// A sink error is fatal to the engine: a scheduler that cannot journal
// its decisions must stop taking them rather than diverge from its
// recovery image.
type JournalSink interface {
	Append(ev Event) error
	Commit() error
	Sync() error
	Compact(base Base) error
}

// JournalStats counts a sink's work; the engine surfaces them in
// Metrics when the sink implements StatsReporter.
type JournalStats struct {
	// Appends is the number of events appended.
	Appends int64 `json:"appends"`
	// Syncs is the number of fsync boundaries — the group-commit
	// effectiveness measure is Appends/Syncs.
	Syncs int64 `json:"syncs"`
	// Compactions is the number of Compact calls.
	Compactions int64 `json:"compactions"`
}

// StatsReporter is the optional sink extension surfacing JournalStats.
type StatsReporter interface {
	Stats() JournalStats
}

// SyncLatencyReporter is the optional sink extension surfacing the
// fsync-latency histogram; the engine exposes it in Counters (and the
// server exports it as a Prometheus histogram) when the sink
// implements it.
type SyncLatencyReporter interface {
	SyncLatency() obs.HistSnapshot
}

// FileJournal is a durable JournalSink: a JSON-lines file holding an
// optional leading {"base": ...} snapshot followed by {"ev": ...}
// events in commit order: Append writes event lines with
// appendEventLine, byte-equal to encoding/json's, Compact base lines
// with encoding/json, and loadJournal reads both. Commit fsyncs only
// once `group` events have accumulated since the last sync (group
// commit); Sync forces the boundary early (the ingest committer calls
// it once per accepted batch group, so a batch is acknowledged only
// after its events are durable). Compact rewrites the file atomically
// (temp file + rename).
type FileJournal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	line    []byte // Append's encoding buffer, reused
	group   int
	pending int
	stats   JournalStats
	lat     obs.Hist
}

// OpenFileJournal opens (creating if needed, appending if not) the
// journal at path. group is the number of events coalesced per fsync
// boundary; values < 1 mean 1 (sync every commit — the serial
// baseline).
func OpenFileJournal(path string, group int) (*FileJournal, error) {
	if group < 1 {
		group = 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	return &FileJournal{path: path, f: f, w: bufio.NewWriter(f), group: group}, nil
}

// Path returns the journal file path.
func (fj *FileJournal) Path() string { return fj.path }

// Append implements JournalSink; the event is buffered until the next
// fsync boundary.
func (fj *FileJournal) Append(ev Event) error {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.f == nil {
		return errors.New("engine: journal closed")
	}
	fj.line = appendEventLine(fj.line[:0], ev)
	if _, err := fj.w.Write(fj.line); err != nil {
		return fmt.Errorf("engine: journal write: %w", err)
	}
	fj.pending++
	fj.stats.Appends++
	return nil
}

// Commit implements JournalSink: it fsyncs only when the group is full.
func (fj *FileJournal) Commit() error {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.pending < fj.group {
		return nil
	}
	return fj.syncLocked()
}

// Sync implements JournalSink: everything appended becomes durable.
func (fj *FileJournal) Sync() error {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.pending == 0 {
		return nil
	}
	return fj.syncLocked()
}

func (fj *FileJournal) syncLocked() error {
	if fj.f == nil {
		return errors.New("engine: journal closed")
	}
	t0 := time.Now()
	if err := fj.w.Flush(); err != nil {
		return fmt.Errorf("engine: journal flush: %w", err)
	}
	if err := fj.f.Sync(); err != nil {
		return fmt.Errorf("engine: journal sync: %w", err)
	}
	fj.lat.Observe(time.Since(t0))
	fj.pending = 0
	fj.stats.Syncs++
	return nil
}

// Compact implements JournalSink: the file is atomically replaced by
// one holding only the base snapshot, so recovery cost is bounded by
// the live state, not the history length.
func (fj *FileJournal) Compact(base Base) error {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.f == nil {
		return errors.New("engine: journal closed")
	}
	tmp := fj.path + ".compact"
	nf, err := writeBase(tmp, base)
	if err == nil {
		if err = os.Rename(tmp, fj.path); err != nil {
			nf.Close()
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("engine: journal compact: %w", err)
	}
	// The rename is durable once the directory entry is synced.
	if dir, derr := os.Open(filepath.Dir(fj.path)); derr == nil {
		_ = dir.Sync()
		dir.Close()
	}
	old := fj.f
	fj.f = nf
	fj.w.Reset(nf)
	fj.pending = 0
	fj.stats.Compactions++
	fj.stats.Syncs++
	old.Close()
	return nil
}

// writeBase writes a journal holding only base's line to path, fsyncs
// it and returns it open for appending; on an error nothing is left at
// path.
func writeBase(path string, base Base) (*os.File, error) {
	buf, err := json.Marshal(journalLine{Base: &base})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(append(buf, '\n')); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// Stats implements StatsReporter.
func (fj *FileJournal) Stats() JournalStats {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	return fj.stats
}

// SyncLatency implements SyncLatencyReporter: the flush+fsync latency
// distribution of the group-commit boundaries (Compact's snapshot
// rewrite is not included — it is a rare maintenance fsync, not a
// commit-path one).
func (fj *FileJournal) SyncLatency() obs.HistSnapshot {
	return fj.lat.Snapshot()
}

// Close syncs any buffered events and closes the file.
func (fj *FileJournal) Close() error {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if fj.f == nil {
		return nil
	}
	var err error
	if fj.pending > 0 {
		err = fj.syncLocked()
	}
	if cerr := fj.f.Close(); err == nil {
		err = cerr
	}
	fj.f = nil
	return err
}

// journalLine is one line of the JSON-lines journal file: exactly one
// of Base (the leading compaction snapshot) or Ev (a tail event).
type journalLine struct {
	Base *Base      `json:"base,omitempty"`
	Ev   *eventWire `json:"ev,omitempty"`
}

// eventWire is the on-disk shape of an Event; pointers and omitempty
// keep the common lines short. The keys of the retired kinds 1 and 2
// ("est", "nodes") are not reused, so their lines still decode and
// replay refuses them by kind. appendEventLine writes this shape by
// hand and must change with it.
type eventWire struct {
	Kind      uint8      `json:"k"`
	At        job.Time   `json:"t"`
	Job       *job.Job   `json:"job,omitempty"`
	ID        int        `json:"id,omitempty"`
	Estimates []Estimate `json:"ests,omitempty"`
	Starts    []Start    `json:"starts,omitempty"`
}

func eventFromWire(w *eventWire) Event {
	ev := Event{Kind: EventKind(w.Kind), At: w.At, ID: w.ID, Estimates: w.Estimates, Starts: w.Starts}
	if w.Job != nil {
		ev.Job = *w.Job
	}
	return ev
}

// appendEventLine appends ev's journal line to b, trailing newline
// included: byte for byte what encoding/json writes for the line
// {"ev": eventWire} (keys in eventWire's order, job only on EvSubmit,
// empty id, ests and starts omitted, a nil node list as null), but
// without reflection or allocation. TestJournalLineMatchesMarshal holds
// the two equal, so a change to eventWire changes this too.
func appendEventLine(b []byte, ev Event) []byte {
	b = appendInt(b, `{"ev":{"k":`, int64(ev.Kind))
	b = appendInt(b, `,"t":`, ev.At)
	if ev.Kind == EvSubmit {
		j := ev.Job
		b = appendInt(b, `,"job":{"ID":`, int64(j.ID))
		b = appendInt(b, `,"Submit":`, j.Submit)
		b = appendInt(b, `,"Nodes":`, int64(j.Nodes))
		b = appendInt(b, `,"Runtime":`, j.Runtime)
		b = appendInt(b, `,"Request":`, j.Request)
		b = appendInt(b, `,"User":`, int64(j.User))
		b = append(b, '}')
	}
	if ev.ID != 0 {
		b = appendInt(b, `,"id":`, int64(ev.ID))
	}
	if len(ev.Estimates) > 0 {
		b = append(b, `,"ests":[`...)
		for _, fix := range ev.Estimates {
			b = appendInt(b, `{"id":`, int64(fix.ID))
			b = appendInt(b, `,"est":`, fix.Estimate)
			b = append(b, "},"...)
		}
		b[len(b)-1] = ']'
	}
	if len(ev.Starts) > 0 {
		b = append(b, `,"starts":[`...)
		for _, s := range ev.Starts {
			b = appendInt(b, `{"id":`, int64(s.ID))
			b = append(b, `,"nodes":`...)
			if s.NodeIDs == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for k, n := range s.NodeIDs {
					if k > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(n), 10)
				}
				b = append(b, ']')
			}
			b = append(b, "},"...)
		}
		b[len(b)-1] = ']'
	}
	return append(b, "}}\n"...)
}

// appendInt appends key and then v in decimal.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// loadJournal reads a journal file back: the optional leading base
// snapshot, the event tail in commit order, and the byte offset just
// past the last cleanly-parsed, newline-terminated line — the length
// recovery truncates the file to so post-crash appends start on a clean
// line boundary. A torn tail (a crash mid-write before the fsync
// boundary: a line that fails to decode, or any data after the file's
// last newline — a sync flushes each line's trailing newline before the
// fsync that acknowledges it, so such data was never acknowledged) is
// ignored, but corruption anywhere else is an error. Lines are read
// without a length cap, so a compacted base snapshot of any size loads
// back.
func loadJournal(path string) (*Base, []Event, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("engine: load journal: %w", err)
	}
	defer f.Close()
	var (
		base   *Base
		events []Event
		r      = bufio.NewReaderSize(f, 1<<20)
		off    int64 // bytes consumed so far
		valid  int64 // offset past the last fully-parsed line
		lineNo int
		torn   error
	)
	for {
		raw, rerr := r.ReadBytes('\n')
		if len(raw) > 0 {
			lineNo++
			off += int64(len(raw))
			terminated := raw[len(raw)-1] == '\n'
			data := bytes.TrimRight(raw, "\r\n")
			switch {
			case len(data) == 0:
				if terminated && torn == nil {
					valid = off
				}
			case !terminated:
				// Data past the final newline was never acknowledged —
				// a torn tail even when it happens to decode. Keeping it
				// would let the next O_APPEND write merge onto it.
				torn = fmt.Errorf("engine: load journal: line %d: no trailing newline", lineNo)
			default:
				var line journalLine
				if err := json.Unmarshal(data, &line); err != nil {
					torn = fmt.Errorf("engine: load journal: line %d: %w", lineNo, err)
					break
				}
				if torn != nil {
					// A decodable line after a broken one is corruption,
					// not a torn tail.
					return nil, nil, 0, torn
				}
				switch {
				case line.Base != nil:
					if lineNo != 1 {
						return nil, nil, 0, fmt.Errorf("engine: load journal: base snapshot at line %d (must be first)", lineNo)
					}
					base = line.Base
				case line.Ev != nil:
					events = append(events, eventFromWire(line.Ev))
				default:
					return nil, nil, 0, fmt.Errorf("engine: load journal: line %d holds neither base nor event", lineNo)
				}
				valid = off
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			return nil, nil, 0, fmt.Errorf("engine: load journal: %w", rerr)
		}
	}
	return base, events, valid, nil
}

// LoadCheckpoint reads a journal file into a Checkpoint ready for
// Rebuild. The decide-pending flag is not persisted; it is set
// unconditionally — Rebuild only acts on it when jobs are waiting, and
// an extra decision request on a queue the lost engine had already
// decided is absorbed by the coalescing (the policy sees the same
// snapshot it already answered).
func LoadCheckpoint(path string) (Checkpoint, error) {
	base, events, _, err := loadJournal(path)
	if err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{Base: base, Events: events, DecidePending: true}, nil
}

// RecoverCheckpoint is LoadCheckpoint for crash recovery: it also
// truncates any torn tail off the file, so a subsequently-opened
// append handle (OpenFileJournal opens O_APPEND) starts on a clean
// line boundary. Without the truncation the first post-recovery event
// would merge onto the partial line, and the merged garbage — followed
// by decodable lines — reads as mid-file corruption on the next
// restart.
func RecoverCheckpoint(path string) (Checkpoint, error) {
	base, events, valid, err := loadJournal(path)
	if err != nil {
		return Checkpoint{}, err
	}
	if st, serr := os.Stat(path); serr == nil && st.Size() > valid {
		if terr := os.Truncate(path, valid); terr != nil {
			return Checkpoint{}, fmt.Errorf("engine: truncate torn journal tail: %w", terr)
		}
	}
	return Checkpoint{Base: base, Events: events, DecidePending: true}, nil
}
