package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schedsearch/internal/job"
)

// eventToWire is the reference encoding of an event: encoding/json of
// journalLine{Ev: eventToWire(ev)} is the line appendEventLine must
// write.
func eventToWire(ev Event) *eventWire {
	w := &eventWire{Kind: uint8(ev.Kind), At: ev.At, ID: ev.ID, Estimates: ev.Estimates, Starts: ev.Starts}
	if ev.Kind == EvSubmit {
		j := ev.Job
		w.Job = &j
	}
	return w
}

func marshalLine(t testing.TB, ev Event) []byte {
	t.Helper()
	buf, err := json.Marshal(journalLine{Ev: eventToWire(ev)})
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// eventGen draws journal events field by field from next, favouring
// the values an encoder gets wrong: zero, negative and the int64 edges,
// nil against empty lists. canonical keeps each event to the fields
// its kind writes, with an empty list always nil, so the event is what
// decoding its line gives back.
type eventGen struct {
	next      func() uint64
	canonical bool
}

func (g eventGen) int() int64 {
	switch v := g.next(); v % 8 {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -int64(v >> 8 % 1000)
	case 4:
		return int64(v)
	default:
		return int64(v >> 8 % 100000)
	}
}

func (g eventGen) event() Event {
	ev := Event{Kind: []EventKind{EvSubmit, EvFinish, EvWithdraw, EvDecide}[g.next()%4], At: g.int()}
	full := !g.canonical
	if full || ev.Kind == EvSubmit {
		ev.Job = job.Job{ID: int(g.int()), Submit: g.int(), Nodes: int(g.int()), Runtime: g.int(), Request: g.int(), User: int(g.int())}
	}
	if full || ev.Kind == EvFinish || ev.Kind == EvWithdraw {
		ev.ID = int(g.int())
	}
	if !full && ev.Kind != EvDecide {
		return ev
	}
	if n := g.next() % 4; n > 0 || !g.canonical && g.next()%2 == 0 {
		ev.Estimates = make([]Estimate, n)
		for i := range ev.Estimates {
			ev.Estimates[i] = Estimate{ID: int(g.int()), Estimate: g.int()}
		}
	}
	if n := g.next() % 4; n > 0 || !g.canonical && g.next()%2 == 0 {
		ev.Starts = make([]Start, n)
		for i := range ev.Starts {
			ev.Starts[i].ID = int(g.int())
			if k := g.next() % 5; k > 0 {
				ev.Starts[i].NodeIDs = make([]int, k-1)
				for n := range ev.Starts[i].NodeIDs {
					ev.Starts[i].NodeIDs[n] = int(g.int())
				}
			}
		}
	}
	return ev
}

// TestJournalLineMatchesMarshal: the appender writes, byte for byte,
// the line encoding/json writes for the same event, over random events
// of every kind (including fields their kind does not write).
func TestJournalLineMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := eventGen{next: rng.Uint64}
	var got []byte
	for i := 0; i < 20000; i++ {
		ev := g.event()
		got = appendEventLine(got[:0], ev)
		if want := marshalLine(t, ev); !bytes.Equal(got, want) {
			t.Fatalf("event %d %+v:\nappender %s\njson     %s", i, ev, got, want)
		}
	}
}

// FuzzJournalLine: the appended line equals encoding/json's, and
// loadJournal reads it back as the same event.
func FuzzJournalLine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x00\x00\x00\x00\x00\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		ev := eventGen{next: next, canonical: true}.event()
		line := appendEventLine(nil, ev)
		if want := marshalLine(t, ev); !bytes.Equal(line, want) {
			t.Fatalf("%+v:\nappender %s\njson     %s", ev, line, want)
		}
		if err := os.WriteFile(path, line, 0o644); err != nil {
			t.Fatal(err)
		}
		base, events, valid, err := loadJournal(path)
		if err != nil || base != nil || len(events) != 1 || valid != int64(len(line)) {
			t.Fatalf("%s: loaded base %v, %d events, %d of %d bytes, err %v", line, base, len(events), valid, len(line), err)
		}
		if !reflect.DeepEqual(events[0], ev) {
			t.Fatalf("%s: read back %+v, appended %+v", line, events[0], ev)
		}
	})
}

// TestAppendAllocations pins the journal's append path: a
// steady-state FileJournal.Append of a submit or a decision allocates
// nothing, and the in-memory tail allocates one chunk per logChunk
// events, none once compaction has emptied it.
func TestAppendAllocations(t *testing.T) {
	fj, err := OpenFileJournal(filepath.Join(t.TempDir(), "journal.jsonl"), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	submit := Event{Kind: EvSubmit, At: 1 << 40, Job: job.Job{ID: 123456, Submit: 1 << 40, Nodes: 64, Runtime: 3600, Request: 7200, User: 17}}
	decide := Event{Kind: EvDecide, At: 1 << 40,
		Estimates: []Estimate{{ID: 123456, Estimate: 3600}, {ID: 123457, Estimate: 60}},
		Starts:    []Start{{ID: 123456, NodeIDs: []int{0, 1, 2, 3, 4, 5, 6, 7}}}}
	for _, ev := range []Event{submit, decide} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := fj.Append(ev); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("FileJournal.Append(%v) allocates %v times, want 0", ev.Kind, allocs)
		}
	}

	var l eventLog
	if allocs := testing.AllocsPerRun(64, func() {
		for range logChunk {
			l.append(decide)
		}
	}); allocs > 1 {
		t.Errorf("eventLog: %v allocations per %d appends, want at most 1", allocs, logChunk)
	}
	n := l.n
	if allocs := testing.AllocsPerRun(4, func() {
		l.reset()
		for range n {
			l.append(submit)
		}
	}); allocs != 0 {
		t.Errorf("eventLog: refilling %d reset events allocates %v times, want 0", n, allocs)
	}
	if got := l.events(); len(got) != n || !reflect.DeepEqual(got[0], submit) || !reflect.DeepEqual(got[n-1], submit) {
		t.Fatalf("eventLog holds %d events, want %d submits", len(got), n)
	}
}
