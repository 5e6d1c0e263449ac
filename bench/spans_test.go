package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A hand-built tree: self time is the span's duration minus the part of
// its interval that its children cover, overlapping children counted
// once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "bench", Name: "round", ID: 1, Parent: 0, Start: 0, End: 1000},
		{Layer: "server", Name: "post", ID: 2, Parent: 1, Start: 100, End: 400},
		{Layer: "server", Name: "handler", ID: 3, Parent: 2, Start: 150, End: 350},
		{Layer: "engine", Name: "submit", ID: 4, Parent: 3, Start: 200, End: 250},
		{Layer: "journal", Name: "sync", ID: 5, Parent: 3, Start: 240, End: 330}, // overlaps 4 by 10
		{Layer: "core", Name: "decide", ID: 6, Parent: 1, Start: 500, End: 800},
		{Layer: "core", Name: "decide", ID: 7, Parent: 1, Start: 900, End: 1100}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 1000 - (300 + 300 + 100),
		2: 300 - 200,
		3: 200 - (330 - 200),
		4: 50,
		5: 90,
		6: 300,
		7: 200,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	byLayer := make(map[string]layerRow)
	for _, r := range rows {
		byLayer[r.Layer] = r
	}
	if r := byLayer["server"]; r.Calls != 2 || r.BusyNs != 500 || r.SelfNs != 100+70 {
		t.Errorf("server row = %+v, want 2 calls, busy 500, self 170", r)
	}
	if r := byLayer["core"]; r.Calls != 2 || r.SelfNs != 500 {
		t.Errorf("core row = %+v, want 2 calls, self 500", r)
	}
	if r := byLayer["journal"]; r.SelfNs != 90 {
		t.Errorf("journal self = %d, want 90", r.SelfNs)
	}
}

// On a single chain the innermost open span is the parent, whichever
// goroutine opens the next one; self times of a well-nested tree add up
// to the root.
func TestRecorderStackParents(t *testing.T) {
	rec := newRecorder(false)
	root := rec.begin("bench", "round", 0)
	post := rec.begin("server", "post", 7)
	done := make(chan int32)
	go func() {
		h := rec.begin("server", "handler", 0)
		rec.end(h)
		done <- h
	}()
	handler := <-done
	rec.end(post)
	decide := rec.begin("core", "decide", 0)
	rec.end(decide)
	rec.end(root)
	spans := rec.snapshot()
	parent := make(map[int32]int32)
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	if parent[root] != 0 || parent[post] != root || parent[handler] != post || parent[decide] != root {
		t.Errorf("parents = %v", parent)
	}
	var sum int64
	for _, v := range selfTimes(spans) {
		sum += v
	}
	if sum != spans[0].dur() {
		t.Errorf("self times add up to %d, root lasted %d", sum, spans[0].dur())
	}
	var nilRec *recorder
	if id := nilRec.begin("x", "y", 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	nilRec.end(0)
}

// With concurrent clients spans hang under the root unless a parent is
// named.
func TestRecorderConcurrentParents(t *testing.T) {
	rec := newRecorder(true)
	root := rec.begin("bench", "storm", 0)
	a := rec.begin("server", "post", 0)
	b := rec.begin("server", "post", 0)
	h := rec.beginUnder(b, "server", "handler", 0)
	for _, id := range []int32{h, a, b, root} {
		rec.end(id)
	}
	for _, s := range rec.snapshot() {
		want := root
		switch s.ID {
		case root:
			want = 0
		case h:
			want = b
		}
		if s.Parent != want {
			t.Errorf("span %d has parent %d, want %d", s.ID, s.Parent, want)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	spans := []span{{Layer: "core", Name: "decide", ID: 1, Start: 1500, End: 4500, Job: 3}}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, time.Now(), spans, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "core.decide" || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Ts != 1 || doc.TraceEvents[0].Dur != 3 {
		t.Errorf("events = %+v", doc.TraceEvents)
	}
}
