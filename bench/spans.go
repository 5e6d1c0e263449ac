package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"schedsearch/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark's own
// decorators from outside the product. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Layer  string // the product package the call went into
	Name   string // the call, e.g. "decide", "handler", "GET /v1/shard/load"
	Start  int64
	End    int64
	ID     int32 // 1-based; 0 is "no span"
	Parent int32 // the span that caused this one, 0 for a root
	Job    int   // job ID when the call is about one job, else 0
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
//
// Parent links come from a stack of open spans: every workload but
// submit_storm has a single closed-loop client, so at any instant one
// chain of calls is in flight — across goroutines — and the innermost
// open span is the cause of the next one. With concurrent clients the
// stack is off and spans hang under the root (or an explicit parent).
type recorder struct {
	mu         sync.Mutex
	epoch      time.Time
	spans      []span
	open       []int32
	concurrent bool
}

func newRecorder(concurrent bool) *recorder {
	return &recorder{epoch: time.Now(), concurrent: concurrent}
}

// begin opens a span under the innermost open span and returns its ID.
func (r *recorder) begin(layer, name string, job int) int32 {
	return r.beginUnder(-1, layer, name, job)
}

// beginUnder opens a span under an explicit parent (-1 = innermost open
// span, or the root span when clients are concurrent).
func (r *recorder) beginUnder(parent int32, layer, name string, job int) int32 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent < 0 {
		parent = 0
		if r.concurrent {
			if len(r.spans) > 0 {
				parent = 1
			}
		} else if n := len(r.open); n > 0 {
			parent = r.open[n-1]
		}
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Layer: layer, Name: name, Start: now, End: -1, ID: id, Parent: parent, Job: job})
	if !r.concurrent {
		r.open = append(r.open, id)
	}
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	if r.concurrent {
		return
	}
	// Spans close innermost-first on a single chain; tolerate a stray
	// out-of-order close by removing the ID wherever it sits.
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// rootNs is the duration of the first span recorded, which every
// workload opens around the whole round.
func (r *recorder) rootNs() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 || r.spans[0].End < r.spans[0].Start {
		return 0
	}
	return r.spans[0].dur()
}

// durationsUs returns the durations, in microseconds, of every span of
// the layer and name.
func durationsUs(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap one
// another when clients are concurrent, so the cover is a union).
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, k int) bool { return ivs[i].lo < ivs[k].lo })
		var covered, curLo, curHi int64
		started := false
		for _, v := range ivs {
			if !started {
				curLo, curHi, started = v.lo, v.hi, true
				continue
			}
			if v.lo <= curHi {
				if v.hi > curHi {
					curHi = v.hi
				}
				continue
			}
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
		if started {
			covered += curHi - curLo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the per-layer report.
type layerRow struct {
	Layer  string
	Calls  int
	BusyNs int64
	SelfNs int64
}

// layerTable aggregates spans by layer: calls, busy time (sum of span
// durations) and self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := make(map[string]*layerRow)
	var order []string
	for _, s := range spans {
		row := idx[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			idx[s.Layer] = row
			order = append(order, s.Layer)
		}
		row.Calls++
		row.BusyNs += s.dur()
		row.SelfNs += self[s.ID]
	}
	sort.Strings(order)
	out := make([]layerRow, len(order))
	for i, l := range order {
		out[i] = *idx[l]
	}
	return out
}

// printLayerTable writes the per-layer report; wallNs is the root
// span's duration the shares are taken of. With concurrent clients
// spans of different requests overlap, so the shares add up to more
// than the wall.
func printLayerTable(w io.Writer, rows []layerRow, wallNs int64, concurrent bool) {
	fmt.Fprintf(w, "  %-12s %10s %12s %12s %8s\n", "layer", "calls", "busy_ms", "self_ms", "share")
	var sum int64
	for _, r := range rows {
		share := 0.0
		if wallNs > 0 {
			share = float64(r.SelfNs) / float64(wallNs)
		}
		sum += r.SelfNs
		fmt.Fprintf(w, "  %-12s %10d %12.2f %12.2f %7.1f%%\n", r.Layer, r.Calls, float64(r.BusyNs)/1e6, float64(r.SelfNs)/1e6, 100*share)
	}
	if wallNs > 0 {
		note := ""
		if concurrent {
			note = "; clients are concurrent, so spans overlap"
		}
		fmt.Fprintf(w, "  %-12s %10s %12s %12.2f %7.1f%%  (traced wall %.2f ms%s)\n", "sum", "", "", float64(sum)/1e6, 100*float64(sum)/float64(wallNs), float64(wallNs)/1e6, note)
	}
}

// writeChromeTrace writes the benchmark's spans and the product
// tracer's spans as one Chrome trace-event JSON document, in the shape
// obs.Tracer.WriteTrace emits (complete "X" events, microseconds), so
// both open on one Perfetto timeline: pid 1 is the product's tracer
// (tid = shard), pid 2 the benchmark's decorators (tid = layer).
func writeChromeTrace(w io.Writer, epoch time.Time, spans []span, product []obs.Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	tids := make(map[string]int)
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		sep()
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":2,"tid":%d,"args":{"span":%d,"parent":%d,"job":%d}}`,
			s.Layer+"."+s.Name, s.Start/1e3, s.dur()/1e3, tid, s.ID, s.Parent, s.Job)
	}
	for i := range product {
		sp := &product[i]
		sep()
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{"trace":"%016x","span":"%016x","parent":"%016x","job":%d}}`,
			sp.Name, sp.Start.Sub(epoch).Microseconds(), sp.Dur.Microseconds(), sp.Shard, sp.TraceID, sp.SpanID, sp.Parent, sp.JobID)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
