package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"schedsearch/internal/sim"
)

// round is one repetition of a workload's timed work.
type round struct {
	N int
	// Traced rounds carry the decorators and the product's tracer.
	Traced bool
}

// fastest is the estimator every timing of this benchmark uses: the
// smallest of the repetitions of one identical piece of work.
//
// Each repetition replays the same inputs, so the work is the same, and
// the machine's other tenants can only add time. On the shared two-core
// sandbox they slow this code by a factor of 1.3 to 1.55, one core at a
// time, in bursts of a second to half a minute, and a wake-up of the
// other core can take any time at all. So the pieces are kept small — a
// decision, a submission and what follows it, a fraction of a
// millisecond to a few milliseconds each — and a run repeats each one
// ten to a hundred times spread over its whole length: a piece then
// reads slow only if every one of its repetitions was disturbed. A real
// regression slows every repetition and still shows. The coarser
// estimates (whole units at their fastest and at their median round) are
// printed on standard error.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// setupTimer times a workload's set-up: repetitions before the timed
// section, one between every two rounds of it and more after it, so
// that the samples span the run and a disturbance at its start does not
// decide setup_s.
type setupTimer[T any] struct {
	sz    sizing
	build func() (T, error)
	secs  []float64
}

// timedSetup builds the workload's state — at least SetupReps times and
// until SetupSeconds have gone by, at most forty times — and returns
// the last repetition's state for the timed section to use.
func timedSetup[T any](sz sizing, build func() (T, error)) (*setupTimer[T], T, error) {
	s := &setupTimer[T]{sz: sz, build: build}
	state, err := s.repeat()
	return s, state, err
}

// once builds the state one more time and drops it.
func (s *setupTimer[T]) once() error {
	t0 := time.Now()
	_, err := s.build()
	s.secs = append(s.secs, time.Since(t0).Seconds())
	return err
}

func (s *setupTimer[T]) repeat() (state T, err error) {
	reps := s.sz.SetupReps
	if reps < 1 {
		reps = 1
	}
	t0 := time.Now()
	for n := 0; n < reps || (time.Since(t0).Seconds() < s.sz.SetupSeconds && n < 40); n++ {
		t1 := time.Now()
		if state, err = s.build(); err != nil {
			return state, err
		}
		s.secs = append(s.secs, time.Since(t1).Seconds())
	}
	return state, nil
}

// finish repeats set-up after the timed section and reports setup_s:
// the fastest repetition's wall time.
func (s *setupTimer[T]) finish(res *result) error {
	if _, err := s.repeat(); err != nil {
		return err
	}
	res.set("setup_s", fastest(s.secs))
	return nil
}

// elementwiseFastest lowers every element of best to the matching
// element of xs and returns the result; best is nil before the first
// round. The replays are deterministic, so element i is the same piece
// of work in every round. Should the lengths ever differ, the pieces no
// longer line up, and the round with the smaller sum is kept whole.
func elementwiseFastest(best, xs []float64) []float64 {
	switch {
	case best == nil:
		return append([]float64(nil), xs...)
	case len(best) != len(xs):
		if sum(xs) < sum(best) {
			return append(best[:0], xs...)
		}
		return best
	}
	for i, x := range xs {
		if x < best[i] {
			best[i] = x
		}
	}
	return best
}

// decideTimes keeps, for every unit of work (a month, or one shard's
// share of a month), the wall time of each of its decisions at the
// fastest round: decision i of a unit sees the same snapshot in every
// round, so rounds the machine's other tenants slowed do not smear the
// distribution.
//
// The two end-to-end percentiles are weighted by time: p50 is the
// latency at or below which half of all decision time is spent. A
// month's decisions are bimodal — a near-empty queue is decided in
// microseconds, a contended one spends the whole node budget — and the
// unweighted median sits on the cliff between the two, where a
// one-minute shift of the arrivals moved it fourfold; weighted by time
// it sits inside the decisions that cost something, which are the ones
// a change to the search moves.
type decideTimes struct {
	best map[string][]float64
	keys []string
}

// add takes the wall times, in nanoseconds, of one round's Decide calls
// on one unit, in call order.
func (d *decideTimes) add(unit string, durNs []float64) {
	if d.best == nil {
		d.best = make(map[string][]float64)
	}
	if _, ok := d.best[unit]; !ok {
		d.keys = append(d.keys, unit)
	}
	d.best[unit] = elementwiseFastest(d.best[unit], durNs)
}

// all returns every decision of every unit at its fastest round, sorted.
func (d *decideTimes) all() []float64 {
	var out []float64
	for _, k := range d.keys {
		out = append(out, d.best[k]...)
	}
	sort.Float64s(out)
	return out
}

func (d *decideTimes) report(res *result) {
	s := d.all()
	res.set("decide_p50_ms", weightedPercentileSorted(s, 50)/1e6)
	res.set("decide_p90_ms", weightedPercentileSorted(s, 90)/1e6)
	res.set("core.decide_p50_us", percentileSorted(s, 50)/1e3)
	res.set("core.decide_p99_us", percentileSorted(s, 99)/1e3)
}

// rounds runs fn repeatedly until the timed section has lasted
// ctx.Seconds, and at least minRounds times, calling between (one more
// repetition of set-up) after every round. On a traced run it alternates
// untraced and traced rounds (untraced first, always in pairs), so both
// see the same machine state and their difference is the tracing
// overhead. Unless the workload's goroutines run in parallel, successive
// rounds (pairs, when traced) are confined to successive processors of
// those the process may use (workloadDef.run says why).
func rounds(ctx *runCtx, minRounds int, between func() error, fn func(r round) error) (n int, err error) {
	per := 1
	if ctx.Trace {
		per = 2
	}
	if minRounds < 1 {
		minRounds = 1
	}
	minRounds *= per
	unpin := func() {}
	pin := func(int) {}
	if all := allowedCPUs(); all != nil && len(all.cpus()) > 1 && ctx.Shape != parallel {
		confine := setProcessAffinity
		if ctx.Shape == oneGoroutine {
			// A refused affinity leaves the round where the kernel puts it.
			confine = func(m *cpuMask) { _ = setAffinity(0, m) }
		}
		cpus := all.cpus()
		// A traced pair of rounds shares a processor.
		pin = func(n int) { confine(only(cpus[n/per%len(cpus)])) }
		unpin = func() { confine(all) }
	}
	defer unpin()
	t0 := time.Now()
	for n < minRounds || n%per != 0 || time.Since(t0).Seconds() < ctx.Seconds {
		pin(n)
		if err := fn(round{N: n, Traced: ctx.Trace && n%2 == 1}); err != nil {
			return n, err
		}
		n++
		if err := between(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// marks collects the instants at which the segments of one replay
// begin, and the time inside each segment that is not counted. A replay
// is one closed loop, so its wall time is the sum of its segments; the
// boundaries are taken where the benchmark already stands between the
// product's calls (every Decide, every submission), and segment i is the
// same work in every round.
type marks struct {
	mu   sync.Mutex
	base time.Time
	at   []int64 // nanoseconds since base
	out  []int64 // nanoseconds excluded from segment i; may be shorter than at
}

func newMarks() *marks { return &marks{base: time.Now()} }

// mark begins a new segment at t. A nil *marks takes no marks.
func (m *marks) mark(t time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.at = append(m.at, t.Sub(m.base).Nanoseconds())
	m.mu.Unlock()
}

// exclude takes d out of the segment that is open now.
func (m *marks) exclude(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	for len(m.out) <= len(m.at) {
		m.out = append(m.out, 0)
	}
	m.out[len(m.at)] += d.Nanoseconds()
	m.mu.Unlock()
}

// segments closes the last segment at end and returns every segment's
// length in seconds, less what was excluded from it: base to the first
// mark, mark to mark, last mark to end.
func (m *marks) segments(end time.Time) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	bounds := append(append([]int64{0}, m.at...), end.Sub(m.base).Nanoseconds())
	out := make([]float64, len(bounds)-1)
	for i := range out {
		ns := bounds[i+1] - bounds[i]
		if i < len(m.out) {
			ns -= m.out[i]
		}
		out[i] = float64(ns) / 1e9
	}
	return out
}

// unitTimes holds the wall time of every unit of work (a month, a storm
// round) in every round it was run in, and every segment of the unit at
// its fastest round.
type unitTimes struct {
	secs map[string][]float64
	segs map[string][]float64
	keys []string
}

func newUnitTimes() *unitTimes {
	return &unitTimes{secs: make(map[string][]float64), segs: make(map[string][]float64)}
}

// add takes one round of one unit: its segments in seconds, which add up
// to its wall time. A unit timed as a whole is one segment.
func (u *unitTimes) add(unit string, segs ...float64) {
	if _, ok := u.secs[unit]; !ok {
		u.keys = append(u.keys, unit)
	}
	u.secs[unit] = append(u.secs[unit], sum(segs))
	u.segs[unit] = elementwiseFastest(u.segs[unit], segs)
}

// passSeconds is the wall time of one pass over every unit, each segment
// of each unit at its fastest round.
func (u *unitTimes) passSeconds() float64 {
	var total float64
	for _, k := range u.keys {
		total += sum(u.segs[k])
	}
	return total
}

// roundSeconds is the same pass taking each unit whole at its fastest
// round, and medianSeconds at its median round; both are printed beside
// passSeconds so that interference on the machine can be seen.
func (u *unitTimes) roundSeconds() float64 {
	var total float64
	for _, k := range u.keys {
		total += fastest(u.secs[k])
	}
	return total
}

func (u *unitTimes) medianSeconds() float64 {
	var total float64
	for _, k := range u.keys {
		total += median(u.secs[k])
	}
	return total
}

// totalSeconds is the wall time of every round of every unit.
func (u *unitTimes) totalSeconds() float64 {
	var total float64
	for _, k := range u.keys {
		total += sum(u.secs[k])
	}
	return total
}

// summary is the note every replay prints on standard error.
func (u *unitTimes) summary() string {
	return fmt.Sprintf("one pass %.3f s taking every segment at its fastest round, %.3f s taking every unit whole at its fastest round, %.3f s by median rounds",
		u.passSeconds(), u.roundSeconds(), u.medianSeconds())
}

// procSnapshot is the process's memory and GC state at one instant.
type procSnapshot struct {
	totalAlloc uint64
	mallocs    uint64
	pauseNs    uint64
}

func readProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// setProcMetrics reports what the timed section allocated, per job, and
// the process's peak resident set.
func setProcMetrics(res *result, before, after procSnapshot, jobs int) {
	res.set("proc.alloc_mb", float64(after.totalAlloc-before.totalAlloc)/(1<<20))
	if jobs > 0 {
		res.set("proc.allocs_per_job", float64(after.mallocs-before.mallocs)/float64(jobs))
	}
	res.set("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	res.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// roundCheck holds every round's schedule of one unit (a month) against
// the job count and against the first round's schedule.
type roundCheck struct {
	seen  bool
	print uint64
	recs  []sim.Record
}

// check counts the unit's jobs as attempted and its missing records and
// any difference from the first round as failed; it reports whether
// this was the unit's first round.
func (c *roundCheck) check(res *result, label string, round, jobs int, recs []sim.Record) bool {
	res.Attempted += jobs
	if missing := jobs - len(recs); missing != 0 {
		res.fail(missing, label, "%d jobs submitted, %d completion records", jobs, len(recs))
	}
	fp := recordsFingerprint(recs)
	if !c.seen {
		c.seen, c.print, c.recs = true, fp, recs
		return true
	}
	if fp != c.print {
		res.fail(1, label, "round %d schedule differs from round 0: %s", round, firstRecordDiff(recs, c.recs))
	}
	return false
}

// recordsFingerprint hashes a record stream — job, start, end and node
// IDs in order — so two schedules can be compared bit for bit without
// keeping both.
func recordsFingerprint(recs []sim.Record) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(int64(r.Job.ID))
		put(r.Job.Submit)
		put(r.Start)
		put(r.End)
		for _, n := range r.NodeIDs {
			put(int64(n))
		}
		put(-1)
	}
	return h.Sum64()
}

// firstRecordDiff describes the first place two record streams differ.
func firstRecordDiff(got, want []sim.Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job.ID != w.Job.ID || g.Job.Submit != w.Job.Submit || g.Start != w.Start || g.End != w.End || !slices.Equal(g.NodeIDs, w.NodeIDs) {
			return fmt.Sprintf("record %d: job %d submit %d start %d end %d nodes %v, reference job %d submit %d start %d end %d nodes %v",
				i, g.Job.ID, g.Job.Submit, g.Start, g.End, g.NodeIDs, w.Job.ID, w.Job.Submit, w.Start, w.End, w.NodeIDs)
		}
	}
	return ""
}
