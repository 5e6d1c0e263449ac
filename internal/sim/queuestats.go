package sim

import "schedsearch/internal/job"

// QueueStats is the paper's Section-4 measurement window — arrivals
// before Start are warm-up, after End cool-down — and the two queue
// statistics kept against it. The simulator, the online engine and the
// federation router all use it, so one rule decides what a window is;
// every term of the integral is an integer product below 2^53, so the
// sum does not depend on who adds it.
type QueueStats struct {
	// Explicit is false when the run set no window; End is then far
	// enough out that everything is integrated.
	Start, End job.Time
	Explicit   bool
	// Area integrates queue length over the window up to Last, the last
	// queue change (engine.Base persists both); Max is the longest
	// queue Run sampled inside the window.
	Area float64
	Last job.Time
	Max  int
}

// NewQueueStats returns empty books for the window [start, end); both
// zero means no explicit window.
func NewQueueStats(start, end job.Time) QueueStats {
	q := QueueStats{Start: start, End: end, Explicit: !(start == 0 && end == 0)}
	if !q.Explicit {
		q.End = job.Time(1) << 59 // integrate everything
	}
	return q
}

// Integral returns the integral extended from Last to now at queue
// length qlen, clamped to the window. It mutates nothing.
func (q *QueueStats) Integral(now job.Time, qlen int) float64 {
	lo, hi := max(q.Last, q.Start), min(now, q.End)
	if hi <= lo {
		return q.Area
	}
	return q.Area + float64(hi-lo)*float64(qlen)
}

// Advance integrates up to now at qlen, the queue length since Last;
// call it just before the queue length changes.
func (q *QueueStats) Advance(now job.Time, qlen int) {
	if now <= q.Last {
		return
	}
	q.Area = q.Integral(now, qlen)
	q.Last = now
}

// Sample offers qlen as the max queue when now is inside the window.
func (q *QueueStats) Sample(now job.Time, qlen int) {
	if qlen > q.Max && now >= q.Start && now < q.End {
		q.Max = qlen
	}
}

// Window is the measured span [start, end): the explicit window, or
// else the run's activity, from its first arrival to its last event.
// Every driver takes both the average queue length and utilization
// over it, so no run is measured from engine time 0 or past its last
// event to wherever its clock stopped.
func (q *QueueStats) Window(first, last job.Time) (start, end job.Time) {
	if q.Explicit {
		return q.Start, q.End
	}
	return first, last
}

// AvgQueueLen is the time-averaged queue length over [start, end) as of
// now, with qlen jobs queued since Last.
func (q *QueueStats) AvgQueueLen(now, start, end job.Time, qlen int) float64 {
	if end <= start {
		return 0
	}
	return q.Integral(min(now, end), qlen) / float64(end-start)
}
