package obs

import (
	"sync"
	"time"
)

// histBuckets is the number of log-spaced latency buckets: bucket i
// counts samples strictly under 2^i microseconds (a sample of exactly
// 2^i µs lands in bucket i+1), the last bucket is +Inf. 2^30 µs ≈ 18
// minutes, far past any sane latency this package measures.
const histBuckets = 32

// Hist is a log-bucketed latency histogram (power-of-two microsecond
// buckets). It trades per-sample precision for O(1) memory and
// lock-cheap observation — the shape Prometheus histograms expect.
// The zero value is ready to use. (It lives here so the ingest accept
// latency and the journal fsync latency share one implementation.)
type Hist struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	total  int64
	sumUs  int64
	maxUs  int64
}

// bucketFor returns the index of the first bucket whose upper bound
// exceeds the latency.
func bucketFor(us int64) int {
	for i := 0; i < histBuckets-1; i++ {
		if us < int64(1)<<i {
			return i
		}
	}
	return histBuckets - 1
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records the same latency for n samples (a batch of n items
// shares one accept-to-commit latency).
func (h *Hist) ObserveN(d time.Duration, n int) {
	if n < 1 {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bucketFor(us)
	h.mu.Lock()
	h.counts[b] += int64(n)
	h.total += int64(n)
	h.sumUs += us * int64(n)
	if us > h.maxUs {
		h.maxUs = us
	}
	h.mu.Unlock()
}

// HistSnapshot is a consistent copy of the histogram, with the derived
// quantiles precomputed (bucket upper bounds, so they are conservative
// — a reported p99 of 512µs means "under 512µs").
type HistSnapshot struct {
	Count int64   `json:"count"`
	AvgUs float64 `json:"avg_us"`
	MaxUs int64   `json:"max_us"`
	P50Us int64   `json:"p50_us"`
	P90Us int64   `json:"p90_us"`
	P99Us int64   `json:"p99_us"`
	// BucketLeUs and BucketCount are the cumulative Prometheus-style
	// buckets: BucketCount[i] samples were at most BucketLeUs[i]
	// microseconds. Only buckets up to the first non-empty tail are
	// included.
	BucketLeUs  []int64 `json:"bucket_le_us,omitempty"`
	BucketCount []int64 `json:"bucket_count,omitempty"`
}

// Snapshot returns a copy with quantiles computed.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.total, MaxUs: h.maxUs}
	if h.total == 0 {
		return s
	}
	s.AvgUs = float64(h.sumUs) / float64(h.total)
	s.P50Us = h.quantileLocked(0.50)
	s.P90Us = h.quantileLocked(0.90)
	s.P99Us = h.quantileLocked(0.99)
	// Emit cumulative buckets through the last non-empty one.
	last := 0
	for i, c := range h.counts {
		if c > 0 {
			last = i
		}
	}
	cum := int64(0)
	for i := 0; i <= last; i++ {
		cum += h.counts[i]
		s.BucketLeUs = append(s.BucketLeUs, int64(1)<<i)
		s.BucketCount = append(s.BucketCount, cum)
	}
	return s
}

// quantileLocked returns the upper bound of the bucket containing the
// q-quantile sample.
func (h *Hist) quantileLocked(q float64) int64 {
	want := int64(q * float64(h.total))
	if want >= h.total {
		want = h.total - 1
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if cum > want {
			if i == histBuckets-1 {
				return h.maxUs
			}
			return int64(1) << i
		}
	}
	return h.maxUs
}
