package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/obs"
)

// acceptsPromText decides the /v1/metrics representation from the
// request's Accept header: the Prometheus text exposition format is
// served only when the client prefers text/plain strictly over
// application/json (a scraper's "text/plain;version=0.0.4;q=0.5,
// */*;q=0.1" does; a browser's "*/*" and an absent header keep the
// JSON default). Ties go to JSON.
func acceptsPromText(accept string) bool {
	qText, qJSON := 0.0, 0.0
	for _, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		mtype := strings.ToLower(strings.TrimSpace(fields[0]))
		if mtype == "" {
			continue
		}
		q := 1.0
		for _, p := range fields[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					q = f
				}
			}
		}
		switch mtype {
		case "text/plain", "text/*":
			if q > qText {
				qText = q
			}
		case "application/json", "application/*":
			if q > qJSON {
				qJSON = q
			}
		case "*/*":
			if q > qText {
				qText = q
			}
			if q > qJSON {
				qJSON = q
			}
		}
	}
	return qText > qJSON
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// writeProm renders the running metrics — and, for a federated backend,
// the per-shard report; with an ingest queue attached, the accept
// path's counters and latency histogram; with a tracer attached, the
// per-span duration series — in the Prometheus text exposition format.
// Runtime self-metrics (goroutines, heap, GC) are always included.
func writeProm(w http.ResponseWriter, m engine.Metrics, fed *engine.FederationMetrics, ing *ingest.Stats, tr *obs.Tracer) {
	w.Header().Set("Content-Type", promContentType)
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			name, help, name, name, promFloat(v))
	}
	hist := func(name, help string, h obs.HistSnapshot) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i, le := range h.BucketLeUs {
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(float64(le)/1e6), h.BucketCount[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", name, promFloat(h.AvgUs*float64(h.Count)/1e6))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}

	gauge("schedsearch_capacity_nodes", "Machine size in nodes.", float64(m.Capacity))
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("schedsearch_draining", "1 while the daemon is draining.", draining)

	fmt.Fprintf(&b, "# HELP schedsearch_jobs Admitted jobs by state.\n# TYPE schedsearch_jobs gauge\n")
	fmt.Fprintf(&b, "schedsearch_jobs{state=\"waiting\"} %d\n", m.Jobs.Waiting)
	fmt.Fprintf(&b, "schedsearch_jobs{state=\"running\"} %d\n", m.Jobs.Running)
	fmt.Fprintf(&b, "schedsearch_jobs{state=\"done\"} %d\n", m.Jobs.Done)

	counter("schedsearch_decisions_total", "Scheduling decision points.", float64(m.Engine.Decisions))
	counter("schedsearch_policy_panics_total", "Recovered policy panics (FCFS fallbacks).", float64(m.Engine.PolicyPanics))
	counter("schedsearch_search_nodes_total", "Search tree nodes expanded.", float64(m.Engine.SearchNodes))
	counter("schedsearch_search_leaves_total", "Search tree leaves evaluated.", float64(m.Engine.SearchLeaves))
	counter("schedsearch_search_budget_hits_total", "Search budget cutoffs.", float64(m.Engine.BudgetHits))
	counter("schedsearch_search_wall_seconds_total", "Wall time spent searching.", m.Engine.SearchWallMs/1e3)
	counter("schedsearch_search_table_nodes_total", "Search tree nodes counted from the transposition table instead of walked (part of schedsearch_search_nodes_total).", float64(m.Engine.SearchTableNodes))
	counter("schedsearch_search_nodes_to_best_total", "Search nodes spent before the last incumbent improvement.", float64(m.Engine.SearchNodesToBest))
	gauge("schedsearch_decide_avg_ms", "Mean decision latency in milliseconds.", m.Engine.AvgDecideMs)
	gauge("schedsearch_decide_max_ms", "Max decision latency in milliseconds.", m.Engine.MaxDecideMs)

	gauge("schedsearch_journal_tail_events", "In-memory journal tail length since the last compaction.", float64(m.Engine.JournalTail))
	counter("schedsearch_journal_compactions_total", "Journal checkpoint compactions.", float64(m.Engine.Compactions))
	counter("schedsearch_journal_appends_total", "Events appended to the persistent journal.", float64(m.Engine.JournalAppends))
	counter("schedsearch_journal_syncs_total", "Journal fsync boundaries (group commits).", float64(m.Engine.JournalSyncs))
	if jf := m.Engine.JournalFsync; jf != nil {
		hist("schedsearch_journal_fsync_seconds", "Journal group-commit flush+fsync latency.", *jf)
	}

	gauge("schedsearch_measured_jobs", "Completed measured jobs in the summary.", float64(m.Summary.Jobs))
	gauge("schedsearch_avg_wait_hours", "Mean wait of measured jobs in hours.", m.Summary.AvgWaitH)
	gauge("schedsearch_avg_bounded_slowdown", "Mean bounded slowdown of measured jobs.", m.Summary.AvgBoundedSlowdown)
	gauge("schedsearch_avg_queue_len", "Time-averaged queue length.", m.Summary.AvgQueueLen)
	gauge("schedsearch_utilized_load", "Delivered fraction of machine capacity.", m.Summary.UtilizedLoad)

	if fed != nil {
		gauge("schedsearch_shards", "Engine shards in the federation.", float64(fed.Shards))
		counter("schedsearch_migrations_total", "Queued jobs migrated between shards.", float64(fed.Migrations))
		counter("schedsearch_rebalance_passes_total", "Rebalance passes run.", float64(fed.RebalancePasses))
		counter("schedsearch_routing_decisions_total", "Placement decisions made.", float64(fed.RoutingDecisions))
		counter("schedsearch_routing_seconds_total", "Wall time spent placing jobs.", float64(fed.RoutingNs)/1e9)
		fmt.Fprintf(&b, "# HELP schedsearch_shard_util Utilized load by shard.\n# TYPE schedsearch_shard_util gauge\n")
		for i, u := range fed.PerShardUtil {
			fmt.Fprintf(&b, "schedsearch_shard_util{shard=\"%d\"} %s\n", i, promFloat(u))
		}
		fmt.Fprintf(&b, "# HELP schedsearch_shard_jobs Admitted jobs by shard and state.\n# TYPE schedsearch_shard_jobs gauge\n")
		for _, sh := range fed.PerShard {
			fmt.Fprintf(&b, "schedsearch_shard_jobs{shard=\"%d\",state=\"waiting\"} %d\n", sh.Shard, sh.Jobs.Waiting)
			fmt.Fprintf(&b, "schedsearch_shard_jobs{shard=\"%d\",state=\"running\"} %d\n", sh.Shard, sh.Jobs.Running)
			fmt.Fprintf(&b, "schedsearch_shard_jobs{shard=\"%d\",state=\"done\"} %d\n", sh.Shard, sh.Jobs.Done)
		}
	}

	if ing != nil {
		gauge("schedsearch_ingest_pending", "Items accepted but not yet committed.", float64(ing.Pending))
		gauge("schedsearch_ingest_peak_pending", "High-water pending item count.", float64(ing.PeakPending))
		gauge("schedsearch_ingest_max_pending", "Configured pending bound (backpressure threshold).", float64(ing.MaxPending))
		counter("schedsearch_ingest_accepted_total", "Items accepted into the queue.", float64(ing.Accepted))
		counter("schedsearch_ingest_committed_total", "Items admitted to the backend.", float64(ing.Committed))
		counter("schedsearch_ingest_rejected_total", "Items rejected at admission (duplicates, invalid, draining).", float64(ing.Rejected))
		counter("schedsearch_ingest_quota_rejected_total", "Items rejected by per-user quotas.", float64(ing.QuotaRejected))
		counter("schedsearch_ingest_saturations_total", "Whole batches rejected with 503 backpressure.", float64(ing.Saturations))
		counter("schedsearch_ingest_batches_total", "Batches accepted.", float64(ing.Batches))
		counter("schedsearch_ingest_sync_groups_total", "Committer groups (journal fsync boundaries).", float64(ing.SyncGroups))
		if ing.QuotaUsers > 0 {
			gauge("schedsearch_ingest_quota_users", "Live per-user token buckets.", float64(ing.QuotaUsers))
		}
		lat := ing.Latency
		hist("schedsearch_ingest_accept_latency_seconds", "Accept-to-commit latency.", lat)
	}

	if tr != nil {
		stats := tr.Stats()
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(&b, "# HELP schedsearch_spans_total Trace spans recorded, by span name.\n# TYPE schedsearch_spans_total counter\n")
			for _, name := range names {
				fmt.Fprintf(&b, "schedsearch_spans_total{span=%q} %d\n", name, stats[name].Count)
			}
			fmt.Fprintf(&b, "# HELP schedsearch_span_seconds_total Wall time inside trace spans, by span name.\n# TYPE schedsearch_span_seconds_total counter\n")
			for _, name := range names {
				fmt.Fprintf(&b, "schedsearch_span_seconds_total{span=%q} %s\n", name, promFloat(float64(stats[name].TotalNs)/1e9))
			}
		}
		counter("schedsearch_spans_dropped_total", "Spans dropped after the trace buffer filled (stats above still count them).", float64(tr.Dropped()))
	}

	rt := obs.ReadRuntime()
	gauge("schedsearch_goroutines", "Live goroutines.", float64(rt.Goroutines))
	gauge("schedsearch_heap_alloc_bytes", "Bytes of live heap objects.", float64(rt.HeapAllocBytes))
	gauge("schedsearch_heap_sys_bytes", "Heap memory obtained from the OS.", float64(rt.HeapSysBytes))
	counter("schedsearch_gc_cycles_total", "Completed GC cycles.", float64(rt.NumGC))
	counter("schedsearch_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", float64(rt.GCPauseTotalNs)/1e9)
	gauge("schedsearch_gc_last_pause_seconds", "Duration of the most recent GC pause.", float64(rt.LastGCPauseNs)/1e9)

	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// promFloat renders a value the way the exposition format wants:
// decimal, no exponent surprises for integers.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
