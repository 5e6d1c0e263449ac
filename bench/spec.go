package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the parent's median by which it
// may worsen before a change counts as a regression. Exact marks a
// metric that is a pure function of the inputs: it repeats to the last
// digit for one seed, so it doubles as an input fingerprint.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// runSeconds is how long one run measures.
const runSeconds = 22

// endToEnd are the metrics a user of the system would see. Every
// workload reports all six; README.md says what each one is taken from
// on each workload. Every bound is the harness's cap of 0.25: ten-seed
// spreads on this shared machine are 1 to 10 % in a quiet hour, but when
// the host is busy for minutes on end every timing rises by 10 to 40 %
// for as long as it lasts (README.md, "Spread"), and one bound has to
// hold on all five workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "decide_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "decide_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "bsld_vs_fcfs", Unit: "ratio", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "max_wait_vs_fcfs", Unit: "ratio", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer are the metrics of single layers, named after this repo's
// packages. A workload that does not enter a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "workload.suite_gen_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.input_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.place_undo_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.earliest_fit_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.reset_ns", Unit: "ns", Better: "lower"},

	{Name: "core.ns_per_node_dds_d32", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_node_dds_d64", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_node_lds_d32", Unit: "ns", Better: "lower"},
	{Name: "core.ns_per_node_lds_d64", Unit: "ns", Better: "lower"},
	{Name: "core.decide_fixed_us_d64", Unit: "us", Better: "lower"},
	{Name: "core.par_speedup_d64", Unit: "ratio", Better: "higher"},
	{Name: "core.nodes_per_decision", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.leaves_per_knode", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.budget_hit_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.nodes_to_best_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.search_share", Unit: "ratio", Better: "lower"},
	{Name: "core.decide_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.decide_p99_us", Unit: "us", Better: "lower"},

	{Name: "policy.fcfs_backfill_decide_us", Unit: "us", Better: "lower"},
	{Name: "policy.lxf_backfill_decide_us", Unit: "us", Better: "lower"},

	{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.decisions", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.max_queue_len", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.avg_queue_len", Unit: "count", Better: "lower", Exact: true},

	{Name: "metrics.summarize_ms", Unit: "ms", Better: "lower"},

	{Name: "engine.submit_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "engine.decide_avg_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.decide_max_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.journal_syncs_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.journal_events_per_sync", Unit: "count", Better: "higher"},
	{Name: "engine.journal_bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "engine.journal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.journal_sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.journal_sync_p99_us", Unit: "us", Better: "lower"},

	{Name: "ingest.accept_commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "ingest.accept_commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "ingest.jobs_per_group", Unit: "count", Better: "higher"},
	{Name: "ingest.peak_pending", Unit: "count", Better: "lower"},
	{Name: "ingest.saturations", Unit: "count", Better: "lower"},
	{Name: "ingest.retries", Unit: "count", Better: "lower"},
	{Name: "ingest.submitbatch_us", Unit: "us", Better: "lower"},

	{Name: "server.ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.http_tax_us", Unit: "us", Better: "lower"},
	{Name: "server.non2xx", Unit: "count", Better: "lower"},

	{Name: "wire.calls_per_job", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.load_calls_per_job", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "wire.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.time_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.retries", Unit: "count", Better: "lower"},

	{Name: "federation.submit_p50_us", Unit: "us", Better: "lower"},
	{Name: "federation.submit_p99_us", Unit: "us", Better: "lower"},
	{Name: "federation.routing_ns_per_job", Unit: "ns", Better: "lower"},
	{Name: "federation.migrations", Unit: "count", Better: "lower", Exact: true},
	{Name: "federation.inproc_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "federation.wire_tax", Unit: "ratio", Better: "lower"},
	{Name: "federation.util_spread", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "obs.span_submit_us", Unit: "us", Better: "lower"},
	{Name: "obs.span_route_us", Unit: "us", Better: "lower"},
	{Name: "obs.span_probe_us", Unit: "us", Better: "lower"},
	{Name: "obs.span_admit_us", Unit: "us", Better: "lower"},
	{Name: "obs.span_decide_us", Unit: "us", Better: "lower"},
	{Name: "obs.span_coverage", Unit: "ratio", Better: "higher"},

	{Name: "metasched.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "metasched.switches", Unit: "count", Better: "lower", Exact: true},

	{Name: "oracle.check_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// specFile is the shape of BENCHMARK.json.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// currentSpec renders the registry above as BENCHMARK.json content, so
// the file and the program cannot drift apart (spec_test.go compares
// them).
func currentSpec() specFile {
	sf := specFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		sf.Workloads = append(sf.Workloads, specWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		sf.EndToEnd = append(sf.EndToEnd, specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		sf.PerLayer = append(sf.PerLayer, specLayer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return sf
}

func writeSpec(path string) error {
	b, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadBounds reads the end-to-end bounds from a BENCHMARK.json, which
// is what -agree judges a pair of runs by.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf specFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(sf.EndToEnd))
	for _, m := range sf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
