package main

import (
	"fmt"
	"io"
)

// metricDef describes one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json fixes for them; per-layer metrics name
// the end-to-end metric (and workload) they are expected to move. The
// tables below and BENCHMARK.json must agree, which a test checks.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd lists the metrics a user of the library or of lrd sees. Every
// workload reports every one of them, with "operation" meaning the
// workload's unit of work: one RunDistributedWith call, one GET /route, or
// one churn POST from the link change to the epoch that publishes it. The
// two timings are read from the quietest quarter of the window (see
// quiet); the bounds are the widest the host's noise forces.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer lists the metrics of single layers, reported by traced runs.
// A layer a workload does not exercise reports 0. op_tail_ms is here
// rather than end to end because on a shared host a tail does not repeat
// within the widest bound allowed.
var perLayer = []metricDef{
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Moves: "none; the tail beside op_p50_ms, over the whole window"},
	{Name: "workload.gen_s", Unit: "s", Better: "lower", Moves: "setup_s on repair-*"},
	{Name: "core.init_s", Unit: "s", Better: "lower", Moves: "op_p50_ms on repair-grid-1m"},
	{Name: "dist.run_s", Unit: "s", Better: "lower", Moves: "op_p50_ms on repair-*"},
	{Name: "dist.shard_busy_s", Unit: "s", Better: "lower", Moves: "op_p50_ms on repair-*"},
	{Name: "dist.shard_idle_s", Unit: "s", Better: "lower", Moves: "op_p50_ms on repair-*"},
	{Name: "dist.shard_busy_max_over_mean", Unit: "ratio", Better: "lower", Moves: "op_p50_ms on repair-*"},
	{Name: "dist.remote_frac", Unit: "ratio", Better: "lower", Moves: "op_p50_ms on repair-lossy-tree"},
	{Name: "dist.coalesced_frac", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on repair-lossy-tree"},
	{Name: "dist.batch_fill", Unit: "count", Better: "higher", Moves: "op_p50_ms on repair-lossy-tree"},
	{Name: "dist.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb_per_op on repair-*"},
	{Name: "dist.runqueue_peak", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op on repair-*"},
	{Name: "dist.mailbox_peak", Unit: "count", Better: "lower", Moves: "alloc_mb_per_op on repair-*"},
	{Name: "graph.verify_s", Unit: "s", Better: "lower", Moves: "op_p50_ms on repair-grid-1m"},
	{Name: "faults.drops", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.dups", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.held", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.retransmits", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.acks", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.nacks", Unit: "count", Better: "lower", Moves: "exact count; repair-lossy-tree"},
	{Name: "faults.useful_frac", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on repair-lossy-tree"},
	{Name: "faults.judge_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms on repair-lossy-tree"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none; tracing overhead of an armed Observer"},
	{Name: "layers_explained_frac", Unit: "ratio", Better: "higher", Moves: "none; layer sum over op_p50_ms on repair-*"},
	{Name: "dist.dyn_build_s", Unit: "s", Better: "lower", Moves: "setup_s on serve-*"},
	{Name: "dist.stabilize_s", Unit: "s", Better: "lower", Moves: "setup_s on serve-*"},
	{Name: "dist.dyn_retransmits", Unit: "count", Better: "lower", Moves: "setup_s on serve-churn"},
	{Name: "dist.link_op_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.publish_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.snapshot_clean_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.adj_rebuild_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.steps_per_churn", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.msgs_per_churn", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve-churn"},
	{Name: "dist.alloc_per_churn_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb_per_op on serve-churn"},
	{Name: "serve.gc_cycles", Unit: "count", Better: "lower", Moves: "serve.read_tail_us on serve-churn"},
	{Name: "serve.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "serve.read_tail_us on serve-churn"},
	{Name: "snapshot.route_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms and ops_per_s on serve-read"},
	{Name: "snapshot.route_hops", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve-read"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower", Moves: "op_p50_ms on serve-read"},
	{Name: "serve.route_bytes", Unit: "bytes", Better: "lower", Moves: "op_p50_ms on serve-read"},
	{Name: "serve.handler_mean_us_live", Unit: "us", Better: "lower", Moves: "op_p50_ms on serve-read"},
	{Name: "serve.read_p50_us", Unit: "us", Better: "lower", Moves: "none; reads beside churn, against op_p50_ms on serve-read"},
	{Name: "serve.read_tail_us", Unit: "us", Better: "lower", Moves: "none; reads beside churn, against op_tail_ms on serve-read"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet picks the table a run reports: per-layer for traced runs,
// end-to-end otherwise.
func metricSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printMetrics writes a run's metrics as an aligned human-readable table.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		line := fmt.Sprintf("  %-30s %14.6g %-5s", d.Name, values[d.Name], d.Unit)
		if d.Moves != "" {
			line += "  -> " + d.Moves
		}
		fmt.Fprintln(w, line)
	}
}
