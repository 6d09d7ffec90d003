//! The metric tables — the single source of `BENCHMARK.json` (`spec`
//! prints it) — and the per-run collection the phases fill.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the engine sees. Every workload reports every one of
/// them on its own store; `README.md` says which workload each is native
/// to. Timing bounds come from the calibration protocol in the README
/// (this host's run-to-run spread, not the 5–10% the issue started from);
/// the two exact counts get 1%.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_p50_us", "us", Better::Lower, 0.25),
    e2e("query_p95_us", "us", Better::Lower, 0.25),
    e2e("mixed_ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("recover_ms", "ms", Better::Lower, 0.25),
    e2e("cold_mapped_first_answer_ms", "ms", Better::Lower, 0.25),
    e2e("cold_owned_first_answer_ms", "ms", Better::Lower, 0.25),
    e2e("disk_bytes_per_row", "B/row", Better::Lower, 0.01),
    e2e("mem_bytes_per_row", "B/row", Better::Lower, 0.01),
];

/// `(name, unit, better)`; the name's prefix is the layer (= module).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("core.kernels.score_ns_per_lane_dim", "ns", Better::Lower),
    ("core.kernels.survivors_ns_per_batch", "ns", Better::Lower),
    ("core.kernels.batches_per_q", "count", Better::Lower),
    ("core.kernels.scored_per_gathered", "ratio", Better::Higher),
    ("core.kernels.est_share_pct", "%", Better::Lower),
    ("core.topk.nodes_visited_per_q", "count", Better::Lower),
    ("core.topk.envelope_rejected_per_q", "count", Better::Higher),
    ("core.topk.blocks_popped_per_q", "count", Better::Lower),
    (
        "core.topk.blocks_floor_pruned_ratio",
        "ratio",
        Better::Higher,
    ),
    ("core.topk.lanes_masked_per_q", "count", Better::Higher),
    ("core.topk.ns_per_block_popped", "ns", Better::Lower),
    ("core.multidim.plan_ns_per_q", "ns", Better::Lower),
    ("core.multidim.rounds_per_q", "count", Better::Lower),
    ("core.multidim.rows_fetched_per_q", "count", Better::Lower),
    ("core.multidim.fetch_ratio", "ratio", Better::Lower),
    ("core.multidim.onedim_rows_per_q", "count", Better::Lower),
    ("core.multidim.gathered_per_q", "count", Better::Lower),
    ("core.multidim.seen_hit_ratio", "ratio", Better::Lower),
    ("core.multidim.floor_updates_per_q", "count", Better::Lower),
    ("core.multidim.ns_per_row_fetched", "ns", Better::Lower),
    ("core.multidim.shard_query_p50_us", "us", Better::Lower),
    (
        "core.delta.delta_rows_scanned_per_q",
        "count",
        Better::Lower,
    ),
    (
        "core.delta.delta_blocks_pruned_per_q",
        "count",
        Better::Higher,
    ),
    (
        "core.delta.tombstones_skipped_per_q",
        "count",
        Better::Lower,
    ),
    ("core.delta.delta_scan_ns_per_row", "ns", Better::Lower),
    ("core.integrity.crc32c_gbps", "GB/s", Better::Higher),
    (
        "core.integrity.regions_verified_after_first_query",
        "count",
        Better::Lower,
    ),
    ("core.integrity.regions_total", "count", Better::Lower),
    ("core.telemetry.histo_record_ns", "ns", Better::Lower),
    ("engine.aggregate_ns_per_q", "ns", Better::Lower),
    ("engine.merge_ns_per_q", "ns", Better::Lower),
    ("engine.merge_rounds_per_q", "count", Better::Lower),
    ("engine.vs_one_shard_ratio", "ratio", Better::Lower),
    ("engine.query_par_p50_us", "us", Better::Lower),
    ("engine.par_speedup", "ratio", Better::Higher),
    ("engine.batch_qps", "1/s", Better::Higher),
    ("engine.batch_scaling", "ratio", Better::Higher),
    ("engine.allocs_per_q", "count", Better::Lower),
    ("engine.alloc_bytes_per_q", "B", Better::Lower),
    ("engine.mutation.insert_ns_per_row", "ns", Better::Lower),
    ("engine.mutation.delete_ns_per_op", "ns", Better::Lower),
    ("engine.mutation.compact_ms", "ms", Better::Lower),
    ("engine.mutation.compact_rows_per_s", "1/s", Better::Higher),
    ("store.save_v5_ms", "ms", Better::Lower),
    ("store.open_mapped_ms", "ms", Better::Lower),
    ("store.first_query_mapped_ms", "ms", Better::Lower),
    ("store.load_owned_ms", "ms", Better::Lower),
    ("store.verify_all_ms", "ms", Better::Lower),
    ("store.file_bytes", "B", Better::Lower),
    ("store.space_amp", "ratio", Better::Lower),
    ("store.wal.bytes_per_row", "B/row", Better::Lower),
    ("store.wal.fsyncs", "count", Better::Lower),
    ("store.wal.records", "count", Better::Lower),
    ("store.wal.write_p50_us", "us", Better::Lower),
    ("store.wal.append_p50_us", "us", Better::Lower),
    ("store.wal.fsync_p50_us", "us", Better::Lower),
    ("store.wal.checkpoint_ms", "ms", Better::Lower),
    ("store.wal.compact_stall_ms", "ms", Better::Lower),
    ("store.wal.replay_records_per_s", "1/s", Better::Higher),
    ("store.wal.write_amp", "ratio", Better::Lower),
    ("baselines.seqscan_p50_us", "us", Better::Lower),
    ("baselines.ta_p50_us", "us", Better::Lower),
    ("baselines.sd_speedup_vs_seqscan", "ratio", Better::Higher),
    ("baselines.sd_speedup_vs_ta", "ratio", Better::Higher),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// Per-layer counters that repeat exactly for one seed (single-threaded,
/// fixed-count lap 0), whatever `--seconds` is; with the two end-to-end
/// byte counts they are what the smoke test compares across two runs.
pub const EXACT_PER_LAYER: &[&str] = &[
    "core.kernels.batches_per_q",
    "core.kernels.scored_per_gathered",
    "core.topk.nodes_visited_per_q",
    "core.topk.envelope_rejected_per_q",
    "core.topk.blocks_popped_per_q",
    "core.topk.blocks_floor_pruned_ratio",
    "core.topk.lanes_masked_per_q",
    "core.multidim.rounds_per_q",
    "core.multidim.rows_fetched_per_q",
    "core.multidim.fetch_ratio",
    "core.multidim.onedim_rows_per_q",
    "core.multidim.gathered_per_q",
    "core.multidim.seen_hit_ratio",
    "core.multidim.floor_updates_per_q",
    "core.delta.delta_rows_scanned_per_q",
    "core.delta.delta_blocks_pruned_per_q",
    "core.delta.tombstones_skipped_per_q",
    "core.integrity.regions_total",
    "engine.merge_rounds_per_q",
    "store.file_bytes",
    "store.space_amp",
    "store.wal.bytes_per_row",
    "store.wal.fsyncs",
    "store.wal.records",
];

pub const EXACT_END_TO_END: &[&str] = &["disk_bytes_per_row", "mem_bytes_per_row"];

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// The values one run has measured so far, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }
}

/// The `(name, unit)` list a run must report: the end-to-end table when
/// untraced, the per-layer table when traced.
pub fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}
