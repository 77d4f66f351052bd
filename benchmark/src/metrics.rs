//! The metric names and units, in one place. `BENCHMARK.json` lists the
//! same names; `tests/smoke.rs` fails when the two drift apart.

/// End-to-end metrics (`--trace 0`), reported by every workload:
/// name, unit, and the share of the baseline median the metric may
/// worsen by before a change counts as a regression (`--repeat` holds
/// two sets of one build to the same bound).
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("rows_per_s", "rows/s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p99_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
    ("quality_f1", "ratio", 0.02),
];

/// Per-layer metrics (`--trace 1`), module-prefixed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("common.csv_read_s", "s"),
    ("common.csv_write_s", "s"),
    ("common.csv_rows", "count"),
    ("common.minhash_s", "s"),
    ("dataflow.shuffle_s", "s"),
    ("dataflow.bytes_shuffled", "bytes"),
    ("dataflow.passes_executed", "count"),
    ("dataflow.stages_fused", "count"),
    ("dataflow.tuples_cloned", "count"),
    ("dataflow.tasks_retried", "count"),
    ("plan.detect_s", "s"),
    ("plan.redetect_s", "s"),
    ("plan.detect_seq_s", "s"),
    ("plan.pairs_generated", "count"),
    ("plan.violations", "count"),
    ("plan.useful_pair_ratio", "ratio"),
    ("ocjoin.join_s", "s"),
    ("ocjoin.pairs_emitted", "count"),
    ("rules.lsh_candidate_pairs", "count"),
    ("rules.lsh_pairs_pruned", "count"),
    ("rules.lsh_bands_probed", "count"),
    ("rules.lsh_useful_ratio", "ratio"),
    ("repair.hypergraph_build_s", "s"),
    ("repair.cc_s", "s"),
    ("repair.run_s", "s"),
    ("repair.components_found", "count"),
    ("repair.cc_supersteps", "count"),
    ("repair.cells_assigned", "count"),
    ("core.cleanse_s", "s"),
    ("core.cleanse_seq_s", "s"),
    ("core.iterations", "count"),
    ("core.apply_s", "s"),
    ("core.loop_self_s", "s"),
    ("incremental.open_s", "s"),
    ("incremental.delta_parse_s", "s"),
    ("incremental.apply_mem_s", "s"),
    ("incremental.apply_durable_s", "s"),
    ("incremental.wal_overhead_s", "s"),
    ("incremental.snapshot_s", "s"),
    ("incremental.recover_s", "s"),
    ("incremental.wal_appends", "count"),
    ("incremental.snapshots_written", "count"),
    ("incremental.durable_bytes_per_user_byte", "ratio"),
    ("incremental.tuples_reprocessed", "count"),
    ("incremental.blocks_dirty", "count"),
    ("incremental.violations_retracted", "count"),
    ("incremental.components_rerepaired", "count"),
    ("incremental.reprocessed_per_op", "ratio"),
    ("serve.ingest_csv_parse_s", "s"),
    ("serve.ingest_jsonl_parse_s", "s"),
    ("serve.healthz_rtt_p50_ms", "ms"),
    ("serve.post_nowait_rtt_p50_ms", "ms"),
    ("serve.apply_offline_s", "s"),
    ("serve.front_end_share", "ratio"),
    ("serve.wait_overhead_p50_ms", "ms"),
    ("serve.table_get_p50_ms", "ms"),
    ("serve.shutdown_s", "s"),
    ("serve.records_quarantined", "count"),
    ("serve.requests_failed", "count"),
    ("trace_overhead_pct", "%"),
];

/// The workloads, in the order the full set runs them.
pub const WORKLOADS: &[&str] = &[
    "clean_fd",
    "clean_dc",
    "clean_dedup",
    "delta_durable",
    "serve_stream",
];
