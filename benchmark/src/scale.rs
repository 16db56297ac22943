//! The one table of sizes. Everything a run's duration or memory depends on
//! is a field here, so the benchmark can be scaled to a time cap in one
//! place and every output can print what it ran at.
//!
//! `FULL` is what `run` and `repeat` use; it is sized so one run — three
//! set-ups, reference verification, warm-up and the timed window — ends in
//! about 20 s on the 2-core reference box (Xeon @ 2.1 GHz, AVX-512, 2 MiB
//! L2 per core), because the driver makes 114 runs inside 3420 s. `SMOKE`
//! is what `check` uses: every code path, tables of a few thousand rows.

use crate::json::Json;
use crate::stats::MIN_OPS_FOR_P95;

/// `serving_q1_2c`: closed-loop clients wanted; capped at `nproc`.
pub const SERVING_CLIENTS: usize = 2;

/// Untimed warm-up before the timed window, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.05;

/// Traced run: share of `--seconds` that each of the untraced and the traced
/// slice of the workload's own ops runs for.
pub const TRACED_SHARE: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    pub name: &'static str,

    // ---- workloads ----
    /// `q1_scan`: LINEITEM scale factor (6 M rows per unit). 0.25 → 1.5 M
    /// rows, ≈ 10 MB encoded: five times a core's L2. `LineItemGen` costs
    /// ≈ 1.2 µs/row, so the ISSUE's SF 1 would spend 20 s per run in set-up.
    pub q1_scan_sf: f64,
    /// `filter_sweep`: rows of the bit-packed table (≈ 7.5 bytes/row).
    pub sweep_rows: usize,
    /// `encoded_ops`: rows of each of the three tables.
    pub encoded_rows: usize,
    /// `encoded_ops`: run length of the RLE table.
    pub rle_run_len: usize,
    /// `encoded_ops`: dictionary cardinality.
    pub dict_cardinality: usize,
    /// `serving_q1_2c`: LINEITEM scale factor (cache-resident).
    pub serving_sf: f64,
    /// `ingest_flush`: rows per segment of the table each op builds.
    pub ingest_segment_rows: usize,
    /// `ingest_flush`: inline flushes per op.
    pub ingest_flushes: usize,
    /// `ingest_flush`: rows left in the mutable tail.
    pub ingest_tail_rows: usize,

    // ---- run shape ----
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Spans one recorder keeps before it starts counting drops.
    pub span_capacity: usize,

    // ---- per-layer probes (traced run) ----
    /// LINEITEM scale factor of the `q1` layer group (the replay runs on its
    /// first segment).
    pub probe_q1_sf: f64,
    pub probe_sweep_rows: usize,
    pub probe_encoded_rows: usize,
    pub probe_serving_sf: f64,
    /// Ops per client in the `serving` layer group's mini run.
    pub probe_serving_ops: usize,
    /// Elements of every `toolbox` kernel input.
    pub kernel_elems: usize,
    /// Timed repetitions behind every probe median.
    pub probe_reps: usize,
    /// Buffer of `machine.stream_read_gb_s`.
    pub stream_probe_bytes: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    q1_scan_sf: 0.25,
    sweep_rows: 1 << 20,
    encoded_rows: 1 << 20,
    rle_run_len: 1024,
    dict_cardinality: 256,
    serving_sf: 0.1,
    ingest_segment_rows: 8192,
    ingest_flushes: 2,
    ingest_tail_rows: 1024,
    setup_repeats: 3,
    span_capacity: 400_000,
    probe_q1_sf: 0.2,
    probe_sweep_rows: 1 << 20,
    probe_encoded_rows: 1 << 19,
    probe_serving_sf: 0.05,
    probe_serving_ops: 150,
    kernel_elems: 1 << 20,
    probe_reps: 7,
    stream_probe_bytes: 256 << 20,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    q1_scan_sf: 0.004,
    sweep_rows: 24_000,
    encoded_rows: 24_000,
    rle_run_len: 64,
    dict_cardinality: 64,
    serving_sf: 0.004,
    ingest_segment_rows: 512,
    ingest_flushes: 2,
    ingest_tail_rows: 64,
    setup_repeats: 2,
    span_capacity: 50_000,
    probe_q1_sf: 0.004,
    probe_sweep_rows: 24_000,
    probe_encoded_rows: 24_000,
    probe_serving_sf: 0.002,
    probe_serving_ops: 20,
    kernel_elems: 1 << 14,
    probe_reps: 3,
    stream_probe_bytes: 4 << 20,
};

impl Scale {
    /// Rows one `ingest_flush` op inserts.
    pub fn ingest_rows(&self) -> usize {
        self.ingest_segment_rows * self.ingest_flushes + self.ingest_tail_rows
    }

    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("q1_scan_sf", Json::Num(self.q1_scan_sf)),
            ("sweep_rows", n(self.sweep_rows)),
            ("encoded_rows", n(self.encoded_rows)),
            ("rle_run_len", n(self.rle_run_len)),
            ("dict_cardinality", n(self.dict_cardinality)),
            ("serving_sf", Json::Num(self.serving_sf)),
            ("serving_clients", n(SERVING_CLIENTS)),
            ("ingest_rows", n(self.ingest_rows())),
            ("ingest_segment_rows", n(self.ingest_segment_rows)),
            ("setup_repeats", n(self.setup_repeats)),
            ("warmup_share", Json::Num(WARMUP_SHARE)),
            ("min_timed_ops", n(MIN_OPS_FOR_P95)),
            ("traced_share", Json::Num(TRACED_SHARE)),
            ("probe_q1_sf", Json::Num(self.probe_q1_sf)),
            ("probe_sweep_rows", n(self.probe_sweep_rows)),
            ("probe_encoded_rows", n(self.probe_encoded_rows)),
            ("probe_serving_sf", Json::Num(self.probe_serving_sf)),
            ("probe_serving_ops", n(self.probe_serving_ops)),
            ("kernel_elems", n(self.kernel_elems)),
            ("probe_reps", n(self.probe_reps)),
            ("stream_probe_bytes", n(self.stream_probe_bytes)),
        ])
    }
}
