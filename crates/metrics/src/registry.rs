//! Process-wide metrics registry (DESIGN.md §14).
//!
//! The per-query profiler ([DESIGN.md §9]) dies with the query; a serving
//! engine needs counters and latency distributions that outlive any single
//! scan. This module is the dependency-free substrate: three metric kinds —
//! [`Counter`], [`Gauge`], [`Histogram`] — registered against a [`Registry`]
//! under a stable identity (`name` + static label set) and exposed in two
//! formats, Prometheus v0.0.4 text ([`Registry::render_prometheus`]) and a
//! JSON snapshot ([`Registry::render_json`]).
//!
//! Hot-path discipline:
//!
//! * **Lock-free writes.** Counters and histograms are sharded across
//!   [`SHARDS`] cache-line-aligned cells; each thread picks a home shard
//!   once (a thread-local assigned round-robin) and increments it with a
//!   `Relaxed` atomic add. Readers merge the shards at exposition time.
//! * **No per-sample allocation.** `inc`/`add`/`set`/`observe` touch only
//!   preallocated atomics. Allocation happens at registration (once per
//!   metric) and at rendering (one output `String`).
//! * **Relaxed everywhere.** Metrics are statistics, not synchronization:
//!   every cell is a relaxed [`bipie_toolbox::sync`] cell, and a reader
//!   that misses the latest increment reports a slightly stale total, which
//!   the next scrape corrects.
//!
//! Identity and registration: [`Registry::counter`] (and friends) return a
//! shared handle; re-registering the same `(kind, name, labels)` returns
//! the *same* handle, so seam modules can look metrics up cheaply and
//! restarts of a subsystem never double-count. Labels are `'static` — the
//! label space is fixed at compile time, which is what keeps exposition
//! allocation-free per sample and cardinality bounded by construction.

#![expect(
    clippy::disallowed_types,
    reason = "the registry defines the instruments and their atomic shards"
)]

use std::sync::{Arc, Mutex};

use bipie_toolbox::sync::{self, lock};

/// Shards per counter/histogram. Padding each shard to a cache line costs
/// `64 * SHARDS` bytes per metric; 8 shards absorb the contention of many
/// more workers than this engine ever forks while keeping a histogram
/// under 5 KiB.
pub const SHARDS: usize = 8;

/// Log2 histogram buckets: bucket `i` counts values whose bit length is
/// `i` (bucket 0 holds exact zeros), so bucket `i`'s inclusive upper bound
/// is `2^i - 1`. 64-bit values need buckets 0..=64.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A metric's static label set: `(key, value)` pairs fixed at compile time.
pub type Labels = &'static [(&'static str, &'static str)];

/// Round-robin source for thread home shards.
static NEXT_SHARD: sync::Usize = sync::Usize::new(0);

std::thread_local! {
    /// This thread's home shard, assigned on first metric write.
    static HOME_SHARD: usize = {
        NEXT_SHARD.fetch_add(1) % SHARDS
    };
}

/// The calling thread's home shard index.
#[inline]
fn home_shard() -> usize {
    HOME_SHARD.with(|s| *s)
}

/// One cache-line-padded atomic cell, so two shards never share a line and
/// cross-thread increments never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(sync::U64);

/// A monotonically increasing counter, sharded per thread.
///
/// Invariant: shards are written only with `Relaxed` adds by their owning
/// threads' increments and read by summation at exposition; the value is a
/// statistic, never a synchronization point, so torn cross-shard reads are
/// acceptable by contract.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A free-standing counter (registry-less; tests and adapters).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[home_shard()].0.fetch_add(n);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load()).sum()
    }
}

/// A last-write-wins signed gauge (not sharded: `set` must not have to
/// reconcile shards, and gauges are written once per region, not per row).
///
/// Invariant: a single atomic cell written with `Relaxed` stores/adds;
/// readers see some recent value, which is the whole contract.
#[derive(Debug, Default)]
pub struct Gauge {
    value: sync::I64,
}

impl Gauge {
    /// A free-standing gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v);
    }

    /// Adjust the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load()
    }
}

/// One histogram shard: log2 buckets plus sum/count, padded as a block so
/// concurrent observers on different shards never share a line.
#[derive(Debug)]
#[repr(align(64))]
struct HistShard {
    buckets: [sync::U64; HISTOGRAM_BUCKETS],
    sum: sync::U64,
    count: sync::U64,
}

impl Default for HistShard {
    fn default() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| sync::U64::new(0)),
            sum: sync::U64::new(0),
            count: sync::U64::new(0),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples, sharded per thread.
///
/// Invariant: same sharding contract as [`Counter`] — `Relaxed` writes to
/// the caller's home shard, merged at read time; `sum`/`count`/`buckets`
/// may be mutually torn across a concurrent observe, which a statistics
/// reader tolerates by contract.
#[derive(Debug, Default)]
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

/// The log2 bucket a value lands in: its bit length (0 for 0).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`; bucket 0 holds 0).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A free-standing histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        let shard = &self.shards[home_shard()];
        shard.buckets[bucket_index(v)].fetch_add(1);
        shard.sum.fetch_add(v);
        shard.count.fetch_add(1);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count.load()).sum()
    }

    /// Sum of all observed samples.
    pub fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.sum.load()).sum()
    }

    /// Per-bucket counts merged across shards (non-cumulative).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for shard in &self.shards {
            for (o, b) in out.iter_mut().zip(&shard.buckets) {
                *o += b.load();
            }
        }
        out
    }
}

/// Metric kinds a registry entry can hold.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric: identity plus the shared instrument.
#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Labels,
    metric: Metric,
}

/// A process-wide metric registry.
///
/// Invariant: the mutex guards only the registration list — the slow path
/// (one registration per metric per process, plus exposition). Metric
/// *writes* go through the `Arc`ed instruments and never touch the lock.
#[derive(Debug, Default)]
pub struct Registry {
    // LOCK: leaf lock; guards the entry list for registration and
    // exposition only, never held across metric writes or user code.
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or look up) a counter under `(name, labels)`.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: Labels) -> Arc<Counter> {
        // LOCK: registration slow path; guard dies before return.
        let mut entries = lock(&self.entries);
        for e in entries.iter() {
            if let Metric::Counter(c) = &e.metric {
                if e.name == name && e.labels == labels {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry { name, help, labels, metric: Metric::Counter(Arc::clone(&c)) });
        c
    }

    /// Register (or look up) a gauge under `(name, labels)`.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: Labels) -> Arc<Gauge> {
        // LOCK: registration slow path; guard dies before return.
        let mut entries = lock(&self.entries);
        for e in entries.iter() {
            if let Metric::Gauge(g) = &e.metric {
                if e.name == name && e.labels == labels {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry { name, help, labels, metric: Metric::Gauge(Arc::clone(&g)) });
        g
    }

    /// Register (or look up) a histogram under `(name, labels)`.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Labels,
    ) -> Arc<Histogram> {
        // LOCK: registration slow path; guard dies before return.
        let mut entries = lock(&self.entries);
        for e in entries.iter() {
            if let Metric::Histogram(h) = &e.metric {
                if e.name == name && e.labels == labels {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry { name, help, labels, metric: Metric::Histogram(Arc::clone(&h)) });
        h
    }

    /// Registered metric count (diagnostics).
    pub fn len(&self) -> usize {
        // LOCK: read-only peek; temp guard dies at `;`.
        lock(&self.entries).len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable snapshot of entries in exposition order: sorted by
    /// `(name, labels)` so output is deterministic regardless of
    /// registration order.
    fn sorted_entries(&self) -> Vec<Entry> {
        // LOCK: exposition clone; temp guard dies at `;`.
        let mut entries = lock(&self.entries).clone();
        entries.sort_by(|a, b| (a.name, a.labels).cmp(&(b.name, b.labels)));
        entries
    }

    /// Render the registry in the Prometheus v0.0.4 text exposition format.
    ///
    /// Families are sorted by name; `# HELP`/`# TYPE` headers render once
    /// per family. Histograms render as cumulative `_bucket{le=…}` series
    /// (empty buckets are elided — Prometheus does not require every
    /// boundary, and log2 over u64 would emit 65 lines per histogram)
    /// plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for e in self.sorted_entries() {
            if e.name != last_family {
                if !e.help.is_empty() {
                    out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
                }
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.metric.kind()));
                last_family = e.name;
            }
            match &e.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        render_label_set(e.labels, None),
                        c.value()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        render_label_set(e.labels, None),
                        g.value()
                    ));
                }
                Metric::Histogram(h) => {
                    let buckets = h.buckets();
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        if *b == 0 {
                            continue;
                        }
                        cumulative += b;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            render_label_set(e.labels, Some(&bucket_upper_bound(i).to_string())),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        render_label_set(e.labels, Some("+Inf")),
                        cumulative
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        render_label_set(e.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        render_label_set(e.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Render the registry as a JSON snapshot:
    /// `{"counters": […], "gauges": […], "histograms": […]}` with entries
    /// sorted by `(name, labels)`. Histogram buckets are non-cumulative
    /// `{"le": upper_bound, "count": n}` pairs, empty buckets elided.
    pub fn render_json(&self) -> String {
        let entries = self.sorted_entries();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for e in &entries {
            let labels = render_labels_json(e.labels);
            match &e.metric {
                Metric::Counter(c) => counters.push(format!(
                    "{{\"name\": \"{}\", \"labels\": {labels}, \"value\": {}}}",
                    e.name,
                    c.value()
                )),
                Metric::Gauge(g) => gauges.push(format!(
                    "{{\"name\": \"{}\", \"labels\": {labels}, \"value\": {}}}",
                    e.name,
                    g.value()
                )),
                Metric::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets()
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| **b > 0)
                        .map(|(i, b)| {
                            format!("{{\"le\": {}, \"count\": {b}}}", bucket_upper_bound(i))
                        })
                        .collect();
                    histograms.push(format!(
                        "{{\"name\": \"{}\", \"labels\": {labels}, \"count\": {}, \"sum\": {}, \
                         \"buckets\": [{}]}}",
                        e.name,
                        h.count(),
                        h.sum(),
                        buckets.join(", ")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\": [{}], \"gauges\": [{}], \"histograms\": [{}]}}",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

/// `{key="value",…}` (plus an optional trailing `le`), or the empty string
/// for a label-free metric.
fn render_label_set(labels: Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// `{"key": "value", …}` for the JSON snapshot.
fn render_labels_json(labels: Labels) -> String {
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a second thread lands on another shard")]
    fn counter_sums_across_shards_and_threads() {
        let r = Registry::new();
        let c = r.counter("test_total", "help", &[]);
        c.inc();
        c.add(4);
        let c2 = Arc::clone(&c);
        std::thread::spawn(move || c2.add(10)).join().unwrap();
        assert_eq!(c.value(), 15);
    }

    #[test]
    fn same_identity_returns_same_handle() {
        let r = Registry::new();
        const LABELS: Labels = &[("strategy", "Gather")];
        let a = r.counter("picks_total", "help", LABELS);
        let b = r.counter("picks_total", "help", LABELS);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(r.len(), 1, "re-registration must not duplicate");
        // A different label set is a different series.
        let c = r.counter("picks_total", "help", &[("strategy", "Compact")]);
        c.inc();
        assert_eq!(c.value(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1, "0 lands in bucket 0");
        assert_eq!(buckets[1], 1, "1 lands in bucket 1 (le=1)");
        assert_eq!(buckets[2], 2, "2,3 land in bucket 2 (le=3)");
        assert_eq!(buckets[3], 1, "4 lands in bucket 3 (le=7)");
        assert_eq!(buckets[10], 1, "1000 lands in bucket 10 (le=1023)");
    }

    #[test]
    fn bucket_bounds_are_powers_of_two_minus_one() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(4), 15);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 7, 8, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} fits its bucket");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} exceeds the bucket below");
            }
        }
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_family_grouped() {
        let r = Registry::new();
        // Register out of order; exposition must sort.
        r.counter("zz_total", "last", &[]).inc();
        let a = r.counter("aa_total", "first", &[("k", "b")]);
        let b = r.counter("aa_total", "first", &[("k", "a")]);
        a.add(2);
        b.add(1);
        let text = r.render_prometheus();
        let a_pos = text.find("aa_total{k=\"a\"} 1").unwrap();
        let b_pos = text.find("aa_total{k=\"b\"} 2").unwrap();
        let z_pos = text.find("zz_total 1").unwrap();
        assert!(a_pos < b_pos && b_pos < z_pos, "{text}");
        assert_eq!(text.matches("# TYPE aa_total counter").count(), 1, "{text}");
    }

    #[test]
    fn json_snapshot_is_balanced_and_complete() {
        let r = Registry::new();
        r.counter("c_total", "", &[]).add(3);
        r.gauge("g", "", &[]).set(-2);
        r.histogram("h", "", &[("x", "y")]).observe(5);
        let json = r.render_json();
        assert!(json.contains("\"value\": 3"), "{json}");
        assert!(json.contains("\"value\": -2"), "{json}");
        assert!(json.contains("\"le\": 7, \"count\": 1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
    }
}
