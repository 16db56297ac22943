//! The integration suites' shared harness: [`run_cases`], a property runner
//! over the deterministic toolbox PRNG (the workspace builds offline, with
//! no external dependencies); one table builder ([`Shape`]); one option grid
//! ([`Grid`]); and one check ([`assert_matches_reference`]) that every
//! equivalence test goes through.
//!
//! A failing case prints its index and seed, so it replays exactly
//! (`Gen::with_seed(seed)` in a scratch test). Inputs are not shrunk: seeds
//! are cheap to bisect by hand, and the generators keep inputs small.

#![allow(dead_code, reason = "shared by several test binaries; each uses a subset")]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use bipie::columnstore::{ColumnSpec, EncodingHint, LogicalType, Table, Value};
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, Expr, Predicate, Query, QueryBuilder, QueryOptions, QueryResult,
    SelectionStrategy,
};
use bipie::toolbox::rng::{Rng, UniformInt};
use bipie::toolbox::SimdLevel;

/// Base seed mixed into every case seed; bump to re-roll the whole suite.
const SUITE_SEED: u64 = 0xB1B1E;

/// Per-case input generator (a thin convenience layer over [`Rng`]).
pub struct Gen {
    pub rng: Rng,
}

impl Gen {
    pub fn with_seed(seed: u64) -> Gen {
        Gen { rng: Rng::seed_from_u64(seed) }
    }

    /// Uniform integer in `range`.
    pub fn int<T: UniformInt, R: std::ops::RangeBounds<T>>(&mut self, range: R) -> T {
        self.rng.random_range(range)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.random_bool(p)
    }

    /// A vector with length drawn from `len`, elements drawn by `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }
}

/// Run `property` for `cases` independently seeded cases. On failure the
/// case index and seed are printed before the panic is re-raised, so the
/// failing input can be regenerated deterministically.
pub fn run_cases(name: &str, cases: usize, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = SUITE_SEED ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut g = Gen::with_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with Gen::with_seed({seed:#x}))"
            );
            resume_unwind(panic);
        }
    }
}

/// Every encoding hint a column can be forced to.
pub const HINTS: [EncodingHint; 5] = [
    EncodingHint::Auto,
    EncodingHint::BitPack,
    EncodingHint::Dict,
    EncodingHint::Rle,
    EncodingHint::Delta,
];

/// One integer column of a [`Shape`]: values in `lo..=hi` (a range narrower
/// than all of `i64`), stored as `I64` or, with `strings`, as `"k{value}"`.
#[derive(Debug, Clone)]
pub struct Col {
    pub name: &'static str,
    pub hint: EncodingHint,
    pub lo: i64,
    pub hi: i64,
    pub strings: bool,
}

impl Col {
    pub fn int(name: &'static str, lo: i64, hi: i64) -> Col {
        Col { name, hint: EncodingHint::Auto, lo, hi, strings: false }
    }
}

/// A table as the suites draw it: segments of explicit sizes (each flushed
/// on its own), a mutable tail, and columns whose values repeat in runs.
/// The first run holds every column's highest value and the second its
/// lowest (so each column's encoded width is fixed by its range, not by the
/// draw, and the extremes arrive out of order); later runs draw uniformly.
/// Runs continue across segment boundaries and into the tail.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Rows of each immutable segment, in order.
    pub segments: Vec<usize>,
    /// Rows left in the mutable region.
    pub tail: usize,
    pub cols: Vec<Col>,
    /// Rows per run of equal values: 1 draws every row afresh.
    pub run: usize,
    /// Delete rows `0, n, 2n, …` of every segment (0: delete none).
    pub delete_stride: usize,
    pub seed: u64,
}

impl Shape {
    /// The suites' common table: key `k` with `keys` distinct values,
    /// `a` in `-5000..5000` and `b` in `0..1000`, all encodings chosen
    /// automatically, no tail, no deletes.
    pub fn new(segments: &[usize], keys: i64, seed: u64) -> Shape {
        Shape {
            segments: segments.to_vec(),
            tail: 0,
            cols: vec![
                Col::int("k", 0, keys - 1),
                Col::int("a", -5000, 4999),
                Col::int("b", 0, 999),
            ],
            run: 1,
            delete_stride: 0,
            seed,
        }
    }

    /// The same shape with `k`, `a` and `b` forced to `hints`.
    pub fn hints(mut self, hints: [EncodingHint; 3]) -> Shape {
        for (col, hint) in self.cols.iter_mut().zip(hints) {
            col.hint = hint;
        }
        self
    }

    pub fn build(&self) -> Table {
        let specs = self.cols.iter().map(|c| {
            let ty = if c.strings { LogicalType::Str } else { LogicalType::I64 };
            ColumnSpec::new(c.name, ty).with_hint(c.hint)
        });
        // Large enough that only the explicit flushes cut segments.
        let segment_rows = self.segments.iter().copied().max().unwrap_or(0).max(self.tail + 1);
        let mut table = Table::with_segment_rows(specs.collect(), segment_rows);
        let mut rng = Rng::seed_from_u64(self.seed);
        let (mut row, mut values) = (0, vec![0; self.cols.len()]);
        for (s, &rows) in self.segments.iter().chain([&self.tail]).enumerate() {
            for _ in 0..rows {
                if row % self.run == 0 {
                    for (c, v) in self.cols.iter().zip(&mut values) {
                        *v = match row / self.run {
                            0 => c.hi,
                            1 => c.lo,
                            _ => c.lo + (rng.next_u64() % (c.hi.abs_diff(c.lo) + 1)) as i64,
                        };
                    }
                }
                let cell = |(c, &v): (&Col, &i64)| match c.strings {
                    true => Value::Str(format!("k{v}").into()),
                    false => Value::I64(v),
                };
                table.insert(self.cols.iter().zip(&values).map(cell).collect());
                row += 1;
            }
            if s < self.segments.len() {
                table.flush_mutable();
            }
        }
        for (s, &rows) in self.segments.iter().enumerate().filter(|_| self.delete_stride > 0) {
            for r in (0..rows).step_by(self.delete_stride) {
                table.delete_row(s, r);
            }
        }
        table
    }
}

/// A random [`Shape`] over `k`, `a` and `b`: up to five segments (none
/// leaves a tail-only table), a tail at the batch edges, narrow to wide key
/// counts, integer or string keys, any encodings, runs and deletes.
pub fn arb_shape(g: &mut Gen) -> Shape {
    let segments = g.vec_of(0..6, |g| g.int(1usize..2000));
    let keys = *g.pick(&[1i64, 3, 12, 200, 600]);
    let hints = [0; 3].map(|_| *g.pick(&HINTS));
    let mut shape = Shape {
        tail: *g.pick(&[0, 0, 1, 29, 4095, 4097]),
        run: *g.pick(&[1, 1, 7, 300]),
        delete_stride: *g.pick(&[0, 0, 1, 3, 97]),
        ..Shape::new(&segments, keys, g.rng.random::<u64>()).hints(hints)
    };
    shape.cols[0].strings = g.chance(0.3);
    shape
}

/// The suites' grouped query over a [`Shape::new`] table: rows with
/// `a >= threshold`, grouped by `k`, under COUNT, SUM, a computed SUM, AVG,
/// MIN and a computed MAX.
pub fn kab_query(threshold: i64) -> Query {
    QueryBuilder::new()
        .filter(Predicate::ge("a", Value::I64(threshold)))
        .group_by("k")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("a"))
        .aggregate(AggExpr::sum_expr(Expr::col("a").add(Expr::col("b").mul(Expr::lit(3)))))
        .aggregate(AggExpr::avg("b"))
        .aggregate(AggExpr::min("a"))
        .aggregate(AggExpr::max_expr(Expr::col("a").mul(Expr::col("b"))))
        .build()
}

/// `query` under `options`.
pub fn with(query: &Query, options: QueryOptions) -> Query {
    Query { options, ..query.clone() }
}

/// The TPC-H `lineitem` table the Q1 and telemetry suites scan: SF 0.004
/// in 6 000-row segments.
pub fn lineitem() -> Table {
    bipie::tpch::LineItemGen { scale_factor: 0.004, segment_rows: 6000, ..Default::default() }
        .generate()
}

/// A (forced aggregation, forced selection) pair; `None` is adaptive.
pub type Forced = (Option<AggStrategy>, Option<SelectionStrategy>);

/// Every forced (aggregation, selection) pair.
pub fn every_forced_pair() -> Vec<Forced> {
    let pairs = AggStrategy::ALL.map(|a| SelectionStrategy::ALL.map(|s| (Some(a), Some(s))));
    pairs.concat()
}

/// A product of query options: every forced pair × SIMD tier × worker
/// count × batch rows × morsel rows, each laid over a base.
#[derive(Debug, Clone)]
pub struct Grid {
    pub forced: Vec<Forced>,
    pub levels: Vec<SimdLevel>,
    pub workers: Vec<usize>,
    pub batch_rows: Vec<usize>,
    pub morsel_rows: Vec<usize>,
}

impl Default for Grid {
    /// One adaptive, serial run at the default tier, batch and morsel.
    fn default() -> Grid {
        let d = QueryOptions::default();
        Grid {
            forced: vec![(None, None)],
            levels: vec![d.level],
            workers: vec![1],
            batch_rows: vec![d.batch_rows],
            morsel_rows: vec![d.morsel_rows],
        }
    }
}

impl Grid {
    /// The default grid at each of `workers`.
    pub fn workers(workers: &[usize]) -> Grid {
        Grid { workers: workers.to_vec(), ..Grid::default() }
    }

    /// Every cell of the product, laid over `base`, worker count innermost.
    pub fn options(&self, base: &QueryOptions) -> Vec<QueryOptions> {
        let mut out = Vec::new();
        for &(forced_agg, forced_selection) in &self.forced {
            for &level in &self.levels {
                for &batch_rows in &self.batch_rows {
                    for &morsel_rows in &self.morsel_rows {
                        for &w in &self.workers {
                            out.push(QueryOptions {
                                forced_agg,
                                forced_selection,
                                level,
                                batch_rows,
                                morsel_rows,
                                parallel: true,
                                threads: Some(w),
                                ..base.clone()
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// The default options at `workers` workers (1 is the serial scan).
pub fn threads(workers: usize) -> QueryOptions {
    QueryOptions { threads: Some(workers), ..Default::default() }
}

/// A random grid: one run alone and one on 2–8 workers, at one tier,
/// batch and morsel size, adaptive or under one forced pair.
pub fn arb_grid(g: &mut Gen) -> Grid {
    let forced = if g.chance(0.5) { (None, None) } else { *g.pick(&every_forced_pair()) };
    Grid {
        forced: vec![forced],
        levels: vec![*g.pick(&SimdLevel::available())],
        workers: vec![1, g.int(2usize..9)],
        batch_rows: vec![*g.pick(&[64, 173, 512, 4096])],
        morsel_rows: vec![*g.pick(&[64, 256, 1024, 100_000])],
    }
}

/// The one differential check: `query` runs on `table` under every cell of
/// `grid` (laid over `query.options`) and each run must
/// - return the reference executor's rows and group columns exactly;
/// - make one aggregation decision per scanned segment;
/// - fork one worker per morsel at most;
/// - count what it scanned exactly as the cells that differ from it only in
///   worker count do: segments, rows, batches, morsels, and the batches and
///   segments of each strategy. The batch grid is the same at every worker
///   count and each segment's strategy is decided at plan time, so any
///   difference is a scheduling bug.
///
/// Returns every run beside its options, in grid order, for the caller's
/// targeted asserts.
pub fn assert_matches_reference(
    table: &Table,
    query: &Query,
    grid: &Grid,
    label: &str,
) -> Vec<(QueryOptions, QueryResult)> {
    assert_matches(table, query, grid, &execute_reference(table, query).unwrap(), label)
}

/// [`assert_matches_reference`] against a result taken elsewhere: the
/// reference over a table holding the same rows under encodings it reads
/// faster, or an engine run that another test holds to the reference.
pub fn assert_matches(
    table: &Table,
    query: &Query,
    grid: &Grid,
    reference: &QueryResult,
    label: &str,
) -> Vec<(QueryOptions, QueryResult)> {
    let mut counted: Vec<(String, _)> = Vec::new();
    let runs = grid.options(&query.options).into_iter().map(|options| {
        let o = &options;
        let cell = format!(
            "{:?}",
            (o.forced_agg, o.forced_selection, o.level, o.batch_rows, o.morsel_rows)
        );
        let workers = options.threads.unwrap_or(1);
        let label = format!("{label}: {cell} workers={workers}");
        let r = execute(table, &with(query, options.clone()))
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_eq!(r.rows, reference.rows, "{label}");
        assert_eq!(r.group_columns, reference.group_columns, "{label}");
        let s = &r.stats;
        assert_eq!(s.agg_segments.iter().sum::<usize>(), s.segments_scanned, "{label}: {s:?}");
        assert_eq!(s.pool_workers, workers.min(s.morsels_scanned), "{label}: {s:?}");
        let counts = (
            (s.segments_scanned, s.segments_eliminated, s.rows_scanned, s.rows_pruned),
            (s.batches, s.morsels_scanned, s.selection_batches, s.agg_segments),
        );
        match counted.iter().find(|(c, _)| *c == cell) {
            Some((_, first)) => assert_eq!(counts, *first, "{label}"),
            None => counted.push((cell, counts)),
        }
        (options, r)
    });
    runs.collect()
}
