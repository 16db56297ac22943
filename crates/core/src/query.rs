//! Public query API (§2.3).
//!
//! BIPie targets queries of the shape
//!
//! ```sql
//! SELECT g, count(*), sum(a1), ..., sum(an)
//! FROM columnarTable
//! WHERE <filter> GROUP BY g;
//! ```
//!
//! with optional filters and aggregates, one or more group-by columns, and
//! sums over arbitrary arithmetic expressions. [`QueryBuilder`] assembles a
//! [`Query`]; [`execute`] runs it against a [`Table`], scanning its
//! segments with the vectorized engine — the (small) mutable region as one
//! more segment, encoded for the query. Results are ordered by the
//! group-by key.

use bipie_columnstore::{LogicalType, Table, Value};

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::filter::Predicate;
use crate::scan::{scan_table, GroupAcc, ScanOptions};
use crate::stats::ExecStats;
use crate::telemetry::{published, telemetry};
use crate::trace::QueryProfile;

/// An aggregate in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(expr)`.
    Sum(Expr),
    /// `AVG(expr)` — computed as `SUM(expr) / COUNT(*)` at output.
    Avg(Expr),
    /// `MIN(expr)` (extension beyond the paper's COUNT/SUM workload).
    Min(Expr),
    /// `MAX(expr)`.
    Max(Expr),
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star() -> AggExpr {
        AggExpr::CountStar
    }

    /// `SUM(column)`.
    pub fn sum(column: impl Into<String>) -> AggExpr {
        AggExpr::Sum(Expr::Col(column.into()))
    }

    /// `SUM(expr)`.
    pub fn sum_expr(expr: Expr) -> AggExpr {
        AggExpr::Sum(expr)
    }

    /// `AVG(column)`.
    pub fn avg(column: impl Into<String>) -> AggExpr {
        AggExpr::Avg(Expr::Col(column.into()))
    }

    /// `AVG(expr)`.
    pub fn avg_expr(expr: Expr) -> AggExpr {
        AggExpr::Avg(expr)
    }

    /// `MIN(column)`.
    pub fn min(column: impl Into<String>) -> AggExpr {
        AggExpr::Min(Expr::Col(column.into()))
    }

    /// `MAX(column)`.
    pub fn max(column: impl Into<String>) -> AggExpr {
        AggExpr::Max(Expr::Col(column.into()))
    }

    /// `MIN(expr)`.
    pub fn min_expr(expr: Expr) -> AggExpr {
        AggExpr::Min(expr)
    }

    /// `MAX(expr)`.
    pub fn max_expr(expr: Expr) -> AggExpr {
        AggExpr::Max(expr)
    }
}

/// Execution options: the query API's name for the engine's one options
/// struct, [`ScanOptions`].
pub type QueryOptions = ScanOptions;

/// A compiled query specification.
#[derive(Debug, Clone)]
pub struct Query {
    /// Optional WHERE predicate.
    pub filter: Option<Predicate>,
    /// GROUP BY column names (may be empty: one global group).
    pub group_by: Vec<String>,
    /// SELECT-list aggregates.
    pub aggregates: Vec<AggExpr>,
    /// Execution options.
    pub options: QueryOptions,
}

/// Fluent builder for [`Query`].
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    filter: Option<Predicate>,
    group_by: Vec<String>,
    aggregates: Vec<AggExpr>,
    options: Option<QueryOptions>,
}

impl QueryBuilder {
    /// Start an empty query.
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Set the WHERE predicate (subsequent calls AND together).
    pub fn filter(mut self, pred: Predicate) -> QueryBuilder {
        self.filter = Some(match self.filter.take() {
            Some(existing) => Predicate::and(vec![existing, pred]),
            None => pred,
        });
        self
    }

    /// Add a GROUP BY column.
    pub fn group_by(mut self, column: impl Into<String>) -> QueryBuilder {
        self.group_by.push(column.into());
        self
    }

    /// Add an aggregate.
    pub fn aggregate(mut self, agg: AggExpr) -> QueryBuilder {
        self.aggregates.push(agg);
        self
    }

    /// Set execution options.
    pub fn options(mut self, options: QueryOptions) -> QueryBuilder {
        self.options = Some(options);
        self
    }

    /// Finish the specification.
    pub fn build(self) -> Query {
        Query {
            filter: self.filter,
            group_by: self.group_by,
            aggregates: self.aggregates,
            options: self.options.unwrap_or_default(),
        }
    }
}

/// One output value of an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// COUNT(*) result.
    Count(u64),
    /// SUM result (storage-scaled integer).
    Sum(i64),
    /// AVG result.
    Avg(f64),
    /// MIN result (storage-scaled integer).
    Min(i64),
    /// MAX result (storage-scaled integer).
    Max(i64),
}

impl AggValue {
    /// The value as f64 (for display and comparisons).
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::Count(c) => *c as f64,
            AggValue::Sum(s) => *s as f64,
            AggValue::Avg(a) => *a,
            AggValue::Min(v) | AggValue::Max(v) => *v as f64,
        }
    }

    /// The integer sum, if this is a SUM.
    pub fn as_sum(&self) -> Option<i64> {
        match self {
            AggValue::Sum(s) => Some(*s),
            _ => None,
        }
    }

    /// The count, if this is a COUNT.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggValue::Count(c) => Some(*c),
            _ => None,
        }
    }
}

/// One result row: group key plus aggregate values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Group-by key values, in GROUP BY order.
    pub keys: Vec<Value>,
    /// Aggregate values, in SELECT-list order.
    pub aggs: Vec<AggValue>,
}

/// A query result: rows ordered by group key, plus execution stats.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Names of the group-by columns.
    pub group_columns: Vec<String>,
    /// Result rows, ordered by group key.
    pub rows: Vec<ResultRow>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// The query profile — empty unless [`QueryOptions::profile`] opted in.
    pub profile: QueryProfile,
}

impl QueryResult {
    /// Number of result rows (groups).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Find the row with the given group key.
    pub fn row_for(&self, keys: &[Value]) -> Option<&ResultRow> {
        self.rows.iter().find(|r| r.keys == keys)
    }
}

/// Execute a query against a table.
///
/// This is also the engine's telemetry seam: on completion the finished
/// [`ExecStats`] and [`QueryProfile`] are published once into the process
/// [`EngineTelemetry`](crate::telemetry::EngineTelemetry) handle (fleet
/// counters, latency histogram, decision log); an error publishes into the
/// error/governor-trip counters through the engine's one publication
/// boundary. No hot-path code touches the registry.
pub fn execute(table: &Table, query: &Query) -> Result<QueryResult> {
    published(|| {
        // Reject malformed execution options before resolving anything, so
        // the caller gets a typed error at plan time rather than a panic
        // mid-scan.
        query.options.validate()?;
        run(table, query)
    })
}

/// Run a query whose options are valid and publish its completion, timed
/// from here — after any admission wait. Its errors are the caller's to
/// publish: it runs inside `execute`'s or the engine's boundary.
pub(crate) fn run(table: &Table, query: &Query) -> Result<QueryResult> {
    let started = std::time::Instant::now();
    // Resolve group-by columns.
    let mut group_cols = Vec::with_capacity(query.group_by.len());
    for name in &query.group_by {
        let idx =
            table.column_index(name).ok_or_else(|| EngineError::UnknownColumn(name.clone()))?;
        group_cols.push((idx, table.specs()[idx].ty));
    }

    // Collect sum expressions (AVG contributes a sum too), deduplicating
    // identical expressions so e.g. Q1's SUM(l_quantity) and
    // AVG(l_quantity) share one accumulator — this keeps the input count
    // small enough for the multi-aggregate row layout.
    fn slot_of<'q>(e: &'q Expr, list: &mut Vec<&'q Expr>) -> usize {
        match list.iter().position(|x| *x == e) {
            Some(i) => i,
            None => {
                list.push(e);
                list.len() - 1
            }
        }
    }
    let mut sum_exprs_src: Vec<&Expr> = Vec::new();
    let mut agg_plan: Vec<AggPlan> = Vec::new();
    let mut mm_exprs_src: Vec<&Expr> = Vec::new();
    for agg in &query.aggregates {
        match agg {
            AggExpr::CountStar => agg_plan.push(AggPlan::Count),
            AggExpr::Sum(e) => {
                check_expr_types(table, e)?;
                agg_plan.push(AggPlan::Sum(slot_of(e, &mut sum_exprs_src)));
            }
            AggExpr::Avg(e) => {
                check_expr_types(table, e)?;
                agg_plan.push(AggPlan::Avg(slot_of(e, &mut sum_exprs_src)));
            }
            AggExpr::Min(e) => {
                check_expr_types(table, e)?;
                agg_plan.push(AggPlan::Min(slot_of(e, &mut mm_exprs_src)));
            }
            AggExpr::Max(e) => {
                check_expr_types(table, e)?;
                agg_plan.push(AggPlan::Max(slot_of(e, &mut mm_exprs_src)));
            }
        }
    }
    let lookup = |name: &str| table.column_index(name);
    // Joint compilation enables cross-expression CSE (Q1's charge reuses
    // disc_price's result). Evaluation order is sums first, then MIN/MAX.
    let combined: Vec<&Expr> = sum_exprs_src.iter().chain(&mm_exprs_src).copied().collect();
    let mut resolved = crate::expr::resolve_many(&combined, &lookup)?;
    let mm_exprs = resolved.split_off(sum_exprs_src.len());
    let sum_exprs = resolved;
    let filter = query.filter.as_ref().map(|f| f.resolve(table)).transpose()?;

    let (merged, stats, profile) =
        scan_table(table, filter.as_ref(), &group_cols, &sum_exprs, &mm_exprs, &query.options)?;

    let rows = merged
        .into_iter()
        .map(|(keys, acc)| ResultRow { keys, aggs: finish_aggs(&agg_plan, &acc) })
        .collect();
    telemetry().publish_query(&stats, &profile, started.elapsed());
    Ok(QueryResult { group_columns: query.group_by.clone(), rows, stats, profile })
}

#[derive(Debug, Clone, Copy)]
enum AggPlan {
    Count,
    Sum(usize),
    Avg(usize),
    Min(usize),
    Max(usize),
}

fn finish_aggs(plan: &[AggPlan], acc: &GroupAcc) -> Vec<AggValue> {
    plan.iter()
        .map(|p| match p {
            AggPlan::Count => AggValue::Count(acc.count),
            AggPlan::Sum(i) => AggValue::Sum(acc.sums[*i]),
            AggPlan::Avg(i) => AggValue::Avg(acc.sums[*i] as f64 / acc.count.max(1) as f64),
            AggPlan::Min(i) => AggValue::Min(acc.mins[*i]),
            AggPlan::Max(i) => AggValue::Max(acc.maxs[*i]),
        })
        .collect()
}

fn check_expr_types(table: &Table, expr: &Expr) -> Result<()> {
    for name in expr.referenced_columns() {
        let idx =
            table.column_index(name).ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
        if table.specs()[idx].ty == LogicalType::Str {
            return Err(EngineError::TypeMismatch {
                column: name.to_string(),
                detail: "cannot aggregate a string column".into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{AggStrategy, SelectionStrategy};
    use bipie_columnstore::{ColumnSpec, TableBuilder};

    fn table() -> Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("region", LogicalType::Str),
                ColumnSpec::new("sales", LogicalType::I64),
                ColumnSpec::new("cost", LogicalType::I64),
            ],
            500,
        );
        for i in 0..1000i64 {
            b.push_row(vec![
                Value::Str(["east", "north", "south", "west"][(i % 4) as usize].into()),
                Value::I64(i),
                Value::I64(i / 2),
            ]);
        }
        b.finish()
    }

    #[test]
    fn full_query_shape() {
        let t = table();
        let q = QueryBuilder::new()
            .filter(Predicate::ge("sales", Value::I64(500)))
            .group_by("region")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("sales"))
            .aggregate(AggExpr::sum_expr(Expr::col("sales").sub(Expr::col("cost"))))
            .aggregate(AggExpr::avg("sales"))
            .build();
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.num_rows(), 4);
        // Rows come back ordered by group key.
        let keys: Vec<String> = r.rows.iter().map(|row| row.keys[0].to_string()).collect();
        assert_eq!(keys, vec!["east", "north", "south", "west"]);
        // east = i % 4 == 0, i >= 500: 500, 504, ..., 996 -> 125 rows.
        let east = r.row_for(&[Value::Str("east".into())]).unwrap();
        assert_eq!(east.aggs[0], AggValue::Count(125));
        let expected_sum: i64 = (500..1000).filter(|i| i % 4 == 0).sum();
        assert_eq!(east.aggs[1], AggValue::Sum(expected_sum));
        let expected_diff: i64 = (500..1000).filter(|i| i % 4 == 0).map(|i| i - i / 2).sum();
        assert_eq!(east.aggs[2], AggValue::Sum(expected_diff));
        let avg = east.aggs[3].as_f64();
        assert!((avg - expected_sum as f64 / 125.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_aggregates() {
        let t = table();
        let q = QueryBuilder::new()
            .filter(Predicate::ge("sales", Value::I64(100)))
            .group_by("region")
            .aggregate(AggExpr::min("sales"))
            .aggregate(AggExpr::max("sales"))
            .aggregate(AggExpr::max_expr(Expr::col("sales").sub(Expr::col("cost"))))
            .aggregate(AggExpr::count_star())
            .build();
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.num_rows(), 4);
        // east = i % 4 == 0, i >= 100: min 100, max 996.
        let east = r.row_for(&[Value::Str("east".into())]).unwrap();
        assert_eq!(east.aggs[0], AggValue::Min(100));
        assert_eq!(east.aggs[1], AggValue::Max(996));
        // max(sales - cost) for east: max over i - i/2 = ceil(i/2) -> 498.
        assert_eq!(east.aggs[2], AggValue::Max(498));
        // north = i % 4 == 1: min 101, max 997.
        let north = r.row_for(&[Value::Str("north".into())]).unwrap();
        assert_eq!(north.aggs[0], AggValue::Min(101));
        assert_eq!(north.aggs[1], AggValue::Max(997));
    }

    #[test]
    fn min_max_identical_across_forced_strategies() {
        let t = table();
        let build = |opts: QueryOptions| {
            QueryBuilder::new()
                .filter(Predicate::lt("sales", Value::I64(700)))
                .group_by("region")
                .aggregate(AggExpr::min("sales"))
                .aggregate(AggExpr::max("cost"))
                .aggregate(AggExpr::sum("sales"))
                .options(opts)
                .build()
        };
        let baseline = execute(&t, &build(QueryOptions::default())).unwrap();
        for agg in AggStrategy::ALL {
            for sel in SelectionStrategy::ALL {
                let opts = QueryOptions {
                    forced_agg: Some(agg),
                    forced_selection: Some(sel),
                    ..Default::default()
                };
                let r = execute(&t, &build(opts)).unwrap();
                assert_eq!(r.rows, baseline.rows, "{agg:?}+{sel:?}");
            }
        }
    }

    #[test]
    fn mutable_region_rows_participate() {
        let mut b = TableBuilder::with_segment_rows(
            vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
            100,
        );
        for i in 0..150i64 {
            b.push_row(vec![Value::Str("x".into()), Value::I64(i)]);
        }
        let mut t = b.finish();
        // Insert into the mutable region without flushing.
        t.insert(vec![Value::Str("y".into()), Value::I64(1000)]);
        t.insert(vec![Value::Str("x".into()), Value::I64(2000)]);
        let q = QueryBuilder::new()
            .group_by("g")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("v"))
            .build();
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.stats.mutable_rows, 2);
        let x = r.row_for(&[Value::Str("x".into())]).unwrap();
        assert_eq!(x.aggs[0], AggValue::Count(151));
        assert_eq!(x.aggs[1], AggValue::Sum((0..150i64).sum::<i64>() + 2000));
        let y = r.row_for(&[Value::Str("y".into())]).unwrap();
        assert_eq!(y.aggs[0], AggValue::Count(1));
    }

    #[test]
    fn no_group_by_single_row() {
        let t = table();
        let q = QueryBuilder::new()
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("sales"))
            .build();
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert!(r.rows[0].keys.is_empty());
        assert_eq!(r.rows[0].aggs[0], AggValue::Count(1000));
        assert_eq!(r.rows[0].aggs[1], AggValue::Sum((0..1000).sum::<i64>()));
    }

    #[test]
    fn empty_result_when_filter_rejects_all() {
        let t = table();
        let q = QueryBuilder::new()
            .filter(Predicate::gt("sales", Value::I64(10_000)))
            .group_by("region")
            .aggregate(AggExpr::count_star())
            .build();
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.num_rows(), 0);
        assert_eq!(r.stats.segments_eliminated, 2);
    }

    #[test]
    fn errors_propagate() {
        let t = table();
        let q = QueryBuilder::new().group_by("nope").aggregate(AggExpr::count_star()).build();
        assert!(matches!(execute(&t, &q), Err(EngineError::UnknownColumn(_))));
        let q = QueryBuilder::new().aggregate(AggExpr::sum("region")).build();
        assert!(matches!(execute(&t, &q), Err(EngineError::TypeMismatch { .. })));
    }

    #[test]
    fn invalid_options_fail_at_plan_time() {
        let t = table();
        for (opts, option) in [
            (QueryOptions { batch_rows: 0, ..Default::default() }, "batch_rows"),
            (QueryOptions { morsel_rows: 0, ..Default::default() }, "morsel_rows"),
            (QueryOptions { threads: Some(0), ..Default::default() }, "threads"),
            (
                QueryOptions { time_budget: Some(std::time::Duration::ZERO), ..Default::default() },
                "time_budget",
            ),
            (QueryOptions { mem_budget: Some(0), ..Default::default() }, "mem_budget"),
        ] {
            assert!(matches!(
                opts.validate(),
                Err(EngineError::InvalidOptions { option: o, .. }) if o == option
            ));
            let q = QueryBuilder::new().aggregate(AggExpr::count_star()).options(opts).build();
            assert!(matches!(
                execute(&t, &q),
                Err(EngineError::InvalidOptions { option: o, .. }) if o == option
            ));
        }
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        let t = table();
        let build = |opts: QueryOptions| {
            QueryBuilder::new()
                .filter(Predicate::ge("sales", Value::I64(250)))
                .group_by("region")
                .aggregate(AggExpr::count_star())
                .aggregate(AggExpr::sum("sales"))
                .options(opts)
                .build()
        };
        let serial =
            execute(&t, &build(QueryOptions { parallel: false, ..Default::default() })).unwrap();
        for threads in [2usize, 4] {
            let opts = QueryOptions {
                threads: Some(threads),
                morsel_rows: 128,
                batch_rows: 64,
                ..Default::default()
            };
            let serial_small = execute(
                &t,
                &build(QueryOptions {
                    parallel: false,
                    morsel_rows: 128,
                    batch_rows: 64,
                    ..Default::default()
                }),
            )
            .unwrap();
            let par = execute(&t, &build(opts)).unwrap();
            assert_eq!(par.rows, serial.rows, "threads={threads}");
            assert_eq!(par.rows, serial_small.rows, "threads={threads} small batches");
            assert_eq!(par.stats.pool_workers, threads);
            assert!(par.stats.morsels_scanned > 0);
        }
    }

    #[test]
    fn anded_filters_compose() {
        let t = table();
        let q = QueryBuilder::new()
            .filter(Predicate::ge("sales", Value::I64(100)))
            .filter(Predicate::lt("sales", Value::I64(200)))
            .group_by("region")
            .aggregate(AggExpr::count_star())
            .build();
        let r = execute(&t, &q).unwrap();
        let total: u64 = r.rows.iter().map(|row| row.aggs[0].as_count().unwrap()).sum();
        assert_eq!(total, 100);
    }
}
