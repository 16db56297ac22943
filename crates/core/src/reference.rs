//! A deliberately naive reference executor.
//!
//! Evaluates the same query shape as [`crate::execute`] by decoding every
//! row and processing it one at a time — no selection vectors, no SIMD, no
//! strategy specialization, no shared kernels. It exists purely as the
//! correctness oracle: property tests assert that the BIPie engine and this
//! executor produce identical results on arbitrary tables and queries.

use std::collections::BTreeMap;

use bipie_columnstore::encoding::EncodedColumn;
use bipie_columnstore::{Table, Value};

use crate::error::{EngineError, Result};
use crate::query::{AggExpr, AggValue, Query, QueryResult, ResultRow};
use crate::stats::ExecStats;

/// Execute `query` row-at-a-time. Produces rows ordered by group key, the
/// same contract as [`crate::execute`].
pub fn execute_reference(table: &Table, query: &Query) -> Result<QueryResult> {
    let mut group_idx = Vec::new();
    for name in &query.group_by {
        group_idx.push(
            table.column_index(name).ok_or_else(|| EngineError::UnknownColumn(name.clone()))?,
        );
    }
    // (count, sums, mins, maxs) per key; one slot per Sum/Avg aggregate
    // and one per Min/Max aggregate.
    let num_sums =
        query.aggregates.iter().filter(|a| matches!(a, AggExpr::Sum(_) | AggExpr::Avg(_))).count();
    let num_mm =
        query.aggregates.iter().filter(|a| matches!(a, AggExpr::Min(_) | AggExpr::Max(_))).count();
    type Acc = (u64, Vec<i64>, Vec<i64>, Vec<i64>);
    let mut groups: BTreeMap<Vec<Value>, Acc> = BTreeMap::new();

    let mut process_row = |value_of: &dyn Fn(&str) -> Value| -> Result<()> {
        if let Some(f) = &query.filter {
            if !f.eval_row(&|n| value_of(n)) {
                return Ok(());
            }
        }
        let key: Vec<Value> = query.group_by.iter().map(|n| value_of(n)).collect();
        let entry = groups.entry(key).or_insert_with(|| {
            (0, vec![0i64; num_sums], vec![i64::MAX; num_mm], vec![i64::MIN; num_mm])
        });
        entry.0 += 1;
        #[expect(
            clippy::expect_used,
            reason = "aggregate inputs were type-checked as integer-like when the query was \
                      validated"
        )]
        let eval = |e: &crate::expr::Expr| -> Result<i64> {
            let resolved = e.resolve(&|n| table.column_index(n))?;
            Ok(resolved.eval_row(&|idx| {
                value_of(&table.specs()[idx].name)
                    .as_storage_i64()
                    .expect("integer-like aggregate input")
            }))
        };
        let mut slot = 0usize;
        let mut mm_slot = 0usize;
        for agg in &query.aggregates {
            match agg {
                AggExpr::Sum(e) | AggExpr::Avg(e) => {
                    entry.1[slot] += eval(e)?;
                    slot += 1;
                }
                AggExpr::Min(e) | AggExpr::Max(e) => {
                    let v = eval(e)?;
                    entry.2[mm_slot] = entry.2[mm_slot].min(v);
                    entry.3[mm_slot] = entry.3[mm_slot].max(v);
                    mm_slot += 1;
                }
                AggExpr::CountStar => {}
            }
        }
        Ok(())
    };

    for seg in table.segments() {
        // Materialize each string dictionary to shared values once per
        // segment: the row loop below then clones an `Arc<str>` per access
        // instead of re-allocating the string for every row.
        let dict_vals: Vec<Option<Vec<Value>>> = (0..table.specs().len())
            .map(|idx| match seg.column(idx) {
                EncodedColumn::StrDict(d) => {
                    Some(d.dict().iter().map(|s| Value::Str(s.as_str().into())).collect())
                }
                _ => None,
            })
            .collect();
        for row in 0..seg.num_rows() {
            if seg.deleted().is_deleted(row) {
                continue;
            }
            let value_of = |name: &str| -> Value {
                #[expect(
                    clippy::expect_used,
                    reason = "query validation resolved every column name"
                )]
                let idx = table.column_index(name).expect("known column");
                match seg.column(idx) {
                    EncodedColumn::StrDict(d) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "materialized above for every StrDict column"
                        )]
                        let dict = dict_vals[idx].as_ref().expect("materialized above");
                        dict[d.codes().get(row) as usize].clone()
                    }
                    other => Value::from_storage_i64(table.specs()[idx].ty, other.get_i64(row)),
                }
            };
            process_row(&value_of)?;
        }
    }
    let tail = table.mutable_rows();
    for row in 0..tail.len() {
        #[expect(clippy::expect_used, reason = "query validation resolved every column name")]
        let value_of = |name: &str| -> Value {
            tail.value(row, table.column_index(name).expect("known column"))
        };
        process_row(&value_of)?;
    }

    let rows = groups
        .into_iter()
        .map(|(keys, (count, sums, mins, maxs))| {
            let mut slot = 0usize;
            let mut mm_slot = 0usize;
            let aggs = query
                .aggregates
                .iter()
                .map(|agg| match agg {
                    AggExpr::CountStar => AggValue::Count(count),
                    AggExpr::Sum(_) => {
                        let v = AggValue::Sum(sums[slot]);
                        slot += 1;
                        v
                    }
                    AggExpr::Avg(_) => {
                        let v = AggValue::Avg(sums[slot] as f64 / count.max(1) as f64);
                        slot += 1;
                        v
                    }
                    AggExpr::Min(_) => {
                        let v = AggValue::Min(mins[mm_slot]);
                        mm_slot += 1;
                        v
                    }
                    AggExpr::Max(_) => {
                        let v = AggValue::Max(maxs[mm_slot]);
                        mm_slot += 1;
                        v
                    }
                })
                .collect();
            ResultRow { keys, aggs }
        })
        .collect();
    Ok(QueryResult {
        group_columns: query.group_by.clone(),
        rows,
        stats: ExecStats::default(),
        profile: crate::trace::QueryProfile::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Predicate;
    use crate::query::{execute, QueryBuilder};
    use bipie_columnstore::{ColumnSpec, LogicalType, TableBuilder};

    #[test]
    fn engine_matches_reference_on_a_mixed_table() {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("cat", LogicalType::Str),
                ColumnSpec::new("n", LogicalType::I64),
                ColumnSpec::new("m", LogicalType::I64),
            ],
            700,
        );
        for i in 0..2500i64 {
            b.push_row(vec![
                Value::Str(["p", "q", "r", "s", "t"][(i % 5) as usize].into()),
                Value::I64((i * 31) % 1000 - 500),
                Value::I64(i % 7),
            ]);
        }
        let mut t = b.finish();
        t.segment_mut(1).delete_row(10);
        t.insert(vec![Value::Str("q".into()), Value::I64(-99), Value::I64(3)]);

        let q = QueryBuilder::new()
            .filter(Predicate::ge("n", Value::I64(-250)))
            .group_by("cat")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("n"))
            .aggregate(AggExpr::sum_expr(crate::Expr::col("n").mul(crate::Expr::col("m"))))
            .build();
        let fast = execute(&t, &q).unwrap();
        let slow = execute_reference(&t, &q).unwrap();
        assert_eq!(fast.rows, slow.rows);
    }
}
