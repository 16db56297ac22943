//! The five workloads: set-up (generate, encode, first execution, register),
//! reference verification, and the closed-loop clients that drive the engine
//! through its front door (`Engine::register_table` → `Session::execute`).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use bipie_columnstore::{Table, Value};
use bipie_core::reference::execute_reference;
use bipie_core::{
    Engine, EngineConfig, EngineError, ExecStats, Query, QueryOptions, ResultRow, Session,
    SessionOptions,
};
use bipie_metrics::read_cycles;
use bipie_tpch::q1_query;

use crate::catalog::{ENCODED_OPS, FILTER_SWEEP, INGEST, Q1_SCAN, SERVING};
use crate::env::nproc;
use crate::gen;
use crate::scale::{Scale, SERVING_CLIENTS};
use crate::span::Recorder;

/// One query an op executes, with the rows the reference executor returned
/// for it.
pub struct QueryShape {
    pub label: &'static str,
    pub table: &'static str,
    pub query: Query,
    pub expected: Vec<ResultRow>,
    /// Input rows one execution touches.
    pub rows: usize,
}

/// A workload ready to run: tables registered, expected results known.
pub struct Prepared {
    pub workload: &'static str,
    pub engine: Arc<Engine>,
    /// Executed in order by every op.
    pub shapes: Vec<QueryShape>,
    pub clients: usize,
    pub encoded_bytes: usize,
    pub encoded_rows: usize,
    /// `ingest_flush`: the rows every op inserts, and the segment size of
    /// the table it builds.
    pub ingest: Option<(Vec<Vec<Value>>, usize)>,
    /// Seconds spent in the reference executor; not part of `setup_s`.
    pub verify_secs: f64,
    /// Seconds of everything else in `prepare`.
    pub setup_secs: f64,
}

impl Prepared {
    /// Input rows one op touches.
    pub fn rows_per_op(&self) -> usize {
        match &self.ingest {
            Some((rows, _)) => rows.len(),
            None => self.shapes.iter().map(|s| s.rows).sum(),
        }
    }

    /// Execute each query on the table directly (the first execution a
    /// set-up pays), check it against the reference executor when `verify`
    /// is set, then hand the table to the engine.
    fn add_table(
        &mut self,
        name: &'static str,
        table: Table,
        queries: Vec<(&'static str, Query)>,
        verify: bool,
    ) -> Result<(), String> {
        for (label, query) in queries {
            let fast = bipie_core::execute(&table, &query)
                .map_err(|e| format!("{}/{label}: engine: {e}", self.workload))?;
            if verify {
                let started = Instant::now();
                let slow = execute_reference(&table, &query)
                    .map_err(|e| format!("{}/{label}: reference: {e}", self.workload))?;
                self.verify_secs += started.elapsed().as_secs_f64();
                if slow.rows != fast.rows {
                    return Err(format!(
                        "{}/{label}: engine result differs from core::reference",
                        self.workload
                    ));
                }
            }
            self.shapes.push(QueryShape {
                label,
                table: name,
                query,
                expected: fast.rows,
                rows: table.num_rows(),
            });
        }
        self.encoded_bytes += table.segments().iter().map(|s| s.encoded_bytes()).sum::<usize>();
        self.encoded_rows += table.segments().iter().map(|s| s.num_rows()).sum::<usize>();
        self.engine.register_table(name, table);
        Ok(())
    }
}

/// Build `workload`'s tables from `seed`, register them, and learn the
/// expected result of every query shape. With `verify`, every shape is also
/// checked against `core::reference::execute_reference` — the engine then
/// has to reproduce exactly those rows on every timed op.
pub fn prepare(
    workload: &'static str,
    seed: u64,
    scale: &Scale,
    verify: bool,
) -> Result<Prepared, String> {
    let started = Instant::now();
    let mut p = Prepared {
        workload,
        engine: Engine::new(EngineConfig { max_concurrent: 4, ..EngineConfig::default() }),
        shapes: Vec::new(),
        clients: 1,
        encoded_bytes: 0,
        encoded_rows: 0,
        ingest: None,
        verify_secs: 0.0,
        setup_secs: 0.0,
    };
    match workload {
        Q1_SCAN => {
            let table = gen::lineitem(scale.q1_scan_sf, seed);
            p.add_table("lineitem", table, vec![("q1", q1_query(gen::serial()))], verify)?;
        }
        FILTER_SWEEP => {
            let table = gen::sweep_table(scale.sweep_rows, seed);
            let queries = gen::SWEEP_SELECTIVITIES
                .iter()
                .map(|&(label, s)| (label, gen::sweep_query(s, gen::serial())))
                .collect();
            p.add_table("sweep", table, queries, verify)?;
        }
        ENCODED_OPS => {
            for shape in [
                gen::rle_shape(scale.encoded_rows, scale.rle_run_len, seed),
                gen::delta_shape(scale.encoded_rows, seed),
                gen::dict_shape(scale.encoded_rows, scale.dict_cardinality, seed),
            ] {
                p.add_table(shape.label, shape.table, vec![(shape.label, shape.query)], verify)?;
            }
        }
        SERVING => {
            p.clients = SERVING_CLIENTS.min(nproc());
            let table = gen::lineitem(scale.serving_sf, seed);
            // Default options: parallel, `threads: None` — two fork-join
            // queries contend for the pool.
            p.add_table(
                "lineitem",
                table,
                vec![("q1", q1_query(QueryOptions::default()))],
                verify,
            )?;
        }
        INGEST => {
            let rows = gen::lineitem_rows(scale.ingest_rows(), seed);
            let table = gen::ingest_table(rows.clone(), scale.ingest_segment_rows);
            p.add_table("ingest", table, vec![("q1", q1_query(gen::serial()))], verify)?;
            p.ingest = Some((rows, scale.ingest_segment_rows));
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    p.setup_secs = started.elapsed().as_secs_f64() - p.verify_secs;
    Ok(p)
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// TSC ticks spent inside the system's calls.
    pub cycles: u64,
    pub rows: u64,
    /// TSC tick at which the op completed (orders the ops of all clients).
    pub end: u64,
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<OpSample>,
    /// Ops that returned `Err`, were shed, or returned rows other than the
    /// expected ones.
    pub failed: u64,
    /// Ops the admission controller shed (a subset of `failed`).
    pub sheds: u64,
    pub first_error: Option<String>,
    /// `ExecStats` of the last op, one per shape.
    pub last_stats: Vec<ExecStats>,
    /// Wall seconds from the client's first op to its last.
    pub wall_secs: f64,
}

/// How long a client keeps issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// At least this long and at least this many ops.
    Window { seconds: f64, min_ops: usize },
    /// Exactly this many ops.
    Ops(usize),
}

fn is_shed(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::AdmissionRejected { .. }
            | EngineError::AdmissionTimeout { .. }
            | EngineError::EngineShutdown
    )
}

/// Execute one op through `session`, timing only the calls into the system
/// (result comparison and row cloning are the client's own time). Spans go
/// to `rec` when the run is traced.
fn run_op(p: &Prepared, session: &Session, log: &mut ClientLog, rec: &mut Option<Recorder>) {
    let enter = |rec: &mut Option<Recorder>, name: &'static str| {
        if let Some(r) = rec {
            r.enter(name);
        }
    };
    let exit = |rec: &mut Option<Recorder>| {
        if let Some(r) = rec {
            r.exit();
        }
    };
    let mut cycles = 0u64;
    let mut ok = true;
    log.last_stats.clear();
    // Cloned before the op span opens: row generation is not the system's work.
    let ingest_rows = p.ingest.as_ref().map(|(rows, seg)| (rows.clone(), *seg));
    enter(rec, "op");
    if let Some((rows, segment_rows)) = ingest_rows {
        enter(rec, "columnstore.table.insert");
        let t0 = read_cycles();
        let table = gen::ingest_table(rows, segment_rows);
        cycles += read_cycles() - t0;
        exit(rec);
        enter(rec, "core.engine.register_table");
        let t0 = read_cycles();
        p.engine.register_table(p.shapes[0].table, table);
        cycles += read_cycles() - t0;
        exit(rec);
    }
    for shape in &p.shapes {
        enter(rec, "core.engine.session_execute");
        let t0 = read_cycles();
        let result = session.execute(shape.table, &shape.query);
        cycles += read_cycles() - t0;
        exit(rec);
        match result {
            Ok(r) => {
                if r.rows != shape.expected {
                    ok = false;
                    log.first_error.get_or_insert(format!(
                        "{}/{}: rows differ from the reference result",
                        p.workload, shape.label
                    ));
                }
                log.last_stats.push(r.stats);
            }
            Err(e) => {
                ok = false;
                log.sheds += u64::from(is_shed(&e));
                log.first_error.get_or_insert(format!("{}/{}: {e}", p.workload, shape.label));
            }
        }
    }
    exit(rec);
    log.failed += u64::from(!ok);
    log.samples.push(OpSample { cycles, rows: p.rows_per_op() as u64, end: read_cycles() });
}

/// Run `p.clients` closed-loop clients, one `Session` each, until `limit`.
/// Returns one log per client and, when `span_capacity` is given, the spans
/// of all clients (one lane each).
pub fn run_clients(
    p: &Prepared,
    limit: Limit,
    span_capacity: Option<usize>,
) -> (Vec<ClientLog>, Option<Recorder>) {
    let barrier = Barrier::new(p.clients);
    let mut outcomes: Vec<(ClientLog, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.clients)
            .map(|lane| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let session = p.engine.session(SessionOptions::default());
                    let mut log = ClientLog::default();
                    let mut rec = span_capacity.map(|cap| Recorder::new(lane as u32, cap));
                    barrier.wait();
                    let started = Instant::now();
                    let mut op = 0usize;
                    loop {
                        let more = match limit {
                            Limit::Ops(n) => op < n,
                            Limit::Window { seconds, min_ops } => {
                                op < min_ops || started.elapsed().as_secs_f64() < seconds
                            }
                        };
                        if !more {
                            break;
                        }
                        if let Some(r) = &mut rec {
                            r.set_op((op * p.clients + lane) as u32);
                        }
                        run_op(p, &session, &mut log, &mut rec);
                        op += 1;
                    }
                    log.wall_secs = started.elapsed().as_secs_f64();
                    (log, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            // A client that panicked is a harness bug; surface it as one.
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut spans: Option<Recorder> = None;
    let mut logs = Vec::with_capacity(outcomes.len());
    for (log, rec) in outcomes.drain(..) {
        logs.push(log);
        if let Some(rec) = rec {
            match &mut spans {
                Some(all) => all.absorb(rec),
                None => spans = Some(rec),
            }
        }
    }
    (logs, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;
    use crate::scale::SMOKE;

    #[test]
    fn every_workload_prepares_verifies_and_runs_clean() {
        for w in &WORKLOADS {
            let p = prepare(w.name, 3, &SMOKE, true).expect("prepares and verifies");
            assert!(p.encoded_rows > 0 && p.encoded_bytes > 0, "{}", w.name);
            assert!(p.verify_secs > 0.0 && p.setup_secs > 0.0);
            let (logs, spans) = run_clients(&p, Limit::Ops(3), Some(1000));
            assert_eq!(logs.len(), p.clients);
            for log in &logs {
                assert_eq!(log.samples.len(), 3, "{}", w.name);
                assert_eq!(log.failed, 0, "{}: {:?}", w.name, log.first_error);
                assert_eq!(log.last_stats.len(), p.shapes.len());
                assert!(log.samples.iter().all(|s| s.rows == p.rows_per_op() as u64));
            }
            let spans = spans.expect("traced");
            let ops = spans.spans().iter().filter(|s| s.name == "op").count();
            assert_eq!(ops, 3 * p.clients, "{}", w.name);
        }
    }

    #[test]
    fn a_wrong_result_counts_as_a_failed_op() {
        let mut p = prepare(Q1_SCAN, 1, &SMOKE, false).expect("prepares");
        p.shapes[0].expected.pop();
        let (logs, _) = run_clients(&p, Limit::Ops(2), None);
        assert_eq!(logs[0].failed, 2);
        assert!(logs[0].first_error.as_deref().is_some_and(|e| e.contains("rows differ")));
    }

    #[test]
    fn an_unknown_table_counts_as_a_failed_op_not_a_panic() {
        let mut p = prepare(ENCODED_OPS, 1, &SMOKE, false).expect("prepares");
        p.shapes[1].table = "missing";
        let (logs, _) = run_clients(&p, Limit::Ops(1), None);
        assert_eq!((logs[0].failed, logs[0].sheds), (1, 0));
    }

    #[test]
    fn ingest_rows_per_op_are_the_rows_inserted() {
        let p = prepare(INGEST, 1, &SMOKE, false).expect("prepares");
        assert_eq!(p.rows_per_op(), SMOKE.ingest_rows());
        assert_eq!(p.encoded_rows, SMOKE.ingest_segment_rows * SMOKE.ingest_flushes);
    }
}
