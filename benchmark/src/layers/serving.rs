//! Layer metrics measured on the `serving_q1_2c` shape: the shared pool, the
//! weighted-fair scheduler and admission, under two closed-loop clients.

use bipie_core::pool::WorkerPool;

use super::Probe;
use crate::catalog::SERVING;
use crate::env::nproc;
use crate::scale::Scale;
use crate::workloads::{prepare, run_clients, Limit};

pub fn measure(p: &mut Probe<'_>) -> Result<(), String> {
    let pool = WorkerPool::global();
    let workers = nproc();
    // The fork-join round trip with no work in it (spawns the pool's workers
    // on the warm call, so the timed ones reuse them).
    p.micros("core.pool.run_empty.us", || {
        std::hint::black_box(pool.run(workers, &|_| {}).is_ok());
    });

    // A short run of the serving workload at the probe's table size.
    let scale = Scale { serving_sf: p.scale.probe_serving_sf, ..p.scale.clone() };
    let prepared = prepare(SERVING, p.seed, &scale, false)?;
    let before = pool.sched_stats();
    let (logs, _) = run_clients(&prepared, Limit::Ops(p.scale.probe_serving_ops), None);
    let after = pool.sched_stats();
    if let Some(e) = logs.iter().find_map(|l| l.first_error.as_ref()) {
        return Err(format!("serving probe: {e}"));
    }

    p.put("core.pool.sched.dispatches", (after.jobs_dispatched - before.jobs_dispatched) as f64);
    p.put("core.pool.sched.switches", (after.query_switches - before.query_switches) as f64);
    // Per-query counts of each client's last op, summed over the clients.
    let last = |pick: fn(&bipie_core::ExecStats) -> usize| -> f64 {
        logs.iter().flat_map(|l| &l.last_stats).map(|s| pick(s) as f64).sum()
    };
    p.put("core.stats.morsels_scanned.serving", last(|s| s.morsels_scanned));
    p.put("core.stats.morsel_steals.serving", last(|s| s.morsel_steals));
    p.put("core.engine.sheds", logs.iter().map(|l| l.sheds as f64).sum());

    // Closed-loop clients on a fair scheduler should finish their equal op
    // counts in equal time.
    let rates: Vec<f64> = logs.iter().map(|l| l.samples.len() as f64 / l.wall_secs).collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let spread = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - rates.iter().copied().fold(f64::INFINITY, f64::min);
    p.put("bench.client_imbalance_pct", spread / mean * 100.0);
    Ok(())
}
