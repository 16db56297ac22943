//! Bad fixture: an accounted module (`crates/core/src/scan.rs`) that
//! allocates data-dependent buffers but no longer references the memory
//! accountant anywhere — the accountant pass must flag each allocation.

pub fn unbudgeted_scan(rows: usize) -> Vec<u32> {
    let mut gids = vec![0u32; rows];
    let mut scratch = Vec::with_capacity(rows);
    scratch.resize(rows, 0u8);
    gids[0] = scratch[0] as u32;
    gids
}

pub fn ungoverned_worker(sched: &Sched) -> u64 {
    let mut total = 0;
    let mut last = None;
    while let Some(claim) = sched.claim(0, 2, &mut last) {
        total += claim.range.len as u64;
    }
    total
}

pub fn leaky_span(tracer: &mut Tracer, rows: u64) -> Result<(), EngineError> {
    let t = tracer.start();
    fallible_work(rows)?;
    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);
    Ok(())
}
