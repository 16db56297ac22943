//! Bad fixture: a morsel loop that never reaches a governor checkpoint and
//! a profiler span leaked on the `?` path.

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
