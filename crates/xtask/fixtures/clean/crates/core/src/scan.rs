//! Clean fixture: a morsel loop that reaches a governor checkpoint on every
//! trip and a profiler span closed before the `?` exit.

pub fn governed_worker(sched: &Sched, governor: &Governor) -> Result<u64, EngineError> {
    let mut total = 0;
    let mut last = None;
    while let Some(claim) = sched.claim(0, 2, &mut last) {
        if governor.active() {
            governor.check()?;
        }
        total += claim.range.len as u64;
    }
    Ok(total)
}

pub fn balanced_span(tracer: &mut Tracer, rows: u64) -> Result<(), EngineError> {
    let t = tracer.start();
    let outcome = fallible_work(rows);
    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);
    outcome?;
    Ok(())
}
