//! Clean fixture: an accounted module that allocates *and* charges the
//! allocation through the governor's accountant, so the accountant pass
//! stays quiet.

pub struct MemScope {
    avail: usize,
}

impl MemScope {
    pub fn charge(&mut self, bytes: usize) -> Result<(), ()> {
        self.avail = self.avail.checked_sub(bytes).ok_or(())?;
        Ok(())
    }
}

pub fn budgeted_scan(mem: &mut MemScope, rows: usize) -> Result<Vec<u32>, ()> {
    mem.charge(rows * 4)?;
    Ok(vec![0u32; rows])
}

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
