//! Fixture: engine code records time through the Tracer API (where the
//! ProfileLevel::Off gate lives) — no hand-built events.

pub fn process(tracer: &mut Tracer, rows: usize) {
    tracer.timed(Phase::Selection, SpanLoc::none(), |_| ((), rows));
}
