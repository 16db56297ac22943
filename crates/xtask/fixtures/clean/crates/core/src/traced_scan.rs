//! Fixture: engine code records time through the Tracer API (where the
//! ProfileLevel::Off gate lives) — no hand-built events.

pub fn process(tracer: &mut Tracer, rows: u64) {
    let start = tracer.start();
    let _ = rows;
    tracer.span(Phase::Selection, SpanLoc::none(), rows, start);
}
