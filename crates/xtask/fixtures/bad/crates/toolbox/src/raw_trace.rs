//! Fixture: engine code building trace events and decision records by hand,
//! bypassing the Tracer's ProfileLevel::Off gate.

pub fn hand_rolled_event(rows: u64, cycles: u64) {
    let _event = crate::trace::TraceEvent::Span { phase, worker: 0, loc, rows, cycles };
}

pub fn hand_priced_decision(segment: u32, cycles: u64) -> DecisionRecord {
    DecisionRecord::Agg { segment, cycles, rows: 0 }
}

pub fn reading_a_record_is_fine(record: &DecisionRecord) -> bool {
    matches!(record, DecisionRecord::Agg { forced: true, .. })
}
