//! Fixture: engine code timing batches and building trace events and
//! decision records by hand, bypassing the Tracer's ProfileLevel::Off gate.

pub fn timed_batch(rows: u64) -> u64 {
    let start = bipie_toolbox::cycles::read_tsc();
    let _ = rows;
    bipie_toolbox::cycles::read_tsc() - start
}

pub fn hand_rolled_event(rows: u64, cycles: u64) {
    let _event = TraceEvent::Span { phase, worker: 0, loc, rows, cycles, wall_nanos: 0 };
}

pub fn hand_priced_decision(segment: u32, cycles: u64) -> DecisionRecord {
    DecisionRecord::Agg { segment, cycles, rows: 0 }
}

pub fn reading_a_record_is_fine(record: &DecisionRecord) -> bool {
    matches!(record, DecisionRecord::Agg { forced: true, .. })
}
