//! Fixture: an atomic ordering with no `// ORDERING:` justification, in a toolbox module.

use std::sync::atomic::{AtomicBool, Ordering};

pub static STOP: AtomicBool = AtomicBool::new(false);

pub fn stop() {
    STOP.store(true, Ordering::SeqCst);
}
