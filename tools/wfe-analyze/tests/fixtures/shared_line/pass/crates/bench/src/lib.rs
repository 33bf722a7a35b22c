//! Outside the reclaimer, the structures and the task layer the rule does
//! not apply: a harness's counters are nobody's hot path.

use wfe_sync::atomic::AtomicU64;

pub struct Meter {
    ops: AtomicU64,
    failed: AtomicU64,
}
