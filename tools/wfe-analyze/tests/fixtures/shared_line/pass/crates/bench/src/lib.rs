//! Outside the reclaimer, the scheme and the structures the rule does
//! not apply: a harness's counters are nobody's hot path.

use wfe_sync::atomic::AtomicU64;

pub struct Meter {
    ops: AtomicU64,
    failed: AtomicU64,
}
