//! The delegate: a literal budget next to the leases it counts.

pub const REQUIRED_SLOTS: usize = 2;

pub struct Cursor;

impl Cursor {
    pub fn lease(guard: &Guard) -> Self {
        let lease = || guard.shield::<Node>().unwrap();
        let _window = [lease(), lease()];
        Cursor
    }
}
