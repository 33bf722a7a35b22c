//! A bare delegation stays out of scope: no audit row, no finding, however
//! many shields the file leases.

pub const REQUIRED_SLOTS: usize = other::REQUIRED_SLOTS;

pub fn get(guard: &Guard) -> bool {
    let _extra = guard.shield::<Directory>().unwrap();
    other::find(guard)
}
