//! Declares one lease of its own beside the delegate's budget, but leases
//! two: the delegation does not excuse what this file leases itself.

pub const REQUIRED_SLOTS: usize = 1 + other::REQUIRED_SLOTS;

pub fn get(guard: &Guard) -> bool {
    let _dir = guard.shield::<Directory>().unwrap();
    let _extra = guard.shield::<Directory>().unwrap();
    other::find(guard)
}
