//! One lease of this file's own on top of the core's budget: the core's two
//! shields are leased (and audited) in `ordered.rs`, reached through a
//! cross-file call this file's count does not follow.

pub const REQUIRED_SLOTS: usize = 1 + ordered::REQUIRED_SLOTS;

pub fn get(guard: &Guard) -> bool {
    let _dir = guard.shield::<Directory>().unwrap();
    let mut cursor = ordered::Cursor::lease(guard);
    cursor.get()
}
