//! Concurrent data structures generic over a memory-reclamation scheme.
//!
//! These are the workloads of the WFE paper's evaluation (§5), written once
//! against the [`wfe_reclaim::Reclaimer`] API so that every structure can be
//! paired with every scheme (WFE, HE, HP, EBR, 2GEIBR, Leak) exactly as in the
//! paper:
//!
//! * [`TreiberStack`] — the lock-free stack of Figure 2 (the paper's usage
//!   example);
//! * [`MichaelList`] — Harris-Michael sorted linked list (Figures 6 and 9);
//! * [`MichaelHashMap`] — Michael's hash map, one list per bucket
//!   (Figures 7 and 10);
//! * [`ResizableHashMap`] — the Shalev-Herlihy split-ordered resizable hash
//!   map: superseded bucket arrays are retired through the reclamation
//!   scheme (the `kv-zipf-pool` workload of `benchmark/`);
//! * [`NatarajanBst`] — the Natarajan-Mittal external binary search tree
//!   (Figures 8 and 11);
//! * [`KoganPetrankQueue`] — the Kogan-Petrank wait-free queue (Figure 5a/5b);
//! * [`CrTurnQueue`] — the Ramalhete-Correia CRTurn wait-free queue
//!   (Figure 5c/5d);
//! * [`MichaelScottQueue`] — the classic lock-free MS queue, included as an
//!   additional baseline workload.
//!
//! The list and both hash maps are one algorithm and share one core
//! (`ordered.rs`, private to this crate): Harris-Michael `find`, link,
//! mark-and-unlink and the `Drop` walk are written once, generic over the
//! key type and told by each structure where to start.
//!
//! Every operation takes an explicit `&mut R::Handle`: the per-thread
//! reclamation handle obtained from [`wfe_reclaim::Reclaimer::register`].
//! Internally each operation leases its [`wfe_reclaim::Shield`]s, opens a
//! [`wfe_reclaim::Guard`] bracket with
//! [`Handle::enter`](wfe_reclaim::Handle::enter), and reads every shared
//! pointer through `Shield::protect` — the structures contain no raw
//! slot-index `protect` calls and no unsafe dereferences of protected
//! pointers. The [`ConcurrentMap`] and [`ConcurrentQueue`] traits give the
//! benchmark harness a uniform key-value / queue interface, mirroring the
//! abstract interface of the benchmark the paper reuses.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(test)]
mod class_fit;
pub mod crturn_queue;
pub mod hash;
pub mod hash_map;
pub mod kp_queue;
pub mod michael_list;
pub mod ms_queue;
pub mod natarajan_bst;
pub(crate) mod ordered;
pub mod resizable_map;
pub mod traits;
pub mod treiber_stack;

pub use crturn_queue::CrTurnQueue;
pub use hash_map::MichaelHashMap;
pub use kp_queue::KoganPetrankQueue;
pub use michael_list::MichaelList;
pub use ms_queue::MichaelScottQueue;
pub use natarajan_bst::NatarajanBst;
pub use resizable_map::ResizableHashMap;
pub use traits::{ConcurrentMap, ConcurrentQueue, MapServiceStats};
pub use treiber_stack::TreiberStack;

/// The layout assertion the padded structures' unit tests share.
#[cfg(test)]
pub(crate) mod layout {
    /// What [`wfe_sync::CachePadded`] pads and aligns to.
    pub(crate) const LINE: usize = 128;

    /// Asserts, from `(field name, offset_of!)` pairs naming **every** field
    /// of a struct of type `S`, that each `hot` field starts a line of its
    /// own — no other field, hot or `cold`, within [`LINE`] bytes after it —
    /// and that the struct is aligned so offsets decide lines wherever a
    /// value lives, and no larger than its hot lines plus one for the rest.
    pub(crate) fn assert_own_lines<S>(hot: &[(&str, usize)], cold: &[(&str, usize)]) {
        assert_eq!(core::mem::align_of::<S>(), LINE);
        assert_eq!(core::mem::size_of::<S>(), (hot.len() + 1) * LINE);
        for &(name, offset) in hot {
            assert_eq!(offset % LINE, 0, "`{name}` starts a line");
            for &(other, at) in hot.iter().chain(cold) {
                assert!(
                    other == name || at / LINE != offset / LINE,
                    "`{other}` (offset {at}) shares the line of `{name}` (offset {offset})"
                );
            }
        }
    }
}
