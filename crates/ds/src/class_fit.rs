//! Which block-cache size class every block type of this crate lands in.
//!
//! `rss_peak_mib` and `cache.hit_ratio` hang on it: a class block is carved
//! at exactly its class size, so the stride between two nodes of a type is
//! its class and the bytes between the block and its class are paid per
//! live node. Every type allocated through a domain is in the table, and
//! each fits its class within [`MAX_SLACK`] bytes.

use wfe_reclaim::{BlockHeader, Linked, SizeClass, CLASS_ALIGN};

/// Bytes a block may leave unused in its class: one word.
const MAX_SLACK: usize = 8;

/// One row: the block type's name, its size and alignment with the header,
/// and the class it must land in.
fn row<T>(name: &'static str, class: usize) -> (&'static str, usize, usize, usize) {
    let size = core::mem::size_of::<Linked<T>>();
    (name, size, core::mem::align_of::<Linked<T>>(), class)
}

#[test]
fn every_block_type_fits_its_size_class() {
    assert_eq!(
        core::mem::size_of::<BlockHeader>(),
        16,
        "alloc era, drop fn"
    );
    let table = [
        row::<crate::michael_list::Node<u64>>("list / fixed-map node", 40),
        row::<crate::resizable_map::Node<u64>>("split-ordered node", 56),
        row::<crate::resizable_map::Directory<u64>>("resizable-map directory", 40),
        row::<crate::natarajan_bst::Node<u64>>("BST node", 56),
        row::<crate::kp_queue::OpDesc<u64>>("KP descriptor", 56),
        row::<crate::kp_queue::Node<u64>>("KP node", 56),
        row::<crate::crturn_queue::Node<u64>>("CRTurn node", 56),
        row::<crate::ms_queue::Node<u64>>("MS node", 40),
        row::<crate::treiber_stack::Node<u64>>("Treiber node", 40),
    ];
    for (name, size, align, class) in table {
        let landed = SizeClass::of(size, align).map(SizeClass::size);
        assert_eq!(landed, Some(class), "{name}: {size} bytes");
        assert!(
            class - size <= MAX_SLACK,
            "{name}: {size} bytes leave {} of the {class}-byte class unused",
            class - size
        );
        // The stride: blocks of the class are carved back to back, `class`
        // bytes apart with no allocator grain, and 8-aligned — which every
        // type here needs, and no more.
        assert_eq!(align, 8, "{name}: 8-byte alignment");
        assert_eq!(
            class % CLASS_ALIGN,
            0,
            "{name}: every {class}-byte block stays aligned"
        );
    }
}
