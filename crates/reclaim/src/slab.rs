//! The process-wide block pool: where class blocks are made, and where a
//! magazine trades them.
//!
//! Every class block ([`SizeClass`]) comes out of one pool per class: a
//! lock-free stack of `BlockChain`s, the versioned-WCAS
//! [`TypeStableStack`] the orphan stack and the handle pool use too. A
//! magazine refills by popping one chain and spills by pushing one, so the
//! pool is entered once per half magazine of one-sided traffic:
//!
//! * a **refill** pops one chain and keeps at most half a magazine of it; a
//!   longer chain is split and its rest pushed back. When the stack is empty
//!   it carves a fresh 64 KiB slab into one chain at exactly the class
//!   stride — 40-byte list nodes sit 40 bytes apart, where a glibc chunk
//!   each put them 48 apart — keeps the first half magazine and pushes the
//!   rest;
//! * a **spill** or a **drain** pushes its chain whole: there is no capacity
//!   and nothing is refused.
//!
//! The pool never gives a slab back: its size is the process's peak number
//! of class blocks out of it at once.
//!
//! **Progress.** A pop or a push is lock-free (a versioned WCAS that retries
//! only when another thread's pop or push succeeded), and so is linking a
//! new slab into the slab list. The one step without a bound is fetching a
//! fresh slab from the system allocator. Nothing here waits for another
//! thread.
//!
//! Only a block allocated through a magazine is a class block. Without one —
//! the cache off, `Leak`, [`Linked::alloc`] — a block is its own `Box`, and
//! freeing it frees it, which is what lets a sanitizer report a read after
//! the free. With the cache on, debug builds poison every parked block
//! instead: a write after the free fails at the next `alloc` of
//! the class, and a read of a freed node's link yields a non-canonical
//! address rather than somebody's live node.
//!
//! **Model schedules.** The pool outlives every schedule and every test of
//! the process, so the number of steps a pop takes would depend on what
//! earlier runs left in it and make schedules unreplayable. Each stack
//! operation therefore runs inside [`wfe_sync::unobserved`], and the
//! counters and the slab list are `core` atomics: the pool adds no
//! interleaving point to a model schedule.
//!
//! [`Linked::alloc`]: crate::Linked::alloc

use core::alloc::Layout;
// wfe-analyze: allow(raw-atomic): the pool's counters and slab list must stay invisible to model schedules (module docs).
use core::sync::atomic::{AtomicIsize, AtomicPtr, AtomicUsize, Ordering};

use wfe_sync::unobserved;

use crate::cache::{BlockChain, SizeClass, CLASS_SIZES};
use crate::treiber::TypeStableStack;

/// Bytes per slab: 1 638 list nodes, 64 blocks of the largest class.
const SLAB_BYTES: usize = 64 * 1024;

/// A slab starts on a cache line, so block `k` of a class sits `k × size`
/// bytes past a line boundary.
const SLAB_ALIGN: usize = 64;

/// Offset of the word that links a slab to the one carved before it. No
/// class fills a slab: 65 536 bytes leave 16 (or more) past the last block
/// of every class, so blocks are carved from the bytes before this word.
const SLAB_LINK: usize = SLAB_BYTES - core::mem::size_of::<*mut u8>();

const _: () = {
    let mut index = 0;
    while index < CLASS_SIZES.len() {
        let size = CLASS_SIZES[index];
        assert!(
            SLAB_LINK / size == SLAB_BYTES / size,
            "a class must leave the link word free"
        );
        index += 1;
    }
};

fn slab_layout() -> Layout {
    Layout::from_size_align(SLAB_BYTES, SLAB_ALIGN).expect("slab layout is valid")
}

/// One class's pool: parked chains of dead blocks of that class.
type Pool = TypeStableStack<BlockChain>;

static POOLS: [Pool; CLASS_SIZES.len()] = [const { TypeStableStack::new() }; CLASS_SIZES.len()];

/// The newest slab; each slab's [`SLAB_LINK`] word points at the one carved
/// before it. Push-only: it keeps every slab reachable for a leak checker,
/// whoever holds its blocks.
static SLABS: AtomicPtr<u8> = AtomicPtr::new(core::ptr::null_mut());

/// Per class: blocks out of the pool (in use or in a magazine).
static OUTSTANDING: [AtomicIsize; CLASS_SIZES.len()] =
    [const { AtomicIsize::new(0) }; CLASS_SIZES.len()];

/// Per class: blocks carved from slabs so far.
static CARVED: [AtomicUsize; CLASS_SIZES.len()] =
    [const { AtomicUsize::new(0) }; CLASS_SIZES.len()];

/// Cuts a fresh slab into one chain of `class` blocks, each linked to the
/// next (the last to null), and links the slab into [`SLABS`].
fn carve_slab(class: SizeClass) -> BlockChain {
    // SAFETY: the layout has a non-zero size.
    let slab = unsafe { std::alloc::alloc(slab_layout()) };
    if slab.is_null() {
        std::alloc::handle_alloc_error(slab_layout());
    }
    let size = class.size();
    let count = SLAB_LINK / size;
    for index in 0..count {
        // SAFETY: block `index` lies inside the slab, before its link word
        // (`count × size <= SLAB_LINK`), 8-aligned; the memory is ours.
        unsafe {
            let block = slab.add(index * size);
            let next = if index + 1 < count {
                block.add(size)
            } else {
                core::ptr::null_mut()
            };
            block.cast::<*mut u8>().write(next);
            // Debug builds hand out every block poisoned, fresh or recycled.
            #[cfg(debug_assertions)]
            poison(block, class);
        }
    }
    let link = slab.wrapping_add(SLAB_LINK).cast::<*mut u8>();
    // ORDER: the slab list is only ever walked by a leak checker or a test, never to reach data; a stale head just retries.
    let mut newest = SLABS.load(Ordering::Relaxed);
    loop {
        // SAFETY: the link word is the slab's last, 8-aligned, and unpublished until the CAS below.
        unsafe { link.write(newest) };
        // ORDER: Release publishes the link word written above to whoever walks the list from the new head.
        match SLABS.compare_exchange_weak(newest, slab, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => newest = seen,
        }
    }
    CARVED[class.index()].fetch_add(count, Ordering::Relaxed); // ORDER: test-only gauge; orders nothing.
    BlockChain { first: slab, count }
}

/// Pops one chain off `pool` — a freshly carved one when the pool is empty
/// — and keeps at most `max` blocks of it, pushing the rest back whole.
fn take_from(pool: &Pool, class: SizeClass, max: usize) -> BlockChain {
    let mut chain = unobserved(|| pool.pop()).unwrap_or_else(|| carve_slab(class));
    if chain.count > max {
        let mut last = chain.first;
        for _ in 1..max {
            // SAFETY: the pop (or the carve) made the chain ours, so its
            // links are ours to read.
            last = unsafe { last.cast::<*mut u8>().read() };
        }
        let rest = BlockChain {
            // SAFETY: as above; `last` is the `max`-th block of a longer chain.
            first: unsafe { last.cast::<*mut u8>().read() },
            count: chain.count - max,
        };
        unobserved(|| pool.push(rest));
        chain.count = max;
    }
    chain
}

/// Takes a chain of at most `max` blocks of `class` (a magazine's refill):
/// dead memory the caller now owns, poisoned in debug builds. One pop, and
/// one push when the chain was longer.
pub(crate) fn take_chain(class: SizeClass, max: usize) -> BlockChain {
    let chain = take_from(&POOLS[class.index()], class, max);
    OUTSTANDING[class.index()].fetch_add(chain.count as isize, Ordering::Relaxed); // ORDER: test-only gauge; orders nothing.
    chain
}

/// Gives a whole chain back: one push, however long the chain is.
///
/// # Safety
///
/// Every block of `chain` must come from [`take_chain`] with the same
/// `class` (directly or through a magazine), its payload already dropped,
/// linked as the chain's count says; each is given back exactly once.
pub(crate) unsafe fn give_chain(class: SizeClass, chain: BlockChain) {
    OUTSTANDING[class.index()].fetch_sub(chain.count as isize, Ordering::Relaxed); // ORDER: test-only gauge; orders nothing.
    unobserved(|| POOLS[class.index()].push(chain));
}

/// The process-wide number of class blocks out of the pool — in use or in a
/// magazine — not counting those parked on the calling thread's spare
/// magazine (frees with no handle, `Linked::dealloc`): back to where it was
/// once every domain that took some has dropped.
///
/// Exported for `tests/cache_leak.rs`, which needs a process of its own:
/// the count is global, so assertions about it are only meaningful in a
/// process that controls all its allocations.
pub fn outstanding_cached_allocs() -> isize {
    let out: isize = OUTSTANDING
        .iter()
        .map(|count| count.load(Ordering::Relaxed)) // ORDER: test-only gauge; the test's own joins order it.
        .sum();
    out - crate::cache::spare_blocks() as isize
}

/// The process-wide number of class blocks ever carved from slabs: the
/// pools' combined size, which grows only when more blocks are out at once
/// than ever before. Exported for `tests/cache_leak.rs`, as above.
pub fn carved_blocks() -> usize {
    CARVED
        .iter()
        .map(|count| count.load(Ordering::Relaxed)) // ORDER: test-only gauge; the test's own joins order it.
        .sum()
}

/// What a parked block holds past its link word in debug builds: a
/// non-canonical address, so following a link read out of a freed node
/// faults instead of landing in live memory.
#[cfg(debug_assertions)]
const POISON: u64 = 0xDEAD_F4EE_DEAD_F4EE;

/// Overwrites every word of a dead `class` block but the first (a chain's
/// link) with [`POISON`]: debug builds do this to every block they park.
///
/// # Safety
///
/// `block` must be a dead block of `class` the caller owns.
#[cfg(debug_assertions)]
pub(crate) unsafe fn poison(block: *mut u8, class: SizeClass) {
    for word in 1..class.size() / 8 {
        // SAFETY: class blocks are 8-aligned multiples of 8 bytes, owned by
        // the caller.
        unsafe { block.cast::<u64>().add(word).write(POISON) };
    }
}

/// Panics unless a block just taken off a magazine is poisoned as
/// [`poison`] left it: anything else was written after the block was freed.
///
/// # Safety
///
/// As [`poison`].
#[cfg(debug_assertions)]
pub(crate) unsafe fn check_poison(block: *mut u8, class: SizeClass) {
    for word in 1..class.size() / 8 {
        // SAFETY: as in `poison`.
        let value = unsafe { block.cast::<u64>().add(word).read() };
        assert!(
            value == POISON,
            "a freed {}-byte block was written at byte {} while it was parked (found {value:#x})",
            class.size(),
            word * 8
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Private pools, except for the helpers the cache's tests use on a class
    // only they allocate: the process-wide pools are shared with every test
    // of the binary.

    /// Blocks of class `index` out of the pool.
    pub(crate) fn outstanding(index: usize) -> isize {
        OUTSTANDING[index].load(Ordering::Relaxed) // ORDER: test-only gauge; the test's joins order it.
    }

    /// Pops one chain off the process-wide pool of `class`, if any.
    pub(crate) fn pop_chain(class: SizeClass) -> Option<BlockChain> {
        POOLS[class.index()].pop()
    }

    /// Pushes a chain [`pop_chain`] returned back.
    pub(crate) fn push_chain(class: SizeClass, chain: BlockChain) {
        POOLS[class.index()].push(chain);
    }

    /// The blocks of `chain`, in link order.
    fn walk(chain: &BlockChain) -> Vec<*mut u8> {
        let mut blocks = vec![chain.first];
        for _ in 1..chain.count {
            let last = *blocks.last().unwrap();
            // SAFETY: the test owns the chain; its links are ours to read.
            blocks.push(unsafe { last.cast::<*mut u8>().read() });
        }
        blocks
    }

    #[test]
    fn a_slab_is_carved_at_the_exact_class_size() {
        for size in CLASS_SIZES {
            let class = SizeClass::of(size, 8).expect("a class size fits itself");
            let chain = carve_slab(class);
            let blocks: Vec<usize> = walk(&chain).into_iter().map(|b| b as usize).collect();
            assert_eq!(
                blocks.len(),
                SLAB_BYTES / size,
                "{size}: one chain per slab"
            );
            assert_eq!(blocks[0] % SLAB_ALIGN, 0, "the slab starts on a line");
            assert!(
                blocks.windows(2).all(|pair| pair[1] - pair[0] == size),
                "{size}-byte blocks {size} bytes apart: no allocator grain"
            );
            assert!(
                blocks.last().unwrap() + size <= blocks[0] + SLAB_LINK,
                "{size}: the slab's link word is no block's"
            );
            // The slab is on the process-wide slab list.
            let mut slab = SLABS.load(Ordering::Acquire); // ORDER: test walk; pairs with the Release push.
            while slab as usize != blocks[0] {
                assert!(!slab.is_null(), "{size}: the slab is linked");
                // SAFETY: every listed slab is live and its link word was
                // written before it was published.
                slab = unsafe { slab.add(SLAB_LINK).cast::<*mut u8>().read() };
            }
            Pool::new().push(chain);
        }
    }

    #[test]
    fn a_long_chain_is_split_at_refill() {
        let class = SizeClass::of(56, 8).unwrap();
        let pool = Pool::new();
        // An empty pool carves a slab: the refill keeps 16 blocks and pushes
        // the rest back as one chain.
        let taken = take_from(&pool, class, 16);
        assert_eq!(taken.count, 16);
        let rest = pool.pop().expect("the rest went back");
        assert_eq!(rest.count, SLAB_BYTES / 56 - 16);
        assert_eq!(
            rest.first,
            taken.first.wrapping_add(16 * 56),
            "it starts where the refill stopped"
        );
        assert!(pool.pop().is_none(), "as one chain");
        // A chain no longer than the refill is taken whole.
        let first = rest.first;
        pool.push(BlockChain { first, count: 5 });
        let short = take_from(&pool, class, 16);
        assert_eq!((short.first, short.count), (first, 5));
        assert!(pool.pop().is_none(), "nothing pushed back");
    }

    #[test]
    fn the_last_chain_given_back_is_the_next_one_taken() {
        let class = SizeClass::of(40, 8).unwrap();
        let pool = Pool::new();
        let first = walk(&take_from(&pool, class, 4));
        let second = walk(&take_from(&pool, class, 4));
        assert_eq!(second[0], first[3].wrapping_add(40), "carved in order");
        // Hand both runs back, linked the way a magazine spill links them.
        let give = |blocks: &[*mut u8]| {
            for pair in blocks.windows(2) {
                // SAFETY: dead blocks this test owns.
                unsafe { pair[0].cast::<*mut u8>().write(pair[1]) };
            }
            pool.push(BlockChain {
                first: blocks[0],
                count: blocks.len(),
            });
        };
        give(&first);
        give(&second);
        let again = walk(&take_from(&pool, class, 4));
        assert_eq!(again, second, "the last chain back, in its order");
        assert_eq!(walk(&take_from(&pool, class, 4)), first);
    }
}
