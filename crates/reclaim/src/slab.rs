//! The process-wide block pool: where class blocks are made, and where they
//! go when no cache keeps them.
//!
//! Every class block ([`SizeClass`]) comes out of one pool per class, which
//! carves it from a slab at exactly the class size: 40-byte list nodes sit 40
//! bytes apart, where a glibc chunk each put them 48 apart (a 1 024-node list
//! then filled a 48 KiB L1d on its own). A block no cache keeps — a chain a
//! shard refuses at capacity, a drained magazine or shard, a block freed with
//! no magazine at hand ([`Linked::dealloc`]) — is spliced back onto the
//! pool's freelist, and the pool hands out the last block it got back before
//! it carves a new one. It never gives a slab back: its size is the
//! process's peak number of live class blocks.
//!
//! Only a block allocated through a magazine is a class block. Without one —
//! the cache off, `Leak`, [`Linked::alloc`] — a block is its own `Box`, and
//! freeing it frees it, which is what lets a sanitizer report a read after
//! the free. With the cache on, debug builds poison every parked block
//! instead: a write after the free fails at the next `alloc` of
//! the class, and a read of a freed node's link yields a non-canonical
//! address rather than somebody's live node.
//!
//! One spinlock per class guards the freelist and the slab cursor, held for a
//! handful of loads and stores. The pool is reached on a magazine miss the
//! shard could not refill and on a refused or drained chain, never on a
//! balanced thread's alloc/free cycle — but a prefill misses on every
//! allocation, and there a `std` mutex (≈ 17 ns a lock/unlock pair,
//! measured on a 2-core x86-64 host) made a take cost twice a glibc
//! `malloc`; the spinlock's take and give cost what `malloc` and `free` do.
//! Its atomic is a `core` one, not a `wfe_sync` one, so the pool puts no
//! interleaving point into a model schedule: the pool outlives every
//! schedule and every test of the process, and points whose number depended
//! on what earlier runs left in it would make schedules unreplayable.
//!
//! [`Linked::dealloc`]: crate::Linked::dealloc
//! [`Linked::alloc`]: crate::Linked::alloc

use core::alloc::Layout;
use core::cell::UnsafeCell;
use core::ops::{Deref, DerefMut};
// wfe-analyze: allow(raw-atomic): the pool's lock must stay invisible to model schedules (module docs).
use core::sync::atomic::{AtomicBool, Ordering};

use crate::cache::{BlockChain, SizeClass, CLASS_SIZES};

/// Bytes per slab: 1 638 list nodes, 64 blocks of the largest class.
const SLAB_BYTES: usize = 64 * 1024;

/// A slab starts on a cache line, so block `k` of a class sits `k × size`
/// bytes past a line boundary.
const SLAB_ALIGN: usize = 64;

fn slab_layout() -> Layout {
    Layout::from_size_align(SLAB_BYTES, SLAB_ALIGN).expect("slab layout is valid")
}

/// One class's pool.
#[derive(Debug)]
struct Pool {
    /// Blocks given back, linked through their first words (null-ended).
    free: *mut u8,
    /// The uncarved rest of the newest slab: `left` bytes from `next`.
    next: *mut u8,
    left: usize,
    /// Every slab carved from. The process-wide pools are statics, never
    /// dropped, so their slabs stay allocated and reachable: a leak checker
    /// sees slab memory as the pool's, whoever holds its blocks.
    slabs: Vec<*mut u8>,
    /// Blocks carved so far: the pool's size.
    carved: usize,
    /// Blocks handed out and not given back.
    outstanding: isize,
}

// SAFETY: the pool exclusively owns its slabs and its freelist; its lock
// hands that ownership from thread to thread.
unsafe impl Send for Pool {}

impl Pool {
    const fn new() -> Self {
        Self {
            free: core::ptr::null_mut(),
            next: core::ptr::null_mut(),
            left: 0,
            slabs: Vec::new(),
            carved: 0,
            outstanding: 0,
        }
    }

    /// The last block given back, or else the next one carved.
    fn take(&mut self, class: SizeClass) -> *mut u8 {
        self.outstanding += 1;
        let block = self.free;
        if block.is_null() {
            return self.carve(class);
        }
        // SAFETY: a freelist block is dead class memory the pool owns; its
        // first word links the next one.
        self.free = unsafe { block.cast::<*mut u8>().read() };
        block
    }

    /// Cuts the next `class` block off the newest slab, starting a slab when
    /// the rest is too short.
    fn carve(&mut self, class: SizeClass) -> *mut u8 {
        let size = class.size();
        if self.left < size {
            // SAFETY: the layout has a non-zero size.
            let slab = unsafe { std::alloc::alloc(slab_layout()) };
            if slab.is_null() {
                std::alloc::handle_alloc_error(slab_layout());
            }
            self.slabs.push(slab);
            self.next = slab;
            self.left = SLAB_BYTES;
        }
        let block = self.next;
        // SAFETY: `size <= left`, so the new cursor stays inside the slab or
        // one past its end.
        self.next = unsafe { block.add(size) };
        self.left -= size;
        self.carved += 1;
        // SAFETY: fresh class memory nobody else has seen; debug builds hand
        // out every block poisoned, fresh or recycled.
        #[cfg(debug_assertions)]
        unsafe {
            poison(block, class)
        };
        block
    }

    /// Links `chain` in front of the freelist.
    ///
    /// # Safety
    ///
    /// `last` must be the chain's last block; every block must be a dead
    /// block of this pool's class, handed over exactly once.
    unsafe fn splice(&mut self, chain: BlockChain, last: *mut u8) {
        // SAFETY: `last` is a dead block the pool now owns.
        unsafe { last.cast::<*mut u8>().write(self.free) };
        self.free = chain.first;
        self.outstanding -= chain.count as isize;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Only a private pool (a test's) is ever dropped.
        for &slab in &self.slabs {
            // SAFETY: allocated in `carve` with this layout, freed once.
            unsafe { std::alloc::dealloc(slab, slab_layout()) };
        }
    }
}

/// A pool behind a test-and-test-and-set lock.
struct Locked {
    /// Whether a thread holds the pool. A `core` atomic on purpose (see the
    /// module docs): no model interleaving point.
    held: AtomicBool,
    pool: UnsafeCell<Pool>,
}

// SAFETY: `pool` is only reached through a `PoolGuard`, which exists only
// while `held` is set by its owner, so one thread at a time touches it; the
// pool itself is `Send`.
unsafe impl Sync for Locked {}

/// Exclusive access to one class's pool, released on drop.
struct PoolGuard(&'static Locked);

impl Locked {
    const fn new() -> Self {
        Self {
            held: AtomicBool::new(false),
            pool: UnsafeCell::new(Pool::new()),
        }
    }

    fn lock(&'static self) -> PoolGuard {
        // ORDER: taking the lock; pairs with the Release store that released it.
        while self.held.swap(true, Ordering::Acquire) {
            // ORDER: a plain wait for the holder's Release store; the swap above re-acquires.
            while self.held.load(Ordering::Relaxed) {
                // The holder may be preempted: give it the core.
                std::thread::yield_now();
            }
        }
        PoolGuard(self)
    }
}

impl Deref for PoolGuard {
    type Target = Pool;
    fn deref(&self) -> &Pool {
        // SAFETY: the guard holds the lock (see `Sync for Locked`).
        unsafe { &*self.0.pool.get() }
    }
}

impl DerefMut for PoolGuard {
    fn deref_mut(&mut self) -> &mut Pool {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { &mut *self.0.pool.get() }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        // ORDER: releases the lock; publishes the critical section to the next Acquire swap.
        self.0.held.store(false, Ordering::Release);
    }
}

static POOLS: [Locked; CLASS_SIZES.len()] = [const { Locked::new() }; CLASS_SIZES.len()];

fn pool(class: SizeClass) -> PoolGuard {
    POOLS[class.index()].lock()
}

/// Takes one block of `class`: the last one given back, or a fresh one.
/// The block is dead memory the caller now owns (poisoned in debug builds).
pub fn take(class: SizeClass) -> *mut u8 {
    pool(class).take(class)
}

/// Gives one block of `class` back to the pool.
///
/// # Safety
///
/// `block` must come from [`take`] with the same `class` (directly or through
/// a cache), its payload must already be dropped, and it must be given back
/// exactly once.
pub unsafe fn give(class: SizeClass, block: *mut u8) {
    let chain = BlockChain {
        first: block,
        count: 1,
    };
    // SAFETY: forwarded contract; a block is the last of its chain of one.
    unsafe { pool(class).splice(chain, block) };
}

/// Gives a whole chain back: one walk to its tail, outside the lock (the
/// chain is the caller's), and one link under it.
///
/// # Safety
///
/// As [`give`], for every block of the chain; the chain is consumed.
pub(crate) unsafe fn give_chain(class: SizeClass, chain: BlockChain) {
    // SAFETY: forwarded contract — the chain is ours to walk.
    let last = unsafe { chain.last() };
    // SAFETY: forwarded contract; `last` ends the chain.
    unsafe { pool(class).splice(chain, last) };
}

/// The process-wide number of class blocks handed out by the pools and not
/// yet given back — in use, in a magazine or on a shard: back to where it
/// was once every domain that took some has dropped.
///
/// Test-only observability — the count is global, so assertions about it
/// are only meaningful in a process that controls all its allocations.
#[doc(hidden)]
pub fn outstanding_cached_allocs() -> isize {
    (0..CLASS_SIZES.len())
        .map(|index| pool(SizeClass::at(index)).outstanding)
        .sum()
}

/// The process-wide number of class blocks ever carved from slabs: the
/// pools' combined size, which grows only when more blocks are out at once
/// than ever before. Test-only observability, as above.
#[doc(hidden)]
pub fn carved_blocks() -> usize {
    (0..CLASS_SIZES.len())
        .map(|index| pool(SizeClass::at(index)).carved)
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

/// Panics unless a block just taken off a freelist is poisoned as
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
mod tests {
    use super::*;

    // Private pools throughout: the process-wide ones are shared with every
    // test of the binary.

    #[test]
    fn a_slab_is_carved_at_the_exact_class_size() {
        for size in CLASS_SIZES {
            let class = SizeClass::of(size, 8).expect("a class size fits itself");
            let mut pool = Pool::new();
            let blocks: Vec<usize> = (0..SLAB_BYTES / size)
                .map(|_| pool.carve(class) as usize)
                .collect();
            assert_eq!(pool.slabs.len(), 1, "{size}: one slab so far");
            assert_eq!(blocks[0] % SLAB_ALIGN, 0, "the slab starts on a line");
            assert!(
                blocks.windows(2).all(|pair| pair[1] - pair[0] == size),
                "{size}-byte blocks {size} bytes apart: no allocator grain"
            );
            pool.carve(class);
            assert_eq!(pool.slabs.len(), 2, "{size}: the next block starts a slab");
            assert_eq!(pool.carved, blocks.len() + 1);
        }
    }

    #[test]
    fn the_last_block_given_back_is_the_next_one_taken() {
        let class = SizeClass::of(40, 8).unwrap();
        let mut pool = Pool::new();
        let blocks: Vec<*mut u8> = (0..3).map(|_| pool.take(class)).collect();
        assert_eq!(pool.outstanding, 3);
        // SAFETY: taken above, each handed back once as a chain of one.
        unsafe {
            for &block in &blocks[..2] {
                pool.splice(
                    BlockChain {
                        first: block,
                        count: 1,
                    },
                    block,
                );
            }
        }
        assert_eq!(pool.outstanding, 1);
        assert_eq!(pool.take(class), blocks[1]);
        assert_eq!(pool.take(class), blocks[0]);
        assert_eq!(pool.take(class), blocks[2].wrapping_add(40), "then carved");
        assert_eq!(pool.carved, 4);
    }

    #[test]
    fn a_chain_is_spliced_whole() {
        let class = SizeClass::of(56, 8).unwrap();
        let mut pool = Pool::new();
        let blocks: Vec<*mut u8> = (0..3).map(|_| pool.take(class)).collect();
        // Link the three the way a magazine spill does.
        for pair in blocks.windows(2) {
            // SAFETY: dead blocks this test owns.
            unsafe { pair[0].cast::<*mut u8>().write(pair[1]) };
        }
        let chain = BlockChain {
            first: blocks[0],
            count: 3,
        };
        // SAFETY: the chain's blocks were taken above and go back once.
        unsafe {
            let last = chain.last();
            assert_eq!(last, blocks[2]);
            pool.splice(chain, last);
        }
        assert_eq!(pool.outstanding, 0);
        let again: Vec<*mut u8> = (0..3).map(|_| pool.take(class)).collect();
        assert_eq!(again, blocks, "the chain comes back in its order");
    }
}
