//! Per-handle magazines of class blocks over the process-wide pool.
//!
//! The retire→free→alloc cycle would otherwise send every reclaimed block
//! back to an allocator and take every new one from it, so the memory
//! churning through an alloc/retire loop would never stay cache-hot. This
//! module keeps that traffic local, in the style of a malloc thread cache:
//! each handle owns a small **non-atomic** [`LocalBlockCache`] ("magazine")
//! per size class that absorbs the owner-thread cycle with plain loads and
//! stores, and trades **whole chains** with the process-wide pool
//! ([`crate::slab`]): a full magazine links half of its blocks through their
//! (dead) first words and pushes them as one chain, an empty one pops one
//! chain back.
//!
//! The key split happens in `block.rs`: a block allocated through a magazine
//! whose layout fits a size class is a class block, carved at the class size
//! by the pool rather than boxed, and its type-erased `drop_fn` runs
//! `drop_in_place` on the payload but hands the *memory* back to the caller —
//! which parks it on a magazine. Blocks whose layout exceeds the largest
//! class, and every block allocated without a magazine, keep the plain `Box`
//! path end to end.
//!
//! **What each step costs.** A magazine hit (an allocation) or park (a free)
//! makes no shared write. A refill or a spill is one lock-free pop or push
//! on the pool per half magazine (`LOCAL_MAGAZINE_CAP / 2` blocks). The one
//! step without a bound is the pool fetching a fresh slab from the system
//! allocator when it has no chain left.
//!
//! A block freed with no handle at hand — a structure's `Drop` freeing what
//! it still links, through [`Linked::dealloc`](crate::Linked::dealloc) —
//! parks on the freeing thread's *spare* magazine, so a teardown of 50 000
//! nodes pushes chains of half a magazine, not 50 000 chains of one.
//!
//! Boundedness: each magazine holds at most `LOCAL_MAGAZINE_CAP` parked
//! blocks per class and the rest of one refilled chain (at most half a
//! magazine); a handle's magazine drains into the pool when the handle drops,
//! a spare one when its thread exits. The pool keeps what it is given and
//! the next refill of the class — on any thread, in any domain — takes it
//! from there, so it holds no more than the process ever had out at once: a
//! block the reclaimer frees is reused, which is all WFE's bounded-memory
//! guarantee asks, though the pool never returns memory to the system. The
//! layer is switched with
//! [`DomainConfig::block_cache`](crate::DomainConfig::block_cache) or the
//! `WFE_BLOCK_CACHE` environment variable.

use core::cell::RefCell;

use crate::slab;
use crate::stats::SlotCounters;

/// The block sizes (in bytes) served by the cache, one magazine each.
///
/// The pool ([`crate::slab`]) carves each class at exactly this stride, so a
/// block costs its class size and not a byte more. The two small classes are
/// the two node sizes the suite allocates by the million with a 16-byte
/// header: 40 bytes (a list or fixed-map node) and 56 (a split-ordered, BST
/// or queue node, a KP descriptor). Anything over 1016 bytes falls through
/// to the allocator.
pub const CLASS_SIZES: [usize; 6] = [40, 56, 120, 248, 504, 1016];

/// Alignment of every class block: each class size is a multiple of it, so
/// blocks carved back to back stay aligned. Covers every block type of the
/// suite (the `BlockHeader` itself needs 8); over-aligned payloads fall
/// through to the `Box` path.
pub const CLASS_ALIGN: usize = 8;

/// A size class of the block cache: an index into `CLASS_SIZES`, the six
/// block sizes from 40 to 1016 bytes.
///
/// A block's class is decided once, at allocation time, from the layout of
/// its `Linked<T>`; the class is what the type-erased free path returns so
/// the memory can be recycled without knowing `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass(u8);

impl SizeClass {
    /// The smallest class whose block fits `size` bytes at alignment `align`,
    /// or `None` when the layout must use the plain allocator path.
    pub const fn of(size: usize, align: usize) -> Option<SizeClass> {
        if align > CLASS_ALIGN {
            return None;
        }
        let mut index = 0;
        while index < CLASS_SIZES.len() {
            if size <= CLASS_SIZES[index] {
                return Some(SizeClass(index as u8));
            }
            index += 1;
        }
        None
    }

    /// The class's block size in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        CLASS_SIZES[self.0 as usize]
    }

    /// The class at `index` of [`CLASS_SIZES`].
    #[inline]
    pub(crate) const fn at(index: usize) -> SizeClass {
        SizeClass(index as u8)
    }

    /// Index into [`CLASS_SIZES`] / a cache's class array.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A run of dead class blocks linked through their first word, owned by
/// whoever holds this value: the unit a magazine and the pool exchange.
///
/// Only the owner ever reads or writes the links. A chain parked in the pool
/// is owned by the stack node that carries it, and a racing `pop` reads that
/// node — type-stable stack memory — never the blocks; it follows the links
/// only after its versioned CAS made the chain its own.
#[derive(Debug)]
pub(crate) struct BlockChain {
    /// First block; each block's first word points at the next (the last
    /// block's word is never read).
    pub(crate) first: *mut u8,
    /// Blocks on the chain (at least one).
    pub(crate) count: usize,
}

// SAFETY: a chain is exclusively owned raw memory; sending it hands that
// ownership over.
unsafe impl Send for BlockChain {}

/// Blocks a handle's magazine holds per size class. A full magazine spills
/// half of them to the pool as one chain and an empty one refills with at
/// most half, so a thread that frees more than it allocates for a while (or
/// the reverse) touches the pool once per `LOCAL_MAGAZINE_CAP / 2` blocks;
/// only a balanced retire→free→alloc cycle stays inside the magazine
/// altogether.
const LOCAL_MAGAZINE_CAP: usize = 32;

/// What one refill takes and one spill gives: half a magazine.
const HALF: usize = LOCAL_MAGAZINE_CAP / 2;

/// One handle's non-atomic stash of recycled blocks of a single class: the
/// blocks it parked, and the chain its last refill popped, which it hands
/// out one link at a time.
struct Magazine {
    blocks: [*mut u8; LOCAL_MAGAZINE_CAP],
    len: usize,
    chain: *mut u8,
    chained: usize,
}

impl Magazine {
    const fn new() -> Self {
        Self {
            blocks: [core::ptr::null_mut(); LOCAL_MAGAZINE_CAP],
            len: 0,
            chain: core::ptr::null_mut(),
            chained: 0,
        }
    }

    /// Moves the top `count` parked blocks (at least one, at most `len`) to
    /// the pool as one chain.
    fn spill(&mut self, class: SizeClass, count: usize) {
        let run = &self.blocks[self.len - count..self.len];
        for pair in run.windows(2) {
            // SAFETY: a parked block is dead class memory the magazine owns:
            // at least one pointer wide, `CLASS_ALIGN`-aligned, and nobody
            // else reads or writes it.
            unsafe { pair[0].cast::<*mut u8>().write(pair[1]) };
        }
        let chain = BlockChain {
            first: run[0],
            count,
        };
        self.len -= count;
        // SAFETY: every parked block is a pool block of this class (the push
        // contract), linked above, and leaves the magazine exactly once, here.
        unsafe { slab::give_chain(class, chain) };
    }

    /// Pops one chain of at most half a magazine from the pool.
    #[inline(never)]
    fn refill(&mut self, class: SizeClass) {
        debug_assert_eq!(self.chained, 0);
        let chain = slab::take_chain(class, HALF);
        self.chain = chain.first;
        self.chained = chain.count;
    }

    /// The next block of the refilled chain. Its link is read here, when the
    /// block is handed out, not when the chain is popped: a walk of the
    /// whole chain would be a row of dependent cache misses with nothing to
    /// overlap them.
    fn unchain(&mut self) -> *mut u8 {
        let block = self.chain;
        self.chained -= 1;
        if self.chained > 0 {
            // SAFETY: the refill made the chain ours; each of its blocks but
            // the last links the next.
            self.chain = unsafe { block.cast::<*mut u8>().read() };
        }
        block
    }

    /// Blocks the magazine holds: parked and chained.
    fn held(&self) -> usize {
        self.len + self.chained
    }
}

impl core::fmt::Debug for Magazine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Magazine").field("len", &self.len).finish()
    }
}

/// A handle's magazines: a bounded, **non-atomic** stash of class blocks per
/// size class over the process-wide pool, in the style of a malloc thread
/// cache.
///
/// The hot retire→free→alloc cycle is owner-thread-only, so it needs no
/// synchronization at all: a cleanup pass parks freed block memory here with
/// plain stores, and the next [`Handle::alloc`](crate::Handle::alloc) of a
/// matching class pops it back with plain loads. Only when a magazine fills
/// (spill half) or empties (refill half) does the handle touch the pool —
/// once per `LOCAL_MAGAZINE_CAP / 2` blocks, a whole chain at a time. Hits,
/// misses (pops that refilled) and the parked bytes are tallied locally and
/// stored into the owning handle's [`SlotCounters`] block at every cleanup
/// pass, teardown's final pass included ([`SmrStats`](crate::SmrStats) lags
/// by at most one pass's traffic): plain stores to the handle's own line,
/// no shared counter.
///
/// Owned by each scheme handle; reached through
/// [`RawHandle::block_cache`](crate::RawHandle::block_cache).
#[derive(Debug)]
pub struct LocalBlockCache {
    mags: [Magazine; CLASS_SIZES.len()],
    hits: u64,
    misses: u64,
}

// SAFETY: the magazine holds exclusively-owned raw block memory (payloads
// already dropped); moving the owning handle to another thread moves that
// ownership with it.
unsafe impl Send for LocalBlockCache {}

impl Default for LocalBlockCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalBlockCache {
    /// An empty magazine set.
    pub const fn new() -> Self {
        Self {
            mags: [const { Magazine::new() }; CLASS_SIZES.len()],
            hits: 0,
            misses: 0,
        }
    }

    /// Pops a block of `class`: a dead block the caller now owns (poisoned
    /// in debug builds). An empty magazine first refills from the pool — a
    /// counted miss — which carves a fresh slab when it has no chain left.
    #[inline]
    pub fn pop(&mut self, class: SizeClass) -> *mut u8 {
        let mag = &mut self.mags[class.index()];
        if mag.len > 0 {
            self.hits += 1;
            mag.len -= 1;
            return mag.blocks[mag.len];
        }
        if mag.chained == 0 {
            mag.refill(class);
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        mag.unchain()
    }

    /// Parks one freed block (payload already dropped) for reuse. A full
    /// magazine spills its upper half to the pool first, as one chain.
    ///
    /// # Safety
    ///
    /// `block` must be a pool block of the same `class` (popped from a
    /// magazine), exclusively owned, payload already dropped.
    #[inline]
    pub unsafe fn push(&mut self, class: SizeClass, block: *mut u8) {
        let mag = &mut self.mags[class.index()];
        if mag.len == LOCAL_MAGAZINE_CAP {
            mag.spill(class, HALF);
        }
        mag.blocks[mag.len] = block;
        mag.len += 1;
    }

    /// Bytes parked in the magazines.
    pub fn cached_bytes(&self) -> u64 {
        self.mags
            .iter()
            .enumerate()
            .map(|(index, mag)| (mag.held() * CLASS_SIZES[index]) as u64)
            .sum()
    }

    /// Folds the locally-counted hits and misses into `counters`, the block
    /// of the registry slot the owning handle holds, and stores the bytes
    /// parked right now as its gauge (so [`SmrStats`](crate::SmrStats) sees
    /// them).
    pub fn flush_stats(&mut self, counters: &SlotCounters) {
        counters.on_cache(self.hits, self.misses, self.cached_bytes());
        self.hits = 0;
        self.misses = 0;
    }

    /// Hands every block back to the pool, whole: per class the parked ones
    /// as one chain and the rest of the refilled chain as another. Handle
    /// teardown, after the final cleanup pass.
    pub fn drain(&mut self) {
        for (index, mag) in self.mags.iter_mut().enumerate() {
            let class = SizeClass::at(index);
            if mag.len > 0 {
                mag.spill(class, mag.len);
            }
            if mag.chained > 0 {
                let chain = BlockChain {
                    first: mag.chain,
                    count: mag.chained,
                };
                mag.chained = 0;
                // SAFETY: the refilled chain's blocks are pool blocks of this
                // class, still linked, and leave the magazine exactly once.
                unsafe { slab::give_chain(class, chain) };
            }
        }
    }
}

impl Drop for LocalBlockCache {
    fn drop(&mut self) {
        // Safety net for magazines dropped without an explicit drain (the
        // scheme handles drain first, leaving this empty), and the drain of
        // a thread's spare magazine when the thread exits.
        self.drain();
    }
}

std::thread_local! {
    /// The magazine of frees that have no handle: [`park_without_handle`].
    static SPARE: RefCell<LocalBlockCache> = const { RefCell::new(LocalBlockCache::new()) };
}

/// Parks a class block freed with no handle at hand on the calling thread's
/// spare magazine; once the thread's locals are gone (or the spare is
/// already borrowed), hands it to the pool as a chain of one.
///
/// # Safety
///
/// As [`LocalBlockCache::push`].
pub(crate) unsafe fn park_without_handle(class: SizeClass, block: *mut u8) {
    let parked = SPARE
        .try_with(|spare| {
            let mut spare = spare.try_borrow_mut().ok()?;
            // SAFETY: forwarded contract.
            unsafe { spare.push(class, block) };
            Some(())
        })
        .ok()
        .flatten();
    if parked.is_none() {
        let chain = BlockChain {
            first: block,
            count: 1,
        };
        // SAFETY: forwarded contract; a block is a chain of one.
        unsafe { slab::give_chain(class, chain) };
    }
}

/// Blocks parked on the calling thread's spare magazine.
pub(crate) fn spare_blocks() -> usize {
    SPARE
        .try_with(|spare| {
            spare
                .try_borrow()
                .map_or(0, |spare| spare.mags.iter().map(Magazine::held).sum())
        })
        .unwrap_or(0)
}

/// Configuration of the block cache, set through
/// [`DomainConfig::block_cache`](crate::DomainConfig::block_cache).
///
/// The default is *enabled*, unless the `WFE_BLOCK_CACHE` environment
/// variable is `0`/`off`/`false` — the switch CI uses to run the whole suite
/// down the uncached path.
///
/// ```
/// use wfe_reclaim::{BlockCacheConfig, DomainConfig, Handle, He, Reclaimer};
///
/// // Pin the cache on, independent of the environment.
/// let domain = He::with_config(DomainConfig {
///     block_cache: BlockCacheConfig {
///         enabled: true,
///         ..BlockCacheConfig::default()
///     },
///     ..DomainConfig::with_max_threads(4)
/// });
/// let mut handle = domain.register();
/// let node = handle.alloc(1u64);
/// // SAFETY: never published, discarded exactly once.
/// unsafe { handle.discard(node) };
/// assert_eq!(handle.alloc(2u64), node, "the magazine hands it back");
/// # unsafe { handle.discard(node) };
///
/// // Or switch the layer off entirely.
/// let config = DomainConfig {
///     block_cache: BlockCacheConfig {
///         enabled: false,
///         ..BlockCacheConfig::default()
///     },
///     ..DomainConfig::default()
/// };
/// assert!(!config.block_cache.enabled);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCacheConfig {
    /// Whether freed blocks are recycled at all.
    pub enabled: bool,
    /// Not read. It bounded a per-shard cache level that no longer exists,
    /// and survives only because the `benchmark/` harness builds this struct
    /// by literal.
    pub per_class_capacity: usize,
}

impl Default for BlockCacheConfig {
    fn default() -> Self {
        let enabled = !matches!(
            std::env::var("WFE_BLOCK_CACHE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        );
        Self {
            enabled,
            per_class_capacity: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    // Each test that reads the process-wide pool owns a class no other test
    // of this binary allocates: 120, 248 or 504 bytes.

    #[test]
    fn class_of_picks_smallest_fit() {
        assert_eq!(SizeClass::of(1, 8), Some(SizeClass(0)));
        assert_eq!(SizeClass::of(40, 8), Some(SizeClass(0)));
        assert_eq!(SizeClass::of(41, 8), Some(SizeClass(1)));
        assert_eq!(SizeClass::of(56, 8), Some(SizeClass(1)));
        assert_eq!(SizeClass::of(57, 8), Some(SizeClass(2)));
        assert_eq!(SizeClass::of(64, 8), Some(SizeClass(2)));
        assert_eq!(SizeClass::of(1016, 8), Some(SizeClass(5)));
        assert_eq!(SizeClass::of(1017, 8), None, "too large for any class");
        assert_eq!(SizeClass::of(8, 16), None, "over-aligned");
    }

    #[test]
    fn classes_carve_back_to_back_at_the_class_alignment() {
        for (index, &size) in CLASS_SIZES.iter().enumerate() {
            assert_eq!(SizeClass::at(index).size(), size);
            assert_eq!(
                size % CLASS_ALIGN,
                0,
                "block k of {size} starts k × {size} into its slab"
            );
        }
        // Which class each node type of the suite lands in is `wfe-ds`'s
        // class-fit table (`class_fit.rs`).
    }

    #[test]
    fn magazine_recycles_owner_thread_blocks_without_the_pool() {
        let mut local = LocalBlockCache::new();
        let class = SizeClass::of(56, 8).unwrap();
        let block = local.pop(class);
        assert_eq!((local.hits, local.misses), (0, 1), "starts empty: a refill");
        // SAFETY: a block of this class we own, no payload to drop.
        unsafe { local.push(class, block) };
        assert_eq!(local.pop(class), block, "the parked block returns");
        assert_eq!((local.hits, local.misses), (1, 1));
        // SAFETY: popped once, parked once; the drop drains it.
        unsafe { local.push(class, block) };
    }

    #[test]
    fn magazine_spills_to_and_refills_from_the_pool() {
        let class = SizeClass::of(504, 8).unwrap();
        let mut source = LocalBlockCache::new();
        let mut local = LocalBlockCache::new();
        // Overfill the magazine by one: the push spills half to the pool.
        let pushed: Vec<*mut u8> = (0..=LOCAL_MAGAZINE_CAP)
            .map(|_| {
                let block = source.pop(class);
                // SAFETY: a block of this class we own, pushed exactly once.
                unsafe { local.push(class, block) };
                block
            })
            .collect();
        assert_eq!(
            local.cached_bytes(),
            (HALF + 1) as u64 * 504,
            "half a magazine spilled"
        );
        // Pop the magazine dry, then once more: the refill takes the spill
        // back, the last chain the pool got.
        let popped: Vec<*mut u8> = (0..=HALF + 1).map(|_| local.pop(class)).collect();
        let mut expected = vec![pushed[LOCAL_MAGAZINE_CAP]];
        expected.extend(pushed[..HALF].iter().rev());
        expected.push(pushed[HALF]);
        assert_eq!(
            popped, expected,
            "the parked blocks top first, then the spill in link order"
        );
        assert_eq!(local.cached_bytes(), (HALF - 1) as u64 * 504);
        // Magazine traffic is counted locally until the owner reports it.
        let counters = SlotCounters::default();
        local.flush_stats(&counters);
        assert_eq!((local.hits, local.misses), (0, 0));
        let stats = crate::stats::snapshot(|| core::iter::once(&counters), 0);
        assert_eq!(stats.cache_hits, HALF as u64 + 1);
        assert_eq!(stats.cache_misses, 1, "the pop that refilled");
        assert_eq!(stats.cached_bytes, (HALF - 1) as u64 * 504);
        for block in popped {
            // SAFETY: each popped block is ours, parked once; drops drain.
            unsafe { local.push(class, block) };
        }
    }

    #[test]
    fn the_gauge_is_what_the_magazines_hold_and_zero_after_a_drain() {
        let class = SizeClass::of(56, 8).unwrap();
        let mut local = LocalBlockCache::new();
        let block = local.pop(class);
        // SAFETY: a block of this class we own, parked exactly once.
        unsafe { local.push(class, block) };
        let counters = SlotCounters::default();
        local.flush_stats(&counters);
        let gauge = || crate::stats::snapshot(|| core::iter::once(&counters), 0).cached_bytes;
        assert!(gauge() >= 56, "at least the parked block");
        assert_eq!(gauge(), local.cached_bytes(), "stored, not added");
        local.drain();
        local.flush_stats(&counters);
        assert_eq!(gauge(), 0);
    }

    #[test]
    fn a_drain_pushes_each_class_as_one_chain() {
        let class = SizeClass::of(1016, 8).unwrap();
        let mut source = LocalBlockCache::new();
        let mut local = LocalBlockCache::new();
        for _ in 0..20 {
            let block = source.pop(class);
            // SAFETY: a block of this class we own, pushed exactly once.
            unsafe { local.push(class, block) };
        }
        local.drain();
        assert_eq!(local.cached_bytes(), 0);
        let chain = slab::tests::pop_chain(class).expect("the drained chain");
        assert_eq!(
            chain.count, 20,
            "whole: more than a refill takes, and not refused"
        );
        slab::tests::push_chain(class, chain);
    }

    #[test]
    fn a_domain_gives_its_handles_magazines_only_when_it_reclaims_with_the_cache_on() {
        use crate::{Leak, RawHandle, Reclaimer};
        let config = |enabled| crate::DomainConfig {
            block_cache: BlockCacheConfig {
                enabled,
                ..BlockCacheConfig::default()
            },
            ..crate::DomainConfig::with_max_threads(1)
        };
        assert!(crate::He::with_config(config(true))
            .register()
            .block_cache()
            .is_some());
        assert!(crate::He::with_config(config(false))
            .register()
            .block_cache()
            .is_none());
        assert!(
            Leak::with_config(config(true))
                .register()
                .block_cache()
                .is_none(),
            "nothing would ever refill them"
        );
    }

    #[test]
    fn concurrent_spill_refill_conserves_blocks() {
        const THREADS: usize = 4;
        const OPS: usize = 1_200;
        let class = SizeClass::of(248, 8).unwrap();
        let index = class.index();
        let outstanding = || slab::tests::outstanding(index);
        let before = outstanding();
        // Every block a thread holds, process-wide: a block handed to two
        // owners at once shows up here.
        let live = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let live = &live;
                scope.spawn(move || {
                    let mut local = LocalBlockCache::new();
                    let mut held = Vec::new();
                    for i in 0..OPS {
                        // Runs of allocations and runs of frees, out of
                        // phase between threads, so magazines both spill
                        // and refill through the one pool.
                        if (i / 40 + t) % 2 == 0 {
                            let block = local.pop(class);
                            assert!(
                                live.lock().unwrap().insert(block as usize),
                                "handed out twice"
                            );
                            // Scribble over the link word: a popped block is
                            // the popper's alone.
                            // SAFETY: exclusively owned class memory.
                            unsafe { block.cast::<usize>().write(usize::MAX) };
                            held.push(block);
                        } else if let Some(block) = held.pop() {
                            live.lock().unwrap().remove(&(block as usize));
                            // SAFETY: popped above, parked exactly once.
                            unsafe { local.push(class, block) };
                        }
                    }
                    for block in held {
                        live.lock().unwrap().remove(&(block as usize));
                        // SAFETY: as above.
                        unsafe { local.push(class, block) };
                    }
                    // The drop drains the magazine into the pool.
                });
            }
        });
        assert!(live.lock().unwrap().is_empty());
        assert_eq!(
            outstanding(),
            before,
            "every block went back to the pool once"
        );
    }

    #[test]
    fn handle_less_frees_reach_the_pool_in_chains_of_half_a_magazine() {
        // `Linked<[u8; 104]>` is a 120-byte class block.
        type Node = crate::Linked<[u8; 104]>;
        const FREES: usize = 10_000;
        let class = Node::SIZE_CLASS.unwrap();
        assert_eq!(class.size(), 120);
        let pool_chains = move || {
            let mut chains = Vec::new();
            while let Some(chain) = slab::tests::pop_chain(class) {
                chains.push(chain);
            }
            chains
        };
        // A thread of its own: its spare magazine starts empty.
        std::thread::spawn(move || {
            let mut local = LocalBlockCache::new();
            let nodes: Vec<*mut Node> = (0..FREES)
                .map(|_| Node::alloc_in([0; 104], 0, Some(&mut local)))
                .collect();
            // Set aside what the allocations left in the pool (slab rests).
            let before = pool_chains();
            for node in nodes {
                // SAFETY: never published; freed exactly once, the way a
                // structure's `Drop` frees what it still links.
                unsafe { Node::dealloc(node) };
            }
            let spilled = pool_chains();
            assert!(
                spilled.iter().all(|chain| chain.count == HALF),
                "the spare magazine spills half of itself at a time"
            );
            assert_eq!(spilled.len() * HALF + spare_blocks(), FREES);
            for chain in before.into_iter().chain(spilled) {
                slab::tests::push_chain(class, chain);
            }
        })
        .join()
        .unwrap();
    }
}
