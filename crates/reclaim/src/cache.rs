//! Per-shard, size-class-indexed caches of raw block memory.
//!
//! The retire→free→alloc cycle would otherwise send every reclaimed block
//! back to an allocator and take every new one from it, so the memory
//! churning through `smr_ops/alloc_retire` would never stay cache-hot. This
//! module keeps that traffic local: freed blocks are parked on the **home
//! shard's** freelist (one bounded [`TypeStableStack`] per size class, the
//! same versioned-wide-CAS idiom the orphan stack and handle pool already
//! use, so recycling is ABA-safe) and the next allocation of a matching
//! layout pops one instead of asking the pool.
//!
//! The key split happens in `block.rs`: a block allocated through a magazine
//! whose layout fits a size class is a class block, carved at the class size
//! by the process-wide pool ([`crate::slab`]) rather than boxed, and its
//! type-erased `drop_fn` runs `drop_in_place` on the payload but hands the
//! *memory* back to the caller — which routes it here, or back to the pool
//! when no magazine applies. Blocks whose layout exceeds the largest class,
//! and every block allocated without a magazine, keep the plain `Box` path
//! end to end.
//!
//! The layer is two-tier, in the style of a malloc thread cache: each handle
//! owns a small **non-atomic** [`LocalBlockCache`] ("magazine") that absorbs
//! the owner-thread retire→free→alloc cycle with plain loads and stores, and
//! exchanges **whole chains** with its home [`ShardCache`]: a full magazine
//! links half of its blocks through their (dead) first words and parks the
//! chain as one stack payload, an empty one takes one chain back — one
//! versioned CAS on the shared freelist per `LOCAL_MAGAZINE_CAP / 2` blocks,
//! while cross-thread recycling still flows through the shard.
//!
//! Boundedness: each magazine holds at most `LOCAL_MAGAZINE_CAP` blocks per
//! class and each per-shard freelist at most
//! [`BlockCacheConfig::per_class_capacity`]; a chain that would exceed it
//! goes back whole to the pool, not to the allocator, and the next miss of
//! the class — on any thread, in any domain — takes it from there. So the
//! caches hold a bounded number of blocks, and the pool no more than the
//! process ever had out at once: a block the reclaimer frees is reused,
//! which is all WFE's bounded-memory guarantee asks, though the pool never
//! returns memory to the system. Every cache is drained into the pool when
//! its handle and domain drop. The whole layer is switched with
//! [`DomainConfig::block_cache`](crate::DomainConfig::block_cache) or the
//! `WFE_BLOCK_CACHE` environment variable.

use wfe_sync::atomic::{AtomicU64, Ordering};
use wfe_sync::CachePadded;

use crate::slab;
use crate::stats::SlotCounters;
use crate::treiber::TypeStableStack;

/// The block sizes (in bytes) served by the cache, one freelist per entry.
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

/// A size class of the block cache: an index into [`CLASS_SIZES`].
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
/// whoever holds this value: the unit a magazine, a shard and the pool
/// exchange.
///
/// Only the owner ever reads or writes the links. A chain parked on a shard
/// is owned by the stack node that carries it, and a racing `pop` reads that
/// node — type-stable stack memory — never the blocks; it follows the links
/// only after its versioned CAS made the chain its own. So a chain that
/// went back to the pool is never dereferenced by a stale reader.
#[derive(Debug)]
pub(crate) struct BlockChain {
    /// First block; each block's first word points at the next, the last's
    /// at null (the pool splices a chain at its tail and never reads that
    /// word).
    pub(crate) first: *mut u8,
    /// Blocks on the chain (at least one).
    pub(crate) count: usize,
}

// SAFETY: a chain is exclusively owned raw memory; sending it hands that
// ownership over.
unsafe impl Send for BlockChain {}

impl BlockChain {
    /// The chain's last block, found by walking its links.
    ///
    /// # Safety
    ///
    /// The chain must be linked as its `count` says.
    pub(crate) unsafe fn last(&self) -> *mut u8 {
        let mut block = self.first;
        for _ in 1..self.count {
            // SAFETY: the chain's owner may read its links.
            block = unsafe { block.cast::<*mut u8>().read() };
        }
        block
    }
}

/// One bounded freelist of recycled blocks of a single size class.
// LAYOUT: the gauge and the stack's two heads share a line on purpose: a
// spill or a refill writes the gauge and a head back to back, from one
// thread, once per half magazine, and nothing reads the one without being
// about to write the other.
#[derive(Debug)]
struct ClassList {
    /// Parked chains. The stack's nodes are separate, type-stable
    /// allocations, and the links through the blocks are read by a chain's
    /// owner only ([`BlockChain`]), so a block that overflows to the pool is
    /// never dereferenced by a racing pop.
    list: TypeStableStack<BlockChain>,
    /// Blocks currently parked (may transiently exceed the list's content
    /// while a push is in flight, and lag it while a pop is): the capacity
    /// bound, the emptiness probe and `cached_bytes`.
    len: AtomicU64,
}

impl ClassList {
    fn new() -> Self {
        Self {
            list: TypeStableStack::new(),
            len: AtomicU64::new(0),
        }
    }
}

/// The per-shard block cache: one bounded freelist per size class.
///
/// A shard's cache is shared by every handle registered in that shard (same
/// geometry as the [`ThreadRegistry`](crate::ThreadRegistry) shards), so the
/// retire→free→alloc cycle of co-located threads recycles memory without
/// crossing shard boundaries. Handles reach it through their magazine only
/// ([`LocalBlockCache`]), a chain at a time. Obtained through
/// [`RawHandle::block_caches`](crate::RawHandle::block_caches).
///
/// Nothing here is written except by a spill or a refill — once per half
/// magazine of one-sided traffic; a balanced thread never touches its shard
/// (hits and misses are counted in the handle's own [`SlotCounters`] block).
/// Shards are [`CachePadded`] apart ([`BlockCaches`]), so one shard's spills
/// do not invalidate its neighbour's freelist heads.
#[derive(Debug)]
pub struct ShardCache {
    classes: [ClassList; CLASS_SIZES.len()],
    per_class_capacity: u64,
}

impl ShardCache {
    fn new(per_class_capacity: usize) -> Self {
        Self {
            classes: core::array::from_fn(|_| ClassList::new()),
            per_class_capacity: per_class_capacity as u64,
        }
    }

    /// Parks a chain for reuse: one gauge update and one stack push however
    /// long it is. Returns `false` when the chain did not fit under the
    /// class's capacity and went back to the pool instead — whole, so the
    /// bound holds without splitting the chain.
    ///
    /// # Safety
    ///
    /// Every block of `chain` must be a pool block of the same `class`
    /// ([`slab::take`], directly or recycled), payload already dropped; the
    /// chain is consumed.
    unsafe fn push_chain(&self, class: SizeClass, chain: BlockChain) -> bool {
        let slot = &self.classes[class.index()];
        let count = chain.count as u64;
        // Optimistic reservation: count first, undo on overflow. `len` may
        // transiently exceed the true content, which only makes the bound
        // slightly conservative.
        // ORDER: optimistic capacity reservation; only the counter itself is ordered.
        if slot.len.fetch_add(count, Ordering::AcqRel) + count > self.per_class_capacity {
            // ORDER: undoes the optimistic reservation above.
            slot.len.fetch_sub(count, Ordering::AcqRel);
            // SAFETY: forwarded contract — the chain is ours and consumed.
            unsafe { slab::give_chain(class, chain) };
            return false;
        }
        slot.list.push(chain);
        true
    }

    /// Takes one parked chain of `class`, if any. An empty class costs one
    /// plain load of the gauge, not a wide CAS on the stack head; a chain
    /// whose push is still in flight may be missed, and the caller then
    /// allocates.
    fn pop_chain(&self, class: SizeClass) -> Option<BlockChain> {
        let slot = &self.classes[class.index()];
        // ORDER: opportunistic emptiness probe; pairs with the AcqRel gauge updates, and a stale value only costs one allocator call.
        if slot.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let chain = slot.list.pop()?;
        slot.len.fetch_sub(chain.count as u64, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the freelist pop it mirrors.
        Some(chain)
    }

    /// Bytes currently parked on this shard's freelists.
    pub fn cached_bytes(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .map(|(index, slot)| slot.len.load(Ordering::Acquire) * CLASS_SIZES[index] as u64) // ORDER: advisory byte gauge; pairs with the AcqRel len updates.
            .sum()
    }
}

impl Drop for ShardCache {
    fn drop(&mut self) {
        // Drain every freelist back to the pool: a domain drop strands
        // nothing.
        for (index, slot) in self.classes.iter().enumerate() {
            while let Some(chain) = slot.list.pop() {
                // SAFETY: every parked chain holds pool blocks of this class
                // and is popped (hence given back) exactly once.
                unsafe { slab::give_chain(SizeClass::at(index), chain) };
            }
        }
    }
}

/// Blocks a handle's magazine holds per size class. A full magazine spills
/// half of them to the shard as one chain and an empty one refills with one
/// chain, so a thread that frees more than it allocates for a while (or the
/// reverse) touches the shared freelist once per `LOCAL_MAGAZINE_CAP / 2`
/// blocks; only a balanced retire→free→alloc cycle stays inside the
/// magazine altogether.
const LOCAL_MAGAZINE_CAP: usize = 32;

/// One handle's non-atomic stash of recycled blocks of a single class.
struct Magazine {
    blocks: [*mut u8; LOCAL_MAGAZINE_CAP],
    len: usize,
}

impl Magazine {
    const fn new() -> Self {
        Self {
            blocks: [core::ptr::null_mut(); LOCAL_MAGAZINE_CAP],
            len: 0,
        }
    }

    /// Links the top `count` blocks (at least one, at most `len`) into one
    /// chain, which leaves the magazine.
    fn unlink(&mut self, count: usize) -> BlockChain {
        let run = &self.blocks[self.len - count..self.len];
        for (index, &block) in run.iter().enumerate() {
            let next = run.get(index + 1).copied().unwrap_or(core::ptr::null_mut());
            // SAFETY: a parked block is dead class memory the magazine owns:
            // at least one pointer wide, `CLASS_ALIGN`-aligned, and nobody
            // else reads or writes it.
            unsafe { block.cast::<*mut u8>().write(next) };
        }
        self.len -= count;
        BlockChain {
            first: run[0],
            count,
        }
    }

    /// Moves the top `count` blocks (at least one, at most `len`) to `shard`
    /// as one chain.
    fn spill(&mut self, class: SizeClass, count: usize, shard: &ShardCache) {
        let chain = self.unlink(count);
        // SAFETY: every parked block is a pool block of this class (the push
        // contract) and leaves the magazine exactly once, here.
        unsafe { shard.push_chain(class, chain) };
    }

    /// Takes one chain from `shard` into the (empty) magazine.
    fn refill(&mut self, class: SizeClass, shard: &ShardCache) {
        debug_assert_eq!(self.len, 0);
        let Some(chain) = shard.pop_chain(class) else {
            return;
        };
        // `spill` never links more than half a magazine, so the chain fits
        // (the slice below panics rather than overrun if it ever did not).
        let mut block = chain.first;
        for parked in &mut self.blocks[..chain.count] {
            *parked = block;
            // SAFETY: the pop made the chain ours, so its links are ours to
            // read: each block is live class memory whose first word `spill`
            // wrote.
            block = unsafe { block.cast::<*mut u8>().read() };
        }
        debug_assert!(block.is_null(), "a chain ends where its count says");
        self.len = chain.count;
    }
}

impl core::fmt::Debug for Magazine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Magazine").field("len", &self.len).finish()
    }
}

/// The per-handle front end of a [`ShardCache`]: a bounded, **non-atomic**
/// magazine per size class, in the style of a malloc thread cache.
///
/// The hot retire→free→alloc cycle is owner-thread-only, so it needs no
/// synchronization at all: a cleanup pass parks freed block memory here with
/// plain stores, and the next [`Handle::alloc`](crate::Handle::alloc) of a
/// matching class pops it back with plain loads. Only when a magazine fills
/// (spill half) or empties (refill one chain) does the handle touch the
/// shared per-shard freelist — once per `LOCAL_MAGAZINE_CAP / 2` blocks,
/// whole chains at a time — and cross-thread recycling still works through
/// the shard. Hits and misses are counted locally and folded into the owning
/// handle's [`SlotCounters`] block at every cleanup pass, teardown's final
/// pass included ([`SmrStats`](crate::SmrStats) lags by at most one pass's
/// traffic): a plain store to the handle's own line, no shared counter.
///
/// Owned by each scheme handle; reached through
/// [`RawHandle::block_caches`](crate::RawHandle::block_caches).
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

    /// Pops a recycled block of `class`: magazine first, then one chain
    /// refilled from `backing`. Returns `None` (a counted miss) when both are
    /// empty — the caller goes to the pool.
    #[inline]
    pub fn pop(&mut self, class: SizeClass, backing: Option<&ShardCache>) -> Option<*mut u8> {
        let mag = &mut self.mags[class.index()];
        if mag.len == 0 {
            if let Some(shard) = backing {
                mag.refill(class, shard);
            }
        }
        if mag.len > 0 {
            mag.len -= 1;
            self.hits += 1;
            Some(mag.blocks[mag.len])
        } else {
            self.misses += 1;
            None
        }
    }

    /// Parks one freed block (payload already dropped) for reuse. A full
    /// magazine spills its upper half to `backing` first, as one chain (whose
    /// own capacity bound sends overflow to the pool); with no backing the
    /// block goes straight back to the pool.
    ///
    /// # Safety
    ///
    /// `block` must be a pool block of the same `class` ([`slab::take`],
    /// directly or recycled), exclusively owned, payload already dropped.
    #[inline]
    pub unsafe fn push(&mut self, class: SizeClass, block: *mut u8, backing: Option<&ShardCache>) {
        let mag = &mut self.mags[class.index()];
        if mag.len == LOCAL_MAGAZINE_CAP {
            match backing {
                Some(shard) => mag.spill(class, LOCAL_MAGAZINE_CAP / 2, shard),
                None => {
                    // SAFETY: forwarded contract.
                    unsafe { slab::give(class, block) };
                    return;
                }
            }
        }
        mag.blocks[mag.len] = block;
        mag.len += 1;
    }

    /// Folds the locally-counted hits and misses into `counters`, the block
    /// of the registry slot the owning handle holds (so
    /// [`SmrStats`](crate::SmrStats) sees them).
    pub fn flush_stats(&mut self, counters: &SlotCounters) {
        counters.on_cache(self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
    }

    /// Hands every parked block to `backing` (in chains of at most half a
    /// magazine, so a refill always fits) or to the pool (one chain per
    /// class): handle teardown, after the final cleanup pass reported the
    /// counters.
    pub fn drain(&mut self, backing: Option<&ShardCache>) {
        for (index, mag) in self.mags.iter_mut().enumerate() {
            let class = SizeClass::at(index);
            while mag.len > 0 {
                match backing {
                    Some(shard) => mag.spill(class, mag.len.min(LOCAL_MAGAZINE_CAP / 2), shard),
                    None => {
                        let chain = mag.unlink(mag.len);
                        // SAFETY: every parked block is a pool block of this
                        // class and leaves the magazine exactly once, here.
                        unsafe { slab::give_chain(class, chain) };
                    }
                }
            }
        }
    }
}

impl Drop for LocalBlockCache {
    fn drop(&mut self) {
        // Safety net for handles that drop without an explicit drain (the
        // scheme handles drain into their shard first, leaving this empty).
        self.drain(None);
    }
}

/// All shard caches of one domain (empty when the cache is disabled), each
/// on lines of its own: packed, a shard's last freelist gauge sat against
/// the next shard's first freelist head.
#[derive(Debug)]
pub struct BlockCaches {
    shards: Box<[CachePadded<ShardCache>]>,
}

impl BlockCaches {
    /// Builds the per-shard caches for a registry of `shard_count` shards, or
    /// no caches at all when `config` disables the layer.
    pub fn new(config: &BlockCacheConfig, shard_count: usize) -> Self {
        let shards = if config.enabled && config.per_class_capacity > 0 {
            (0..shard_count)
                .map(|_| CachePadded::new(ShardCache::new(config.per_class_capacity)))
                .collect()
        } else {
            Box::default()
        };
        Self { shards }
    }

    /// The cache of registry shard `shard`, or `None` when the layer is
    /// disabled.
    #[inline]
    pub fn shard(&self, shard: usize) -> Option<&ShardCache> {
        self.shards.get(shard).map(|shard| &**shard)
    }

    /// Whether the layer is active for this domain.
    pub fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Bytes currently parked on the freelists of every shard.
    pub fn cached_bytes(&self) -> u64 {
        self.shards.iter().map(|shard| shard.cached_bytes()).sum()
    }
}

/// Configuration of the per-shard block cache, set through
/// [`DomainConfig::block_cache`](crate::DomainConfig::block_cache).
///
/// The default is *enabled* with a capacity of 64 blocks per (shard, class)
/// pair, unless the `WFE_BLOCK_CACHE` environment variable is `0`/`off`/
/// `false` — the switch CI uses to run the whole suite down the uncached
/// path.
///
/// ```
/// use wfe_reclaim::{BlockCacheConfig, DomainConfig, Handle, He, Reclaimer};
///
/// // Pin the cache on with a small bound, independent of the environment.
/// let domain = He::with_config(DomainConfig {
///     block_cache: BlockCacheConfig {
///         enabled: true,
///         per_class_capacity: 8,
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
/// // Or switch the layer off entirely via the builder.
/// let config = DomainConfig::builder().block_cache_enabled(false).build();
/// assert!(!config.block_cache.enabled);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCacheConfig {
    /// Whether freed blocks are recycled at all.
    pub enabled: bool,
    /// Maximum blocks parked per (shard, size class); overflow goes to the
    /// process-wide pool. `0` disables the layer like `enabled: false`.
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

    /// `count` fresh blocks of `class`, linked the way `Magazine::spill`
    /// links them.
    fn fresh_chain(class: SizeClass, count: usize) -> BlockChain {
        let mut first = core::ptr::null_mut();
        for _ in 0..count {
            let block = slab::take(class);
            // SAFETY: fresh class memory, at least one aligned pointer wide.
            unsafe { block.cast::<*mut u8>().write(first) };
            first = block;
        }
        BlockChain { first, count }
    }

    #[test]
    fn push_pop_recycles_the_same_chain() {
        let cache = ShardCache::new(4);
        let class = SizeClass::of(56, 8).unwrap();
        assert!(cache.pop_chain(class).is_none(), "starts empty");
        let chain = fresh_chain(class, 3);
        let first = chain.first;
        // SAFETY: fresh blocks of this class, pushed exactly once.
        let pushed = unsafe { cache.push_chain(class, chain) };
        assert!(pushed, "below capacity: cached");
        assert_eq!(cache.cached_bytes(), 3 * 56, "one gauge update for the lot");
        let popped = cache.pop_chain(class).expect("one chain parked");
        assert_eq!(
            (popped.first, popped.count),
            (first, 3),
            "it comes back whole"
        );
        assert_eq!(cache.cached_bytes(), 0);
        assert!(cache.pop_chain(class).is_none());
        // SAFETY: popped once, given back once.
        unsafe { slab::give_chain(class, popped) };
    }

    #[test]
    fn a_chain_over_capacity_goes_to_the_pool_whole() {
        let cache = ShardCache::new(4);
        let class = SizeClass::of(100, 8).unwrap();
        // SAFETY: each chain is freshly allocated with the pushed class and
        // pushed exactly once.
        unsafe {
            assert!(cache.push_chain(class, fresh_chain(class, 3)));
            // 3 + 2 > 4: refused and given back whole, not trimmed to fit.
            assert!(!cache.push_chain(class, fresh_chain(class, 2)));
            assert_eq!(cache.cached_bytes(), 3 * 120);
            assert!(
                cache.push_chain(class, fresh_chain(class, 1)),
                "exactly full"
            );
            assert!(!cache.push_chain(class, fresh_chain(class, 1)));
            // Other classes have their own bound.
            let other = SizeClass::of(1000, 8).unwrap();
            assert!(cache.push_chain(other, fresh_chain(other, 4)));
            assert!(!cache.push_chain(other, fresh_chain(other, 5)));
        }
        // Drop drains the parked chains.
    }

    #[test]
    fn disabled_config_builds_no_shards() {
        let config = BlockCacheConfig {
            enabled: false,
            per_class_capacity: 64,
        };
        let caches = BlockCaches::new(&config, 4);
        assert!(!caches.enabled());
        assert!(caches.shard(0).is_none());

        let zero_cap = BlockCacheConfig {
            enabled: true,
            per_class_capacity: 0,
        };
        assert!(!BlockCaches::new(&zero_cap, 4).enabled());
    }

    #[test]
    fn enabled_config_builds_one_cache_per_shard() {
        let config = BlockCacheConfig {
            enabled: true,
            per_class_capacity: 4,
        };
        let caches = BlockCaches::new(&config, 3);
        assert!(caches.enabled());
        assert!(caches.shard(0).is_some());
        assert!(caches.shard(2).is_some());
        assert!(caches.shard(3).is_none(), "out of the shard range");

        let class = SizeClass::of(56, 8).unwrap();
        let mut local = LocalBlockCache::new();
        // SAFETY: freshly allocated with this class, pushed exactly once.
        unsafe { local.push(class, slab::take(class), caches.shard(1)) };
        local.drain(caches.shard(1));
        assert_eq!(caches.cached_bytes(), 56, "parked on shard 1");
        if let Some(ptr) = local.pop(class, caches.shard(1)) {
            // SAFETY: popped once, freed once.
            unsafe { slab::give(class, ptr) };
        }
        assert!(
            local.pop(class, caches.shard(2)).is_none(),
            "not on shard 2"
        );
        assert_eq!((local.hits, local.misses), (1, 1));
        assert_eq!(caches.cached_bytes(), 0);
    }

    #[test]
    fn shards_sit_a_padding_unit_apart() {
        // Shard k's last gauge must not share a line with shard k+1's first
        // freelist head.
        assert_eq!(core::mem::align_of::<CachePadded<ShardCache>>(), 128);
        assert_eq!(core::mem::size_of::<CachePadded<ShardCache>>() % 128, 0);
        let config = BlockCacheConfig {
            enabled: true,
            per_class_capacity: 4,
        };
        let caches = BlockCaches::new(&config, 3);
        let address = |shard: usize| caches.shard(shard).unwrap() as *const ShardCache as usize;
        for shard in 0..3 {
            assert_eq!(address(shard) % 128, 0);
        }
        assert_eq!(
            address(1) - address(0),
            core::mem::size_of::<CachePadded<ShardCache>>()
        );
    }

    #[test]
    fn magazine_recycles_owner_thread_blocks_without_the_shard() {
        let mut local = LocalBlockCache::new();
        let class = SizeClass::of(56, 8).unwrap();
        assert!(local.pop(class, None).is_none(), "starts empty: miss");
        let block = slab::take(class);
        // SAFETY: freshly allocated class block, no payload to drop.
        unsafe { local.push(class, block, None) };
        assert_eq!(local.pop(class, None), Some(block), "parked block returns");
        // SAFETY: popped once, freed once.
        unsafe { slab::give(class, block) };
        assert_eq!((local.hits, local.misses), (1, 1));
    }

    #[test]
    fn magazine_spills_to_and_refills_from_the_shard() {
        const HALF: usize = LOCAL_MAGAZINE_CAP / 2;
        let shard = ShardCache::new(LOCAL_MAGAZINE_CAP);
        let mut local = LocalBlockCache::new();
        let class = SizeClass::of(56, 8).unwrap();
        // Overfill the magazine by one: the push spills half to the shard.
        let pushed: Vec<*mut u8> = (0..=LOCAL_MAGAZINE_CAP)
            .map(|_| {
                let block = slab::take(class);
                // SAFETY: fresh class block, no payload to drop.
                unsafe { local.push(class, block, Some(&shard)) };
                block
            })
            .collect();
        assert_eq!(
            shard.cached_bytes(),
            (HALF * 56) as u64,
            "half a magazine spilled"
        );
        let chain = shard.pop_chain(class).expect("the spill");
        assert_eq!(chain.count, HALF, "as one chain");
        assert!(shard.pop_chain(class).is_none(), "and only one");
        // SAFETY: the chain we just popped, pushed back exactly once.
        unsafe { shard.push_chain(class, chain) };
        // Drain the magazine dry, then keep popping: the refill takes the
        // chain back.
        let mut recycled = Vec::new();
        while let Some(block) = local.pop(class, Some(&shard)) {
            recycled.push(block);
            // SAFETY: each popped block is exclusively owned, freed once.
            unsafe { slab::give(class, block) };
        }
        let sorted = |mut blocks: Vec<*mut u8>| {
            blocks.sort_unstable();
            blocks
        };
        assert_eq!(
            sorted(recycled),
            sorted(pushed),
            "every block came back once"
        );
        assert_eq!(shard.cached_bytes(), 0);
        // Magazine traffic is counted locally until the owner reports it.
        let counters = SlotCounters::default();
        local.flush_stats(&counters);
        assert_eq!((local.hits, local.misses), (0, 0));
        let stats = crate::stats::snapshot(|| core::iter::once(&counters), 0);
        assert_eq!(stats.cache_hits, LOCAL_MAGAZINE_CAP as u64 + 1);
        assert_eq!(stats.cache_misses, 1, "the final empty pop");
    }

    #[test]
    fn magazine_drain_routes_through_the_shard_capacity_bound() {
        let shard = ShardCache::new(4);
        let class = SizeClass::of(56, 8).unwrap();
        for _ in 0..2 {
            let mut local = LocalBlockCache::new();
            for _ in 0..3 {
                // SAFETY: fresh class blocks, no payload to drop.
                unsafe { local.push(class, slab::take(class), Some(&shard)) };
            }
            local.drain(Some(&shard));
        }
        assert_eq!(
            shard.cached_bytes(),
            3 * 56,
            "the first chain parked, the second overflowed to the pool whole"
        );
        // The shard's Drop gives the parked chain back.
    }

    #[test]
    fn a_full_magazine_drains_in_chains_a_refill_can_take() {
        let shard = ShardCache::new(LOCAL_MAGAZINE_CAP);
        let mut local = LocalBlockCache::new();
        let class = SizeClass::of(56, 8).unwrap();
        for _ in 0..LOCAL_MAGAZINE_CAP {
            // SAFETY: fresh class blocks, no payload to drop.
            unsafe { local.push(class, slab::take(class), Some(&shard)) };
        }
        local.drain(Some(&shard));
        assert_eq!(shard.cached_bytes(), (LOCAL_MAGAZINE_CAP * 56) as u64);
        let mut other = LocalBlockCache::new();
        let block = other.pop(class, Some(&shard)).expect("a chain was parked");
        assert_eq!(
            shard.cached_bytes(),
            (LOCAL_MAGAZINE_CAP / 2 * 56) as u64,
            "the refill took half a magazine, leaving room to free into"
        );
        // SAFETY: popped once, pushed back once.
        unsafe { other.push(class, block, Some(&shard)) };
        other.drain(Some(&shard));
    }

    #[test]
    fn concurrent_spill_refill_conserves_blocks() {
        const THREADS: usize = 4;
        const OPS: usize = 1_200;
        let class = SizeClass::of(200, 8).unwrap();
        // Roomy enough that no chain is refused: every block is then either
        // given back by the thread that popped it or parked at the end.
        let shard = ShardCache::new(THREADS * OPS);
        let parked_at_the_end: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let shard = &shard;
                    scope.spawn(move || {
                        let mut local = LocalBlockCache::new();
                        // Pushed minus popped; negative when this thread
                        // popped blocks another one pushed.
                        let mut held = 0isize;
                        for i in 0..OPS {
                            // Runs of frees and runs of allocations, out of
                            // phase between threads, so magazines both spill
                            // and refill.
                            if (i / 40 + t) % 2 == 0 {
                                // SAFETY: freshly allocated with this class,
                                // pushed exactly once.
                                unsafe { local.push(class, slab::take(class), Some(shard)) };
                                held += 1;
                            } else if let Some(block) = local.pop(class, Some(shard)) {
                                // Scribble over the link word: a popped block
                                // is the popper's alone.
                                // SAFETY: exclusively owned class memory,
                                // freed exactly once.
                                unsafe {
                                    block.cast::<usize>().write(usize::MAX);
                                    slab::give(class, block);
                                }
                                held -= 1;
                            }
                        }
                        local.drain(Some(shard));
                        held
                    })
                })
                .collect();
            let net: isize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            usize::try_from(net).expect("no more blocks popped than pushed")
        });
        assert_eq!(
            shard.cached_bytes(),
            (parked_at_the_end * class.size()) as u64,
            "every pushed block was popped once or is parked"
        );
    }
}
