//! Property-based tests (proptest): data-structure semantics against
//! sequential model types, and WCAS/tagging invariants.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

// Through the sync layer (not `std::sync::atomic`) so the test compiles
// unchanged under `--cfg wfe_model`, where the two atomic types diverge.
use wfe_suite::wfe_sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use wfe_suite::wfe_reclaim::tag;
use wfe_suite::wfe_sync::AtomicPair;
use wfe_suite::{
    Atomic, BlockCacheConfig, CrTurnQueue, DomainConfig, Ebr, Handle, HandlePool, He, Hp, Ibr2Ge,
    KoganPetrankQueue, Leak, Linked, MichaelHashMap, MichaelList, MichaelScottQueue, NatarajanBst,
    PooledHandle, RawHandle, Reclaimer, ResizableHashMap, Shield, Wfe,
};

/// A payload that counts its drops, to prove blocks are really freed.
struct DropCounter(Arc<AtomicUsize>);

impl DropCounter {
    fn new(counter: &Arc<AtomicUsize>) -> Self {
        Self(Arc::clone(counter))
    }
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// An operation applied both to the concurrent structure and to the model.
#[derive(Debug, Clone)]
enum MapAction {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_action_strategy(key_range: u64) -> impl Strategy<Value = MapAction> {
    prop_oneof![
        (0..key_range, any::<u64>()).prop_map(|(k, v)| MapAction::Insert(k, v)),
        (0..key_range).prop_map(MapAction::Remove),
        (0..key_range).prop_map(MapAction::Get),
    ]
}

/// Applies a sequence of actions to a map and to a `BTreeMap` model and checks
/// that every return value agrees.
fn check_map_against_model<M>(actions: &[MapAction])
where
    M: wfe_suite::ConcurrentMap<Wfe>,
{
    let domain = Wfe::with_config(DomainConfig {
        cleanup_freq: 4,
        era_freq: 8,
        ..DomainConfig::with_max_threads(2)
    });
    let map = M::with_domain(Arc::clone(&domain));
    let mut handle = domain.register();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for action in actions {
        match *action {
            MapAction::Insert(key, value) => {
                let expected = !model.contains_key(&key);
                assert_eq!(map.insert(&mut handle, key, value), expected);
                model.entry(key).or_insert(value);
            }
            MapAction::Remove(key) => {
                assert_eq!(map.remove(&mut handle, key), model.remove(&key).is_some());
            }
            MapAction::Get(key) => {
                assert_eq!(map.get(&mut handle, key), model.get(&key).copied());
            }
        }
    }
}

/// A key-value service operation applied to the resizable map and its
/// sequential oracle: the uniform map actions plus TTL ticks (insert a fresh
/// key, expire the one that slid out of the window) and forced directory
/// doublings.
#[derive(Debug, Clone)]
enum ServiceAction {
    Map(MapAction),
    TtlTick,
    ForceResize,
}

fn service_action_strategy(key_range: u64) -> impl Strategy<Value = ServiceAction> {
    // The vendored `prop_oneof!` picks arms uniformly; repeating the map arm
    // weights the mix toward ordinary operations (4:2:1: mostly point ops,
    // some TTL churn, occasional resize).
    prop_oneof![
        map_action_strategy(key_range).prop_map(ServiceAction::Map),
        map_action_strategy(key_range).prop_map(ServiceAction::Map),
        map_action_strategy(key_range).prop_map(ServiceAction::Map),
        map_action_strategy(key_range).prop_map(ServiceAction::Map),
        Just(ServiceAction::TtlTick),
        Just(ServiceAction::TtlTick),
        Just(ServiceAction::ForceResize),
    ]
}

/// TTL window of the oracle test: a tick expires the key inserted
/// `TTL_WINDOW` ticks earlier.
const TTL_WINDOW: usize = 8;

/// Applies a service action sequence to the resizable map and to a
/// `std::collections::HashMap` oracle and checks every return value agrees —
/// across forced resizes, which must be invisible to the map's semantics.
/// TTL keys live in a disjoint namespace (high bit set) so ticks never
/// collide with the uniform actions.
fn check_resizable_against_oracle<R: Reclaimer>(actions: &[ServiceAction]) {
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 4,
        era_freq: 8,
        ..DomainConfig::with_max_threads(2)
    });
    // Two buckets: the load-factor trigger fires within a handful of inserts,
    // so organic resizes interleave with the forced ones.
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    let mut handle = domain.register();
    let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut ttl_live: VecDeque<u64> = VecDeque::new();
    let mut next_fresh: u64 = 1 << 63;
    for action in actions {
        match action {
            ServiceAction::Map(map_action) => match *map_action {
                MapAction::Insert(key, value) => {
                    let expected = !oracle.contains_key(&key);
                    prop_assert_eq!(map.insert(&mut handle, key, value), expected);
                    oracle.entry(key).or_insert(value);
                }
                MapAction::Remove(key) => {
                    prop_assert_eq!(map.remove(&mut handle, key), oracle.remove(&key).is_some());
                }
                MapAction::Get(key) => {
                    prop_assert_eq!(map.get(&mut handle, key), oracle.get(&key).copied());
                }
            },
            ServiceAction::TtlTick => {
                let fresh = next_fresh;
                next_fresh += 1;
                prop_assert!(map.insert(&mut handle, fresh, fresh), "fresh keys are new");
                oracle.insert(fresh, fresh);
                ttl_live.push_back(fresh);
                if ttl_live.len() > TTL_WINDOW {
                    let expired = ttl_live.pop_front().unwrap();
                    prop_assert!(map.remove(&mut handle, expired), "expired key was live");
                    prop_assert!(oracle.remove(&expired).is_some());
                }
            }
            ServiceAction::ForceResize => {
                map.force_resize(&mut handle);
            }
        }
        prop_assert_eq!(map.len(), oracle.len(), "sizes agree after every step");
    }
    // Full final audit: every oracle entry is in the map, nothing extra.
    for (&key, &value) in &oracle {
        prop_assert_eq!(map.get(&mut handle, key), Some(value));
    }
    let keys: Vec<u64> = oracle.keys().copied().collect();
    for key in keys {
        prop_assert!(map.remove(&mut handle, key));
    }
    prop_assert_eq!(map.len(), 0);
}

/// Drives inserts/removes of drop-counting payloads through the resizable
/// map with forced resizes mixed in, proving — via the drop counter — that
/// no payload is ever dropped twice and none leaks once map and domain are
/// gone. The superseded bucket arrays retired by the resizes ride the same
/// pipeline, so a directory double-free would corrupt the count too.
fn check_resizable_drop_accounting<R: Reclaimer>(steps: &[(u64, u8)]) {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut allocated = 0usize;
    {
        let domain = R::with_config(DomainConfig {
            cleanup_freq: 3,
            era_freq: 2,
            ..DomainConfig::with_max_threads(2)
        });
        let map = ResizableHashMap::<DropCounter, R>::with_initial_buckets(Arc::clone(&domain), 2);
        let mut handle = domain.register();
        for &(key, op) in steps {
            match op % 4 {
                // Insert allocates a payload whether or not the key is fresh
                // (a duplicate's payload is dropped on the spot).
                0 | 1 => {
                    map.insert(&mut handle, key, DropCounter::new(&drops));
                    allocated += 1;
                }
                2 => {
                    map.remove(&mut handle, key);
                }
                _ => {
                    map.force_resize(&mut handle);
                }
            }
            prop_assert!(
                drops.load(Ordering::SeqCst) <= allocated,
                "a payload was dropped twice"
            );
        }
        drop(map);
        drop(handle);
        drop(domain);
    }
    prop_assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated,
        "every payload dropped exactly once across resizes, none leaked"
    );
}

/// One step of the shield lease/release churn property test.
#[derive(Debug, Clone, Copy)]
enum ShieldStep {
    /// Lease one more shield (must succeed below capacity, must report
    /// exhaustion as `Err` at capacity).
    Lease,
    /// Drop one outstanding shield (index modulo the live count).
    Release(usize),
    /// Enter a guard bracket and protect through every outstanding shield.
    ProtectAll,
}

fn shield_step_strategy() -> impl Strategy<Value = ShieldStep> {
    prop_oneof![
        Just(ShieldStep::Lease),
        (0usize..8).prop_map(ShieldStep::Release),
        Just(ShieldStep::ProtectAll),
    ]
}

/// Shield leases behave like a counted resource under churn: a lease below
/// capacity always succeeds (released slots are really recycled — the slot
/// space can never be exhausted by lease/release round-trips), a lease at
/// capacity reports `Err` instead of stomping, and the lease count tracked by
/// the handle always equals the number of live `Shield`s.
fn check_shield_lease_churn<R: Reclaimer>(steps: &[ShieldStep]) {
    const SLOTS: usize = 5;
    let domain = R::with_config(DomainConfig {
        slots_per_thread: SLOTS,
        ..DomainConfig::with_max_threads(2)
    });
    let mut handle = domain.register();
    let node = handle.alloc(7u64);
    let root: Atomic<u64> = Atomic::new(node);
    let mut shields: Vec<Shield<'static, u64, R::Handle>> = Vec::new();
    for step in steps {
        match *step {
            ShieldStep::Lease => {
                if shields.len() < SLOTS {
                    match handle.shield::<u64>() {
                        Ok(shield) => shields.push(shield),
                        Err(err) => panic!(
                            "lease failed below capacity ({} of {SLOTS} leased): {err}",
                            shields.len()
                        ),
                    }
                } else {
                    prop_assert!(
                        handle.shield::<u64>().is_err(),
                        "a lease at capacity must report exhaustion"
                    );
                }
            }
            ShieldStep::Release(index) => {
                if !shields.is_empty() {
                    let index = index % shields.len();
                    drop(shields.swap_remove(index));
                }
            }
            ShieldStep::ProtectAll => {
                let guard = handle.enter();
                for shield in shields.iter_mut() {
                    let protected = shield.protect(&guard, &root, None);
                    prop_assert!(!protected.is_null());
                    // SAFETY: `protected` is dereferenced before its shield
                    // (or any other) protects again.
                    prop_assert_eq!(unsafe { protected.as_ref() }, Some(&7));
                }
            }
        }
        prop_assert_eq!(
            handle.shield_slots().leased(),
            shields.len(),
            "lease table tracks live shields exactly"
        );
        let slots: Vec<usize> = shields.iter().map(|shield| shield.slot()).collect();
        let mut deduped = slots.clone();
        deduped.sort_unstable();
        deduped.dedup();
        prop_assert_eq!(deduped.len(), slots.len(), "no two shields share a slot");
    }
    drop(shields);
    prop_assert_eq!(handle.shield_slots().leased(), 0, "all slots returned");
    drop(handle);
    // SAFETY: the block was never retired and nothing references it any more.
    // SAFETY: test-owned block, never retired; freed exactly once.
    unsafe { Linked::dealloc(node) };
}

/// One step of the retirement-pipeline property test, acting on one of a
/// small pool of handle slots.
#[derive(Debug, Clone, Copy)]
enum SmrStep {
    /// Register a handle in the slot (no-op if occupied).
    Register(usize),
    /// Allocate and retire one drop-counting block through the slot's handle.
    Retire(usize),
    /// Drop the slot's handle (orphaning whatever its final scan kept).
    DropHandle(usize),
    /// Force a cleanup pass (batch scan + orphan adoption) on the handle.
    Cleanup(usize),
}

fn smr_step_strategy(pool: usize) -> impl Strategy<Value = SmrStep> {
    prop_oneof![
        (0..pool).prop_map(SmrStep::Register),
        (0..pool).prop_map(SmrStep::Retire),
        (0..pool).prop_map(SmrStep::DropHandle),
        (0..pool).prop_map(SmrStep::Cleanup),
    ]
}

/// Drives an interleaved retire/drop/adopt sequence against one scheme and
/// checks — via drop-counting payloads — that no block is ever freed twice
/// (the counter can never outrun the allocations) and none is leaked (after
/// the domain drops, every allocation was dropped exactly once).
fn check_retirement_pipeline<R: Reclaimer>(steps: &[SmrStep]) {
    const POOL: usize = 4;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut allocated = 0usize;
    {
        // Tiny frequencies so short sequences still trip batch scans and
        // era advances.
        let domain = R::with_config(DomainConfig {
            cleanup_freq: 3,
            era_freq: 2,
            ..DomainConfig::with_max_threads(POOL)
        });
        let mut handles: Vec<Option<R::Handle>> = (0..POOL).map(|_| None).collect();
        for &step in steps {
            match step {
                SmrStep::Register(slot) => {
                    if handles[slot].is_none() {
                        handles[slot] = domain.try_register();
                        assert!(handles[slot].is_some(), "pool never exceeds max_threads");
                    }
                }
                SmrStep::Retire(slot) => {
                    if let Some(handle) = handles[slot].as_mut() {
                        let block = handle.alloc(DropCounter::new(&drops));
                        allocated += 1;
                        // SAFETY: block just allocated by this handle, never published —
                        // this is its only retire.
                        unsafe { handle.retire(block) };
                    }
                }
                SmrStep::DropHandle(slot) => {
                    handles[slot] = None;
                }
                SmrStep::Cleanup(slot) => {
                    if let Some(handle) = handles[slot].as_mut() {
                        handle.force_cleanup();
                    }
                }
            }
            assert!(
                drops.load(Ordering::SeqCst) <= allocated,
                "a block was freed twice"
            );
        }
        drop(handles);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated,
        "every retired block dropped exactly once, none leaked"
    );
}

/// Drives the same interleaved retire/drop/adopt sequence as
/// [`check_retirement_pipeline`], but with the block cache pinned explicitly
/// on or off. With the cache on, freed blocks are recycled through the
/// magazines and the process-wide pool into later allocations — the drop
/// counter still may never outrun the allocations (a recycled block must not
/// re-drop its payload), and once the domain drops (draining its handles'
/// magazines) every allocation must have been dropped exactly once. The cache-off run of the identical step
/// sequence is the parity baseline.
fn check_retirement_pipeline_with_cache<R: Reclaimer>(steps: &[SmrStep], cache: bool) {
    const POOL: usize = 4;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut allocated = 0usize;
    {
        let domain = R::with_config(DomainConfig {
            cleanup_freq: 3,
            era_freq: 2,
            block_cache: BlockCacheConfig {
                enabled: cache,
                ..BlockCacheConfig::default()
            },
            ..DomainConfig::with_max_threads(POOL)
        });
        let mut handles: Vec<Option<R::Handle>> = (0..POOL).map(|_| None).collect();
        for &step in steps {
            match step {
                SmrStep::Register(slot) => {
                    if handles[slot].is_none() {
                        handles[slot] = domain.try_register();
                        assert!(handles[slot].is_some(), "pool never exceeds max_threads");
                    }
                }
                SmrStep::Retire(slot) => {
                    if let Some(handle) = handles[slot].as_mut() {
                        let block = handle.alloc(DropCounter::new(&drops));
                        allocated += 1;
                        // SAFETY: block just allocated by this handle, never published —
                        // this is its only retire.
                        unsafe { handle.retire(block) };
                    }
                }
                SmrStep::DropHandle(slot) => {
                    handles[slot] = None;
                }
                SmrStep::Cleanup(slot) => {
                    if let Some(handle) = handles[slot].as_mut() {
                        handle.force_cleanup();
                    }
                }
            }
            assert!(
                drops.load(Ordering::SeqCst) <= allocated,
                "a recycled block re-dropped its payload"
            );
        }
        if !cache {
            assert_eq!(
                domain.stats().cache_hits + domain.stats().cached_bytes,
                0,
                "a disabled cache must see no traffic"
            );
        }
        drop(handles);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated,
        "every retired block dropped exactly once, none leaked through the cache"
    );
}

/// One step of the handle-pool property test, acting on one of a small pool
/// of guard slots.
#[derive(Debug, Clone, Copy)]
enum PoolStep {
    /// Check a handle out into the slot (no-op if occupied).
    CheckOut(usize),
    /// Allocate and retire one drop-counting block through the slot's guard.
    Retire(usize),
    /// Check the slot's handle back in (parks it on the pool's freelist).
    CheckIn(usize),
    /// Force a cleanup pass on the slot's guard.
    Cleanup(usize),
}

fn pool_step_strategy(slots: usize) -> impl Strategy<Value = PoolStep> {
    prop_oneof![
        (0..slots).prop_map(PoolStep::CheckOut),
        (0..slots).prop_map(PoolStep::Retire),
        (0..slots).prop_map(PoolStep::CheckIn),
        (0..slots).prop_map(PoolStep::Cleanup),
    ]
}

/// Drives an interleaved check-out/retire/check-in sequence through a
/// `HandlePool` and finishes by dropping the pool *with handles still
/// parked*: drop-counting payloads prove no block is freed twice along the
/// way and none is leaked once pool and domain are gone.
fn check_handle_pool<R: Reclaimer>(steps: &[PoolStep]) {
    const SLOTS: usize = 3;
    let drops = Arc::new(AtomicUsize::new(0));
    let mut allocated = 0usize;
    {
        // Tiny frequencies so short sequences still trip batch scans.
        let domain = R::with_config(DomainConfig {
            cleanup_freq: 3,
            era_freq: 2,
            ..DomainConfig::with_max_threads(SLOTS)
        });
        let pool = HandlePool::new(Arc::clone(&domain));
        let mut guards: Vec<Option<PooledHandle<R>>> = (0..SLOTS).map(|_| None).collect();
        for &step in steps {
            match step {
                PoolStep::CheckOut(slot) => {
                    if guards[slot].is_none() {
                        guards[slot] = pool.check_out();
                        assert!(guards[slot].is_some(), "registry sized for the guard slots");
                    }
                }
                PoolStep::Retire(slot) => {
                    if let Some(guard) = guards[slot].as_mut() {
                        let block = guard.alloc(DropCounter::new(&drops));
                        allocated += 1;
                        // SAFETY: block just allocated through this guard, never published —
                        // this is its only retire.
                        unsafe { guard.retire(block) };
                    }
                }
                PoolStep::CheckIn(slot) => {
                    guards[slot] = None;
                }
                PoolStep::Cleanup(slot) => {
                    if let Some(guard) = guards[slot].as_mut() {
                        guard.force_cleanup();
                    }
                }
            }
            assert!(
                drops.load(Ordering::SeqCst) <= allocated,
                "a block was freed twice"
            );
        }
        // Check everything in, then drop the pool while those handles are
        // parked: each parked handle must tear down the ordinary way
        // (final scan + orphan parking + registry release).
        drop(guards);
        drop(pool);
        assert_eq!(domain.registry().registered(), 0, "every slot released");
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated,
        "every retired block dropped exactly once, none leaked"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handle_pool_checkout_checkin_never_double_frees_or_leaks_wfe(
        steps in proptest::collection::vec(pool_step_strategy(3), 1..250)
    ) {
        check_handle_pool::<Wfe>(&steps);
    }

    #[test]
    fn handle_pool_checkout_checkin_never_double_frees_or_leaks_he(
        steps in proptest::collection::vec(pool_step_strategy(3), 1..250)
    ) {
        check_handle_pool::<He>(&steps);
    }

    #[test]
    fn michael_list_matches_btreemap(actions in proptest::collection::vec(map_action_strategy(32), 1..400)) {
        check_map_against_model::<MichaelList<u64, Wfe>>(&actions);
    }

    #[test]
    fn hash_map_matches_btreemap(actions in proptest::collection::vec(map_action_strategy(64), 1..400)) {
        check_map_against_model::<MichaelHashMap<u64, Wfe>>(&actions);
    }

    #[test]
    fn natarajan_bst_matches_btreemap(actions in proptest::collection::vec(map_action_strategy(64), 1..400)) {
        check_map_against_model::<NatarajanBst<u64, Wfe>>(&actions);
    }

    #[test]
    fn resizable_map_matches_hashmap_wfe(
        actions in proptest::collection::vec(service_action_strategy(64), 1..400)
    ) {
        check_resizable_against_oracle::<Wfe>(&actions);
    }

    #[test]
    fn resizable_map_matches_hashmap_he(
        actions in proptest::collection::vec(service_action_strategy(64), 1..400)
    ) {
        check_resizable_against_oracle::<He>(&actions);
    }

    #[test]
    fn resizable_map_matches_hashmap_hp(
        actions in proptest::collection::vec(service_action_strategy(64), 1..400)
    ) {
        check_resizable_against_oracle::<Hp>(&actions);
    }

    #[test]
    fn resizable_map_never_double_frees_or_leaks_wfe(
        steps in proptest::collection::vec((0u64..48, any::<u8>()), 1..300)
    ) {
        check_resizable_drop_accounting::<Wfe>(&steps);
    }

    #[test]
    fn resizable_map_never_double_frees_or_leaks_he(
        steps in proptest::collection::vec((0u64..48, any::<u8>()), 1..300)
    ) {
        check_resizable_drop_accounting::<He>(&steps);
    }

    #[test]
    fn resizable_map_never_double_frees_or_leaks_hp(
        steps in proptest::collection::vec((0u64..48, any::<u8>()), 1..300)
    ) {
        check_resizable_drop_accounting::<Hp>(&steps);
    }

    #[test]
    fn crturn_queue_matches_msqueue_and_vecdeque(ops in proptest::collection::vec(proptest::option::weighted(0.6, any::<u64>()), 1..300)) {
        // Cross-implementation check: the wait-free CRTurn queue, the
        // lock-free Michael-Scott queue and a sequential `VecDeque` model all
        // see the same randomized op sequence (`Some(v)` = enqueue v, `None`
        // = dequeue) and must agree on every result — which pins down FIFO
        // order per producer and element conservation in one stroke.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
        let crturn = CrTurnQueue::<u64, Wfe>::new(Arc::clone(&domain));
        let msq = MichaelScottQueue::<u64, Wfe>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in &ops {
            match op {
                Some(value) => {
                    crturn.enqueue(&mut handle, *value);
                    msq.enqueue(&mut handle, *value);
                    model.push_back(*value);
                }
                None => {
                    let expected = model.pop_front();
                    prop_assert_eq!(crturn.dequeue(&mut handle), expected);
                    prop_assert_eq!(msq.dequeue(&mut handle), expected);
                }
            }
        }
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(crturn.dequeue(&mut handle), Some(expected));
            prop_assert_eq!(msq.dequeue(&mut handle), Some(expected));
        }
        prop_assert_eq!(crturn.dequeue(&mut handle), None);
        prop_assert_eq!(msq.dequeue(&mut handle), None);
    }

    #[test]
    fn crturn_queue_conserves_elements_across_producers(
        ops in proptest::collection::vec(0usize..3, 1..200)
    ) {
        // Per-producer FIFO + conservation with two interleaved "producers"
        // (two registered handles of one domain): ops are (who, value) pairs
        // where who==2 dequeues and who<2 enqueues a value stamped with the
        // producer id. Dequeued values must come out in stamped order per
        // producer, and nothing may be lost or invented.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(3));
        let queue = CrTurnQueue::<u64, Wfe>::new(Arc::clone(&domain));
        let mut handles = [domain.register(), domain.register()];
        let mut seq = [0u64, 0u64];
        let mut pending = [0i64, 0i64];
        let mut last_dequeued = [None::<u64>, None::<u64>];
        for &who in &ops {
            if who == 2 {
                if let Some(v) = queue.dequeue(&mut handles[0]) {
                    let producer = (v >> 32) as usize;
                    let stamp = v & 0xFFFF_FFFF;
                    if let Some(prev) = last_dequeued[producer] {
                        prop_assert!(stamp > prev, "producer {} out of order", producer);
                    }
                    last_dequeued[producer] = Some(stamp);
                    pending[producer] -= 1;
                    prop_assert!(pending[producer] >= 0, "invented element");
                }
            } else {
                let stamped = ((who as u64) << 32) | seq[who];
                queue.enqueue(&mut handles[who], stamped);
                seq[who] += 1;
                pending[who] += 1;
            }
        }
        while let Some(v) = queue.dequeue(&mut handles[1]) {
            pending[(v >> 32) as usize] -= 1;
        }
        prop_assert_eq!(pending, [0, 0], "every enqueued element was dequeued");
    }

    #[test]
    fn kp_queue_matches_vecdeque(ops in proptest::collection::vec(proptest::option::weighted(0.6, any::<u64>()), 1..300)) {
        // `Some(v)` = enqueue v, `None` = dequeue.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
        let queue = KoganPetrankQueue::<u64, Wfe>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in &ops {
            match op {
                Some(value) => {
                    queue.enqueue(&mut handle, *value);
                    model.push_back(*value);
                }
                None => {
                    prop_assert_eq!(queue.dequeue(&mut handle), model.pop_front());
                }
            }
        }
        // Drain both and compare the tails.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(queue.dequeue(&mut handle), Some(expected));
        }
        prop_assert_eq!(queue.dequeue(&mut handle), None);
    }

    #[test]
    fn retirement_pipeline_never_double_frees_or_leaks_wfe(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline::<Wfe>(&steps);
    }

    #[test]
    fn retirement_pipeline_never_double_frees_or_leaks_he(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline::<He>(&steps);
    }

    #[test]
    fn retirement_pipeline_never_double_frees_or_leaks_hp(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline::<Hp>(&steps);
    }

    #[test]
    fn block_cache_pipeline_never_double_frees_or_leaks_wfe(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline_with_cache::<Wfe>(&steps, true);
        check_retirement_pipeline_with_cache::<Wfe>(&steps, false);
    }

    #[test]
    fn block_cache_pipeline_never_double_frees_or_leaks_he(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline_with_cache::<He>(&steps, true);
        check_retirement_pipeline_with_cache::<He>(&steps, false);
    }

    #[test]
    fn block_cache_pipeline_never_double_frees_or_leaks_hp(
        steps in proptest::collection::vec(smr_step_strategy(4), 1..250)
    ) {
        check_retirement_pipeline_with_cache::<Hp>(&steps, true);
        check_retirement_pipeline_with_cache::<Hp>(&steps, false);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_wfe(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<Wfe>(&steps);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_he(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<He>(&steps);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_hp(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<Hp>(&steps);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_ebr(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<Ebr>(&steps);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_ibr(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<Ibr2Ge>(&steps);
    }

    #[test]
    fn shield_leases_never_exhaust_under_churn_leak(
        steps in proptest::collection::vec(shield_step_strategy(), 1..200)
    ) {
        check_shield_lease_churn::<Leak>(&steps);
    }

    #[test]
    fn wcas_pair_semantics(initial in any::<(u64, u64)>(), expected in any::<(u64, u64)>(), new in any::<(u64, u64)>()) {
        let pair = AtomicPair::new(initial.0, initial.1);
        let result = pair.compare_exchange(expected, new);
        if expected == initial {
            prop_assert_eq!(result, Ok(initial));
            prop_assert_eq!(pair.load(), new);
        } else {
            prop_assert_eq!(result, Err(initial));
            prop_assert_eq!(pair.load(), initial);
        }
    }

    #[test]
    fn pointer_tagging_roundtrips(tag_bits in 0usize..4) {
        let domain = Wfe::with_config(DomainConfig::with_max_threads(1));
        let mut handle = domain.register();
        let node: *mut Linked<u64> = handle.alloc(7u64);
        prop_assume!(tag_bits <= tag::low_bits::<u64>());
        let tagged = tag::with_tag(node, tag_bits);
        prop_assert_eq!(tag::untagged(tagged), node);
        prop_assert_eq!(tag::tag_of(tagged), tag_bits);
        // SAFETY: test-owned block, never retired; freed exactly once.
        unsafe { Linked::dealloc(node) };
    }
}
