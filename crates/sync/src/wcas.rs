//! A double-width (128-bit) atomic built from two adjacent 64-bit words.
//!
//! The WFE algorithm stores two kinds of 16-byte records that must be updated
//! with a single wide compare-and-swap (WCAS):
//!
//! * a *reservation*: `(era, tag)`,
//! * a slow-path *result*: `(pointer, era-or-tag)`.
//!
//! Both are represented here as an [`AtomicPair`]: two adjacent `AtomicU64`s
//! aligned to 16 bytes. The halves stay individually addressable because the
//! fast path of the algorithm only ever touches the first word (the era),
//! while the slow path and the helpers use WCAS on the whole pair.

use core::fmt;

use crate::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::pad::CachePadded;

/// A pair of 64-bit words updated together by [`AtomicPair::compare_exchange`].
///
/// `.0` is the *first* word (low half, e.g. an era) and `.1` the *second*
/// (high half, e.g. a tag).
pub type Pair = (u64, u64);

/// Returns `true` when the running CPU executes WCAS with a native
/// instruction (`cmpxchg16b`), i.e. pair operations are lock-free and the
/// wait-freedom argument of the paper holds.
///
/// When this returns `false` the [`AtomicPair`] operations transparently fall
/// back to a striped spin-lock: still linearizable, no longer lock-free.
pub fn wcas_is_lock_free() -> bool {
    native_wcas_available()
}

// ---------------------------------------------------------------------------
// Runtime detection
// ---------------------------------------------------------------------------

/// Tri-state cache for the runtime `cmpxchg16b` detection: 0 = unknown,
/// 1 = available, 2 = unavailable.
///
/// Deliberately a *raw* core atomic, not a [`crate::atomic`] one: detection
/// is a constant after the first call, so modeling it would only add a
/// meaningless interleaving point to every pair operation.
static NATIVE_WCAS: core::sync::atomic::AtomicU8 = core::sync::atomic::AtomicU8::new(0);

#[inline]
fn native_wcas_available() -> bool {
    // ORDER: feature-detection memo; any thread recomputes the same value.
    match NATIVE_WCAS.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => detect_and_record(),
    }
}

/// The first call's detection, out of every pair operation's inline path.
#[cold]
#[inline(never)]
fn detect_and_record() -> bool {
    let avail = detect_native_wcas();
    NATIVE_WCAS.store(if avail { 1 } else { 2 }, Ordering::Relaxed); // ORDER: feature-detection memo; any thread recomputes the same value.
    avail
}

#[cfg(all(target_arch = "x86_64", not(any(miri, wfe_portable_wcas))))]
fn detect_native_wcas() -> bool {
    std::is_x86_feature_detected!("cmpxchg16b")
}

/// On every architecture other than `x86_64` the native-WCAS inline assembly
/// below is not compiled, so detection reports "unavailable" at compile time
/// and all pair operations take the portable striped-lock fallback. The
/// fallback is linearizable but not lock-free: as the crate docs explain,
/// such targets keep WFE *correct* while forfeiting the wait-freedom bound
/// (the paper's remark about platforms without WCAS). An AArch64 `casp` fast
/// path would slot in here behind another `target_arch` gate.
///
/// The same stub also serves two portable configurations on x86_64 itself:
/// under Miri (whose interpreter has no inline assembly) and under
/// `--cfg wfe_portable_wcas` (a build-time switch so the fallback can be
/// exercised — and model-checked — on hardware that would normally take the
/// native path).
#[cfg(any(not(target_arch = "x86_64"), miri, wfe_portable_wcas))]
fn detect_native_wcas() -> bool {
    false
}

/// Forces every *subsequent* pair operation onto the portable striped-lock
/// fallback, as if the CPU had no native WCAS.
///
/// This is a test-only hook: mixing native and lock-based operations on the
/// same [`AtomicPair`] is not linearizable, so this must be called before any
/// pair is touched — in practice from a dedicated test process (see
/// `crates/sync/tests/lock_fallback.rs`). It is hidden from docs and must
/// not be called from production code.
#[doc(hidden)]
pub fn force_lock_fallback_for_tests() {
    NATIVE_WCAS.store(2, Ordering::Relaxed); // ORDER: feature-detection memo; the test forces a fixed value before sharing.
}

// ---------------------------------------------------------------------------
// The AtomicPair type
// ---------------------------------------------------------------------------

/// Two adjacent `u64` words that can be compare-and-swapped as one unit.
///
/// All pair-wide operations behave as `SeqCst`; the single-word accessors take
/// an explicit [`Ordering`] just like the standard atomics.
#[repr(C, align(16))]
pub struct AtomicPair {
    first: AtomicU64,
    second: AtomicU64,
}

impl AtomicPair {
    /// Creates a pair initialised to `(first, second)`.
    pub const fn new(first: u64, second: u64) -> Self {
        Self {
            first: AtomicU64::new(first),
            second: AtomicU64::new(second),
        }
    }

    /// Loads the first word.
    #[inline]
    pub fn load_first(&self, order: Ordering) -> u64 {
        self.first.load(order)
    }

    /// Loads the second word.
    #[inline]
    pub fn load_second(&self, order: Ordering) -> u64 {
        self.second.load(order)
    }

    /// Stores the first word, leaving the second untouched.
    ///
    /// This is the fast-path operation of Hazard Eras / WFE (publishing a new
    /// era while the slow-path tag stays the same).
    #[inline]
    pub fn store_first(&self, value: u64, order: Ordering) {
        if native_wcas_available() {
            self.first.store(value, order);
        } else {
            self.store_first_locked(value, order);
        }
    }

    /// [`store_first`](Self::store_first) on the lock fallback, kept out of
    /// line so the native path inlines into a protect without a call.
    #[cold]
    #[inline(never)]
    fn store_first_locked(&self, value: u64, order: Ordering) {
        // Under the lock-based fallback every *write* must hold the stripe
        // lock so that a concurrent pair-wide CAS never observes a
        // half-updated pair between its read and its write.
        let _guard = stripe_lock(self as *const _ as usize);
        self.first.store(value, order);
    }

    /// Stores `value` into the first word of every pair of `pairs`, in
    /// order, leaving the second words untouched: [`store_first`] on each,
    /// with the native-WCAS probe made once for the lot. On the lock
    /// fallback each store still takes its own pair's stripe lock.
    ///
    /// [`store_first`]: Self::store_first
    #[inline]
    pub fn store_first_all(pairs: &[AtomicPair], value: u64, order: Ordering) {
        if native_wcas_available() {
            for pair in pairs {
                pair.first.store(value, order);
            }
        } else {
            for pair in pairs {
                let _guard = stripe_lock(pair as *const _ as usize);
                pair.first.store(value, order);
            }
        }
    }

    /// Stores the second word, leaving the first untouched.
    #[inline]
    pub fn store_second(&self, value: u64, order: Ordering) {
        if native_wcas_available() {
            self.second.store(value, order);
        } else {
            let _guard = stripe_lock(self as *const _ as usize);
            self.second.store(value, order);
        }
    }

    /// Atomically loads both words as one observation.
    #[inline]
    pub fn load(&self) -> Pair {
        if native_wcas_available() {
            // The inline-asm path bypasses the instrumented atomics, so it
            // must announce its own interleaving point under the model.
            crate::point();
            // A compare-exchange whose expected value is an arbitrary guess
            // returns the current contents whether it succeeds or not, which
            // is the standard way to perform a 16-byte atomic load with
            // `cmpxchg16b`. Using (0, 0) as both expected and new value makes
            // a "successful" exchange write back the value that was already
            // there.
            // SAFETY: `self.as_ptr()` is 16-byte aligned (repr(C, align(16)))
            // and `native_wcas_available()` verified cmpxchg16b support.
            unsafe { cmpxchg16b(self.as_ptr(), (0, 0), (0, 0)).0 }
        } else {
            let _guard = stripe_lock(self as *const _ as usize);
            (
                self.first.load(Ordering::SeqCst),
                self.second.load(Ordering::SeqCst),
            )
        }
    }

    /// Atomically stores both words.
    pub fn store(&self, value: Pair) {
        if native_wcas_available() {
            let mut current = self.load();
            loop {
                match self.compare_exchange(current, value) {
                    Ok(_) => return,
                    Err(observed) => current = observed,
                }
            }
        } else {
            let _guard = stripe_lock(self as *const _ as usize);
            self.first.store(value.0, Ordering::SeqCst);
            self.second.store(value.1, Ordering::SeqCst);
        }
    }

    /// Wide compare-and-swap: if the pair equals `current`, replace it with
    /// `new` and return `Ok(current)`; otherwise return `Err(observed)`.
    ///
    /// Pair-wide operations are always sequentially consistent — `lock
    /// cmpxchg16b` is a full barrier — which is what the (SC) pseudo-code of
    /// the paper assumes for its WCAS steps.
    #[inline]
    pub fn compare_exchange(&self, current: Pair, new: Pair) -> Result<Pair, Pair> {
        if native_wcas_available() {
            crate::point(); // see `load`: the asm path needs its own point
                            // SAFETY: `self.as_ptr()` is 16-byte aligned (repr(C, align(16)))
                            // and `native_wcas_available()` verified cmpxchg16b support.
            let (observed, ok) = unsafe { cmpxchg16b(self.as_ptr(), current, new) };
            if ok {
                Ok(observed)
            } else {
                Err(observed)
            }
        } else {
            // The stripe lock serializes pair-wide operations against each
            // other and against half-word *writes*, but half-word *reads*
            // (`load_first`/`load_second` on the fast path) deliberately skip
            // it. Those unlocked readers only get an ordering edge from the
            // accesses themselves, so everything under the lock must be
            // `SeqCst` to honour the pair-wide SC contract documented above —
            // `Relaxed` would let a weakly-ordered target (the very targets
            // that take this fallback) publish a reservation era that a
            // concurrent unlocked scan does not observe.
            let _guard = stripe_lock(self as *const _ as usize);
            let observed = (
                self.first.load(Ordering::SeqCst),
                self.second.load(Ordering::SeqCst),
            );
            if observed == current {
                self.first.store(new.0, Ordering::SeqCst);
                self.second.store(new.1, Ordering::SeqCst);
                Ok(observed)
            } else {
                Err(observed)
            }
        }
    }

    #[inline]
    fn as_ptr(&self) -> *mut Pair {
        self as *const Self as *mut Pair
    }
}

impl Default for AtomicPair {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl fmt::Debug for AtomicPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = self.load();
        f.debug_struct("AtomicPair")
            .field("first", &a)
            .field("second", &b)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Native cmpxchg16b
// ---------------------------------------------------------------------------

/// Performs `lock cmpxchg16b` on `dst`.
///
/// Returns the previously stored pair and whether the exchange succeeded.
///
/// # Safety
///
/// `dst` must be valid for reads and writes, 16-byte aligned, and only ever
/// accessed through atomic operations. The caller must have verified that the
/// CPU supports `cmpxchg16b` (see [`native_wcas_available`]).
#[cfg(all(target_arch = "x86_64", not(any(miri, wfe_portable_wcas))))]
#[inline]
unsafe fn cmpxchg16b(dst: *mut Pair, current: Pair, new: Pair) -> (Pair, bool) {
    debug_assert!(
        dst as usize % 16 == 0,
        "WCAS target must be 16-byte aligned"
    );
    let (cur_lo, cur_hi) = current;
    let (new_lo, new_hi) = new;
    let prev_lo: u64;
    let prev_hi: u64;
    let ok: u8;
    // `rbx` (the implicit low word of the replacement value) cannot be named
    // as a Rust asm operand, so the low word is stashed in `rsi` and
    // exchanged with `rbx` around the instruction. Every other operand is
    // pinned to a named register too: with generic `in(reg)` / `out(reg_byte)`
    // classes the register allocator is free to pick `rbx`/`bl` for them —
    // it does not know the template touches `rbx` — which corrupts the
    // operand mid-template (observed in release builds as `cmpxchg16b [rbx]`
    // executing after `rbx` was swapped away).
    // SAFETY: the caller guarantees `dst` is valid, 16-byte aligned, only
    // accessed atomically, and that the CPU supports `cmpxchg16b`; `rbx` is
    // saved and restored around the instruction as described above.
    unsafe {
        core::arch::asm!(
            "xchg rsi, rbx",
            "lock cmpxchg16b xmmword ptr [rdi]",
            "sete r8b",
            "mov rbx, rsi",
            in("rdi") dst,
            inout("rsi") new_lo => _,
            out("r8b") ok,
            in("rcx") new_hi,
            inout("rax") cur_lo => prev_lo,
            inout("rdx") cur_hi => prev_hi,
            options(nostack),
        );
    }
    ((prev_lo, prev_hi), ok != 0)
}

#[cfg(any(not(target_arch = "x86_64"), miri, wfe_portable_wcas))]
#[inline]
// SAFETY: never called — `native_wcas_available()` reports false in every
// configuration that compiles this stub, so it exists purely to satisfy
// name resolution.
unsafe fn cmpxchg16b(_dst: *mut Pair, _current: Pair, _new: Pair) -> (Pair, bool) {
    unreachable!("native WCAS is never reported as available in portable builds")
}

// ---------------------------------------------------------------------------
// Striped spin-lock fallback
// ---------------------------------------------------------------------------

const STRIPES: usize = 64;

struct StripeLock(CachePadded<AtomicBool>);

#[allow(clippy::declare_interior_mutable_const)]
const STRIPE_INIT: StripeLock = StripeLock(CachePadded::new(AtomicBool::new(false)));

static STRIPE_LOCKS: [StripeLock; STRIPES] = [STRIPE_INIT; STRIPES];

struct StripeGuard {
    lock: &'static AtomicBool,
}

impl Drop for StripeGuard {
    fn drop(&mut self) {
        self.lock.store(false, Ordering::Release); // ORDER: releases the stripe; pairs with the Acquire lock acquisition.
    }
}

/// Acquires the spin-lock stripe guarding the pair at `addr`.
fn stripe_lock(addr: usize) -> StripeGuard {
    // Pairs are 16-byte aligned, so drop the low bits before hashing to
    // spread distinct pairs over distinct stripes.
    let stripe = (addr >> 4) % STRIPES;
    let lock = &STRIPE_LOCKS[stripe].0;
    while lock
        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed) // ORDER: success acquires the stripe (pairs with the Release unlock); failure just spins.
        .is_err()
    {
        crate::hint::spin_loop();
    }
    StripeGuard { lock }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn native_wcas_is_available_on_x86_64() {
        if cfg!(all(
            target_arch = "x86_64",
            not(any(miri, wfe_portable_wcas))
        )) {
            assert!(wcas_is_lock_free());
        } else {
            assert!(!wcas_is_lock_free());
        }
    }

    #[test]
    fn pair_is_16_byte_aligned() {
        assert_eq!(core::mem::align_of::<AtomicPair>(), 16);
        assert_eq!(core::mem::size_of::<AtomicPair>(), 16);
    }

    #[test]
    fn load_store_roundtrip() {
        let pair = AtomicPair::new(1, 2);
        assert_eq!(pair.load(), (1, 2));
        pair.store((3, 4));
        assert_eq!(pair.load(), (3, 4));
        pair.store_first(9, SeqCst);
        assert_eq!(pair.load(), (9, 4));
        pair.store_second(11, SeqCst);
        assert_eq!(pair.load(), (9, 11));
        assert_eq!(pair.load_first(SeqCst), 9);
        assert_eq!(pair.load_second(SeqCst), 11);
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let pair = AtomicPair::new(10, 20);
        assert_eq!(pair.compare_exchange((10, 20), (30, 40)), Ok((10, 20)));
        assert_eq!(pair.load(), (30, 40));
        // Wrong first word.
        assert_eq!(pair.compare_exchange((31, 40), (0, 0)), Err((30, 40)));
        // Wrong second word.
        assert_eq!(pair.compare_exchange((30, 41), (0, 0)), Err((30, 40)));
        assert_eq!(pair.load(), (30, 40));
    }

    #[test]
    fn load_of_zero_pair_does_not_corrupt() {
        // The cmpxchg16b-based load uses (0, 0) as its guess; make sure a pair
        // that actually contains zeros stays intact and loads correctly.
        let pair = AtomicPair::new(0, 0);
        assert_eq!(pair.load(), (0, 0));
        assert_eq!(pair.compare_exchange((0, 0), (5, 6)), Ok((0, 0)));
        assert_eq!(pair.load(), (5, 6));
    }

    #[test]
    fn debug_format_shows_both_words() {
        let pair = AtomicPair::new(7, 8);
        let s = format!("{pair:?}");
        assert!(s.contains('7') && s.contains('8'));
    }

    #[test]
    fn concurrent_paired_increments_stay_consistent() {
        // Each successful WCAS advances both halves together; if WCAS were not
        // atomic across the two words the halves would drift apart.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let pair = AtomicPair::new(0, 0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut done = 0;
                    while done < PER_THREAD {
                        let cur = pair.load();
                        assert_eq!(cur.0, cur.1, "halves must always match");
                        if pair.compare_exchange(cur, (cur.0 + 1, cur.1 + 1)).is_ok() {
                            done += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(
            pair.load(),
            (THREADS as u64 * PER_THREAD, THREADS as u64 * PER_THREAD)
        );
    }

    #[test]
    fn concurrent_half_store_vs_wcas() {
        // One thread publishes eras in the first word (fast path), another
        // repeatedly WCASes the whole pair (helper). The WCAS must only
        // succeed when both words match, so the second word — only ever
        // written by WCAS — must never skip values.
        let pair = AtomicPair::new(0, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut era = 1u64;
                while !stop.load(SeqCst) {
                    pair.store_first(era, SeqCst);
                    era += 1;
                }
            });
            scope.spawn(|| {
                let mut expected_tag = 0u64;
                for _ in 0..50_000 {
                    let cur = pair.load();
                    assert_eq!(cur.1, expected_tag);
                    if pair.compare_exchange(cur, (cur.0, cur.1 + 1)).is_ok() {
                        expected_tag += 1;
                    }
                }
                stop.store(true, SeqCst);
            });
        });
        assert!(pair.load().1 > 0);
    }
}
