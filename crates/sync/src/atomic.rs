//! The swappable atomic types.
//!
//! Normal builds re-export `core::sync::atomic` — this module costs nothing,
//! by construction. Under `--cfg wfe_model` each type becomes a
//! `#[repr(transparent)]` wrapper over the corresponding core atomic whose
//! every operation first crosses a [`shuttle`] interleaving point, handing the
//! deterministic scheduler a chance to switch virtual threads *before* the
//! access. Because the wrappers still perform real atomic operations, code
//! built with `wfe_model` that runs *outside* a model schedule (unit tests,
//! helper threads) behaves exactly like a normal build — `shuttle::point()`
//! is a no-op there.

#[cfg(not(wfe_model))]
pub use core::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

#[cfg(wfe_model)]
pub use core::sync::atomic::Ordering;
#[cfg(wfe_model)]
pub use model::{fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize};

#[cfg(wfe_model)]
mod model {
    use core::fmt;
    use core::sync::atomic::Ordering;

    /// An atomic fence is itself an interleaving point under the model.
    #[inline]
    pub fn fence(order: Ordering) {
        shuttle::point();
        core::sync::atomic::fence(order);
    }

    macro_rules! model_int_atomic {
        ($(#[$doc:meta])* $name:ident, $core:ty, $int:ty) => {
            $(#[$doc])*
            #[repr(transparent)]
            #[derive(Default)]
            pub struct $name {
                inner: $core,
            }

            impl $name {
                /// Creates a new atomic integer.
                pub const fn new(value: $int) -> Self {
                    Self { inner: <$core>::new(value) }
                }

                /// Loads the value (one interleaving point).
                #[inline]
                pub fn load(&self, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.load(order)
                }

                /// Stores `value` (one interleaving point).
                #[inline]
                pub fn store(&self, value: $int, order: Ordering) {
                    shuttle::point();
                    self.inner.store(value, order)
                }

                /// Swaps in `value`, returning the previous value.
                #[inline]
                pub fn swap(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.swap(value, order)
                }

                /// Compare-and-exchange, as in `core::sync::atomic`.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    shuttle::point();
                    self.inner.compare_exchange(current, new, success, failure)
                }

                /// Weak compare-and-exchange (may fail spuriously on real
                /// hardware; under the model it never does, which only makes
                /// the explored schedules a subset of the real ones).
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    shuttle::point();
                    self.inner.compare_exchange_weak(current, new, success, failure)
                }

                /// Atomic add, returning the previous value.
                #[inline]
                pub fn fetch_add(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.fetch_add(value, order)
                }

                /// Atomic subtract, returning the previous value.
                #[inline]
                pub fn fetch_sub(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.fetch_sub(value, order)
                }

                /// Atomic maximum, returning the previous value.
                #[inline]
                pub fn fetch_max(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.fetch_max(value, order)
                }

                /// Atomic bitwise AND, returning the previous value.
                #[inline]
                pub fn fetch_and(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.fetch_and(value, order)
                }

                /// Atomic bitwise OR, returning the previous value.
                #[inline]
                pub fn fetch_or(&self, value: $int, order: Ordering) -> $int {
                    shuttle::point();
                    self.inner.fetch_or(value, order)
                }

                /// Consumes the atomic, returning the value (no point:
                /// exclusive access cannot race).
                #[inline]
                pub fn into_inner(self) -> $int {
                    self.inner.into_inner()
                }

                /// Mutable access to the value (no point: exclusive access).
                #[inline]
                pub fn get_mut(&mut self) -> &mut $int {
                    self.inner.get_mut()
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    // No interleaving point for Debug output.
                    fmt::Debug::fmt(&self.inner, f)
                }
            }

            impl From<$int> for $name {
                fn from(value: $int) -> Self {
                    Self::new(value)
                }
            }
        };
    }

    model_int_atomic!(
        /// Model-instrumented `AtomicUsize`.
        AtomicUsize,
        core::sync::atomic::AtomicUsize,
        usize
    );
    model_int_atomic!(
        /// Model-instrumented `AtomicU64`.
        AtomicU64,
        core::sync::atomic::AtomicU64,
        u64
    );
    model_int_atomic!(
        /// Model-instrumented `AtomicU8`.
        AtomicU8,
        core::sync::atomic::AtomicU8,
        u8
    );
    model_int_atomic!(
        /// Model-instrumented `AtomicI64`.
        AtomicI64,
        core::sync::atomic::AtomicI64,
        i64
    );

    /// Model-instrumented `AtomicBool`.
    #[repr(transparent)]
    #[derive(Default)]
    pub struct AtomicBool {
        inner: core::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic boolean.
        pub const fn new(value: bool) -> Self {
            Self {
                inner: core::sync::atomic::AtomicBool::new(value),
            }
        }

        /// Loads the value (one interleaving point).
        #[inline]
        pub fn load(&self, order: Ordering) -> bool {
            shuttle::point();
            self.inner.load(order)
        }

        /// Stores `value` (one interleaving point).
        #[inline]
        pub fn store(&self, value: bool, order: Ordering) {
            shuttle::point();
            self.inner.store(value, order)
        }

        /// Swaps in `value`, returning the previous value.
        #[inline]
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            shuttle::point();
            self.inner.swap(value, order)
        }

        /// Compare-and-exchange, as in `core::sync::atomic`.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            shuttle::point();
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// Weak compare-and-exchange.
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            shuttle::point();
            self.inner
                .compare_exchange_weak(current, new, success, failure)
        }

        /// Consumes the atomic, returning the value.
        #[inline]
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }

    /// Model-instrumented `AtomicPtr<T>`.
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: core::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer.
        pub const fn new(value: *mut T) -> Self {
            Self {
                inner: core::sync::atomic::AtomicPtr::new(value),
            }
        }

        /// Loads the pointer (one interleaving point).
        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            shuttle::point();
            self.inner.load(order)
        }

        /// Stores `value` (one interleaving point).
        #[inline]
        pub fn store(&self, value: *mut T, order: Ordering) {
            shuttle::point();
            self.inner.store(value, order)
        }

        /// Swaps in `value`, returning the previous pointer.
        #[inline]
        pub fn swap(&self, value: *mut T, order: Ordering) -> *mut T {
            shuttle::point();
            self.inner.swap(value, order)
        }

        /// Compare-and-exchange, as in `core::sync::atomic`.
        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            shuttle::point();
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// Consumes the atomic, returning the pointer.
        #[inline]
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    impl<T> fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }
}
