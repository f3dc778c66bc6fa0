//! Model-aware atomics.
//!
//! Drop-in replacements for `std::sync::atomic::{AtomicUsize, AtomicU64,
//! AtomicBool}` backed by the real std atomic. Without the `check`
//! feature every method is an `#[inline]` delegation — identical
//! codegen to std. With it, each operation on a model thread is first a
//! scheduler yield point, so the explorer decides who runs it.
//!
//! The model serializes threads, so the underlying std operation always
//! uses the caller's requested ordering unchanged — the wrapper only
//! schedules, never weakens.

use std::sync::atomic::Ordering;

#[cfg(feature = "check")]
use crate::rt;

macro_rules! model_atomic {
    ($name:ident, $std:ty, $val:ty) => {
        /// Model-aware counterpart of the std atomic of the same name.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $val) -> Self {
                Self {
                    inner: <$std>::new(v),
                }
            }

            /// Loads the value.
            #[inline]
            #[track_caller]
            pub fn load(&self, ord: Ordering) -> $val {
                #[cfg(feature = "check")]
                rt::op_yield("atomic load");
                self.inner.load(ord)
            }

            /// Stores a value.
            #[inline]
            #[track_caller]
            pub fn store(&self, v: $val, ord: Ordering) {
                #[cfg(feature = "check")]
                rt::op_yield("atomic store");
                self.inner.store(v, ord);
            }

            /// Atomic swap, returning the previous value.
            #[inline]
            #[track_caller]
            pub fn swap(&self, v: $val, ord: Ordering) -> $val {
                #[cfg(feature = "check")]
                rt::op_yield("atomic swap");
                self.inner.swap(v, ord)
            }

            /// Compare-exchange, returning the previous value on success
            /// and the current one on failure.
            #[inline]
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $val,
                new: $val,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$val, $val> {
                #[cfg(feature = "check")]
                rt::op_yield("atomic compare_exchange");
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

macro_rules! model_atomic_int {
    ($name:ident, $std:ty, $val:ty) => {
        model_atomic!($name, $std, $val);

        impl $name {
            /// Atomic add, returning the previous value.
            #[inline]
            #[track_caller]
            pub fn fetch_add(&self, v: $val, ord: Ordering) -> $val {
                #[cfg(feature = "check")]
                rt::op_yield("atomic fetch_add");
                self.inner.fetch_add(v, ord)
            }

            /// Atomic subtract, returning the previous value.
            #[inline]
            #[track_caller]
            pub fn fetch_sub(&self, v: $val, ord: Ordering) -> $val {
                #[cfg(feature = "check")]
                rt::op_yield("atomic fetch_sub");
                self.inner.fetch_sub(v, ord)
            }

            /// Atomic maximum, returning the previous value.
            #[inline]
            #[track_caller]
            pub fn fetch_max(&self, v: $val, ord: Ordering) -> $val {
                #[cfg(feature = "check")]
                rt::op_yield("atomic fetch_max");
                self.inner.fetch_max(v, ord)
            }
        }
    };
}

model_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
model_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

impl AtomicBool {
    /// Atomic logical OR, returning the previous value.
    #[inline]
    #[track_caller]
    pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
        #[cfg(feature = "check")]
        rt::op_yield("atomic fetch_or");
        self.inner.fetch_or(v, ord)
    }
}
