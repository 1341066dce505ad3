//! The workspace atomics facade.
//!
//! Every concurrency core in the tree (`cphash-channel` rings, the epoch
//! router, the spinlock) imports its atomics from here instead of
//! `std::sync::atomic`.  Normally the re-exports *are*
//! the std types — zero cost, identical codegen.  Under
//! `RUSTFLAGS="--cfg cphash_model"` they swap to the vendored loom model
//! checker's tracked types, and the same unmodified source becomes
//! model-checkable: every atomic op a scheduling point, every `Ordering` a
//! happens-before edge, every [`ModelUnsafeCell`] access race-checked.
//!
//! Two families:
//!
//! * the root re-exports (`AtomicU64`, `fence`, …) — **modeled**: use these
//!   for anything whose interleavings matter.
//! * [`plain`] — **always std**, even in model mode: use it for diagnostics
//!   (stat counters, watermark gauges, liveness flags read by monitoring)
//!   where tracking would explode the model state space and a data race
//!   cannot corrupt the protocol.
//!
//! The `tools/lint` pass enforces that nothing outside this file names
//! `std::sync::atomic` directly.

// The facade itself is the one sanctioned place for raw std atomic paths;
// the lint allowlists exactly this file.

#[cfg(not(cphash_model))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(cphash_model)]
pub use loom::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Diagnostics-only atomics: always `std`, never modeled.
///
/// Model executions stay small because stat counters and gauges routed
/// through here generate no scheduling points.  Never guard data with
/// these — the model checker cannot see them.
pub mod plain {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    /// Add `n` to a counter that only the calling thread writes: a relaxed
    /// load and a relaxed store, no `lock`-prefixed read-modify-write.
    /// Readers on other threads see every value in order, one add at a
    /// time.  A second writer would lose adds: a counter several threads
    /// bump keeps its `fetch_add`.
    #[inline]
    pub fn single_writer_add(counter: &AtomicU64, n: u64) {
        // relaxed: this thread's own latest store; nothing else writes it
        let value = counter.load(Ordering::Relaxed).wrapping_add(n);
        // relaxed: diagnostic counter; the store publishes only its value
        counter.store(value, Ordering::Relaxed);
    }
}

/// CPU spin hint: [`std::hint::spin_loop`] normally; in model mode a
/// scheduling point that deprioritizes the spinner until every runnable
/// thread has had a turn (which is what lets bounded exploration get
/// through unbounded spin loops).
#[inline]
pub fn spin_hint() {
    #[cfg(not(cphash_model))]
    std::hint::spin_loop();
    #[cfg(cphash_model)]
    loom::hint::spin_loop();
}

/// Interior-mutable storage for data published through atomics.
///
/// Normally a transparent zero-cost wrapper over [`std::cell::UnsafeCell`];
/// in model mode the tracked loom cell, which reports any access not
/// ordered by happens-before as a data race.  The closure API (`with`,
/// `with_mut`) is the loom one — it forces every access through a point
/// the checker can see.
#[derive(Debug)]
pub struct ModelUnsafeCell<T> {
    #[cfg(not(cphash_model))]
    inner: std::cell::UnsafeCell<T>,
    #[cfg(cphash_model)]
    inner: loom::cell::UnsafeCell<T>,
}

// SAFETY: same contract as `std::cell::UnsafeCell` wrapped in a `Sync`
// container: callers promise (and in model mode, the checker verifies)
// that writers are exclusive and readers are unsynchronized-race-free.
unsafe impl<T: Send> Send for ModelUnsafeCell<T> {}
// SAFETY: see above — all shared access goes through `with`/`with_mut`,
// whose contracts put the burden on the caller exactly as UnsafeCell does.
unsafe impl<T: Send> Sync for ModelUnsafeCell<T> {}

impl<T> ModelUnsafeCell<T> {
    /// Create a new cell.
    #[cfg(not(cphash_model))]
    pub const fn new(value: T) -> ModelUnsafeCell<T> {
        ModelUnsafeCell {
            inner: std::cell::UnsafeCell::new(value),
        }
    }

    /// Create a new cell (model mode).
    #[cfg(cphash_model)]
    pub const fn new(value: T) -> ModelUnsafeCell<T> {
        ModelUnsafeCell {
            inner: loom::cell::UnsafeCell::new(value),
        }
    }

    /// Shared access to the raw pointer.
    ///
    /// # Safety contract (checked in model mode)
    ///
    /// The caller must ensure no concurrent mutable access; dereferencing
    /// the pointer inside `f` is `unsafe` and carries that proof.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        #[cfg(not(cphash_model))]
        {
            f(self.inner.get() as *const T)
        }
        #[cfg(cphash_model)]
        {
            self.inner.with(f)
        }
    }

    /// Exclusive access to the raw pointer.
    ///
    /// # Safety contract (checked in model mode)
    ///
    /// The caller must ensure this access is exclusive; dereferencing the
    /// pointer inside `f` is `unsafe` and carries that proof.
    #[inline]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        #[cfg(not(cphash_model))]
        {
            f(self.inner.get())
        }
        #[cfg(cphash_model)]
        {
            self.inner.with_mut(f)
        }
    }

    /// Exclusive access through `&mut self` (statically race-free).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consume the cell and return the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}
