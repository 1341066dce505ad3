//! Counting global allocator behind the `*.allocs_per_op` metrics.
//!
//! Wraps the system allocator.  While *armed* (rungs and the traced run
//! only) every allocation bumps a process-wide counter pair and the calling
//! thread's own pair, all relaxed — they are statistics and publish no
//! data.  Disarmed, the cost is one relaxed load per allocation, so the
//! untraced end-to-end run is not perturbed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` + no destructor: touching these never allocates and is valid
    // during thread teardown, which an allocator hook must guarantee.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator type installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAllocator;

#[inline]
fn note(size: usize) {
    // relaxed: statistic counters; nothing is published through them.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and plain thread-local cells
// and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation count and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to alloc / alloc_zeroed / realloc.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counter-wise `self - earlier`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed); // relaxed: statistic switch
}

/// Process-wide counts so far.
pub fn process_counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed), // relaxed: statistic
        bytes: BYTES.load(Ordering::Relaxed),   // relaxed: statistic
    }
}

/// The calling thread's counts so far.
pub fn thread_counts() -> AllocCounts {
    AllocCounts {
        allocs: THREAD_ALLOCS.with(Cell::get),
        bytes: THREAD_BYTES.with(Cell::get),
    }
}
