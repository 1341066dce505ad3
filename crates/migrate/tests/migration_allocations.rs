//! Allocations per migrated key: a chunk leaves its source as one buffer
//! per receiver, so moving a key allocates nothing of its own.
//!
//! Its own test binary, because the counting allocator is process-wide:
//! the allocations happen on the server threads, not on the test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cphash::{CpHash, CpHashConfig};
use cphash_migrate::RepartitionCoordinator;

/// Heap allocations made by every thread of this process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations process-wide.
struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// static atomic, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a tally, read after the round trips that ordered the work
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: as above
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_resize_allocates_per_batch_not_per_key() {
    const KEYS: u64 = 32_768;
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(1, 1).with_max_partitions(2));
    let mut coordinator =
        RepartitionCoordinator::new(table.take_control().expect("control handle"));
    for key in 0..KEYS {
        assert!(clients[0].insert(key, &key.to_le_bytes()).unwrap());
    }

    // No client traffic while the table resizes: every allocation counted
    // is the coordinator's or a server's work on the migration.
    // relaxed: every server's work is ordered before the coordinator's
    // return by the round trips that acknowledged it
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = coordinator.resize_to(2).unwrap();
    // relaxed: as above
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    eprintln!(
        "{} keys moved in {} batches over {} chunks: {allocations} allocations",
        report.keys_moved, report.batches, report.chunks
    );
    assert!(report.keys_moved as u64 > KEYS / 4);
    assert!(
        allocations < report.keys_moved as u64 / 12,
        "{allocations} allocations for {} moved keys",
        report.keys_moved
    );

    for key in 0..KEYS {
        let value = clients[0].get(key).unwrap().expect("no key is lost");
        assert_eq!(value.as_slice(), key.to_le_bytes());
    }
    drop(clients);
    table.shutdown();
}
