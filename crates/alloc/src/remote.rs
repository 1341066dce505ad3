//! Cross-thread block returns: a Treiber free-stack per size class.
//!
//! The paper's allocator is strictly single-threaded: only the owning
//! server thread allocates and frees (§3.2).  One situation breaks that
//! symmetry — during live re-partitioning, value blocks extracted from a
//! shrinking partition are handed to the *new* owner, and the block's
//! memory still belongs to the old owner's slab.  Shipping every block
//! back through a message ring would burn ring capacity on allocator
//! traffic, so instead each allocator exposes a [`RemoteFreeList`]: a
//! lock-free LIFO per size class that any thread may push freed blocks
//! onto, and that only the owner drains (pop-all, one `swap`) back into
//! its local free lists on the next allocation miss.
//!
//! The stack is intrusive — the freed block's first word stores the next
//! link — so pushing allocates nothing.  Pushers publish the link word
//! with a `Release` CAS; the owner's `Acquire` swap makes the whole chain
//! visible before it is walked.  Pop-all (rather than pop-one) sidesteps
//! the classic Treiber ABA problem: the owner never CASes a node it read
//! from the head, it takes the entire chain in one exchange.
//!
//! Atomics come from the `cphash_sync` facade, so the push/drain protocol
//! is model-checked under `--cfg cphash_model` (see `cphash-modelcheck`).

use core::ptr::NonNull;
use std::sync::Arc;

use cphash_sync::atomic::{AtomicUsize, Ordering};

use crate::size_class::{SizeClass, NUM_CLASSES};
use crate::slab::ValueHandle;

/// Per-class lock-free free stacks shared between an allocator's owner and
/// remote freeing threads.
///
/// Obtain one from [`crate::SlabAllocator::remote_list`] (the allocator
/// creates and drains it); clone the [`Arc`] into any thread that needs to
/// return blocks.
#[derive(Debug)]
pub struct RemoteFreeList {
    /// Head of the intrusive LIFO per size class; `0` means empty.
    heads: [AtomicUsize; NUM_CLASSES],
}

impl Default for RemoteFreeList {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteFreeList {
    /// An empty free list (all classes empty).
    pub fn new() -> Self {
        RemoteFreeList {
            heads: core::array::from_fn(|_| AtomicUsize::new(0)),
        }
    }

    /// A shared handle to a fresh list.
    pub fn shared() -> Arc<RemoteFreeList> {
        Arc::new(Self::new())
    }

    /// Push a freed block from any thread.
    ///
    /// Returns the handle back as `Err` when the block cannot ride the
    /// stack: huge-class blocks carry their own layout and must be freed
    /// by the owning allocator (`SlabAllocator::free`).
    ///
    /// The caller transfers ownership of the block: it must not touch the
    /// bytes again (the first word becomes the intrusive link).
    pub fn push(&self, handle: ValueHandle) -> Result<(), ValueHandle> {
        if handle.class().is_huge() {
            return Err(handle);
        }
        debug_assert!(handle.block_bytes() >= core::mem::size_of::<usize>());
        let node = handle.as_ptr() as usize;
        let head = &self.heads[handle.class().0];
        // relaxed: the CAS below is the publication point; a stale first
        // read only costs one extra loop iteration.
        let mut cur = head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the pusher owns the block until the CAS succeeds
            // (nobody else can reach it), the block is at least one word
            // (asserted above) and word-aligned per the class layout.
            unsafe { (node as *mut usize).write(cur) };
            // Release publishes the link word written above to the owner's
            // Acquire swap in `pop_all`.
            // relaxed: failure just retries with the refreshed head.
            match head.compare_exchange(cur, node, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return Ok(()),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Take the entire chain for `class`, leaving the stack empty.
    ///
    /// Only the owning allocator calls this (`pop-all`, one atomic
    /// exchange — no ABA window).  The returned iterator walks the chain;
    /// the links were published by `push`'s Release CAS and are made
    /// visible by this Acquire swap.
    pub(crate) fn pop_all(&self, class: SizeClass) -> RemoteDrain {
        RemoteDrain {
            next: self.heads[class.0].swap(0, Ordering::Acquire),
        }
    }

    /// Whether `class` has pending remote frees (approximate; for pacing
    /// and tests, not for correctness decisions).
    pub fn has_pending(&self, class: SizeClass) -> bool {
        if class.is_huge() {
            return false;
        }
        // relaxed: advisory emptiness probe; the drain swap is the sync.
        self.heads[class.0].load(Ordering::Relaxed) != 0
    }

    /// Reconstruct the [`ValueHandle`] for a drained block of `class`.
    ///
    /// The remote stack stores bare pointers; length information is lost
    /// on push, so reclaimed handles report the full class block size.
    /// (Shipped reclaim goes through `SlabAllocator::reclaim_remote`,
    /// which pushes raw pointers straight onto the local free lists; this
    /// exists for tests that drain the stack directly.)
    #[cfg(test)]
    pub(crate) fn rebuild_handle(ptr: NonNull<u8>, class: SizeClass) -> ValueHandle {
        ValueHandle::new(ptr, crate::size_class::class_size(class), class)
    }
}

/// Iterator over a chain detached by [`RemoteFreeList::pop_all`].
pub(crate) struct RemoteDrain {
    next: usize,
}

impl Iterator for RemoteDrain {
    type Item = NonNull<u8>;

    fn next(&mut self) -> Option<NonNull<u8>> {
        let ptr = NonNull::new(self.next as *mut u8)?;
        // SAFETY: `ptr` came off the detached chain: the block is owned by
        // the drainer, and its first word is the link written by `push`
        // (made visible by the Acquire swap in `pop_all`).
        self.next = unsafe { (ptr.as_ptr() as *const usize).read() };
        Some(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::class_for_size;
    use crate::slab::SlabAllocator;

    #[test]
    fn push_drain_round_trip() {
        let mut a = SlabAllocator::unbounded();
        let remote = Arc::clone(a.remote_list());
        let h1 = a.allocate(24).unwrap();
        let h2 = a.allocate(24).unwrap();
        let (p1, p2) = (h1.addr(), h2.addr());
        let class = class_for_size(24);
        remote.push(h1).unwrap();
        remote.push(h2).unwrap();
        assert!(remote.has_pending(class));
        let drained: Vec<u64> = remote.pop_all(class).map(|p| p.as_ptr() as u64).collect();
        // LIFO: last push first.
        assert_eq!(drained, vec![p2, p1]);
        assert!(!remote.has_pending(class));
        // The blocks were detached from the stack; hand them back through
        // the owner so accounting closes.
        for ptr in [p2, p1] {
            let h = RemoteFreeList::rebuild_handle(NonNull::new(ptr as *mut u8).unwrap(), class);
            a.free(h);
        }
        assert_eq!(a.stats().outstanding(), 0);
    }

    #[test]
    fn quarter_step_class_round_trips_through_the_owner() {
        // 1 048 bytes lands in the 1 280-byte class, whose blocks sit at a
        // stride that is not a power of two: reclaim must credit exactly
        // that many bytes per block and hand the same blocks out again.
        let mut a = SlabAllocator::unbounded();
        let remote = Arc::clone(a.remote_list());
        let class = class_for_size(1048);
        assert_eq!(crate::size_class::class_size(class), 1280);
        let handles: Vec<ValueHandle> = (0..60).map(|_| a.allocate(1048).unwrap()).collect();
        assert_eq!(a.bytes_in_use(), 60 * 1280);
        let mut freed: Vec<u64> = handles.iter().map(|h| h.addr()).collect();
        for h in handles {
            remote.push(h).unwrap();
        }
        assert!(remote.has_pending(class));
        assert!(!remote.has_pending(class_for_size(1024)));
        assert_eq!(a.reclaim_remote(), 60);
        assert_eq!(a.bytes_in_use(), 0);
        assert_eq!(a.stats().remote_reclaims, 60);
        let reserved = a.stats().bytes_reserved;
        let again: Vec<ValueHandle> = (0..60).map(|_| a.allocate(1280).unwrap()).collect();
        assert_eq!(
            a.stats().bytes_reserved,
            reserved,
            "reclaimed blocks reused"
        );
        let mut reused: Vec<u64> = again.iter().map(|h| h.addr()).collect();
        freed.sort_unstable();
        reused.sort_unstable();
        assert_eq!(freed, reused);
        for h in again {
            a.free(h);
        }
        assert_eq!(a.stats().outstanding(), 0);
    }

    #[test]
    fn huge_blocks_are_refused() {
        let mut a = SlabAllocator::unbounded();
        let remote = Arc::clone(a.remote_list());
        let size = crate::size_class::MAX_CLASS_BYTES + 1;
        let h = a.allocate(size).unwrap();
        let h = remote.push(h).unwrap_err();
        a.free(h);
    }

    #[test]
    fn concurrent_pushes_lose_nothing() {
        let mut a = SlabAllocator::unbounded();
        let remote = Arc::clone(a.remote_list());
        let class = class_for_size(64);
        let per_thread = 100;
        let mut expected: Vec<u64> = Vec::new();
        let mut batches: Vec<Vec<ValueHandle>> = Vec::new();
        for _ in 0..4 {
            let batch: Vec<ValueHandle> =
                (0..per_thread).map(|_| a.allocate(64).unwrap()).collect();
            expected.extend(batch.iter().map(|h| h.addr()));
            batches.push(batch);
        }
        std::thread::scope(|s| {
            for batch in batches {
                let remote = Arc::clone(&remote);
                s.spawn(move || {
                    for h in batch {
                        remote.push(h).unwrap();
                    }
                });
            }
        });
        let mut drained: Vec<u64> = remote.pop_all(class).map(|p| p.as_ptr() as u64).collect();
        drained.sort_unstable();
        expected.sort_unstable();
        assert_eq!(drained, expected);
        for ptr in drained {
            a.free(RemoteFreeList::rebuild_handle(
                NonNull::new(ptr as *mut u8).unwrap(),
                class,
            ));
        }
        assert_eq!(a.stats().outstanding(), 0);
    }
}
