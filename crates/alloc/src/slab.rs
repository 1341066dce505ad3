//! Segregated-fit slab allocator.

use core::ptr::NonNull;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::Arc;

use crate::remote::RemoteFreeList;
use crate::size_class::{class_for_size, class_size, SizeClass, NUM_CLASSES};
use crate::stats::AllocStats;

/// Maximum guaranteed block alignment. Blocks are aligned to
/// `min(block_bytes, BLOCK_ALIGN)`: the 8-byte class hands out 8-aligned
/// words, every larger class is a multiple of 16 bytes and hands out
/// 16-aligned blocks (what the C implementation's malloc would have
/// provided).
pub const BLOCK_ALIGN: usize = 16;

/// Longest value a [`ValueHandle`] can describe: the handle keeps the
/// length in 32 bits, the width the CPHash response word carries it in.
pub const MAX_VALUE_BYTES: usize = u32::MAX as usize;

/// Alignment guaranteed for a block of `block_bytes` usable bytes.
pub const fn alignment_for(block_bytes: usize) -> usize {
    if block_bytes < BLOCK_ALIGN {
        block_bytes.next_power_of_two()
    } else {
        BLOCK_ALIGN
    }
}

/// Configuration for a [`SlabAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabConfig {
    /// Byte budget. Allocations that would push `bytes_in_use` above the
    /// budget are refused (the partition then evicts and retries).
    /// `None` means unbounded.
    pub capacity_bytes: Option<usize>,
    /// Granularity of chunk reservations from the global allocator.
    pub chunk_bytes: usize,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            capacity_bytes: None,
            chunk_bytes: 64 * 1024,
        }
    }
}

impl SlabConfig {
    /// A config with the given byte budget and default chunking.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        SlabConfig {
            capacity_bytes: Some(capacity_bytes),
            ..Default::default()
        }
    }
}

/// Bytes a block of `class` holding a `len`-byte value is accounted as: the
/// class size, or the value's own length for a huge block.
#[inline]
fn block_bytes_of(class: SizeClass, len: usize) -> usize {
    if class.is_huge() {
        len
    } else {
        class_size(class)
    }
}

/// A stable handle to an allocated value block.
///
/// The handle is what travels in CPHash response messages: the server
/// allocates, sends the handle to the client, and the client copies the
/// value bytes through it.  It is therefore `Send + Sync`, but the raw
/// accessors are `unsafe`: the caller (the CPHash protocol) must guarantee
/// that writes only happen before the element is published (`Ready`) and
/// reads only while a reference count pins the element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueHandle {
    ptr: NonNull<u8>,
    /// Requested length; at most [`MAX_VALUE_BYTES`].
    len: u32,
    /// Size-class index, `NUM_CLASSES` for a huge block.  The block size is
    /// derived from it (or from `len` for huge blocks), not stored.
    class: u8,
}

// One handle sits in every element header, so its size is bytes per key.
const _: () = assert!(core::mem::size_of::<ValueHandle>() == 16);
const _: () = assert!(NUM_CLASSES <= u8::MAX as usize);

// SAFETY: the handle is just a pointer + sizes; synchronization of the
// pointed-to bytes is the CPHash protocol's responsibility (refcounts and
// the NOT-READY/READY hand-off), exactly as in the paper.
unsafe impl Send for ValueHandle {}
unsafe impl Sync for ValueHandle {}

impl ValueHandle {
    /// Length, in bytes, that was requested for this value.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` for zero-length values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes actually reserved (the size class the request rounded up to).
    #[inline]
    pub fn block_bytes(&self) -> usize {
        block_bytes_of(self.class(), self.len())
    }

    /// Raw pointer to the first byte of the block.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Numeric address of the block (used by the cache model to attribute
    /// line transfers to value accesses).
    #[inline]
    pub fn addr(&self) -> u64 {
        self.ptr.as_ptr() as u64
    }

    /// The size class this block belongs to.
    #[inline]
    pub(crate) fn class(&self) -> SizeClass {
        SizeClass(self.class as usize)
    }

    /// A handle to `len` bytes at `ptr`, in a block of `class`.
    pub(crate) fn new(ptr: NonNull<u8>, len: usize, class: SizeClass) -> ValueHandle {
        debug_assert!(len <= MAX_VALUE_BYTES && class.0 <= NUM_CLASSES);
        ValueHandle {
            ptr,
            len: len as u32,
            class: class.0 as u8,
        }
    }

    /// View the value as a byte slice.
    ///
    /// # Safety
    /// The caller must guarantee that no thread is concurrently writing the
    /// block and that the block is still allocated (in CPHash terms: the
    /// element is READY and the caller holds a reference count).
    #[inline]
    pub unsafe fn as_slice(&self) -> &[u8] {
        // SAFETY: contract forwarded to the caller.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len()) }
    }

    /// Copy `data` into the block starting at byte 0.
    ///
    /// # Safety
    /// The caller must guarantee exclusive write access to the block (in
    /// CPHash terms: the element is still NOT-READY and only this client
    /// writes it) and that `data.len() <= self.len()`.
    #[inline]
    pub unsafe fn copy_from(&self, data: &[u8]) {
        debug_assert!(data.len() <= self.len());
        // SAFETY: contract forwarded to the caller; regions cannot overlap
        // because `data` is a safe Rust slice distinct from this raw block.
        unsafe {
            core::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.ptr.as_ptr(),
                data.len().min(self.len()),
            );
        }
    }
}

/// One reservation obtained from the global allocator.
struct Chunk {
    ptr: NonNull<u8>,
    layout: Layout,
}

/// A single-threaded segregated-fit allocator with byte accounting.
///
/// Owned by exactly one partition (and therefore touched by exactly one
/// server thread), so none of the metadata is atomic — this is the
/// "standard single-threaded memory allocator" the paper relies on.
pub struct SlabAllocator {
    config: SlabConfig,
    free_lists: Vec<Vec<NonNull<u8>>>,
    chunks: Vec<Chunk>,
    stats: AllocStats,
    remote: Arc<RemoteFreeList>,
}

// SAFETY: the allocator is moved into its server thread at startup; all the
// raw pointers it stores refer to heap memory it owns.
unsafe impl Send for SlabAllocator {}

impl SlabAllocator {
    /// Create an allocator with the given configuration.
    pub fn new(config: SlabConfig) -> Self {
        assert!(config.chunk_bytes >= 4096, "chunk size unreasonably small");
        SlabAllocator {
            config,
            free_lists: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
            chunks: Vec::new(),
            stats: AllocStats::default(),
            remote: RemoteFreeList::shared(),
        }
    }

    /// The lock-free remote free list other threads push freed blocks onto.
    ///
    /// Clone the `Arc` into any thread that needs to return this
    /// allocator's blocks without owning the allocator (e.g. the new owner
    /// of migrated values during re-partitioning).
    pub fn remote_list(&self) -> &Arc<RemoteFreeList> {
        &self.remote
    }

    /// Create an unbounded allocator with default chunking.
    pub fn unbounded() -> Self {
        Self::new(SlabConfig::default())
    }

    /// The configured byte budget, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.config.capacity_bytes
    }

    /// Change the byte budget at runtime (live capacity re-splitting during
    /// table re-partitioning).  Lowering the budget below `bytes_in_use`
    /// does not free anything here; it only makes further allocations fail
    /// until the owner evicts back under the new budget.
    pub fn set_capacity(&mut self, capacity_bytes: Option<usize>) {
        self.config.capacity_bytes = capacity_bytes;
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Bytes currently handed out (rounded to class sizes).
    pub fn bytes_in_use(&self) -> usize {
        self.stats.bytes_in_use
    }

    /// Would an allocation of `size` bytes fit under the capacity budget
    /// right now?
    pub fn would_fit(&self, size: usize) -> bool {
        let block = Self::block_bytes_for(size);
        match self.config.capacity_bytes {
            Some(cap) => self.stats.bytes_in_use + block <= cap,
            None => true,
        }
    }

    /// Could an allocation of `size` bytes succeed with every other block
    /// freed?  `false` means no amount of eviction makes room: the value is
    /// longer than a handle can describe or its block exceeds the whole
    /// budget.
    pub fn could_ever_fit(&self, size: usize) -> bool {
        size <= MAX_VALUE_BYTES
            && self
                .config
                .capacity_bytes
                .is_none_or(|cap| Self::block_bytes_for(size) <= cap)
    }

    /// The number of accounted bytes an allocation of `size` bytes consumes.
    pub fn block_bytes_for(size: usize) -> usize {
        block_bytes_of(class_for_size(size), size)
    }

    /// Allocate a block able to hold `size` bytes.
    ///
    /// Returns `None` when the capacity budget would be exceeded — the
    /// partition reacts by evicting an element and retrying, which is
    /// exactly the eviction loop of the paper's INSERT path — and, before
    /// the global allocator is asked for anything, for a `size` above
    /// [`MAX_VALUE_BYTES`], which no eviction can help
    /// ([`SlabAllocator::could_ever_fit`] tells the two apart).
    pub fn allocate(&mut self, size: usize) -> Option<ValueHandle> {
        if size > MAX_VALUE_BYTES {
            return None;
        }
        let class = class_for_size(size);
        if !self.take_budget(block_bytes_of(class, size)) {
            return None;
        }

        let ptr = if class.is_huge() {
            self.allocate_huge(size)
        } else {
            self.allocate_classed(class)
        };

        self.stats.blocks_in_use += 1;
        self.stats.total_allocs += 1;
        Some(ValueHandle::new(ptr, size, class))
    }

    /// Charge the budget what a block for `size` bytes would cost, without
    /// taking one: the owner keeps the bytes in storage of its own (a value
    /// small enough to live in its element header) but evicts exactly where
    /// it would have had the value gone through [`SlabAllocator::allocate`].
    /// Returns `false`, like a refused allocation, when the budget would be
    /// exceeded.  Undone by [`SlabAllocator::uncharge`] with the same `size`.
    pub fn charge(&mut self, size: usize) -> bool {
        self.take_budget(Self::block_bytes_for(size))
    }

    /// Return what [`SlabAllocator::charge`] took for a `size`-byte value.
    pub fn uncharge(&mut self, size: usize) {
        let block_bytes = Self::block_bytes_for(size);
        debug_assert!(self.stats.bytes_in_use >= block_bytes, "double uncharge");
        self.stats.bytes_in_use -= block_bytes;
    }

    /// Return a block to the allocator.
    ///
    /// # Panics
    /// Panics (in debug builds) if accounting would go negative, which means
    /// a double free.
    pub fn free(&mut self, handle: ValueHandle) {
        let block_bytes = handle.block_bytes();
        debug_assert!(self.stats.bytes_in_use >= block_bytes, "double free");
        debug_assert!(self.stats.blocks_in_use >= 1, "double free");
        self.stats.bytes_in_use -= block_bytes;
        self.stats.blocks_in_use -= 1;
        self.stats.total_frees += 1;
        let class = handle.class();
        if class.is_huge() {
            let layout = Self::huge_layout(handle.len());
            // SAFETY: the pointer was produced by `allocate_huge` with the
            // same layout and has not been freed before (checked by the
            // accounting asserts above).
            unsafe { dealloc(handle.ptr.as_ptr(), layout) };
        } else {
            self.free_lists[class.0].push(handle.ptr);
        }
    }

    /// Drain the remote free stack for `class` into the local free list,
    /// settling the accounting the remote pushers could not touch.
    /// Returns the number of blocks reclaimed.
    pub fn reclaim_remote_class(&mut self, class: SizeClass) -> usize {
        let mut reclaimed = 0usize;
        // Detach the whole chain in one exchange, then walk it exclusively.
        let drain = self.remote.pop_all(class);
        for ptr in drain {
            self.free_lists[class.0].push(ptr);
            reclaimed += 1;
        }
        if reclaimed > 0 {
            let bytes = reclaimed * class_size(class);
            debug_assert!(self.stats.bytes_in_use >= bytes, "remote double free");
            debug_assert!(self.stats.blocks_in_use >= reclaimed, "remote double free");
            self.stats.bytes_in_use -= bytes;
            self.stats.blocks_in_use -= reclaimed;
            self.stats.total_frees += reclaimed as u64;
            self.stats.remote_reclaims += reclaimed as u64;
        }
        reclaimed
    }

    /// Drain every class's remote stack.  Called on allocation misses for
    /// the missing class automatically; call it explicitly before reading
    /// final accounting or dropping the allocator while remote threads may
    /// have freed blocks.
    pub fn reclaim_remote(&mut self) -> usize {
        (0..NUM_CLASSES)
            .map(|c| self.reclaim_remote_class(SizeClass(c)))
            .sum()
    }

    /// Account `block_bytes` more as in use, unless that would exceed the
    /// budget.
    fn take_budget(&mut self, block_bytes: usize) -> bool {
        if let Some(cap) = self.config.capacity_bytes {
            if self.stats.bytes_in_use + block_bytes > cap {
                self.stats.capacity_refusals += 1;
                return false;
            }
        }
        self.stats.bytes_in_use += block_bytes;
        true
    }

    fn allocate_classed(&mut self, class: SizeClass) -> NonNull<u8> {
        if let Some(ptr) = self.free_lists[class.0].pop() {
            self.stats.freelist_hits += 1;
            return ptr;
        }
        // Local list empty: pull back anything other threads returned
        // before reserving a fresh chunk.
        if self.reclaim_remote_class(class) > 0 {
            self.stats.freelist_hits += 1;
            return self.free_lists[class.0]
                .pop()
                .expect("reclaim_remote_class pushed at least one block");
        }
        self.grow_class(class);
        self.free_lists[class.0]
            .pop()
            .expect("grow_class always adds at least one block")
    }

    /// Reserve a new chunk from the global allocator and carve it into
    /// blocks of `class`.
    fn grow_class(&mut self, class: SizeClass) {
        let block = class_size(class);
        let chunk_bytes = self.config.chunk_bytes.max(block);
        let blocks = chunk_bytes / block;
        let layout =
            Layout::from_size_align(blocks * block, BLOCK_ALIGN).expect("chunk layout is valid");
        // SAFETY: layout has non-zero size (block >= 8, blocks >= 1).
        let base = unsafe { alloc(layout) };
        let Some(base) = NonNull::new(base) else {
            handle_alloc_error(layout)
        };
        self.stats.bytes_reserved += layout.size();
        for i in 0..blocks {
            // SAFETY: i * block stays inside the freshly allocated chunk.
            let ptr = unsafe { base.as_ptr().add(i * block) };
            self.free_lists[class.0]
                .push(NonNull::new(ptr).expect("offset of non-null is non-null"));
        }
        self.chunks.push(Chunk { ptr: base, layout });
    }

    fn huge_layout(size: usize) -> Layout {
        Layout::from_size_align(size.max(1), BLOCK_ALIGN).expect("huge layout is valid")
    }

    fn allocate_huge(&mut self, size: usize) -> NonNull<u8> {
        let layout = Self::huge_layout(size);
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(ptr) else {
            handle_alloc_error(layout)
        };
        self.stats.bytes_reserved += layout.size();
        ptr
    }
}

impl Drop for SlabAllocator {
    fn drop(&mut self) {
        // Settle any blocks still parked on the remote stack so the
        // accounting check below sees them as freed.
        self.reclaim_remote();
        // All slab chunks go back to the global allocator.  Outstanding
        // huge blocks would leak; the partition frees every element before
        // dropping its allocator, so treat leftovers as a logic error in
        // debug builds.
        debug_assert_eq!(
            self.stats.blocks_in_use, 0,
            "allocator dropped with {} live blocks",
            self.stats.blocks_in_use
        );
        for chunk in self.chunks.drain(..) {
            // SAFETY: each chunk was allocated with exactly this layout and
            // is freed exactly once here.
            unsafe { dealloc(chunk.ptr.as_ptr(), chunk.layout) };
        }
    }
}

impl Default for SlabAllocator {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl core::fmt::Debug for SlabAllocator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SlabAllocator")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_free() {
        let mut a = SlabAllocator::unbounded();
        let h = a.allocate(8).unwrap();
        assert_eq!(h.len(), 8);
        assert!(!h.is_empty());
        assert_eq!(h.block_bytes(), 8);
        // SAFETY: single-threaded test, block freshly allocated.
        unsafe {
            h.copy_from(&42u64.to_le_bytes());
            assert_eq!(h.as_slice(), &42u64.to_le_bytes());
        }
        a.free(h);
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    fn capacity_budget_is_enforced_and_reported() {
        let mut a = SlabAllocator::new(SlabConfig::with_capacity(64));
        let h1 = a.allocate(32).unwrap();
        let h2 = a.allocate(32).unwrap();
        assert!(a.allocate(8).is_none());
        assert_eq!(a.stats().capacity_refusals, 1);
        assert!(!a.would_fit(8));
        a.free(h1);
        assert!(a.would_fit(8));
        let h3 = a.allocate(8).unwrap();
        a.free(h2);
        a.free(h3);
    }

    #[test]
    fn a_charge_costs_what_the_block_would_and_takes_none() {
        let mut a = SlabAllocator::new(SlabConfig::with_capacity(32));
        for _ in 0..3 {
            assert!(a.charge(5), "5 B is charged as an 8 B block");
        }
        let block = a.allocate(8).unwrap();
        assert_eq!(a.bytes_in_use(), 32);
        assert!(!a.charge(0), "an empty value still costs a block's bytes");
        assert_eq!(a.stats().capacity_refusals, 1);
        assert_eq!(a.stats().blocks_in_use, 1);
        assert_eq!(a.stats().bytes_reserved, 64 * 1024, "one chunk, one block");
        a.uncharge(5);
        assert!(a.charge(0));
        a.free(block);
        for size in [5, 5, 0] {
            a.uncharge(size);
        }
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    fn freelist_reuses_blocks() {
        let mut a = SlabAllocator::unbounded();
        let h = a.allocate(100).unwrap();
        let first_ptr = h.as_ptr();
        a.free(h);
        let h2 = a.allocate(100).unwrap();
        assert_eq!(h2.as_ptr(), first_ptr, "freed block should be reused");
        assert_eq!(a.stats().freelist_hits, 1);
        a.free(h2);
    }

    #[test]
    fn distinct_live_blocks_do_not_overlap() {
        let mut a = SlabAllocator::unbounded();
        let mut handles = Vec::new();
        for i in 0..1000usize {
            let h = a.allocate(24).unwrap();
            // SAFETY: block freshly allocated, single-threaded.
            unsafe { h.copy_from(&(i as u64).to_le_bytes()) };
            handles.push(h);
        }
        // Verify every block still holds its own value (no overlap).
        for (i, h) in handles.iter().enumerate() {
            // SAFETY: blocks are live and not concurrently written.
            let got = unsafe { u64::from_le_bytes(h.as_slice()[..8].try_into().unwrap()) };
            assert_eq!(got, i as u64);
        }
        let mut addrs: Vec<u64> = handles.iter().map(|h| h.addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 1000, "duplicate block addresses");
        for h in handles {
            a.free(h);
        }
        assert_eq!(a.stats().outstanding(), 0);
    }

    #[test]
    fn huge_allocations_round_trip() {
        let mut a = SlabAllocator::unbounded();
        let size = crate::size_class::MAX_CLASS_BYTES + 4096;
        let h = a.allocate(size).unwrap();
        assert_eq!(h.block_bytes(), size);
        assert!(h.len() == size);
        // SAFETY: freshly allocated block, single-threaded.
        unsafe { h.copy_from(&[0xAB; 128]) };
        a.free(h);
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    fn zero_sized_values_still_get_distinct_addresses() {
        let mut a = SlabAllocator::unbounded();
        let h1 = a.allocate(0).unwrap();
        let h2 = a.allocate(0).unwrap();
        assert!(h1.is_empty());
        assert_ne!(h1.addr(), h2.addr());
        a.free(h1);
        a.free(h2);
    }

    #[test]
    fn accounting_tracks_class_rounding() {
        let mut a = SlabAllocator::unbounded();
        let h = a.allocate(100).unwrap();
        assert_eq!(a.bytes_in_use(), 112);
        assert_eq!(SlabAllocator::block_bytes_for(100), 112);
        assert_eq!(h.block_bytes(), 112);
        a.free(h);
        assert_eq!(SlabAllocator::block_bytes_for(1048), 1280);
        assert_eq!(SlabAllocator::block_bytes_for(1500), 1536);
    }

    #[test]
    fn a_quarter_step_class_carves_its_chunk_without_overlap() {
        // 1 280 does not divide 64 KiB: the chunk holds 51 blocks and the
        // 256-byte tail is never reserved.
        let mut a = SlabAllocator::unbounded();
        let handles: Vec<ValueHandle> = (0..51).map(|_| a.allocate(1048).unwrap()).collect();
        assert_eq!(a.stats().bytes_reserved, 51 * 1280);
        let mut addrs: Vec<u64> = handles.iter().map(|h| h.addr()).collect();
        addrs.sort_unstable();
        for pair in addrs.windows(2) {
            assert_eq!(pair[1] - pair[0], 1280);
        }
        for h in &handles {
            assert_eq!(h.addr() % BLOCK_ALIGN as u64, 0);
            // SAFETY: block freshly allocated, single-threaded; writing the
            // whole block would trample a neighbour if blocks overlapped.
            unsafe { h.copy_from(&[h.addr() as u8; 1048]) };
        }
        for h in &handles {
            // SAFETY: blocks are live and not concurrently written.
            assert!(unsafe { h.as_slice() }.iter().all(|&b| b == h.addr() as u8));
        }
        // The 52nd block needs a second chunk.
        let extra = a.allocate(1048).unwrap();
        assert_eq!(a.stats().bytes_reserved, 2 * 51 * 1280);
        a.free(extra);
        for h in handles {
            a.free(h);
        }
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    fn lengths_past_32_bits_are_refused_before_any_allocation() {
        let mut a = SlabAllocator::unbounded();
        assert!(!a.could_ever_fit(MAX_VALUE_BYTES + 1));
        assert!(a.allocate(MAX_VALUE_BYTES + 1).is_none());
        assert!(a.allocate(usize::MAX).is_none());
        assert_eq!(a.stats().bytes_reserved, 0, "nothing was requested");
        assert_eq!(a.stats().total_allocs, 0);
        assert!(a.could_ever_fit(MAX_VALUE_BYTES));

        let bounded = SlabAllocator::new(SlabConfig::with_capacity(64));
        assert!(bounded.could_ever_fit(64));
        assert!(!bounded.could_ever_fit(65), "65 B rounds to an 80 B block");
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValueHandle>();
        fn assert_send<T: Send>() {}
        assert_send::<SlabAllocator>();
    }

    #[test]
    fn blocks_are_aligned() {
        let mut a = SlabAllocator::unbounded();
        for size in [1usize, 8, 24, 40, 100, 1048, 4096, 5000] {
            let h = a.allocate(size).unwrap();
            let align = alignment_for(h.block_bytes()) as u64;
            assert_eq!(h.addr() % align, 0, "size={size} align={align}");
            a.free(h);
        }
        assert_eq!(alignment_for(8), 8);
        assert_eq!(alignment_for(16), 16);
        assert_eq!(alignment_for(4096), 16);
    }
}
