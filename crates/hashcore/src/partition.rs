//! The partition: a single-threaded hash table with CLOCK eviction,
//! reference counting and deferred frees.

use cphash_alloc::{SlabAllocator, SlabConfig, ValueHandle};

use crate::element::{
    Element, ElementId, ElementState, InlineValue, Slot, StoredValue, INLINE_VALUE_BYTES, NIL,
};
use crate::hash::{
    chunk_from_hash, hash64, key_tag, key_tag_from_hash, migration_chunk, MAX_MIGRATION_CHUNKS,
};
use crate::policy::EvictionPolicy;
use crate::stats::PartitionStats;

/// Configuration of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Number of buckets (rounded up to a power of two). The paper sizes the
    /// table for "an average of one element per bucket".
    pub buckets: usize,
    /// Byte budget for the values stored in this partition; `None` disables
    /// eviction-by-capacity (the table only grows).
    pub capacity_bytes: Option<usize>,
    /// Eviction policy (CLOCK by default, random for the §6.3 variant).
    pub eviction: EvictionPolicy,
    /// Seed for the random-eviction PRNG (ignored under CLOCK).
    pub seed: u64,
    /// Number of migration chunks the key space is cut into (a power of
    /// two).  The top log₂(`migration_chunks`) bits of a bucket's index are
    /// its keys' chunk, so one chunk is a contiguous run of bucket lines and
    /// exporting it for live re-partitioning walks only those lines instead
    /// of scanning the whole table.  With fewer buckets than chunks one line
    /// holds several chunks, and the export filters the line by chunk.
    /// Must match the table's `migration_chunks`.
    pub migration_chunks: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            buckets: 1024,
            capacity_bytes: None,
            eviction: EvictionPolicy::Clock,
            seed: 0x1234_5678,
            migration_chunks: 64,
        }
    }
}

impl PartitionConfig {
    /// A config with the given bucket count and byte budget.
    pub fn new(buckets: usize, capacity_bytes: Option<usize>) -> Self {
        PartitionConfig {
            buckets,
            capacity_bytes,
            ..Default::default()
        }
    }

    /// Same config with a different eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Same config with a different migration-chunk count.
    pub fn with_migration_chunks(mut self, migration_chunks: usize) -> Self {
        self.migration_chunks = migration_chunks;
        self
    }
}

/// The first phase of a two-phase operation: the key plus its
/// already-computed bucket index.
///
/// [`Partition::prepare`] does the pure arithmetic (hashing) without
/// touching table memory; the caller may then issue a cache prefetch for
/// the bucket's line ([`Partition::prefetch_prepared`]) and finally
/// execute the operation with [`Partition::lookup_prepared`],
/// [`Partition::insert_prepared`] or [`Partition::delete_prepared`].  The
/// CPHash server loop stages whole batches this way so the DRAM misses of a
/// batch overlap instead of serializing.
///
/// A `BucketRef` is only meaningful on the partition that produced it;
/// results on any other partition are unspecified (but memory-safe).
#[derive(Debug, Clone, Copy)]
pub struct BucketRef {
    key: u64,
    bucket: usize,
    tag: u8,
}

impl BucketRef {
    /// The key this reference was prepared for.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The bucket index the key hashes to.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// The key's 8-bit tag, as stored in the bucket's inline cache line.
    pub fn tag(&self) -> u8 {
        self.tag
    }
}

/// Inline tagged entries per bucket cache line (7 on 64-byte lines: the
/// tags share the header word with the occupancy bitmap, and the refs plus
/// the overflow head fill 32 of the remaining 56 bytes).
pub const INLINE_SLOTS: usize =
    cphash_cacheline::packing::bucket_inline_slots(cphash_cacheline::CACHE_LINE_SIZE);

/// Occupancy bitmap with every inline slot taken.
const LINE_FULL: u8 = (1 << INLINE_SLOTS) - 1;

/// One bucket: a 64-byte-aligned line holding the bucket's first [`INLINE_SLOTS`] entries as (tag, element ref) pairs plus
/// the head of the overflow chain for entries past that.
///
/// Layout invariant: an inline slot is never free while the overflow chain
/// is non-empty — [`Partition::unlink`] promotes the chain head into a
/// freed slot — so a probe that misses every tag *and* sees a NIL overflow
/// head has proven the key absent without touching the element slab.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct BucketLine {
    /// 8-bit key tags of the occupied inline slots.
    tags: [u8; INLINE_SLOTS],
    /// Occupancy bitmap over the inline slots (bit `s` ⇒ slot `s` taken).
    used: u8,
    /// Element refs (slab indices) of the occupied inline slots.
    refs: [u32; INLINE_SLOTS],
    /// Head of the intrusive overflow chain (`NIL` when within capacity).
    overflow: u32,
}

// One bucket is exactly one naturally-aligned cache line, so a single
// prefetch covers all of it and two buckets never share a line.
const _: () = assert!(core::mem::size_of::<BucketLine>() == cphash_cacheline::CACHE_LINE_SIZE);
const _: () = assert!(core::mem::align_of::<BucketLine>() == cphash_cacheline::CACHE_LINE_SIZE);

impl BucketLine {
    const EMPTY: BucketLine = BucketLine {
        tags: [0; INLINE_SLOTS],
        used: 0,
        refs: [NIL; INLINE_SLOTS],
        overflow: NIL,
    };

    /// Lowest free inline slot, if any.
    fn free_slot(&self) -> Option<usize> {
        let free = !self.used & LINE_FULL;
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// The inline slot holding element `idx`, if it lives inline.
    fn slot_of_ref(&self, idx: u32) -> Option<usize> {
        (0..INLINE_SLOTS).find(|&s| self.used & (1 << s) != 0 && self.refs[s] == idx)
    }
}

/// What one bucket probe found and what it cost (see
/// [`Partition::probe_bucket`]).
struct ProbeOutcome {
    /// The matching element, if present.
    found: Option<u32>,
    /// Whether the match came from an inline slot.
    inline_hit: bool,
    /// Overflow-chain elements visited.
    overflow_probes: u64,
    /// Inline tag matches whose key comparison failed.
    tag_false_positives: u64,
}

/// A successful lookup: the element id (for the later `Decref`) and the
/// value — its bytes if the element holds them, else the handle through
/// which the caller may read them.
#[derive(Debug, Clone, Copy)]
pub struct LookupHit {
    /// Id to pass back to [`Partition::decref`] when done reading.
    pub id: ElementId,
    /// The value (a block handle is valid until the matching `decref`).
    pub value: StoredValue,
}

/// A successful insert reservation: space has been allocated and the element
/// linked in NOT-READY state; the caller copies the value bytes in —
/// through `value`, then [`Partition::mark_ready`], or with
/// [`Partition::fill_and_ready`] — to publish it.
#[derive(Debug, Clone, Copy)]
pub struct InsertReservation {
    /// Id to pass to [`Partition::mark_ready`] once the value is copied.
    pub id: ElementId,
    /// Handle the value bytes must be written through; `None` for a value
    /// of at most [`INLINE_VALUE_BYTES`] bytes, which lives in the element
    /// and only [`Partition::fill_and_ready`] can write.
    pub value: Option<ValueHandle>,
}

/// Result of a [`Partition::export_matching`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportOutcome {
    /// Matching elements were removed from the partition; each entry is a
    /// `(key, value bytes)` pair ready to be absorbed elsewhere.
    Extracted(Vec<(u64, Vec<u8>)>),
    /// Matching NOT-READY elements block the export; nothing was extracted.
    Pending {
        /// Number of in-flight inserts that must publish first.
        not_ready: usize,
    },
}

/// Why an insert could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The value is larger than the partition's entire byte budget.
    ValueTooLarge,
    /// Every remaining element is pinned by outstanding references, so
    /// nothing can be evicted to make room right now.
    OutOfMemory,
}

impl core::fmt::Display for InsertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InsertError::ValueTooLarge => f.write_str("value larger than partition capacity"),
            InsertError::OutOfMemory => f.write_str("partition full of referenced elements"),
        }
    }
}

impl std::error::Error for InsertError {}

/// A single-threaded hash-table partition (see the crate docs).
pub struct Partition {
    buckets: Vec<BucketLine>,
    /// The bucket index of a hash is its migration chunk shifted left by
    /// `chunk_shl` and right by `chunk_shr` (at most one of them non-zero:
    /// log₂ of buckets per chunk, or of chunks per bucket), or'd with the
    /// hash bits from 17 up under `low_mask`.
    migration_chunks: usize,
    chunk_shl: u32,
    chunk_shr: u32,
    low_mask: u64,
    slots: Vec<Slot>,
    free_head: u32,
    /// The slot the CLOCK hand inspects next (may equal `slots.len()`,
    /// which wraps to 0).
    hand: u32,
    /// Dense pool of linked element ids, maintained only under random
    /// eviction so victims can be drawn uniformly in O(1).
    random_pool: Vec<u32>,
    /// For each slot, its index in `random_pool` (meaningful while linked).
    /// Grown with `slots` under random eviction only; empty under CLOCK.
    pool_index: Vec<u32>,
    len: usize,
    eviction: EvictionPolicy,
    allocator: SlabAllocator,
    stats: PartitionStats,
    rng_state: u64,
}

impl Partition {
    /// Create an empty partition.
    pub fn new(config: PartitionConfig) -> Self {
        let buckets = config.buckets.next_power_of_two().max(1);
        assert!(
            config.migration_chunks.is_power_of_two()
                && config.migration_chunks <= MAX_MIGRATION_CHUNKS,
            "migration_chunks must be a power of two, at most {MAX_MIGRATION_CHUNKS}"
        );
        let alloc_config = SlabConfig {
            capacity_bytes: config.capacity_bytes,
            ..SlabConfig::default()
        };
        let (bucket_bits, chunk_bits) = (
            buckets.trailing_zeros(),
            config.migration_chunks.trailing_zeros(),
        );
        let chunk_shl = bucket_bits.saturating_sub(chunk_bits);
        Partition {
            buckets: vec![BucketLine::EMPTY; buckets],
            migration_chunks: config.migration_chunks,
            chunk_shl,
            chunk_shr: chunk_bits.saturating_sub(bucket_bits),
            low_mask: (1u64 << chunk_shl) - 1,
            slots: Vec::new(),
            free_head: NIL,
            hand: 0,
            random_pool: Vec::new(),
            pool_index: Vec::new(),
            len: 0,
            eviction: config.eviction,
            allocator: SlabAllocator::new(alloc_config),
            stats: PartitionStats::default(),
            rng_state: config.seed | 1,
        }
    }

    /// Number of elements currently linked into the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no element is linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of value storage currently allocated (including elements whose
    /// free has been deferred by outstanding references).
    pub fn bytes_in_use(&self) -> usize {
        self.allocator.bytes_in_use()
    }

    /// The partition's byte budget, if bounded.
    pub fn capacity_bytes(&self) -> Option<usize> {
        self.allocator.capacity()
    }

    /// Re-budget the partition at runtime: live re-partitioning re-splits
    /// the table's global byte budget over the new partition count.
    /// Lowering the budget evicts nothing immediately — the next insert
    /// evicts until it fits under the new budget.
    pub fn set_capacity_bytes(&mut self, capacity_bytes: Option<usize>) {
        self.allocator.set_capacity(capacity_bytes);
    }

    /// Number of migration chunks the bucket index is cut into.
    pub fn migration_chunks(&self) -> usize {
        self.migration_chunks
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Eviction policy in force.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Operation statistics.
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }

    /// Zero the operation statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    // ------------------------------------------------------------------
    // Core operations
    // ------------------------------------------------------------------

    /// Phase one of a two-phase operation: compute `key`'s bucket and tag
    /// without touching any table memory (see [`BucketRef`]).
    #[inline]
    pub fn prepare(&self, key: u64) -> BucketRef {
        let hash = hash64(key);
        BucketRef {
            key,
            bucket: self.bucket_of_hash(hash),
            tag: key_tag_from_hash(hash),
        }
    }

    /// Issue a software prefetch for the bucket line a prepared operation
    /// will probe.  The line's address is pure arithmetic, so the staging
    /// pass reads *no* table memory and never stalls — and that one line
    /// resolves the common case entirely: a tag miss rejects without
    /// touching the element slab, a tag hit goes straight to the element.
    #[inline]
    pub fn prefetch_prepared(&self, prep: &BucketRef) {
        cphash_cacheline::prefetch_read(&self.buckets[prep.bucket]);
    }

    /// Second staging pass: read the (prefetched) bucket line of a prepared
    /// operation and hint the element slot behind every tag that matches —
    /// both lines of a slot that straddles two — so the probe's second
    /// dependent miss overlaps with the rest of the batch too.  Decides
    /// nothing: execution probes the line again.
    #[inline]
    pub fn prefetch_element(&self, prep: &BucketRef) {
        let line = &self.buckets[prep.bucket];
        // Which slot matches is as good as random, so the tags are compared
        // without branching on any of them; the loop over the matches then
        // runs once for a resident key and not at all for most absent ones.
        let mut matches = 0u8;
        for s in 0..INLINE_SLOTS {
            matches |= u8::from(line.tags[s] == prep.tag) << s;
        }
        matches &= line.used;
        while matches != 0 {
            let s = matches.trailing_zeros() as usize;
            matches &= matches - 1;
            // A ref in a live line is a slot index; `get` keeps a hint
            // from ever being a panic path.
            if let Some(slot) = self.slots.get(line.refs[s] as usize) {
                let first = slot as *const Slot as *const u8;
                cphash_cacheline::prefetch_read(first);
                cphash_cacheline::prefetch_read(
                    first.wrapping_add(core::mem::size_of::<Slot>() - 1),
                );
            }
        }
    }

    /// Look up `key`.  On a hit the element's reference count is
    /// incremented; the caller must eventually call [`Partition::decref`]
    /// with the returned id (this is the `Decref` message of the CPHash
    /// protocol).  The hit sets the element's CLOCK reference bit.
    pub fn lookup(&mut self, key: u64) -> Option<LookupHit> {
        self.lookup_prepared(self.prepare(key))
    }

    /// Execute phase of a prepared lookup (see [`BucketRef`]).  Identical
    /// semantics to [`Partition::lookup`] with the hash precomputed.
    pub fn lookup_prepared(&mut self, prep: BucketRef) -> Option<LookupHit> {
        self.stats.lookups += 1;
        let idx = self.find_in_bucket(prep.key, prep.bucket, prep.tag)?;
        let e = self.slots[idx as usize].element_mut();
        if e.state != ElementState::Ready {
            // NOT-READY elements are invisible to lookups (§3.2).
            return None;
        }
        // The pin writes the element's line anyway; the reference bit rides
        // along, stored only when it changes.
        if !e.referenced {
            e.referenced = true;
        }
        e.refcount += 1;
        self.stats.hits += 1;
        Some(LookupHit {
            id: ElementId(idx),
            value: e.value(),
        })
    }

    /// Check whether a READY element with `key` is present, without touching
    /// reference counts or the reference bit.
    pub fn contains(&self, key: u64) -> bool {
        self.find_linked(key)
            .map(|idx| self.slots[idx as usize].element().state == ElementState::Ready)
            .unwrap_or(false)
    }

    /// Reserve space for inserting `key` with a `size`-byte value.
    ///
    /// Mirrors the paper's INSERT path (§3.2): any existing element with the
    /// same key is removed first (so the table never holds duplicate keys),
    /// then memory is allocated — evicting victims as needed — and the new
    /// element is linked in NOT-READY state.  The caller copies the value
    /// through the returned handle and then calls [`Partition::mark_ready`].
    ///
    /// A value of at most [`INLINE_VALUE_BYTES`] bytes takes no block: it
    /// lives in the element.  The byte budget is charged what its block
    /// would have cost, so eviction happens exactly where it would have.
    pub fn insert(&mut self, key: u64, size: usize) -> Result<InsertReservation, InsertError> {
        self.insert_prepared(self.prepare(key), size)
    }

    /// Execute phase of a prepared insert (see [`BucketRef`]).  Identical
    /// semantics to [`Partition::insert`] with the hash precomputed.
    pub fn insert_prepared(
        &mut self,
        prep: BucketRef,
        size: usize,
    ) -> Result<InsertReservation, InsertError> {
        let (idx, value) = self.link_new(prep, size, None)?;
        Ok(InsertReservation {
            id: ElementId(idx),
            value: match value {
                StoredValue::Block(handle) => Some(handle),
                StoredValue::Inline(_) => None,
            },
        })
    }

    /// Insert a value short enough to live in the element, READY at once:
    /// there are no bytes left to copy, so the element never exists in
    /// NOT-READY state.  Replacement, eviction and the budget are exactly
    /// [`Partition::insert_prepared`]'s.
    pub fn insert_inline_prepared(
        &mut self,
        prep: BucketRef,
        value: InlineValue,
    ) -> Result<(), InsertError> {
        self.link_new(prep, value.len(), Some(value)).map(|_| ())
    }

    /// The body of every insert: make room for `size` bytes and link a new
    /// element for the key — NOT-READY and holding the inserter's
    /// reference, or, given the bytes of an inline value, READY.
    fn link_new(
        &mut self,
        prep: BucketRef,
        size: usize,
        ready: Option<InlineValue>,
    ) -> Result<(u32, StoredValue), InsertError> {
        let key = prep.key;
        self.stats.inserts += 1;
        // A value no amount of eviction makes room for is refused before it
        // costs the partition anything: the key's old value and every other
        // element stay.
        if !self.allocator.could_ever_fit(size) {
            self.stats.failed_inserts += 1;
            return Err(InsertError::ValueTooLarge);
        }
        // Remove any existing element with this key to avoid duplicates.
        if let Some(existing) = self.find_in_bucket(key, prep.bucket, prep.tag) {
            self.unlink(existing);
            self.stats.replacements += 1;
        }

        // Allocate, evicting until the value fits (or nothing is left to
        // evict).
        let value = loop {
            let stored = if size <= INLINE_VALUE_BYTES {
                self.allocator
                    .charge(size)
                    .then(|| StoredValue::Inline(ready.unwrap_or(InlineValue::from_word(0, size))))
            } else {
                self.allocator.allocate(size).map(StoredValue::Block)
            };
            match stored {
                Some(v) => break v,
                None => {
                    if !self.evict_one() {
                        self.stats.failed_inserts += 1;
                        return Err(InsertError::OutOfMemory);
                    }
                }
            }
        };

        let mut element = Element::new(key, value);
        if ready.is_some() {
            element.state = ElementState::Ready;
        } else {
            // The new element holds one reference on behalf of the inserting
            // client until `mark_ready` releases it, so it cannot be freed
            // out from under the client while the value bytes are being
            // copied.
            element.refcount = 1;
        }
        let idx = self.alloc_slot(element);
        self.link_into_bucket(idx, prep.bucket, prep.tag);
        self.link_into_pool(idx);
        self.len += 1;
        Ok((idx, value))
    }

    /// Publish an element inserted via [`Partition::insert`]: mark the value
    /// READY (visible to lookups) and release the insertion reference.
    pub fn mark_ready(&mut self, id: ElementId) {
        let e = self.slots[id.0 as usize].element_mut();
        assert_eq!(
            e.state,
            ElementState::NotReady,
            "mark_ready on a READY element"
        );
        e.state = ElementState::Ready;
        self.decref(id);
    }

    /// Release one reference on an element (the CPHash `Decref` message).
    /// Frees the element's memory if it has been unlinked and this was the
    /// last reference.
    pub fn decref(&mut self, id: ElementId) {
        let e = self.slots[id.0 as usize].element_mut();
        assert!(e.refcount > 0, "decref without a matching reference");
        e.refcount -= 1;
        if e.refcount == 0 && !e.linked {
            self.release_slot(id.0);
        }
    }

    /// Remove `key` from the table. Returns `true` if an element was
    /// removed. Memory is freed immediately unless references are
    /// outstanding, in which case the free is deferred to the last
    /// [`Partition::decref`].
    pub fn delete(&mut self, key: u64) -> bool {
        self.delete_prepared(self.prepare(key))
    }

    /// Execute phase of a prepared delete (see [`BucketRef`]).  Identical
    /// semantics to [`Partition::delete`] with the hash precomputed.
    pub fn delete_prepared(&mut self, prep: BucketRef) -> bool {
        match self.find_in_bucket(prep.key, prep.bucket, prep.tag) {
            Some(idx) => {
                self.unlink(idx);
                self.stats.deletes += 1;
                true
            }
            None => false,
        }
    }

    /// Evict one element according to the eviction policy. Returns `false`
    /// when nothing is left to evict.  A victim that clients still hold
    /// references to is unlinked and its free deferred, as any unlink's.
    pub fn evict_one(&mut self) -> bool {
        let victim = match self.eviction {
            EvictionPolicy::Clock => self.clock_victim(),
            EvictionPolicy::Random => self.random_victim(),
        };
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        self.stats.evictions += 1;
        true
    }

    // ------------------------------------------------------------------
    // Safe value access helpers (used by LockHash, tests and the servers)
    // ------------------------------------------------------------------

    /// Copy `data` into a NOT-READY reservation and publish it.
    ///
    /// Safe because NOT-READY elements are invisible to lookups, so the only
    /// handle to the bytes is the reservation the caller got from
    /// [`Partition::insert`], and `&mut self` proves no other thread is
    /// inside this partition.
    pub fn fill_and_ready(&mut self, id: ElementId, data: &[u8]) {
        let e = self.slots[id.0 as usize].element_mut();
        assert_eq!(
            e.state,
            ElementState::NotReady,
            "fill_and_ready on a READY element"
        );
        match e.value() {
            StoredValue::Block(handle) => {
                assert!(data.len() <= handle.len(), "value larger than reservation");
                // SAFETY: see doc comment — the element is NOT-READY so no
                // reader holds the handle, and the partition is exclusively
                // borrowed.
                unsafe { handle.copy_from(data) };
            }
            StoredValue::Inline(_) => e.fill_inline(data),
        }
        self.mark_ready(id);
    }

    /// Copy the value of a previously looked-up element into `out`.
    ///
    /// Safe because the caller's [`LookupHit`] holds a reference (the
    /// element cannot have been freed) and READY values are never written
    /// again (§3.2's protocol only writes values before `Ready`).
    ///
    /// A hit on a value that lives in its element carries the bytes itself:
    /// they are copied from the hit and the element is not touched.
    pub fn read_value(&self, hit: &LookupHit, out: &mut Vec<u8>) {
        let value = match hit.value {
            inline @ StoredValue::Inline(_) => inline,
            StoredValue::Block(_) => {
                let e = self.slots[hit.id.0 as usize].element();
                assert!(e.refcount > 0, "read_value without a live reference");
                e.value()
            }
        };
        out.clear();
        // SAFETY: see doc comment.
        out.extend_from_slice(unsafe { value.as_slice() });
    }

    /// Convenience for lock-based callers: look up `key`, copy its value
    /// into `out`, and release the reference before returning.
    /// Returns `true` on a hit.
    pub fn lookup_copy(&mut self, key: u64, out: &mut Vec<u8>) -> bool {
        match self.lookup(key) {
            Some(hit) => {
                self.read_value(&hit, out);
                self.decref(hit.id);
                true
            }
            None => false,
        }
    }

    /// Convenience for lock-based callers: insert `key` with `value` bytes,
    /// copying and publishing in one step.
    pub fn insert_copy(&mut self, key: u64, value: &[u8]) -> Result<(), InsertError> {
        let prep = self.prepare(key);
        match InlineValue::new(value) {
            Some(inline) => self.insert_inline_prepared(prep, inline),
            None => {
                let reservation = self.insert_prepared(prep, value.len())?;
                self.fill_and_ready(reservation.id, value);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Live-migration support (export / absorb)
    // ------------------------------------------------------------------

    /// Extract every linked element whose key matches `leaving`, removing it
    /// from this partition and returning `(key, value bytes)` pairs.
    ///
    /// This is the server-side primitive behind online repartitioning: the
    /// owning server thread exports the keys that a new partition layout
    /// assigns elsewhere, and the destination absorbs them with
    /// [`Partition::absorb`].  Prefer [`Partition::export_chunk`] when the
    /// leaving set is confined to one migration chunk — this variant scans
    /// every slot.
    ///
    /// Elements still in NOT-READY state (an insert whose value copy is in
    /// flight) cannot be exported — their bytes are not yet valid — so if any
    /// matching element is NOT-READY, *nothing* is extracted and
    /// [`ExportOutcome::Pending`] reports how many inserts must finish first.
    /// The caller retries once the outstanding `Ready` messages have been
    /// processed, which keeps the export atomic per chunk.
    pub fn export_matching(&mut self, leaving: impl Fn(u64) -> bool) -> ExportOutcome {
        let (matching, not_ready) = self.gather_scan(&leaving);
        self.export_gathered(matching, not_ready, false)
    }

    /// Extract the linked elements of one migration chunk whose keys match
    /// `leaving`, walking only the chunk's run of bucket lines (see
    /// [`PartitionConfig::migration_chunks`]), never the rest of the table.
    /// Semantics (NOT-READY deferral included) are identical to filtering
    /// [`Partition::export_matching`] by the chunk, which debug builds
    /// assert by cross-checking against the scan path.
    pub fn export_chunk(&mut self, chunk: usize, leaving: impl Fn(u64) -> bool) -> ExportOutcome {
        let (matching, not_ready) = self.gather_chunk(chunk, &leaving);
        #[cfg(debug_assertions)]
        self.cross_check_chunk_gather(chunk, &leaving, &matching, not_ready);
        self.export_gathered(matching, not_ready, false)
    }

    /// Like [`Partition::export_matching`], but matching NOT-READY elements
    /// are *dropped from the export* instead of deferring it.
    ///
    /// Only correct when the reservations can no longer publish — e.g. every
    /// client endpoint is gone during shutdown — otherwise a concurrent
    /// insert's key would be silently stranded on the old owner.
    pub fn export_matching_abandoning_reservations(
        &mut self,
        leaving: impl Fn(u64) -> bool,
    ) -> Vec<(u64, Vec<u8>)> {
        let (matching, not_ready) = self.gather_scan(&leaving);
        match self.export_gathered(matching, not_ready, true) {
            ExportOutcome::Extracted(entries) => entries,
            ExportOutcome::Pending { .. } => unreachable!("forced export never defers"),
        }
    }

    /// Like [`Partition::export_chunk`], but matching NOT-READY elements are
    /// *dropped from the export* instead of deferring it (shutdown path; see
    /// [`Partition::export_matching_abandoning_reservations`]).
    pub fn export_chunk_abandoning_reservations(
        &mut self,
        chunk: usize,
        leaving: impl Fn(u64) -> bool,
    ) -> Vec<(u64, Vec<u8>)> {
        let (matching, not_ready) = self.gather_chunk(chunk, &leaving);
        #[cfg(debug_assertions)]
        self.cross_check_chunk_gather(chunk, &leaving, &matching, not_ready);
        match self.export_gathered(matching, not_ready, true) {
            ExportOutcome::Extracted(entries) => entries,
            ExportOutcome::Pending { .. } => unreachable!("forced export never defers"),
        }
    }

    /// Collect the export candidates by scanning every slot (whole-table
    /// exports, and the reference the chunk walk is cross-checked against).
    fn gather_scan(&mut self, leaving: &impl Fn(u64) -> bool) -> (Vec<u32>, usize) {
        self.stats.full_export_scans += 1;
        let mut matching: Vec<u32> = Vec::new();
        let mut not_ready = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            self.stats.export_elements_visited += 1;
            if let Slot::Occupied(e) = slot {
                if e.linked && leaving(e.key) {
                    if e.state == ElementState::Ready {
                        matching.push(idx as u32);
                    } else {
                        not_ready += 1;
                    }
                }
            }
        }
        (matching, not_ready)
    }

    /// Collect the export candidates by walking one chunk's bucket lines:
    /// their inline refs, then their overflow chains.
    fn gather_chunk(&mut self, chunk: usize, leaving: &impl Fn(u64) -> bool) -> (Vec<u32>, usize) {
        assert!(chunk < self.migration_chunks, "no migration chunk {chunk}");
        // Lines shared by several chunks hold other chunks' keys too.
        let shared = self.chunk_shr > 0;
        let first = (chunk << self.chunk_shl) >> self.chunk_shr;
        let lines = &self.buckets[first..first + (1 << self.chunk_shl)];
        let mut matching: Vec<u32> = Vec::new();
        let (mut not_ready, mut visited) = (0usize, 0u64);
        for line in lines {
            let inline = (0..INLINE_SLOTS)
                .filter(|s| line.used & (1 << s) != 0)
                .map(|s| line.refs[s]);
            let linked = |idx: u32| (idx != NIL).then_some(idx);
            let chain = core::iter::successors(linked(line.overflow), |&idx| {
                linked(self.slots[idx as usize].element().bucket_next)
            });
            for idx in inline.chain(chain) {
                visited += 1;
                let e = self.slots[idx as usize].element();
                if shared && migration_chunk(e.key, self.migration_chunks) != chunk {
                    continue;
                }
                if leaving(e.key) {
                    if e.state == ElementState::Ready {
                        matching.push(idx);
                    } else {
                        not_ready += 1;
                    }
                }
            }
        }
        self.stats.export_elements_visited += visited;
        (matching, not_ready)
    }

    /// Debug-build cross-check: the walk of a chunk's lines must select
    /// exactly the candidates a full-table scan restricted to the chunk
    /// would.
    #[cfg(debug_assertions)]
    fn cross_check_chunk_gather(
        &self,
        chunk: usize,
        leaving: &impl Fn(u64) -> bool,
        matching: &[u32],
        not_ready: usize,
    ) {
        let chunks = self.migration_chunks;
        let mut scan_matching: Vec<u32> = Vec::new();
        let mut scan_not_ready = 0usize;
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Slot::Occupied(e) = slot {
                if e.linked && migration_chunk(e.key, chunks) == chunk && leaving(e.key) {
                    if e.state == ElementState::Ready {
                        scan_matching.push(idx as u32);
                    } else {
                        scan_not_ready += 1;
                    }
                }
            }
        }
        let mut indexed: Vec<u32> = matching.to_vec();
        indexed.sort_unstable();
        scan_matching.sort_unstable();
        assert_eq!(
            indexed, scan_matching,
            "chunk walk selected a different export set than the full scan"
        );
        assert_eq!(
            not_ready, scan_not_ready,
            "chunk walk disagrees with the full scan about NOT-READY blockers"
        );
    }

    /// Extract a gathered candidate set (shared tail of both export paths).
    fn export_gathered(
        &mut self,
        matching: Vec<u32>,
        not_ready: usize,
        force: bool,
    ) -> ExportOutcome {
        if not_ready > 0 && !force {
            return ExportOutcome::Pending { not_ready };
        }
        let mut entries = Vec::with_capacity(matching.len());
        for idx in matching {
            let e = self.slots[idx as usize].element();
            // SAFETY: the element is READY and this partition is exclusively
            // borrowed, so the value bytes are fully written and stable (the
            // protocol never writes a READY value again).
            let bytes = unsafe { e.value().as_slice() }.to_vec();
            entries.push((e.key, bytes));
            self.unlink(idx);
            self.stats.exported += 1;
        }
        ExportOutcome::Extracted(entries)
    }

    /// Count of linked elements whose key matches `pred` (migration
    /// accounting and tests).
    pub fn count_matching(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.slots
            .iter()
            .filter(|slot| matches!(slot, Slot::Occupied(e) if e.linked && pred(e.key)))
            .count()
    }

    /// Insert a migrated element, copying and publishing in one step.
    /// Replace semantics match [`Partition::insert_copy`]; the `absorbed`
    /// counter records the migration.
    pub fn absorb(&mut self, key: u64, value: &[u8]) -> Result<(), InsertError> {
        self.insert_copy(key, value)?;
        self.stats.absorbed += 1;
        Ok(())
    }

    /// The keys of all READY elements, in slot order (test/debug helper).
    pub fn keys(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.len);
        for slot in &self.slots {
            if let Slot::Occupied(e) = slot {
                if e.linked && e.state == ElementState::Ready {
                    keys.push(e.key);
                }
            }
        }
        keys
    }

    /// Verify every internal invariant; used by tests and debug assertions.
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        // Every bucket (inline slots + chain) is consistent and contains
        // only linked elements hashed to that bucket — which, the chunk
        // being the top of the bucket index, files each under its chunk.
        let mut linked_seen = 0usize;
        for (b, line) in self.buckets.iter().enumerate() {
            for s in 0..INLINE_SLOTS {
                if line.used & (1 << s) == 0 {
                    continue;
                }
                let e = self.slots[line.refs[s] as usize].element();
                assert!(e.linked, "unlinked element in inline slot");
                assert_eq!(self.bucket_of(e.key), b, "element hashed to wrong bucket");
                assert_eq!(line.tags[s], key_tag(e.key), "stale inline tag");
                assert_eq!(e.bucket_prev, NIL, "inline resident with chain links");
                assert_eq!(e.bucket_next, NIL, "inline resident with chain links");
                linked_seen += 1;
            }
            if line.overflow != NIL {
                assert_eq!(
                    line.used, LINE_FULL,
                    "free inline slot with a non-empty overflow chain"
                );
            }
            linked_seen += self.check_chain(line.overflow, b);
        }
        assert_eq!(linked_seen, self.len, "len does not match bucket contents");

        // The byte budget counts every value still held — linked, or
        // unlinked with its free deferred — at what its block costs, whether
        // or not it took one.
        let held: usize = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Occupied(e) => match e.value() {
                    StoredValue::Block(handle) => handle.block_bytes(),
                    StoredValue::Inline(value) => SlabAllocator::block_bytes_for(value.len()),
                },
                Slot::Free { .. } => 0,
            })
            .sum();
        assert_eq!(
            held,
            self.bytes_in_use(),
            "bytes_in_use does not match the elements' values"
        );

        assert!(
            self.hand as usize <= self.slots.len(),
            "CLOCK hand past the slots"
        );
        if self.eviction == EvictionPolicy::Random {
            assert_eq!(
                self.pool_index.len(),
                self.slots.len(),
                "pool back-index does not cover the slots"
            );
            assert_eq!(
                self.random_pool.len(),
                self.len,
                "random pool length mismatch"
            );
            for (i, &idx) in self.random_pool.iter().enumerate() {
                assert_eq!(
                    self.pool_index[idx as usize] as usize, i,
                    "pool back-index broken"
                );
                assert!(self.slots[idx as usize].element().linked);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Walk one bucket's overflow chain asserting its invariants; returns
    /// the number of elements on it.
    fn check_chain(&self, head: u32, bucket: usize) -> usize {
        let mut seen = 0usize;
        let mut cur = head;
        let mut prev = NIL;
        while cur != NIL {
            let e = self.slots[cur as usize].element();
            assert!(e.linked, "unlinked element in bucket chain");
            assert_eq!(e.bucket_prev, prev, "broken bucket back-pointer");
            assert_eq!(
                self.bucket_of(e.key),
                bucket,
                "element hashed to wrong bucket"
            );
            seen += 1;
            prev = cur;
            cur = e.bucket_next;
        }
        seen
    }

    /// The bucket of a key with this hash: its migration chunk on top,
    /// hash bits 17 and up below (see [`PartitionConfig::migration_chunks`]).
    #[inline]
    fn bucket_of_hash(&self, hash: u64) -> usize {
        let chunk = chunk_from_hash(hash, self.migration_chunks) as u64;
        (((chunk << self.chunk_shl) >> self.chunk_shr) | ((hash >> 17) & self.low_mask)) as usize
    }

    fn bucket_of(&self, key: u64) -> usize {
        self.bucket_of_hash(hash64(key))
    }

    fn find_linked(&self, key: u64) -> Option<u32> {
        let prep = self.prepare(key);
        self.probe_bucket(key, prep.bucket, prep.tag).found
    }

    /// Probe one bucket for `key` without touching statistics (shared by
    /// the read-only paths and [`Partition::find_in_bucket`]).
    fn probe_bucket(&self, key: u64, bucket: usize, tag: u8) -> ProbeOutcome {
        let line = &self.buckets[bucket];
        let mut tag_false_positives = 0u64;
        for s in 0..INLINE_SLOTS {
            if line.used & (1 << s) != 0 && line.tags[s] == tag {
                let idx = line.refs[s];
                if self.slots[idx as usize].element().key == key {
                    return ProbeOutcome {
                        found: Some(idx),
                        inline_hit: true,
                        overflow_probes: 0,
                        tag_false_positives,
                    };
                }
                tag_false_positives += 1;
            }
        }
        let mut overflow_probes = 0u64;
        let mut cur = line.overflow;
        while cur != NIL {
            overflow_probes += 1;
            let e = self.slots[cur as usize].element();
            if e.key == key {
                return ProbeOutcome {
                    found: Some(cur),
                    inline_hit: false,
                    overflow_probes,
                    tag_false_positives,
                };
            }
            cur = e.bucket_next;
        }
        ProbeOutcome {
            found: None,
            inline_hit: false,
            overflow_probes,
            tag_false_positives,
        }
    }

    /// Probe one bucket for `key`, recording the probe-cost counters
    /// (inline hits, overflow hops, tag false positives).
    fn find_in_bucket(&mut self, key: u64, bucket: usize, tag: u8) -> Option<u32> {
        let probe = self.probe_bucket(key, bucket, tag);
        self.stats.overflow_probes += probe.overflow_probes;
        self.stats.tag_false_positives += probe.tag_false_positives;
        if probe.inline_hit {
            self.stats.inline_hits += 1;
        }
        probe.found
    }

    fn alloc_slot(&mut self, element: Element) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let next = match &self.slots[idx as usize] {
                Slot::Free { next_free } => *next_free,
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next;
            self.slots[idx as usize] = Slot::Occupied(element);
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "partition slot space exhausted");
            self.slots.push(Slot::Occupied(element));
            if self.eviction == EvictionPolicy::Random {
                self.pool_index.push(NIL);
            }
            idx
        }
    }

    /// Free an element slot and its value memory. The element must already
    /// be unlinked and unreferenced.
    fn release_slot(&mut self, idx: u32) {
        let value = {
            let e = self.slots[idx as usize].element();
            debug_assert!(!e.linked);
            debug_assert_eq!(e.refcount, 0);
            e.value()
        };
        self.free_value(value);
        self.slots[idx as usize] = Slot::Free {
            next_free: self.free_head,
        };
        self.free_head = idx;
    }

    /// Give back what an element's value holds of the byte budget.
    fn free_value(&mut self, value: StoredValue) {
        match value {
            StoredValue::Block(handle) => self.allocator.free(handle),
            StoredValue::Inline(value) => self.allocator.uncharge(value.len()),
        }
    }

    fn link_into_bucket(&mut self, idx: u32, bucket: usize, tag: u8) {
        {
            let e = self.slots[idx as usize].element_mut();
            e.bucket_next = NIL;
            e.bucket_prev = NIL;
        }
        let line = &mut self.buckets[bucket];
        if let Some(s) = line.free_slot() {
            // Inline residents sit in the line itself; their chain pointers
            // stay NIL.
            line.used |= 1 << s;
            line.tags[s] = tag;
            line.refs[s] = idx;
        } else {
            let head = line.overflow;
            self.slots[idx as usize].element_mut().bucket_next = head;
            if head != NIL {
                self.slots[head as usize].element_mut().bucket_prev = idx;
            }
            line.overflow = idx;
        }
    }

    fn unlink_from_bucket(&mut self, idx: u32, bucket: usize) {
        let (prev, next) = {
            let e = self.slots[idx as usize].element();
            (e.bucket_prev, e.bucket_next)
        };
        let line = &mut self.buckets[bucket];
        if let Some(s) = line.slot_of_ref(idx) {
            debug_assert!(
                prev == NIL && next == NIL,
                "inline resident with chain links"
            );
            line.used &= !(1 << s);
            // Keep the layout invariant: no inline slot stays free while the
            // overflow chain is non-empty — promote the chain head into the
            // freed slot.
            let promoted = line.overflow;
            if promoted != NIL {
                let promoted_next = self.slots[promoted as usize].element().bucket_next;
                line.overflow = promoted_next;
                if promoted_next != NIL {
                    self.slots[promoted_next as usize].element_mut().bucket_prev = NIL;
                }
                let promoted_key = {
                    let e = self.slots[promoted as usize].element_mut();
                    e.bucket_next = NIL;
                    e.bucket_prev = NIL;
                    e.key
                };
                line.used |= 1 << s;
                line.tags[s] = key_tag(promoted_key);
                line.refs[s] = promoted;
            }
        } else {
            if prev != NIL {
                self.slots[prev as usize].element_mut().bucket_next = next;
            } else {
                line.overflow = next;
            }
            if next != NIL {
                self.slots[next as usize].element_mut().bucket_prev = prev;
            }
        }
        let e = self.slots[idx as usize].element_mut();
        e.bucket_next = NIL;
        e.bucket_prev = NIL;
    }

    /// File a newly linked element in the random-eviction pool (CLOCK needs
    /// no structure: its hand walks the slots).
    fn link_into_pool(&mut self, idx: u32) {
        if self.eviction == EvictionPolicy::Random {
            self.pool_index[idx as usize] = self.random_pool.len() as u32;
            self.random_pool.push(idx);
        }
    }

    fn unlink_from_pool(&mut self, idx: u32) {
        if self.eviction == EvictionPolicy::Random {
            let pool_idx = self.pool_index[idx as usize] as usize;
            let last = *self.random_pool.last().expect("pool not empty");
            self.random_pool.swap_remove(pool_idx);
            if last != idx {
                self.pool_index[last as usize] = pool_idx as u32;
            }
            self.pool_index[idx as usize] = NIL;
        }
    }

    /// Unlink an element from the table (bucket + random pool).  Frees it
    /// immediately if unreferenced, otherwise defers.
    fn unlink(&mut self, idx: u32) {
        // The element does not store where it is filed; its key says.
        let bucket = self.bucket_of(self.slots[idx as usize].element().key);
        self.unlink_from_bucket(idx, bucket);
        self.unlink_from_pool(idx);
        self.len -= 1;
        let refcount = {
            let e = self.slots[idx as usize].element_mut();
            e.linked = false;
            e.refcount
        };
        if refcount == 0 {
            self.release_slot(idx);
        } else {
            self.stats.deferred_frees += 1;
        }
    }

    /// Advance the CLOCK hand to the next linked element whose reference
    /// bit is clear, clearing the set bits it passes, and return it (`NIL`
    /// when nothing is linked).  Free slots and unlinked ones (frees
    /// deferred by outstanding references) are skipped.  One sweep clears
    /// every bit it does not stop at, so two sweeps always find a victim.
    /// Runs only when an insert is over budget.
    fn clock_victim(&mut self) -> u32 {
        if self.len == 0 {
            return NIL;
        }
        let slots = self.slots.len() as u32;
        for _ in 0..=2 * slots {
            if self.hand >= slots {
                self.hand = 0;
            }
            let idx = self.hand;
            self.hand += 1;
            if let Slot::Occupied(e) = &mut self.slots[idx as usize] {
                if e.linked {
                    if !e.referenced {
                        return idx;
                    }
                    e.referenced = false;
                }
            }
        }
        unreachable!("{} linked elements, none in {slots} slots", self.len)
    }

    fn random_victim(&mut self) -> u32 {
        if self.random_pool.is_empty() {
            return NIL;
        }
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.random_pool[(r % self.random_pool.len() as u64) as usize]
    }
}

impl Drop for Partition {
    fn drop(&mut self) {
        // Return every outstanding value to the allocator (including
        // deferred-free elements still pinned by references — at partition
        // teardown those references are by definition dead).
        for slot in core::mem::take(&mut self.slots) {
            if let Slot::Occupied(e) = slot {
                self.free_value(e.value());
            }
        }
    }
}

impl core::fmt::Debug for Partition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Partition")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("bytes_in_use", &self.bytes_in_use())
            .field("eviction", &self.eviction)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(capacity: Option<usize>) -> Partition {
        Partition::new(PartitionConfig::new(64, capacity))
    }

    #[test]
    fn insert_then_lookup_round_trip() {
        let mut p = small(None);
        let r = p.insert(7, 8).unwrap();
        p.fill_and_ready(r.id, &77u64.to_le_bytes());
        let hit = p.lookup(7).expect("key present");
        let mut buf = Vec::new();
        p.read_value(&hit, &mut buf);
        assert_eq!(buf, 77u64.to_le_bytes());
        p.decref(hit.id);
        assert_eq!(p.len(), 1);
        assert!(p.contains(7));
        assert!(!p.contains(8));
        p.check_invariants();
    }

    #[test]
    fn not_ready_elements_are_invisible() {
        let mut p = small(None);
        let r = p.insert(1, 8).unwrap();
        assert!(
            p.lookup(1).is_none(),
            "NOT-READY element must not be returned"
        );
        assert!(!p.contains(1));
        p.fill_and_ready(r.id, &[1; 8]);
        let first = p.lookup(1).expect("READY element is visible");
        let second = p.lookup(1).expect("repeat lookup also hits");
        p.decref(first.id);
        p.decref(second.id);
        p.check_invariants();
    }

    #[test]
    fn duplicate_insert_replaces_old_value() {
        let mut p = small(None);
        p.insert_copy(5, &1u64.to_le_bytes()).unwrap();
        p.insert_copy(5, &2u64.to_le_bytes()).unwrap();
        assert_eq!(p.len(), 1);
        let mut buf = Vec::new();
        assert!(p.lookup_copy(5, &mut buf));
        assert_eq!(buf, 2u64.to_le_bytes());
        assert_eq!(p.stats().replacements, 1);
        p.check_invariants();
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut p = small(None);
        p.insert_copy(9, &[0; 16]).unwrap();
        assert!(p.delete(9));
        assert!(!p.delete(9));
        assert!(!p.contains(9));
        assert_eq!(p.len(), 0);
        assert_eq!(p.bytes_in_use(), 0, "memory reclaimed on delete");
        p.check_invariants();
    }

    #[test]
    fn clock_eviction_gives_a_referenced_key_a_second_chance() {
        // Capacity of exactly 4 × 8-byte values, in slots 0..4.
        let mut p = small(Some(32));
        for key in 0..4u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(p.len(), 4);
        // A hit sets key 0's reference bit.
        let mut buf = Vec::new();
        assert!(p.lookup_copy(0, &mut buf));
        // Inserting a 5th value: the hand clears key 0's bit and evicts
        // key 1, the first key it finds unreferenced.
        p.insert_copy(100, &[9; 8]).unwrap();
        assert!(p.contains(0), "referenced key survives");
        assert!(!p.contains(1), "CLOCK victim evicted");
        assert!(p.contains(2) && p.contains(3) && p.contains(100));
        assert_eq!(p.stats().evictions, 1);
        p.check_invariants();
    }

    #[test]
    fn inline_values_take_no_block_but_the_budget_counts_them() {
        // The same 4 × 8-byte budget: the fifth insert evicts although no
        // value ever took a block.
        let mut p = small(Some(32));
        for key in 0..4u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(p.bytes_in_use(), 32);
        assert_eq!(p.allocator.stats().total_allocs, 0, "no block was taken");
        // Pin key 0 (which also sets its reference bit).
        let hit = p.lookup(0).unwrap();
        assert!(matches!(hit.value, StoredValue::Inline(v) if v.word() == 0 && v.len() == 8));
        p.insert_copy(100, &[9; 8]).unwrap();
        assert!(!p.contains(1), "CLOCK victim evicted");
        assert_eq!((p.stats().evictions, p.len()), (1, 4));
        // The hand cleared key 0's bit on its way to key 1, whose slot key
        // 100 took; it now points at 2, then 3, then 0 and 100.  The third
        // insert reaches the pinned key 0: unlinking it releases nothing, so
        // 100 goes as well.
        for key in 101..104u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
            p.check_invariants();
        }
        assert!(!p.contains(0) && !p.contains(100));
        assert_eq!((p.stats().deferred_frees, p.len()), (1, 3));
        assert_eq!(p.bytes_in_use(), 32, "the pinned value is still charged");
        let mut buf = Vec::new();
        p.read_value(&hit, &mut buf);
        assert_eq!(buf, 0u64.to_le_bytes());
        p.decref(hit.id);
        assert_eq!(p.bytes_in_use(), 24);
        for key in 101..104u64 {
            assert!(p.delete(key));
        }
        assert_eq!(p.bytes_in_use(), 0);
        p.check_invariants();
    }

    #[test]
    fn values_on_both_sides_of_the_inline_boundary_round_trip() {
        let mut p = small(None);
        let mut buf = Vec::new();
        for (key, len) in [0usize, 7, 8, 9].into_iter().enumerate() {
            let value: Vec<u8> = (0..len as u8).map(|b| !b).collect();
            let r = p.insert(key as u64, len).unwrap();
            assert_eq!(r.value.is_none(), len <= INLINE_VALUE_BYTES);
            p.fill_and_ready(r.id, &value);
            let hit = p.lookup(key as u64).unwrap();
            assert_eq!(
                matches!(hit.value, StoredValue::Inline(_)),
                len <= INLINE_VALUE_BYTES
            );
            p.read_value(&hit, &mut buf);
            assert_eq!(buf, value, "length {len}");
            p.decref(hit.id);
        }
        // 0, 7 and 8 bytes are charged an 8-byte block each, 9 bytes its 16.
        assert_eq!(p.bytes_in_use(), 3 * 8 + 16);
        // Replacing across the boundary, both ways, on one key.
        for len in [8usize, 64, 8] {
            p.insert_copy(2, &vec![len as u8; len]).unwrap();
            assert!(p.lookup_copy(2, &mut buf));
            assert_eq!(buf, vec![len as u8; len]);
            p.check_invariants();
        }
        assert_eq!(p.bytes_in_use(), 3 * 8 + 16);
        for key in 0..4u64 {
            assert!(p.delete(key));
        }
        assert_eq!(p.bytes_in_use(), 0);
        p.check_invariants();
    }

    #[test]
    fn random_eviction_keeps_count_bounded() {
        let mut p = Partition::new(
            PartitionConfig::new(64, Some(64)).with_eviction(EvictionPolicy::Random),
        );
        for key in 0..100u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
            assert!(
                p.len() <= 8,
                "capacity 64 B / 8 B values = at most 8 elements"
            );
            p.check_invariants();
        }
        assert!(p.stats().evictions >= 92);
        assert_eq!(p.eviction_policy(), EvictionPolicy::Random);
    }

    #[test]
    fn deferred_free_protects_referenced_values() {
        let mut p = small(Some(16));
        p.insert_copy(1, &11u64.to_le_bytes()).unwrap();
        p.insert_copy(2, &22u64.to_le_bytes()).unwrap();
        // Hold a reference to key 1's value; both keys get their reference
        // bits set.
        let hit = p.lookup(1).unwrap();
        let mut buf = Vec::new();
        assert!(p.lookup_copy(2, &mut buf));
        // Inserting key 3: the hand clears both bits, then evicts key 1
        // (pinned → deferred) and key 2 (freed immediately).
        p.insert_copy(3, &[7; 8]).unwrap();
        assert!(!p.contains(1) && !p.contains(2));
        assert!(p.contains(3));
        // The referenced value's memory must still be intact.
        p.read_value(&hit, &mut buf);
        assert_eq!(buf, 11u64.to_le_bytes());
        assert_eq!(p.stats().deferred_frees, 1);
        // Dropping the reference releases the memory.
        let before = p.bytes_in_use();
        p.decref(hit.id);
        assert!(p.bytes_in_use() < before);
        p.check_invariants();
    }

    #[test]
    fn insert_fails_when_everything_is_pinned() {
        let mut p = small(Some(16));
        p.insert_copy(1, &[1; 8]).unwrap();
        p.insert_copy(2, &[2; 8]).unwrap();
        let _hold1 = p.lookup(1).unwrap();
        let _hold2 = p.lookup(2).unwrap();
        // Evicting the pinned elements unlinks them but releases no bytes,
        // so a big insert cannot succeed.
        let err = p.insert(3, 16).unwrap_err();
        assert_eq!(err, InsertError::OutOfMemory);
        assert_eq!(p.stats().failed_inserts, 1);
    }

    #[test]
    fn value_larger_than_capacity_is_rejected() {
        let mut p = small(Some(64));
        let err = p.insert(1, 1024).unwrap_err();
        assert_eq!(err, InsertError::ValueTooLarge);
        assert!(format!("{err}").contains("capacity"));
    }

    #[test]
    fn oversized_insert_leaves_the_partition_untouched() {
        let mut p = small(Some(64 * 1024));
        let mut key = 0u64;
        while p.stats().evictions == 0 {
            p.insert_copy(key, &[key as u8; 1024]).unwrap();
            key += 1;
        }
        let newest = key - 1;
        let (len, evictions, bytes) = (p.len(), p.stats().evictions, p.bytes_in_use());
        // 1 MiB can never fit a 64 KiB budget: the answer must not cost the
        // key's old value or anyone else's.
        let err = p.insert(newest, 1 << 20).unwrap_err();
        assert_eq!(err, InsertError::ValueTooLarge);
        assert_eq!(p.len(), len);
        assert_eq!(p.stats().evictions, evictions);
        assert_eq!(p.stats().replacements, 0);
        assert_eq!(p.stats().failed_inserts, 1);
        assert_eq!(p.bytes_in_use(), bytes);
        let mut buf = Vec::new();
        assert!(p.lookup_copy(newest, &mut buf), "old value survives");
        assert_eq!(buf, vec![newest as u8; 1024]);
        p.check_invariants();
    }

    #[test]
    fn value_length_past_32_bits_is_rejected_not_truncated() {
        // Unbounded, so only the handle's 32-bit length stands in the way;
        // refused before the allocator asks the system for 4 GiB.
        let mut p = small(None);
        p.insert_copy(1, &[1; 8]).unwrap();
        let too_long = cphash_alloc::MAX_VALUE_BYTES + 1;
        assert_eq!(
            p.insert(1, too_long).unwrap_err(),
            InsertError::ValueTooLarge
        );
        assert_eq!(
            p.insert(2, usize::MAX).unwrap_err(),
            InsertError::ValueTooLarge
        );
        assert!(p.contains(1) && !p.contains(2));
        assert_eq!(p.bytes_in_use(), 8);
        p.check_invariants();
    }

    #[test]
    fn pool_index_is_only_kept_under_random_eviction() {
        let mut clock = small(None);
        let mut random =
            Partition::new(PartitionConfig::new(64, None).with_eviction(EvictionPolicy::Random));
        for key in 0..100u64 {
            clock.insert_copy(key, &[0; 8]).unwrap();
            random.insert_copy(key, &[0; 8]).unwrap();
        }
        assert!(clock.pool_index.is_empty(), "CLOCK pays nothing per slot");
        assert_eq!(random.pool_index.len(), 100);
        clock.check_invariants();
        random.check_invariants();
    }

    #[test]
    fn unbounded_partition_never_evicts() {
        let mut p = small(None);
        for key in 0..1000u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(p.len(), 1000);
        assert_eq!(p.stats().evictions, 0);
        assert_eq!(p.capacity_bytes(), None);
        p.check_invariants();
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut p = small(None);
        p.insert_copy(1, &[0; 8]).unwrap();
        let mut buf = Vec::new();
        assert!(p.lookup_copy(1, &mut buf));
        assert!(!p.lookup_copy(2, &mut buf));
        let s = p.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        p.reset_stats();
        assert_eq!(p.stats().lookups, 0);
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut p = small(None);
        for round in 0..10 {
            for key in 0..50u64 {
                p.insert_copy(key + round * 1000, &[0; 8]).unwrap();
            }
            for key in 0..50u64 {
                assert!(p.delete(key + round * 1000));
            }
        }
        assert!(p.is_empty());
        p.check_invariants();
    }

    #[test]
    fn evicting_a_not_ready_reservation_defers_until_ready() {
        let mut p = small(Some(16));
        // Reserve space for key 2 but do not fill it yet; it is in slot 0,
        // where the hand starts, and therefore the first CLOCK victim.
        let r = p.insert(2, 8).unwrap();
        p.insert_copy(1, &[1; 8]).unwrap();
        // Inserting key 3 forces eviction of the NOT-READY reservation
        // (whose memory is pinned by the insertion reference) and of key 1.
        p.insert_copy(3, &[3; 8]).unwrap();
        assert!(!p.contains(2));
        assert!(p.contains(3));
        let bytes_before = p.bytes_in_use();
        // Completing the insert on the now-unlinked element must not crash
        // and must release its deferred memory.
        p.fill_and_ready(r.id, &[2; 8]);
        assert!(!p.contains(2), "element was evicted before it became ready");
        assert!(p.bytes_in_use() < bytes_before);
        p.check_invariants();
    }

    #[test]
    #[should_panic(expected = "without a matching reference")]
    fn double_decref_is_caught() {
        let mut p = small(None);
        p.insert_copy(1, &[0; 8]).unwrap();
        let hit = p.lookup(1).unwrap();
        p.decref(hit.id);
        p.decref(hit.id);
    }

    #[test]
    fn two_phase_operations_match_their_single_phase_forms() {
        let config = PartitionConfig::new(64, None);
        let mut direct = Partition::new(config);
        let mut staged = Partition::new(config);
        for key in 0..200u64 {
            // Stage a whole batch of prepares (with prefetches), then
            // execute — the server pipeline's access pattern.
            let prep = staged.prepare(key);
            assert_eq!(prep.key(), key);
            assert!(prep.bucket() < staged.bucket_count());
            assert_eq!(prep.tag(), crate::hash::key_tag(key));
            staged.prefetch_prepared(&prep);
            staged.prefetch_element(&prep);
            let r1 = staged.insert_prepared(prep, 8).unwrap();
            staged.fill_and_ready(r1.id, &key.to_le_bytes());
            let r2 = direct.insert(key, 8).unwrap();
            direct.fill_and_ready(r2.id, &key.to_le_bytes());
        }
        for key in 0..220u64 {
            let prep = staged.prepare(key);
            staged.prefetch_prepared(&prep);
            staged.prefetch_element(&prep);
            let a = staged.lookup_prepared(prep);
            let b = direct.lookup(key);
            assert_eq!(a.is_some(), b.is_some(), "key {key}");
            if let (Some(a), Some(b)) = (&a, &b) {
                let (mut va, mut vb) = (Vec::new(), Vec::new());
                staged.read_value(a, &mut va);
                direct.read_value(b, &mut vb);
                assert_eq!(va, vb);
            }
            if let Some(a) = a {
                staged.decref(a.id);
            }
            if let Some(b) = b {
                direct.decref(b.id);
            }
        }
        for key in (0..200u64).step_by(3) {
            let prep = staged.prepare(key);
            assert_eq!(staged.delete_prepared(prep), direct.delete(key));
        }
        assert_eq!(staged.keys(), direct.keys());
        assert_eq!(staged.stats(), direct.stats());
        staged.check_invariants();
        direct.check_invariants();
    }

    #[test]
    fn inline_bucket_overflows_past_the_line_and_promotes_on_free() {
        // A single-bucket partition forces every key into one line: the
        // first INLINE_SLOTS keys live inline, the rest chain behind it.
        let mut p = Partition::new(PartitionConfig::new(1, None));
        let total = INLINE_SLOTS as u64 + 5;
        for key in 0..total {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
            p.check_invariants();
        }
        assert_eq!(p.len() as u64, total);
        let mut buf = Vec::new();
        for key in 0..total {
            assert!(p.lookup_copy(key, &mut buf), "key {key}");
            assert_eq!(buf, key.to_le_bytes());
        }
        let s = p.stats();
        assert!(s.inline_hits > 0, "some probes must resolve inline");
        assert!(
            s.overflow_probes > 0,
            "an over-full bucket must walk its chain"
        );
        // Deleting inline residents promotes chain elements into the line;
        // check_invariants asserts no slot stays free while the chain is
        // non-empty.
        for key in 0..total {
            assert!(p.delete(key), "key {key}");
            p.check_invariants();
        }
        assert!(p.is_empty());
    }

    #[test]
    fn export_and_absorb_move_elements_between_partitions() {
        let mut source = small(None);
        let mut dest = small(None);
        for key in 0..100u64 {
            source.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        let outcome = source.export_matching(|k| k % 2 == 0);
        let entries = match outcome {
            ExportOutcome::Extracted(entries) => entries,
            other => panic!("expected extraction, got {other:?}"),
        };
        assert_eq!(entries.len(), 50);
        assert_eq!(source.len(), 50);
        assert_eq!(source.stats().exported, 50);
        for (key, value) in &entries {
            assert_eq!(value.as_slice(), key.to_le_bytes());
            assert!(!source.contains(*key), "exported key still at source");
            dest.absorb(*key, value).unwrap();
        }
        assert_eq!(dest.len(), 50);
        assert_eq!(dest.stats().absorbed, 50);
        let mut buf = Vec::new();
        assert!(dest.lookup_copy(42, &mut buf));
        assert_eq!(buf, 42u64.to_le_bytes());
        source.check_invariants();
        dest.check_invariants();
    }

    #[test]
    fn export_defers_while_inserts_are_in_flight() {
        let mut p = small(None);
        p.insert_copy(2, &[1; 8]).unwrap();
        let r = p.insert(4, 8).unwrap();
        assert_eq!(
            p.export_matching(|k| k % 2 == 0),
            ExportOutcome::Pending { not_ready: 1 }
        );
        assert!(p.contains(2), "pending export must not remove anything");
        p.fill_and_ready(r.id, &[4; 8]);
        match p.export_matching(|k| k % 2 == 0) {
            ExportOutcome::Extracted(entries) => assert_eq!(entries.len(), 2),
            other => panic!("expected extraction, got {other:?}"),
        }
        assert!(p.is_empty());
        p.check_invariants();
    }

    #[test]
    fn exported_values_survive_outstanding_references() {
        // A reader holding a reference across the export must still see the
        // original bytes (deferred free), while the export's copy is
        // independent.
        let mut p = small(None);
        p.insert_copy(8, &88u64.to_le_bytes()).unwrap();
        let hit = p.lookup(8).unwrap();
        let entries = match p.export_matching(|_| true) {
            ExportOutcome::Extracted(e) => e,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(entries, vec![(8, 88u64.to_le_bytes().to_vec())]);
        let mut buf = Vec::new();
        p.read_value(&hit, &mut buf);
        assert_eq!(buf, 88u64.to_le_bytes());
        p.decref(hit.id);
        assert_eq!(p.bytes_in_use(), 0);
        p.check_invariants();
    }

    #[test]
    fn forced_export_abandons_dead_reservations() {
        let mut p = small(None);
        p.insert_copy(2, &[1; 8]).unwrap();
        let _dead_reservation = p.insert(4, 8).unwrap();
        let entries = p.export_matching_abandoning_reservations(|k| k % 2 == 0);
        // The READY element moves; the NOT-READY reservation stays behind.
        assert_eq!(entries, vec![(2, vec![1; 8])]);
        assert!(!p.contains(2));
        assert_eq!(p.len(), 1, "the abandoned reservation is still linked");
        p.check_invariants();
    }

    #[test]
    fn export_chunk_touches_only_the_chunks_elements() {
        use crate::hash::migration_chunk;
        let chunks = 16;
        let mut p = Partition::new(PartitionConfig::new(1024, None).with_migration_chunks(chunks));
        const N: u64 = 4_000;
        for key in 0..N {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        p.reset_stats();

        let target = 3usize;
        let expected: Vec<u64> = (0..N)
            .filter(|&k| migration_chunk(k, chunks) == target && k % 2 == 0)
            .collect();
        let entries = match p.export_chunk(target, |k| k % 2 == 0) {
            ExportOutcome::Extracted(entries) => entries,
            other => panic!("expected extraction, got {other:?}"),
        };
        let mut got: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        assert_eq!(got, expected);

        // The acceptance criterion: no full-table scan happened, and the
        // walk visited only the chunk's population (~N/chunks elements),
        // not the N slots a scan would touch.
        let s = p.stats();
        assert_eq!(s.full_export_scans, 0, "chunk export must not scan");
        assert!(
            s.export_elements_visited < N / chunks as u64 * 2,
            "visited {} elements for a chunk holding ~{}",
            s.export_elements_visited,
            N / chunks as u64
        );
        p.check_invariants();

        // The scan path, by contrast, visits every slot and says so.
        p.reset_stats();
        match p.export_matching(|k| migration_chunk(k, chunks) == target) {
            ExportOutcome::Extracted(entries) => assert!(entries.len() < 300),
            other => panic!("expected extraction, got {other:?}"),
        }
        let s = p.stats();
        assert_eq!(s.full_export_scans, 1);
        assert!(s.export_elements_visited >= N - expected.len() as u64);
        p.check_invariants();
    }

    #[test]
    fn export_chunk_defers_on_not_ready_and_abandons_when_forced() {
        use crate::hash::migration_chunk;
        let chunks = 8;
        let mut p = Partition::new(PartitionConfig::new(64, None).with_migration_chunks(chunks));
        // Find two keys in the same chunk.
        let target = 0usize;
        let mut in_chunk = (0..).filter(|&k| migration_chunk(k, chunks) == target);
        let ready_key = in_chunk.next().unwrap();
        let pending_key = in_chunk.next().unwrap();
        p.insert_copy(ready_key, &[1; 8]).unwrap();
        let r = p.insert(pending_key, 8).unwrap();
        assert_eq!(
            p.export_chunk(target, |_| true),
            ExportOutcome::Pending { not_ready: 1 }
        );
        assert!(p.contains(ready_key), "pending export must not remove");
        // Forced export moves the READY element and strands the reservation.
        let entries = p.export_chunk_abandoning_reservations(target, |_| true);
        assert_eq!(entries, vec![(ready_key, vec![1; 8])]);
        assert_eq!(p.len(), 1);
        p.fill_and_ready(r.id, &[2; 8]);
        p.check_invariants();
    }

    #[test]
    fn chunk_walks_export_everything_after_churn_and_eviction() {
        let chunks = 8;
        let mut p =
            Partition::new(PartitionConfig::new(64, Some(256)).with_migration_chunks(chunks));
        assert_eq!(p.migration_chunks(), chunks);
        for round in 0..20u64 {
            for key in 0..64u64 {
                p.insert_copy(round * 1_000 + key, &[0; 8]).unwrap();
            }
            for key in 0..16u64 {
                p.delete(round * 1_000 + key);
            }
            p.check_invariants();
        }
        // Export every chunk; everything must leave, chunk by chunk.
        p.reset_stats();
        let mut total = 0usize;
        for chunk in 0..chunks {
            match p.export_chunk(chunk, |_| true) {
                ExportOutcome::Extracted(entries) => total += entries.len(),
                other => panic!("chunk {chunk}: unexpected {other:?}"),
            }
        }
        assert_eq!(total, p.stats().exported as usize);
        assert!(p.is_empty());
        assert_eq!(p.stats().full_export_scans, 0);
        p.check_invariants();
    }

    #[test]
    fn capacity_rebudget_applies_to_future_inserts() {
        let mut p = small(Some(64));
        for key in 0..8u64 {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(p.len(), 8);
        // Halve the budget: nothing is evicted eagerly...
        p.set_capacity_bytes(Some(32));
        assert_eq!(p.capacity_bytes(), Some(32));
        assert_eq!(p.len(), 8);
        // ...but the next insert evicts down under the new budget.
        p.insert_copy(100, &[9; 8]).unwrap();
        assert!(p.len() <= 4, "len {} exceeds the new budget", p.len());
        p.check_invariants();
    }

    #[test]
    fn count_matching_counts_linked_elements() {
        let mut p = small(None);
        for key in 0..10u64 {
            p.insert_copy(key, &[0; 8]).unwrap();
        }
        assert_eq!(p.count_matching(|k| k < 3), 3);
        assert_eq!(p.count_matching(|_| true), 10);
        p.delete(0);
        assert_eq!(p.count_matching(|k| k < 3), 2);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let p = Partition::new(PartitionConfig::new(100, None));
        assert_eq!(p.bucket_count(), 128);
    }

    #[test]
    fn many_keys_spread_over_buckets() {
        let mut p = Partition::new(PartitionConfig::new(256, None));
        for key in 0..5_000u64 {
            p.insert_copy(key * 31 + 7, &[0; 8]).unwrap();
        }
        assert_eq!(p.len(), 5_000);
        assert_eq!(p.keys().len(), 5_000);
        p.check_invariants();
    }
}
