//! The partition data structure shared by CPHash and LockHash.
//!
//! §5 of the paper: "both CPHASH and LOCKHASH use the same code for
//! implementing a single hash table partition; the only difference is that
//! LOCKHASH acquires a lock to perform an operation on a partition, and
//! CPHASH uses message-passing to send the request to the appropriate
//! server thread."  This crate is that shared code.
//!
//! A [`Partition`] is a single-threaded, fixed-capacity hash table with
//! (per §3.1):
//!
//! * a bucket array of 64-byte-aligned *tagged bucket lines*, one per
//!   [`partition::KEYS_PER_LINE`] expected elements — each bucket packs
//!   its first [`partition::INLINE_SLOTS`] entries as 16-bit key tags plus
//!   `u32` element refs inline in the bucket's own cache line, compared
//!   with the probe's tag all at once, overflowing to an intrusive
//!   singly-linked chain only past that; the top bits of a bucket's index
//!   are its keys' migration chunk, so one chunk is a run of lines,
//! * CLOCK eviction where §3.1 has an LRU list: a reference bit per element
//!   that a hit sets, and a hand that sweeps the element slots when an
//!   insert is over budget (or random eviction, the §6.3 variant),
//! * a 32-byte element header, aligned to half a cache line, holding the
//!   key, the value's length, its block pointer (or its bytes), the
//!   reference count, the reference bit and the overflow-chain link,
//! * values allocated out of a per-partition [`cphash_alloc::SlabAllocator`]
//!   whose byte budget is the partition's share of the table capacity —
//!   except values of at most [`INLINE_VALUE_BYTES`] bytes, which live in
//!   the element header (where the pointer to their block would be) and are
//!   charged to the budget as if they had taken the block,
//! * reference counting with deferred frees, so a value returned to a
//!   client is never recycled while the client may still be reading it.
//!
//! The structure is deliberately *not* thread-safe: CPHash gives each
//! partition to exactly one server thread; LockHash wraps each partition in
//! a spinlock.  That asymmetry — same data structure, different concurrency
//! discipline — is the whole experiment.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod element;
pub mod hash;
pub mod partition;
pub mod policy;
pub mod stats;

pub use element::{ElementId, ElementState, InlineValue, StoredValue, INLINE_VALUE_BYTES};
pub use hash::{
    hash64, key_tag, migration_chunk, partition_for_key, MAX_KEY, MAX_MIGRATION_CHUNKS,
};
pub use partition::{
    BucketRef, ExportOutcome, InsertError, InsertReservation, LookupHit, Partition,
    PartitionConfig, INLINE_SLOTS, KEYS_PER_LINE,
};
pub use policy::EvictionPolicy;
pub use stats::PartitionStats;
