//! LOCKHASH — the fine-grained-locking baseline from the CPHash paper.
//!
//! "To evaluate the performance and scalability of CPHASH, we created
//! LOCKSERVER, which does not use message passing. It supports the same
//! protocol, but uses a shared-memory style hash table, which we name
//! LOCKHASH, with fine-grained locks. To make the comparison fair, LOCKHASH
//! also has n LRU lists instead of 1 global one, by dividing the hash table
//! into n partitions. Each partition is protected by a lock" (§4.2), and
//! "LOCKHASH uses 160 hardware threads that perform hash-table operations on
//! a 4,096-way partitioned hash table to avoid lock contention" (§1).
//!
//! Exactly as in the paper (§5), LOCKHASH reuses the same partition code as
//! CPHash ([`cphash_hashcore::Partition`]); the only difference is that
//! callers acquire a per-partition spinlock and run the operation on their
//! own thread instead of shipping it to a server thread.  That makes the
//! CPHash-vs-LockHash comparison a comparison of *communication strategy*,
//! not of hash-table engineering.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod table;

pub use config::LockHashConfig;
pub use table::LockHash;

pub use cphash_hashcore::{EvictionPolicy, PartitionStats};
pub use cphash_sync::LockKind;
