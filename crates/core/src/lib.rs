//! # CPHash — a cache-partitioned hash table
//!
//! A Rust reproduction of the data structure from Metreveli, Zeldovich and
//! Kaashoek, *CPHash: A Cache-Partitioned Hash Table* (MIT CSAIL TR 2011-051
//! / PPoPP 2012).
//!
//! CPHash is a fixed-capacity, evicting concurrent hash table designed
//! for large multicore machines.  Instead of protecting shared buckets with
//! locks, it:
//!
//! 1. **partitions** the table, assigning each partition to a *server
//!    thread* pinned to its own hardware thread, so each partition's
//!    buckets, elements and allocator stay in that core's cache;
//! 2. has client threads ship operations to the owning server through
//!    **asynchronous message passing over shared-memory ring buffers**,
//!    batching many requests per cache-line transfer;
//! 3. returns **pointers to values** (with reference counting and deferred
//!    frees) so large values are copied by the client, not the server —
//!    and values that fit a message word (at most 8 bytes) in the messages
//!    themselves, with no pointer, pin or follow-up message at all (see
//!    [`protocol`]).
//!
//! ## Quick start
//!
//! ```
//! use cphash::{CpHash, CpHashConfig};
//!
//! // Two partitions (server threads), one client handle.
//! let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
//! let client = &mut clients[0];
//!
//! client.insert(42, b"the answer").unwrap();
//! let value = client.get(42).unwrap().expect("key present");
//! assert_eq!(value.as_slice(), b"the answer");
//!
//! drop(clients);
//! table.shutdown();
//! ```
//!
//! For bulk workloads use the pipelined API ([`ClientHandle::submit_lookup`]
//! / [`ClientHandle::submit_insert`] + [`ClientHandle::poll`]), which is
//! what gives CPHash its throughput advantage: requests to all servers stay
//! in flight simultaneously and pack eight-per-cache-line.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod config;
pub mod control;
pub mod kv;
mod migration;
mod pipeline;
pub mod protocol;
pub mod remote;
pub mod router;
mod server;
pub mod stats;
pub mod table;
mod write_order;

pub use client::{ClientHandle, Completion, CompletionKind, OpError, TableError, ValueBytes};
pub use config::{CpHashConfig, DEFAULT_BATCH_SIZE};
pub use control::ControlHandle;
pub use kv::{KeyRef, KvClient, KvError, KvOp};
pub use protocol::{MigrationStep, OpCode, Request, Response};
pub use remote::{PartitionedClient, RemoteClient};
pub use router::{EpochRouter, RouterSnapshot, TransitionError};
pub use stats::{ServerStats, TableSnapshot};
pub use table::CpHash;

// Re-export the vocabulary types callers need alongside the table.
pub use cphash_hashcore::{EvictionPolicy, PartitionStats, MAX_KEY};
pub use cphash_perfmon::BatchStats;
