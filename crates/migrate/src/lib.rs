//! # cphash-migrate — online repartitioning for CPHash
//!
//! The paper (§8.1) leaves "dynamically deciding how many cores to use for
//! server threads" as future work.  This crate implements the *actuation*
//! half: re-partitioning a **live** table with no lost or duplicated keys
//! while clients keep issuing operations.
//!
//! ## How a transition works
//!
//! The key space is cut into migration chunks (a pure function of the key's
//! top hash bits), and the shared [`cphash::EpochRouter`] holds a watermark:
//! chunks below it route with the new partition count, the rest with the
//! old.  For each chunk the [`RepartitionCoordinator`]:
//!
//! 1. waits for its pacer, if any;
//! 2. moves the chunk's leaving keys from every source to their new owners
//!    with [`cphash::ControlHandle::move_chunk`], which steps the core
//!    crate's `ChunkMove` to the end (the protocol's order and rules are
//!    [`cphash::control`]'s module docs);
//! 3. advances the router watermark, atomically switching client routing
//!    for that chunk to the new layout.
//!
//! Requests that race with a move are never wrong, only *redirected*: a
//! server that no longer (or does not yet) own a key answers with a retry
//! response, and the client resubmits to the owning partition under the
//! same completion token.  At every instant exactly one server will execute
//! an operation on a given key.
//!
//! ```no_run
//! use cphash::{CpHash, CpHashConfig};
//! use cphash_migrate::RepartitionCoordinator;
//!
//! let (table, clients) = CpHash::new(CpHashConfig::new(2, 4).with_max_partitions(8));
//! let mut coordinator = RepartitionCoordinator::new(table.take_control().unwrap());
//! // ... clients hammer the table from other threads ...
//! let report = coordinator.resize_to(4).unwrap();
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod pacer;

pub use coordinator::{MigrateError, MigrationReport, RepartitionCoordinator};
pub use pacer::{MigrationPacer, MigrationPacing, PacerStats};
