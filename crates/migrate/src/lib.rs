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
//! 1. sends `MigratePrepare` to every *receiving* server, which then defers
//!    requests for keys that are in flight towards it;
//! 2. sends `MigrateOut` to every *source* server, which atomically
//!    extracts the chunk's leaving keys (waiting for in-flight inserts to
//!    publish first) and hands the batch back by address over its response
//!    ring — the same shared-memory pointer-passing CPHash uses for values;
//! 3. regroups entries by their new owner and delivers them with
//!    `MigrateIn`, whose absorption each destination acknowledges;
//! 4. advances the router watermark, atomically switching client routing
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
#![deny(unsafe_op_in_unsafe_fn)]

pub mod coordinator;
pub mod pacer;

pub use coordinator::{
    MigrateError, MigrationReport, RepartitionCoordinator, DEFAULT_MAX_BATCH_BYTES,
};
pub use pacer::{MigrationPacer, PacerStats};

// Re-export the pacing knob so callers configuring a pacer need only this
// crate (the type lives in `cphash::config` so table configs can carry it).
pub use cphash::MigrationPacing;
