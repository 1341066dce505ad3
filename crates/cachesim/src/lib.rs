//! Software cache-hierarchy model.
//!
//! The paper's key evidence (Figures 6 and 7) is a per-operation breakdown
//! of L2 and L3 cache misses, attributed to the function that caused them
//! (spinlock acquire, hash-table traversal, message send/receive, …),
//! gathered with `rdpmc` hardware performance counters and a custom kernel
//! module.  Hardware counters are not available in this reproduction's
//! environment, so this crate provides the substitute described in
//! `DESIGN.md` §4: a trace-driven software model of the memory hierarchy.
//!
//! * [`CacheHierarchy`] models private per-hardware-thread caches (the
//!   paper's L1+L2), per-socket shared L3 caches, and a directory that
//!   tracks which caches hold which line.  Every simulated access is
//!   classified the same way the paper classifies counter events:
//!   - **L2 miss** — "missed in the local L2 cache, but hit in the shared
//!     L3 cache or a neighbor's L2 cache on the same socket";
//!   - **L3 miss** — "missed in the local L3 cache, and went to DRAM or
//!     another socket".
//! * [`AccessTag`] attributes each access to one of the paper's breakdown
//!   rows, and [`Breakdown`] accumulates per-tag miss counts.
//! * [`CostModel`] converts miss counts into approximate cycles using
//!   per-level latencies (calibrated against the paper's Figure 6).
//! * [`opmodel`] replays the logical access stream of one CPHash or
//!   LockHash operation — which lock words, bucket heads, element headers,
//!   LRU pointers, message lines and value lines it touches — through the
//!   hierarchy, regenerating the Figure 6/7 tables.
//!
//! The model is deliberately simple (fully-associative LRU caches, no
//! prefetching, no out-of-order overlap); what it preserves is *which
//! accesses hit whose cache*, which is the property the paper's argument
//! rests on.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod costmodel;
pub mod counters;
pub mod hierarchy;
pub mod lru;
pub mod opmodel;
pub mod tag;

pub use config::CacheConfig;
pub use costmodel::CostModel;
pub use counters::{Breakdown, MissCounts};
pub use hierarchy::{AccessKind, AccessOutcome, CacheHierarchy};
pub use lru::LruSet;
pub use tag::AccessTag;
