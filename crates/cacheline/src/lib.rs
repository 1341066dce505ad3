//! Cache-line geometry and alignment primitives.
//!
//! CPHash's whole design is phrased in units of cache lines: partition
//! metadata should stay in the owning core's cache, message-passing buffers
//! should move between caches one full line at a time, and several small
//! messages should *pack* into a single 64-byte line so one coherence
//! transfer delivers a whole batch (paper §3.4, §6.2).
//!
//! This crate provides the small, dependency-free vocabulary the rest of the
//! workspace builds on:
//!
//! * [`CACHE_LINE_SIZE`] — the line size every layout computation uses.
//! * [`CacheAligned`] — a `#[repr(align(64))]` wrapper that forces a value to
//!   start on a line boundary so that independently-written fields never
//!   share a line (false sharing).
//! * [`packing`] — messages-per-line arithmetic backing the paper's claim
//!   that eight 8-byte lookups (or four 16-byte inserts) fit in one line,
//!   plus the tagged-bucket line geometry (how many 8-bit tags + `u32`
//!   element refs + overflow head pack into one bucket's own line).
//! * [`prefetch`] — the software-prefetch hint the batched server pipeline
//!   uses to overlap bucket cache misses (real instruction on x86-64 and
//!   AArch64, no-op elsewhere).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod packing;
pub mod prefetch;

mod aligned;

pub use aligned::CacheAligned;
pub use prefetch::{prefetch_read, prefetch_supported};

/// Size, in bytes, of a cache line on the machines the paper targets
/// (and on essentially every contemporary x86-64 / AArch64 part).
///
/// The paper's packing arithmetic ("a cache line can hold several messages
/// ... in our test machines a cache line is 64 bytes", §3.4) is relative to
/// this constant; all layout code in the workspace uses it rather than
/// hard-coding 64.
pub const CACHE_LINE_SIZE: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_size_is_a_power_of_two() {
        assert!(CACHE_LINE_SIZE.is_power_of_two());
    }
}
