//! CPU topology modelling and thread pinning.
//!
//! CPHash assigns one hash-table partition to the L1/L2 cache of a specific
//! core and pins a server thread to that core's second hardware thread while
//! the corresponding client thread runs on the first (paper §3, §6.1).
//!
//! This crate provides the two ingredients that placement needs:
//!
//! * [`Topology`] — a declarative model of a machine (sockets × cores ×
//!   SMT threads) and the arithmetic between hardware-thread, core and
//!   socket ids.  [`Topology::detect`] builds a best-effort model of the
//!   current machine from `/sys`; [`Topology::paper_machine`] reproduces
//!   the 8-socket × 10-core × 2-thread Intel E7-8870 box from the paper so
//!   placements can be unit-tested deterministically.  The one placement
//!   rule is `cphash::CpHashConfig::with_numa_placement`.
//! * [`pin`] — pinning the calling thread to one hardware thread via
//!   `sched_setaffinity` (a no-op fallback on non-Linux platforms or when
//!   the container forbids it; callers learn which from the returned
//!   [`pin::PinOutcome`]).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod pin;
pub mod topology;

pub use pin::{pin_to_hw_thread, PinOutcome};
pub use topology::{CoreId, HwThreadId, SocketId, Topology};
