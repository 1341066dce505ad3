//! The workspace parking facade, companion to [`crate::atomic`].
//!
//! A thread that goes to sleep on a flag is half of a handshake whose other
//! half is an atomic: model-checking it needs the sleep and the wake-up to
//! be scheduling points like the loads and stores around them.  Normally
//! these *are* `std::thread::{current, park, Thread}`; under
//! `RUSTFLAGS="--cfg cphash_model"` they are the vendored loom model's,
//! where an execution that leaves a thread parked with nobody left to
//! unpark it is reported as a lost wake-up with a replayable schedule.

#[cfg(not(cphash_model))]
pub use std::thread::{current, park, Thread};

#[cfg(cphash_model)]
pub use loom::thread::{current, park, Thread};
