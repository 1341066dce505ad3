//! Workload generation and benchmark drivers.
//!
//! The paper's microbenchmark (§6) "generates random queries and performs
//! them on the hash table", parameterized by the number of client hardware
//! threads, the number of partitions, the working-set size, the maximum
//! hash-table size, the INSERT ratio and the batch size.  This crate
//! provides that benchmark as a library so every figure harness, example
//! and test drives the two tables through exactly the same code:
//!
//! * [`WorkloadSpec`] — the §6 parameter set, with presets for each figure.
//! * [`OpStream`] — deterministic per-thread streams of lookup/insert
//!   operations over the keyspace implied by the working set (uniform, or
//!   Zipfian for the skewed web-cache example).
//! * [`driver`] — multi-threaded drivers that run a spec against a
//!   [`cphash::CpHash`] (pipelined clients + pinned servers) or a
//!   [`cphash_lockhash::LockHash`] (one worker per hardware thread), and
//!   return throughput plus table statistics.
//! * [`tcp`] — a TCP load generator speaking the CPSERVER/LOCKSERVER wire
//!   protocol, used by the Figure 13/14 harnesses.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod anykey;
pub mod driver;
pub mod ops;
#[cfg(test)]
mod stub_server;
pub mod tcp;
pub mod workload;

pub use anykey::{run_anykey_mixed, AnyKeyMixOptions, AnyKeyMixResult};
pub use driver::{run_cphash, run_lockhash, DriverOptions, RunResult};
pub use ops::{KeyDistribution, Op, OpStream};
pub use workload::WorkloadSpec;
