//! The reproduction side: the paper's evaluation, regenerated on this host.
//!
//! Every figure of the paper's evaluation (§6 and §7) is an entry of
//! [`figures::FIGURES`], run by the `cphash-bench` binary
//! (`cphash-bench figures <name>|all`, `figures --list`); the two
//! `ablate_*` binaries beside it are this repository's own `--strict` CI
//! gates.  They share the plumbing that lives here:
//!
//! * [`args::HarnessArgs`] — the `--quick` / `--ops` / `--threads` / `--csv`
//!   argument set.
//! * [`scale::MachineScale`] — maps the paper's 80-core machine onto
//!   whatever this host offers (thread counts, partition counts, scaled
//!   working-set sweeps), and records the mapping so EXPERIMENTS.md can
//!   show both.
//! * [`figures`] — the figure table and the experiments behind it
//!   ([`live`] holds the live-repartition one).
//! * [`paper`] — the paper's own claims, printed next to measured results.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod args;
pub mod figures;
pub mod live;
pub mod paper;
pub mod scale;

pub use args::HarnessArgs;
pub use scale::MachineScale;

/// The xorshift64* step shared by harness binaries that need a cheap
/// deterministic stream (e.g. `ablate_prefetch`'s key mix).
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
