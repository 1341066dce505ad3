//! The `anykey_mixed` scenario: memcached-style byte-string keys with a
//! configurable get/set/delete mix, driven through the unified
//! [`KvClient`] trait so the *same* scenario runs against the in-process
//! table, CPSERVER over TCP (kvproto v2) and the memcached-style baseline
//! cluster — the §8.2 extension exercised end to end on every backend.

use cphash::{Completion, CompletionKind, KeyRef, KvClient, KvError, KvOp};
use cphash_perfmon::Stopwatch;

/// Parameters of one `anykey_mixed` run.
#[derive(Debug, Clone)]
pub struct AnyKeyMixOptions {
    /// Total operations to issue.
    pub operations: u64,
    /// Distinct byte-string keys ("user:NNNNNNNN"-style).
    pub distinct_keys: u64,
    /// Prefix for generated keys (varying it decorrelates runs).
    pub key_prefix: String,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Fraction of operations that are sets (inserts).
    pub set_ratio: f64,
    /// Fraction of operations that are deletes.
    pub delete_ratio: f64,
    /// Operations to keep in flight (capped by the backend's
    /// `recommended_window`).
    pub window: usize,
    /// Seed for the deterministic operation stream.
    pub seed: u64,
}

impl Default for AnyKeyMixOptions {
    fn default() -> Self {
        AnyKeyMixOptions {
            operations: 100_000,
            distinct_keys: 10_000,
            key_prefix: "user".to_string(),
            value_bytes: 32,
            set_ratio: 0.25,
            delete_ratio: 0.05,
            window: 256,
            seed: 0x0A17_BEE5,
        }
    }
}

impl AnyKeyMixOptions {
    /// Sanity-check the parameters.
    pub fn validate(&self) {
        assert!(self.operations > 0, "need at least one operation");
        assert!(self.distinct_keys > 0, "need at least one key");
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.set_ratio >= 0.0 && self.delete_ratio >= 0.0,
            "ratios must be non-negative"
        );
        assert!(
            self.set_ratio + self.delete_ratio <= 1.0,
            "set + delete ratios must leave room for gets"
        );
    }
}

/// Result of one `anykey_mixed` run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnyKeyMixResult {
    /// Gets issued.
    pub gets: u64,
    /// Gets that returned a value.
    pub get_hits: u64,
    /// Sets issued.
    pub sets: u64,
    /// Sets the backend refused for capacity.
    pub set_failures: u64,
    /// Deletes issued.
    pub deletes: u64,
    /// Deletes that removed a present key.
    pub delete_hits: u64,
    /// Operations that completed `Failed(..)`.
    pub failures: u64,
    /// Wall-clock for the timed phase, in nanoseconds.
    pub elapsed_nanos: u64,
}

impl AnyKeyMixResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        let ops = (self.gets + self.sets + self.deletes) as f64;
        let secs = self.elapsed_nanos as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            ops / secs
        }
    }

    /// The backend-observable outcome (everything except timing), for
    /// cross-backend parity assertions.
    pub fn observation(&self) -> AnyKeyMixResult {
        AnyKeyMixResult {
            elapsed_nanos: 0,
            ..*self
        }
    }
}

/// Deterministic xorshift stream (decoupled from `OpStream`, which speaks
/// u64 keys).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn next_fraction(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one generated operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixOp {
    Get,
    Set,
    Delete,
}

/// Run the scenario against any [`KvClient`] backend.
///
/// The operation stream is deterministic in `opts.seed`, so two backends
/// given the same options execute the *same* logical operations in the
/// same order — their [`AnyKeyMixResult::observation`]s must agree (the
/// stream keeps at most `window` operations in flight and never pipelines
/// two operations on the same key, so completion-order differences between
/// backends cannot change outcomes).
pub fn run_anykey_mixed(
    client: &mut dyn KvClient,
    opts: &AnyKeyMixOptions,
) -> Result<AnyKeyMixResult, KvError> {
    opts.validate();
    let mut rng = Rng(opts.seed | 1);
    let window = opts.window.min(client.recommended_window()).max(1);
    let value = vec![0xA5u8; opts.value_bytes];
    let mut result = AnyKeyMixResult::default();
    let mut completions: Vec<Completion> = Vec::with_capacity(window);
    // Token -> (operation kind, key rank), to attribute completions and
    // free the key.
    let mut in_flight: std::collections::HashMap<u64, (MixOp, u64)> =
        std::collections::HashMap::with_capacity(window * 2);
    // Keys with an operation in flight: skipped by the generator so the
    // scenario's outcome is independent of backend completion order.
    let mut busy: std::collections::HashSet<u64> =
        std::collections::HashSet::with_capacity(window * 2);
    let mut issued = 0u64;
    let mut key_buf = String::new();
    // An operation drawn from the stream whose key is still busy; held (not
    // discarded) so the logical operation sequence is a pure function of
    // the seed regardless of backend completion timing.
    let mut staged: Option<(MixOp, u64)> = None;

    let watch = Stopwatch::start();
    while issued < opts.operations || !in_flight.is_empty() {
        // Fill the window.
        while issued < opts.operations && in_flight.len() < window {
            let (op, rank) = staged.take().unwrap_or_else(|| {
                let frac = rng.next_fraction();
                let op = if frac < opts.set_ratio {
                    MixOp::Set
                } else if frac < opts.set_ratio + opts.delete_ratio {
                    MixOp::Delete
                } else {
                    MixOp::Get
                };
                (op, rng.next_u64() % opts.distinct_keys)
            });
            if busy.contains(&rank) {
                // An operation on this key is still in flight; issuing
                // another would make outcomes depend on completion order.
                // Park it until the key frees.
                staged = Some((op, rank));
                break;
            }
            busy.insert(rank);
            use core::fmt::Write as _;
            key_buf.clear();
            let _ = write!(key_buf, "{}:{:08}", opts.key_prefix, rank);
            let key = KeyRef::Bytes(key_buf.as_bytes());
            let token = match op {
                MixOp::Get => {
                    result.gets += 1;
                    client.submit(KvOp::Get(key))
                }
                MixOp::Set => {
                    result.sets += 1;
                    client.submit(KvOp::Insert(key, &value))
                }
                MixOp::Delete => {
                    result.deletes += 1;
                    client.submit(KvOp::Delete(key))
                }
            };
            in_flight.insert(token, (op, rank));
            issued += 1;
        }

        // Drain what is ready.
        let polled = client.poll_completions(&mut completions);
        if polled == 0 && !client.is_alive() {
            return Err(KvError::Disconnected);
        }
        for completion in completions.drain(..) {
            let Some((op, rank)) = in_flight.remove(&completion.token) else {
                continue;
            };
            busy.remove(&rank);
            match (op, completion.kind) {
                (MixOp::Get, CompletionKind::LookupHit(_)) => result.get_hits += 1,
                (MixOp::Get, CompletionKind::LookupMiss) => {}
                (MixOp::Set, CompletionKind::Inserted) => {}
                (MixOp::Set, CompletionKind::InsertFailed) => result.set_failures += 1,
                (MixOp::Delete, CompletionKind::Deleted(true)) => result.delete_hits += 1,
                (MixOp::Delete, CompletionKind::Deleted(false)) => {}
                (_, CompletionKind::Failed(_)) => result.failures += 1,
                (op, kind) => {
                    debug_assert!(false, "mismatched completion {kind:?} for {op:?}");
                }
            }
        }
    }
    result.elapsed_nanos = (watch.elapsed_secs() * 1e9) as u64;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{CpHash, CpHashConfig};

    #[test]
    fn in_process_mix_is_deterministic_and_accounts_every_op() {
        let opts = AnyKeyMixOptions {
            operations: 5_000,
            distinct_keys: 500,
            value_bytes: 16,
            set_ratio: 0.3,
            delete_ratio: 0.1,
            window: 64,
            ..Default::default()
        };
        let run = |seed_offset: u64| {
            let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
            let result = {
                let opts = AnyKeyMixOptions {
                    seed: opts.seed + seed_offset,
                    ..opts.clone()
                };
                run_anykey_mixed(&mut clients[0], &opts).expect("run completes")
            };
            drop(clients);
            table.shutdown();
            result
        };
        let a = run(0);
        let b = run(0);
        let c = run(1);
        assert_eq!(a.observation(), b.observation(), "same seed, same outcome");
        assert_ne!(a.observation(), c.observation(), "different seed differs");
        assert_eq!(a.gets + a.sets + a.deletes, opts.operations);
        assert!(a.sets > 0 && a.deletes > 0 && a.gets > 0);
        assert!(a.get_hits > 0, "a 30% set mix must produce hits");
        assert!(a.delete_hits > 0);
        assert_eq!(a.failures, 0);
        assert_eq!(a.set_failures, 0, "table sized for the working set");
        assert!(a.throughput() > 0.0);
    }

    #[test]
    #[should_panic(expected = "ratios")]
    fn overfull_ratios_are_rejected() {
        AnyKeyMixOptions {
            set_ratio: 0.8,
            delete_ratio: 0.4,
            ..Default::default()
        }
        .validate();
    }
}
