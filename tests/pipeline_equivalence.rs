//! Depth-independence of the server pipeline: the staged batch + prefetch
//! hot loop must produce *byte-identical* completions at every pipeline
//! depth, for any operation stream.  The reference is `batch_size = 1` —
//! per-operation processing, where staging can overlap nothing.
//!
//! Determinism argument: each table runs one client, so every partition
//! sees its operations in submission order (one FIFO lane per partition,
//! drained in order), and the harness keeps **at most one operation per
//! key in flight** — so no completion can depend on how a two-phase
//! insert's `Ready` races a concurrent lookup of the same key.  Under
//! those conditions every completion is a pure function of the operation
//! stream, so two tables differing only in pipeline depth must agree
//! exactly.
//!
//! The rings are deliberately tiny (the minimum 64 slots) so batches
//! straddle ring-wrap boundaries constantly.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cphash_suite::{ClientHandle, Completion, CompletionKind, CpHash, CpHashConfig};

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Insert { key: u64, len: usize },
    Lookup { key: u64 },
    Delete { key: u64 },
}

impl ScriptOp {
    fn key(&self) -> u64 {
        match *self {
            ScriptOp::Insert { key, .. } | ScriptOp::Lookup { key } | ScriptOp::Delete { key } => {
                key
            }
        }
    }
}

/// Value lengths weighted towards both sides of the 8-byte boundary, where
/// a value stops travelling in the messages and starts travelling by
/// pointer: every script of more than a few inserts crosses it, and keys get
/// replaced across it in both directions.
fn value_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        1usize..48
    ]
}

fn script_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0u64..96, value_len()).prop_map(|(key, len)| ScriptOp::Insert { key, len }),
        (0u64..96).prop_map(|key| ScriptOp::Lookup { key }),
        (0u64..96).prop_map(|key| ScriptOp::Delete { key }),
    ]
}

/// A deterministic value for (key, op index): both tables must read back
/// exactly these bytes.
fn value_for(key: u64, index: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (key as u8) ^ (index as u8).wrapping_mul(31) ^ (i as u8))
        .collect()
}

/// Run the script against one table, keeping the pipeline full across
/// *distinct* keys but never more than one in-flight operation per key.
/// Returns the completion kind of every operation, in script order.
fn run_script(client: &mut ClientHandle, script: &[ScriptOp]) -> Vec<(u64, CompletionKind)> {
    let mut results: Vec<Option<(u64, CompletionKind)>> = vec![None; script.len()];
    // token -> script index, for matching completions back.
    let mut token_of: HashMap<u64, usize> = HashMap::new();
    let mut busy_keys: HashSet<u64> = HashSet::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut next = 0usize;

    let drain_into = |completions: &mut Vec<Completion>,
                      token_of: &mut HashMap<u64, usize>,
                      busy_keys: &mut HashSet<u64>,
                      results: &mut Vec<Option<(u64, CompletionKind)>>,
                      script: &[ScriptOp]| {
        for completion in completions.drain(..) {
            let index = token_of
                .remove(&completion.token)
                .expect("completion for an unknown token");
            busy_keys.remove(&script[index].key());
            results[index] = Some((script[index].key(), completion.kind));
        }
    };

    while next < script.len() || !token_of.is_empty() {
        // Submit as long as the next op's key is free (bounded window).
        while next < script.len() && token_of.len() < 64 {
            let op = script[next];
            if busy_keys.contains(&op.key()) {
                break;
            }
            let token = match op {
                ScriptOp::Insert { key, len } => {
                    client.submit_insert(key, &value_for(key, next, len))
                }
                ScriptOp::Lookup { key } => client.submit_lookup(key),
                ScriptOp::Delete { key } => client.submit_delete(key),
            };
            busy_keys.insert(op.key());
            token_of.insert(token, next);
            next += 1;
        }
        completions.clear();
        if client.poll(&mut completions) == 0 {
            client.flush();
            std::hint::spin_loop();
        }
        drain_into(
            &mut completions,
            &mut token_of,
            &mut busy_keys,
            &mut results,
            script,
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("every op completed"))
        .collect()
}

/// Build a table with the given pipeline depth and run the script.
fn outcomes(
    script: &[ScriptOp],
    batch_size: usize,
    capacity: Option<usize>,
) -> Vec<(u64, CompletionKind)> {
    let config = CpHashConfig {
        // The minimum ring: batches constantly wrap the ring boundary.
        ring_capacity: 64,
        batch_size,
        capacity_bytes: capacity,
        ..CpHashConfig::new(2, 1)
    };
    let (mut table, mut clients) = CpHash::new(config);
    let outcomes = run_script(&mut clients[0], script);
    drop(clients);
    table.shutdown();
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn staged_pipeline_matches_depth_one_at_every_depth(
        ops in prop::collection::vec(script_op(), 1..250),
    ) {
        let reference = outcomes(&ops, 1, None);
        for batch_size in [7usize, 8, 64] {
            let staged = outcomes(&ops, batch_size, None);
            prop_assert_eq!(
                &reference,
                &staged,
                "depth {} diverged from depth 1",
                batch_size
            );
        }
    }

    #[test]
    fn equivalence_holds_under_eviction_pressure(
        ops in prop::collection::vec(script_op(), 1..200),
    ) {
        // A tight byte budget makes inserts evict (CLOCK order is part of
        // the observable behaviour: a diverging depth would surface as
        // different lookup hits/misses).
        let capacity = Some(2 * 1024);
        let reference = outcomes(&ops, 1, capacity);
        for batch_size in [8usize, 64] {
            let staged = outcomes(&ops, batch_size, capacity);
            prop_assert_eq!(
                &reference,
                &staged,
                "depth {} diverged from depth 1 under eviction",
                batch_size
            );
        }
    }
}

/// Values read back through the staged pipeline are bit-exact (not just
/// hit/miss-equivalent): a hand-built mixed workload with verification of
/// every byte, at a non-default depth.
#[test]
fn staged_pipeline_round_trips_values_exactly() {
    let config = CpHashConfig {
        ring_capacity: 64,
        batch_size: 7, // deliberately odd, not a power of two
        ..CpHashConfig::new(2, 1)
    };
    let (mut table, mut clients) = CpHash::new(config);
    let client = &mut clients[0];
    // In-message and by-pointer values side by side.
    let len_of = |key: u64| [0usize, 7, 8, 9, 24][key as usize % 5];
    for key in 0..500u64 {
        assert!(client.insert(key, &value_for(key, 0, len_of(key))).unwrap());
    }
    for key in 0..500u64 {
        let got = client.get(key).unwrap().expect("key present");
        assert_eq!(got.as_slice(), value_for(key, 0, len_of(key)), "key {key}");
    }
    for key in (0..500u64).step_by(2) {
        assert!(client.delete(key).unwrap());
    }
    for key in 0..500u64 {
        assert_eq!(client.get(key).unwrap().is_some(), key % 2 == 1);
    }
    let snapshot = table.snapshot();
    assert!(
        snapshot.batch.batches > 0 && snapshot.batch.prefetches > 0,
        "the staged pipeline actually ran: {:?}",
        snapshot.batch
    );
    drop(clients);
    table.shutdown();
}
