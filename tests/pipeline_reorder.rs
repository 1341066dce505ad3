//! Reproduces the ordered-resubmission hazard documented in ROADMAP.md:
//! during a live re-partitioning, a write that a mid-migration server bounces
//! with a *retry* response is resubmitted by the client — and without per-key
//! ordering, that resubmission can land **after** a later pipelined write to
//! the same key that was routed straight to the new owner, silently
//! reinstating the older value.
//!
//! The schedule: each round pipelines write A (value `2r`) to every key and
//! then write B (value `2r + 1`) to every key, while a background thread
//! resizes the table back and forth.  Whenever the router watermark moves
//! between the two submissions for a key, A and B travel different lanes: A
//! gets bounced off the old owner while B completes at the new owner, and
//! the retried A overwrites B.  After draining, every key must hold its B
//! value; any key holding its A value is a write-write reorder.

#[path = "common/history.rs"]
mod history;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cphash_suite::migrate::RepartitionCoordinator;
use cphash_suite::{CompletionKind, CpHash, CpHashConfig};

use history::{History, Recorder};

const KEYS: u64 = 128;
const ROUNDS: u64 = 200;

#[test]
fn retried_writes_never_reorder_with_later_writes_to_the_same_key() {
    let mut config = CpHashConfig::new(2, 1).with_max_partitions(4);
    config.migration_chunks = 32;
    let (mut table, mut clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let stop = Arc::new(AtomicBool::new(false));

    let resizer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Cycle through partition counts so routing changes continuously
            // while the client pipelines same-key write pairs.
            let targets = [4usize, 2, 3, 2];
            let mut resizes = 0usize;
            while !stop.load(Ordering::Acquire) {
                coordinator
                    .resize_to(targets[resizes % targets.len()])
                    .expect("live resize");
                resizes += 1;
            }
            resizes
        })
    };

    let client = &mut clients[0];
    let history = History::default();
    let mut rec = Recorder::new(&history, 0);
    let mut completions = Vec::new();
    for round in 1..=ROUNDS {
        let first = round * 2;
        let second = round * 2 + 1;
        // Write A to every key, then write B to every key, without waiting:
        // both writes for a key are in flight together, and the sleep between
        // the phases deschedules this thread so the resizer can move the
        // watermark — then A and B route to different owners.
        for key in 0..KEYS {
            rec.submit_insert(client, key, &first.to_le_bytes());
        }
        std::thread::sleep(Duration::from_micros(200));
        for key in 0..KEYS {
            rec.submit_insert(client, key, &second.to_le_bytes());
        }
        completions.clear();
        rec.drain(client, &mut completions).expect("drain writes");

        // All writes have completed; verify with pipelined lookups.
        let tokens: HashMap<u64, u64> = (0..KEYS)
            .map(|key| (rec.submit_lookup(client, key), key))
            .collect();
        completions.clear();
        rec.drain(client, &mut completions).expect("drain lookups");
        for c in &completions {
            let key = tokens[&c.token];
            let value = match &c.kind {
                CompletionKind::LookupHit(v) => {
                    u64::from_le_bytes(v.as_slice().try_into().expect("8-byte value"))
                }
                other => panic!("round {round}: key {key} completed as {other:?}"),
            };
            assert_eq!(
                value,
                second,
                "round {round}: key {key} holds the earlier write {value} after a later \
                 write of {second} completed — a retried write was reordered \
                 ({} migration retries so far)",
                client.migration_retries()
            );
        }
    }

    stop.store(true, Ordering::Release);
    let resizes = resizer.join().expect("resizer");
    assert!(resizes > 0, "resizes overlapped the write rounds");
    drop(clients);
    table.shutdown();
    let gets = history
        .check()
        .expect("every get read its key's last write");
    assert!(gets > 0);
}
