//! The model-check suites for the repo's concurrency cores.
//!
//! Each function builds one small, closed concurrent scenario over the real
//! shipped types (`cphash-channel` rings and doorbell, the `cphash-core`
//! epoch router, the `cphash-sync` spinlock) and hands it to the vendored
//! loom-style explorer, which enumerates every interleaving of the tracked
//! atomic operations at these bounds.  The returned [`Report`] carries the
//! execution count and, on failure, a [`loom::Violation`] with the exact
//! schedule — feed it to [`loom::Builder::replay`] to re-run that one
//! interleaving under a debugger.
//!
//! Everything here compiles only under `RUSTFLAGS="--cfg cphash_model"`,
//! which swaps the `cphash_sync::atomic` facade from std atomics to the
//! tracked model types.  Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg cphash_model" cargo test -p cphash-modelcheck
//! ```

use std::sync::Arc;

use cphash::EpochRouter;
use cphash_channel::{ring, Consumer, Doorbell, RingConfig};
use cphash_sync::{ModelUnsafeCell, RawSpinLock};
use loom::{Builder, Report};

/// A builder with suite-appropriate bounds: exhaustive, but with a branch
/// guard high enough that none of the scenarios below ever trips it.
fn builder() -> Builder {
    Builder::new()
}

/// SPSC ring: three messages through a two-slot ring (forced wrap-around),
/// producer publishing with `push_batch`/`flush`, consumer draining with
/// `pop_batch`.  Asserts no message is lost, duplicated, or reordered on
/// any interleaving.
pub fn check_ring_transfer() -> Report {
    builder().explore(|| {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(2));
        let handle = loom::thread::spawn(move || {
            let msgs = [1u64, 2, 3];
            let mut sent = 0;
            while sent < msgs.len() {
                let n = tx.push_batch(&msgs[sent..]);
                sent += n;
                if n == 0 {
                    cphash_sync::spin_hint();
                }
            }
        });
        let mut got: Vec<u64> = Vec::new();
        let mut out: Vec<u64> = Vec::new();
        while got.len() < 3 {
            out.clear();
            if rx.pop_batch(&mut out, 4) == 0 {
                cphash_sync::spin_hint();
            }
            got.extend_from_slice(&out);
        }
        assert_eq!(got, [1, 2, 3], "ring lost, duplicated or reordered");
        handle.join().unwrap();
    })
}

/// The seeded-bug regression, broken half: publish the write index with
/// `Relaxed` (`flush_weak_for_modelcheck`) instead of `Release`.  The
/// checker must catch the consumer's unsynchronized slot read as a data
/// race on the schedule where the store lands before the load.
pub fn check_ring_seeded_bug() -> Report {
    builder().explore(seeded_bug_scenario)
}

/// Replay one exact schedule of the seeded-bug scenario (as printed in the
/// violation from [`check_ring_seeded_bug`]).  Returns the reproduced
/// violation — the race must re-fire deterministically on its schedule.
pub fn replay_ring_seeded_bug(schedule: &[usize]) -> Option<loom::Violation> {
    builder().replay(schedule, seeded_bug_scenario)
}

fn seeded_bug_scenario() {
    // One u64 is an eighth of the line a ring publishes on its own, so
    // `try_push` does not publish: the weak flush below is the only
    // publication.
    let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(4));
    let handle = loom::thread::spawn(move || {
        tx.try_push(7).unwrap();
        tx.flush_weak_for_modelcheck();
    });
    if let Some(v) = rx.try_pop() {
        assert_eq!(v, 7);
    }
    handle.join().unwrap();
}

/// The seeded-bug regression, shipped half: the identical protocol with the
/// real `flush()` (Release publish) is clean.  The state space is exactly
/// countable at these bounds: the producer thread performs two tracked
/// stores (the `flush` publish and the drop-time `producer_alive` flag) and
/// the consumer one tracked load, so the load lands in one of exactly three
/// positions — three executions, all explored.
pub fn check_ring_shipped_flush() -> Report {
    builder().explore(|| {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(4));
        let handle = loom::thread::spawn(move || {
            tx.try_push(7).unwrap();
            tx.flush();
        });
        if let Some(v) = rx.try_pop() {
            assert_eq!(v, 7);
        }
        handle.join().unwrap();
    })
}

/// How the consumer of the doorbell scenarios goes to sleep: the shipped
/// [`Doorbell::park_unless`] or the seeded check-then-announce variant.
type ParkFn = fn(&Doorbell, &mut dyn FnMut() -> bool) -> bool;

/// Two producers, each with its own ring and one message, share one
/// doorbell; the consumer sleeps behind it until both messages are visible
/// and has nothing but the doorbell to wake it (the model never wakes a
/// parked thread on its own, and there is no timeout).  Each producer does
/// exactly what a CPHash client does: queue, then the explicit `flush()` —
/// publish, fence, look at the flag, wake if it is up.
fn doorbell_scenario(park: ParkFn) {
    // One u64 is an eighth of the line a ring publishes on its own, so
    // `try_push` does not publish: the explicit flush is the only
    // publication and the only ring.
    let cfg = RingConfig::with_capacity(2);
    let bell = Arc::new(Doorbell::new());
    let mut consumers: Vec<Consumer<u64>> = Vec::new();
    let mut producers = Vec::new();
    for message in [1u64, 2] {
        let (tx, rx) = ring::<u64>(cfg);
        let mut tx = tx.with_doorbell(Arc::clone(&bell));
        consumers.push(rx);
        producers.push(loom::thread::spawn(move || {
            tx.try_push(message).unwrap();
            tx.flush();
            // Handed back so the drop (a tracked liveness store) happens
            // after the join, outside the explored window.
            tx
        }));
    }
    // "Pending" is the consumer's whole goal here — both messages visible —
    // so every early return of the park is re-checked by the next call and
    // the loop ends exactly when nothing is left to wait for.
    while park(&bell, &mut || {
        consumers.iter_mut().all(|rx| rx.available() > 0)
    }) {}
    for (rx, message) in consumers.iter_mut().zip([1u64, 2]) {
        assert_eq!(rx.try_pop(), Some(message));
    }
    for producer in producers {
        drop(producer.join().unwrap());
    }
}

/// The doorbell handshake as shipped: announce, fence, re-check, sleep on
/// one side; publish, fence, look, wake on the other.  Exhaustive over two
/// producers and the consumer: on no interleaving does the consumer stay
/// asleep with a message published (the explorer reports a parked thread
/// nobody is left to wake as a lost wake-up).
pub fn check_doorbell_no_lost_wakeup() -> Report {
    builder().explore(|| doorbell_scenario(|bell, pending| bell.park_unless(pending)))
}

/// The seeded-bug regression for the doorbell: the consumer looks at its
/// rings *before* raising the flag.  A flush that lands in between sees the
/// flag down and does not wake; the consumer then sleeps on a published
/// message.  The checker must report the lost wake-up.
pub fn check_doorbell_check_then_announce() -> Report {
    builder().explore(seeded_doorbell_scenario)
}

/// Replay one exact schedule of the seeded doorbell scenario.
pub fn replay_doorbell_check_then_announce(schedule: &[usize]) -> Option<loom::Violation> {
    builder().replay(schedule, seeded_doorbell_scenario)
}

fn seeded_doorbell_scenario() {
    doorbell_scenario(|bell, pending| bell.park_check_then_announce_for_modelcheck(pending))
}

/// Epoch router: a coordinator runs a full 2-chunk transition while an
/// observer snapshots concurrently.  Asserts that within one epoch the
/// watermark never moves backwards, counts stay in range, and a completed
/// snapshot (`watermark == chunks`) is never in transition.
pub fn check_router_watermark_monotonic() -> Report {
    builder().explore(|| {
        let router = Arc::new(EpochRouter::new(1, 2, 2));
        let r2 = Arc::clone(&router);
        let coordinator = loom::thread::spawn(move || {
            r2.begin_transition(2).unwrap();
            r2.advance_watermark(1);
            r2.advance_watermark(2);
        });
        let mut prev = router.snapshot();
        for _ in 0..2 {
            let snap = router.snapshot();
            assert!(snap.old_partitions >= 1 && snap.new_partitions <= 2);
            assert!(snap.watermark <= 2);
            if snap.watermark == 2 {
                assert!(!snap.in_transition(), "complete snapshot still split");
            }
            if snap.epoch == prev.epoch {
                assert!(
                    snap.watermark >= prev.watermark,
                    "watermark moved backwards within an epoch"
                );
            }
            prev = snap;
        }
        coordinator.join().unwrap();
        let done = router.snapshot();
        assert_eq!(done.new_partitions, 2);
        assert!(!done.in_transition());
    })
}

/// Mutual exclusion for the TTAS spinlock: two threads increment a shared
/// cell under the lock; the model's race detector proves the critical
/// sections never overlap and the final count is exact.
pub fn check_mutual_exclusion() -> Report {
    builder().explore(|| {
        let shared = Arc::new((RawSpinLock::new(), ModelUnsafeCell::new(0u64)));
        let s2 = Arc::clone(&shared);
        let handle = loom::thread::spawn(move || {
            s2.0.lock();
            s2.1.with_mut(|p| {
                // SAFETY: model-checked — the lock must make this access
                // exclusive on every explored schedule.
                unsafe { *p += 1 }
            });
            s2.0.unlock();
        });
        shared.0.lock();
        shared.1.with_mut(|p| {
            // SAFETY: as above.
            unsafe { *p += 1 }
        });
        shared.0.unlock();
        handle.join().unwrap();
        shared.0.lock();
        let total = shared.1.with(|p| {
            // SAFETY: read under the lock after both writers finished.
            unsafe { *p }
        });
        shared.0.unlock();
        assert_eq!(total, 2, "lost increment — mutual exclusion broken");
    })
}
