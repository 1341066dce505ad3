//! Real-thread ordering-stress tests mirroring each model-check suite.
//!
//! The model checker (`src/suites.rs`) proves the protocols correct over
//! every interleaving of a *small* closed scenario under the simulated
//! memory model.  These tests run the same protocols big and hot on actual
//! OS threads — 4+ threads, tens of thousands of operations, randomized
//! yields to perturb the schedule — so the invariants are also exercised
//! under whatever weak-memory reordering the host hardware really does.
//!
//! They compile only in the normal (non-model) configuration: under
//! `--cfg cphash_model` the atomics facade is the single-threaded model
//! runtime and real `std::thread` concurrency would be meaningless.

#![cfg(not(cphash_model))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use cphash::EpochRouter;
use cphash_channel::{ring, Doorbell, RingConfig};
use cphash_sync::{ModelUnsafeCell, RawSpinLock};

/// A tiny xorshift PRNG so each thread can perturb its own schedule
/// deterministically (no external crates, no global state).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Yield the OS scheduler slot roughly once per 13 calls.  Frequent
    /// yields matter on small machines: with one hardware thread a spin
    /// loop burns its whole quantum before the peer can run at all.
    fn maybe_yield(&mut self) {
        if self.next().is_multiple_of(13) {
            thread::yield_now();
        }
    }
}

/// Mirror of `check_ring_transfer`: two independent producer/consumer
/// pairs (4 threads) stream tens of thousands of messages through small
/// rings, forcing constant wrap-around.  Every message must arrive exactly
/// once, in order.
#[test]
fn ring_transfer_stress() {
    const PER_PAIR: u64 = 20_000;
    let mut joins = Vec::new();
    for pair in 0..2u64 {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(8));
        joins.push(thread::spawn(move || {
            let mut rng = XorShift::new(0x9E37_79B9 + pair);
            let msgs: Vec<u64> = (0..PER_PAIR).collect();
            let mut sent = 0usize;
            while sent < msgs.len() {
                let n = tx.push_batch(&msgs[sent..(sent + 16).min(msgs.len())]);
                sent += n;
                if n == 0 {
                    cphash_sync::spin_hint();
                }
                rng.maybe_yield();
            }
        }));
        joins.push(thread::spawn(move || {
            let mut rng = XorShift::new(0xDEAD_BEEF + pair);
            let mut expected = 0u64;
            let mut out = Vec::new();
            while expected < PER_PAIR {
                out.clear();
                if rx.pop_batch(&mut out, 32) == 0 {
                    cphash_sync::spin_hint();
                }
                for &v in &out {
                    assert_eq!(v, expected, "ring lost, duplicated or reordered a slot");
                    expected += 1;
                }
                rng.maybe_yield();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

/// Mirror of `check_doorbell_no_lost_wakeup`, and the half of the argument
/// the model cannot give: it explores sequentially consistent interleavings,
/// so it shows the *order* of announce → re-check and publish → look is
/// right but would pass with both `SeqCst` fences deleted.  Here two
/// producers publish a million messages through real store buffers while
/// the consumer tries to sleep after every one it takes; each producer
/// waits for its message to be consumed before sending the next, so every
/// round is a fresh race between one flush and one park, and nothing but
/// the doorbell — no timeout, no periodic poll — can end a sleep.  One lost
/// wake-up hangs the test.
///
/// What it is worth, measured on the 2-CPU reference host: with the
/// consumer's fence deleted it hangs within seconds in two runs of four;
/// with only the producer's deleted it passed every time (the consumer's
/// `mfence` makes its own sequence too slow to fit inside the few
/// nanoseconds a store hides behind a load there), so that fence rests on
/// the argument in its `// ordering:` comment, not on this test.
#[test]
fn doorbell_publish_park_stress() {
    const ROUNDS: u64 = 1_000_000;
    const PRODUCERS: u64 = 2;
    let bell = Arc::new(Doorbell::new());
    let mut consumers = Vec::new();
    let mut joins = Vec::new();
    for producer in 0..PRODUCERS {
        let (tx, rx) = ring::<u64>(RingConfig::with_capacity(8));
        let mut tx = tx.with_doorbell(Arc::clone(&bell));
        consumers.push(rx);
        joins.push(thread::spawn(move || {
            let mut rng = XorShift::new(0xD00B_E110 + producer);
            for i in 0..ROUNDS / PRODUCERS {
                tx.try_push(i).unwrap();
                tx.flush();
                // Lock-step: the next publish races the consumer's next
                // attempt to sleep, not a backlog.
                while tx.free_slots() < tx.capacity() {
                    cphash_sync::spin_hint();
                }
                rng.maybe_yield();
            }
        }));
    }
    let mut expected = vec![0u64; consumers.len()];
    let mut received = 0u64;
    let mut sleeps = 0u64;
    let mut out = Vec::new();
    while received < ROUNDS {
        // Sleep first, drain second: the attempt to sleep comes right
        // behind the read-index publish that releases the next flush.
        sleeps += bell.park_unless(|| consumers.iter_mut().any(|rx| rx.available() > 0)) as u64;
        for (rx, next) in consumers.iter_mut().zip(expected.iter_mut()) {
            out.clear();
            rx.pop_batch(&mut out, 8);
            for &v in &out {
                assert_eq!(v, *next, "ring lost, duplicated or reordered a slot");
                *next += 1;
                received += 1;
            }
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    assert!(sleeps > 0, "the consumer never actually slept");
}

/// Mirror of `check_router_watermark_monotonic`: one coordinator cycles
/// the router through repeated full transitions while three observers
/// snapshot continuously.  Within one epoch the watermark never moves
/// backwards, counts stay in range, and a complete snapshot is never
/// still in transition.
#[test]
fn router_watermark_stress() {
    const CHUNKS: usize = 8;
    let router = Arc::new(EpochRouter::new(1, CHUNKS, 16));
    let done = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for observer in 0..3u64 {
        let router = Arc::clone(&router);
        let done = Arc::clone(&done);
        joins.push(thread::spawn(move || {
            let mut rng = XorShift::new(0xABCD_EF01 + observer);
            let mut prev = router.snapshot();
            while !done.load(Ordering::Relaxed) {
                let snap = router.snapshot();
                assert!(snap.old_partitions >= 1 && snap.new_partitions <= 16);
                assert!(snap.watermark <= CHUNKS);
                if snap.watermark == CHUNKS {
                    assert!(!snap.in_transition(), "complete snapshot still split");
                }
                if snap.epoch == prev.epoch {
                    assert!(
                        snap.watermark >= prev.watermark,
                        "watermark moved backwards within an epoch"
                    );
                }
                prev = snap;
                rng.maybe_yield();
            }
        }));
    }
    let mut rng = XorShift::new(0x1234_5678);
    for round in 0..50usize {
        let target = [2usize, 4, 8, 16, 1][round % 5];
        router.begin_transition(target).unwrap();
        for w in 1..=CHUNKS {
            router.advance_watermark(w);
            rng.maybe_yield();
        }
        let snap = router.snapshot();
        assert_eq!(snap.new_partitions, target);
        assert!(!snap.in_transition());
    }
    done.store(true, Ordering::Relaxed);
    for j in joins {
        j.join().unwrap();
    }
}

/// Mirror of `check_mutual_exclusion`: four threads hammer one counter
/// under the spinlock; the total must be exact.
#[test]
fn spinlock_mutex_stress() {
    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 10_000;
    let shared = Arc::new((RawSpinLock::new(), ModelUnsafeCell::new(0u64)));
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let shared = Arc::clone(&shared);
        joins.push(thread::spawn(move || {
            let mut rng = XorShift::new(0xA5A5_0000 + t);
            for _ in 0..INCREMENTS {
                shared.0.lock();
                shared.1.with_mut(|p| {
                    // SAFETY: exclusive by mutual exclusion of the lock —
                    // exactly the property under test; the model-check
                    // suite proves it for the small bound, this hammers it.
                    unsafe { *p += 1 }
                });
                shared.0.unlock();
                rng.maybe_yield();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let total = shared.1.with(|p| {
        // SAFETY: all writers joined; no concurrent access remains.
        unsafe { *p }
    });
    assert_eq!(
        total,
        THREADS * INCREMENTS,
        "lost increment — mutual exclusion broken"
    );
}
