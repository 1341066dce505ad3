//! Property-based and adversarial tests for the ring-buffer channel: no
//! message may ever be lost, duplicated or reordered, no matter how pushes,
//! flushes and pops interleave, and the capacity bound must hold exactly.

use proptest::prelude::*;

use cphash_channel::{duplex, ring, RingConfig};

/// One scripted action against the ring.
#[derive(Debug, Clone, Copy)]
enum Action {
    Push(u8),
    Flush,
    Pop(u8),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u8..32).prop_map(Action::Push),
        Just(Action::Flush),
        (1u8..32).prop_map(Action::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scripted_interleavings_never_lose_or_reorder(
        actions in prop::collection::vec(action(), 1..200),
        capacity in 4usize..128,
    ) {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(capacity));
        let real_capacity = tx.capacity() as u64;
        let mut pushed = 0u64;
        let mut popped = Vec::new();
        for act in actions {
            match act {
                Action::Push(n) => {
                    for _ in 0..n {
                        if tx.try_push(pushed).is_ok() {
                            pushed += 1;
                        }
                    }
                    // Outstanding (accepted but unconsumed) messages can
                    // never exceed the ring capacity.
                    prop_assert!(pushed - popped.len() as u64 <= real_capacity);
                }
                Action::Flush => {
                    tx.flush();
                }
                Action::Pop(n) => {
                    for _ in 0..n {
                        match rx.try_pop() {
                            Some(v) => popped.push(v),
                            None => break,
                        }
                    }
                }
            }
        }
        tx.flush();
        rx.pop_batch(&mut popped, usize::MAX);
        prop_assert_eq!(popped.len() as u64, pushed);
        for (expected, got) in popped.iter().enumerate() {
            prop_assert_eq!(*got, expected as u64);
        }
    }

    #[test]
    fn duplex_round_trips_arbitrary_batches(batches in prop::collection::vec(1usize..200, 1..20)) {
        let (mut client, mut server) = duplex::<u64, u64>(RingConfig::with_capacity(256));
        let mut next = 0u64;
        for batch in batches {
            let mut expected = Vec::with_capacity(batch);
            for _ in 0..batch {
                client.send_blocking(next);
                expected.push(next + 7);
                next += 1;
            }
            client.flush();
            // Serve everything.
            let mut served = 0;
            let mut reqs = Vec::new();
            while served < batch {
                reqs.clear();
                let n = server.recv_batch(&mut reqs, batch);
                for r in &reqs {
                    server.send_blocking(r + 7);
                }
                server.flush();
                served += n;
            }
            // Collect all responses.
            let mut resps = Vec::new();
            while resps.len() < batch {
                client.recv_batch(&mut resps, batch);
            }
            prop_assert_eq!(resps, expected);
        }
    }
}

/// Two real threads hammer one ring with randomized pacing; every message
/// must arrive exactly once, in order.  (Not a proptest because it spawns
/// threads; randomness comes from thread scheduling.)
#[test]
fn cross_thread_fuzz_with_bursty_producer() {
    const N: u64 = 300_000;
    let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(512));
    let producer = std::thread::spawn(move || {
        let mut sent = 0u64;
        let mut burst = 1usize;
        while sent < N {
            for _ in 0..burst {
                if sent < N {
                    tx.push_blocking(sent);
                    sent += 1;
                }
            }
            tx.flush();
            burst = (burst * 7 + 3) % 61 + 1;
            if burst.is_multiple_of(9) {
                std::thread::yield_now();
            }
        }
        tx.flush();
    });
    let consumer = std::thread::spawn(move || {
        let mut expected = 0u64;
        let mut batch = Vec::with_capacity(256);
        while expected < N {
            batch.clear();
            if rx.pop_batch(&mut batch, 256) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in &batch {
                assert_eq!(*v, expected, "lost or reordered message");
                expected += 1;
            }
        }
        expected
    });
    producer.join().unwrap();
    assert_eq!(consumer.join().unwrap(), N);
}
