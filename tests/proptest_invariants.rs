//! Property-based tests on the core data structures and protocols:
//!
//! * the partition behaves like a reference `HashMap` under arbitrary
//!   operation sequences (and never exceeds its byte budget);
//! * the ring buffer never loses, duplicates or reorders messages for
//!   arbitrary push/pop interleavings;
//! * the wire protocol and the CPHash request encoding round-trip arbitrary
//!   frames;
//! * the allocator never hands out overlapping live blocks and its
//!   accounting always balances;
//! * the latency histogram's summaries always agree with the raw samples,
//!   merging is equivalent to recording everything into one histogram, and
//!   the trace ring keeps exactly the most recent events across wrap-around.

use std::collections::HashMap;

use bytes::BytesMut;
use proptest::prelude::*;

use cphash_suite::alloc::{class_for_size, class_size, SizeClass, SlabAllocator, SlabConfig};
use cphash_suite::channel::{ring, RingConfig};
use cphash_suite::hashcore::{EvictionPolicy, Partition, PartitionConfig};
use cphash_suite::kvproto::{
    encode_hello, encode_op, encode_reply, OpFrame, Reply, ReplyDecoder, ServerDecoder,
    ServerEvent, ServerOp, VERSION_2,
};
use cphash_suite::perfmon::{trace, LatencyHistogram, StageSpan, TraceStage};
use cphash_suite::table::protocol;

/// Latency-like samples spread across the histogram's full range: exact
/// zeros, small values, bucket boundaries (powers of two) and arbitrary
/// 64-bit values.
fn latency_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..16,
        16u64..4096,
        (0u32..64).prop_map(|b| 1u64 << b),
        any::<u64>(),
    ]
}

/// The bucket upper bound `LatencyHistogram` assigns a value (the same
/// convention `nonzero_buckets` and `percentile` export).
fn expected_bound(value: u64) -> u64 {
    match 64 - value.leading_zeros() {
        0 => 0,
        64 => u64::MAX,
        bits => 1u64 << bits,
    }
}

/// One partition operation for the model-based test.
#[derive(Debug, Clone)]
enum PartitionOp {
    Insert { key: u64, len: usize },
    Lookup { key: u64 },
    Delete { key: u64 },
}

/// Value lengths weighted towards both sides of the 8-byte boundary between
/// a value kept in its element and one kept in a slab block.
fn value_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        1usize..64
    ]
}

fn partition_op() -> impl Strategy<Value = PartitionOp> {
    prop_oneof![
        (0u64..64, value_len()).prop_map(|(key, len)| PartitionOp::Insert { key, len }),
        (0u64..64).prop_map(|key| PartitionOp::Lookup { key }),
        (0u64..64).prop_map(|key| PartitionOp::Delete { key }),
    ]
}

/// Expected-element counts for the partition properties over the 64-key
/// space: 128 (32 lines) keeps most probes inside a line's inline slots,
/// 8 (2 lines) pushes every bucket line past its eight tagged slots so
/// overflow chaining and slot promotion are exercised, not just the fast
/// path.
fn bucket_count() -> impl Strategy<Value = usize> {
    prop_oneof![Just(128usize), Just(8usize)]
}

/// Run `ops` against an unbounded partition and a `HashMap` model, checking
/// every result and every internal invariant after every operation.
fn check_unbounded_against_model(
    buckets: usize,
    ops: &[PartitionOp],
) -> cphash_suite::hashcore::PartitionStats {
    let mut partition = Partition::new(PartitionConfig::new(buckets, None));
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            PartitionOp::Insert { key, len } => {
                let value: Vec<u8> = (0..len).map(|b| (b as u8) ^ (i as u8)).collect();
                partition.insert_copy(key, &value).unwrap();
                model.insert(key, value);
            }
            PartitionOp::Lookup { key } => {
                let mut buf = Vec::new();
                let hit = partition.lookup_copy(key, &mut buf);
                match model.get(&key) {
                    Some(expected) => {
                        assert!(hit);
                        assert_eq!(&buf, expected);
                    }
                    None => assert!(!hit),
                }
            }
            PartitionOp::Delete { key } => {
                assert_eq!(partition.delete(key), model.remove(&key).is_some());
            }
        }
        partition.check_invariants();
    }
    assert_eq!(partition.len(), model.len());
    partition.stats()
}

/// The 8-element geometry really does leave the inline slots: with all 64
/// keys resident in its two lines some line holds more than eight, so
/// looking every key up walks an overflow chain, and deleting them all
/// promotes chain elements back into freed slots (`check_invariants` holds
/// the no-free-slot-before-a-chain rule after each step).
#[test]
fn eight_buckets_force_overflow_chains_and_slot_promotion() {
    let ops: Vec<PartitionOp> = (0..64)
        .map(|key| PartitionOp::Insert { key, len: 8 })
        .chain((0..64).map(|key| PartitionOp::Lookup { key }))
        .chain((0..64).map(|key| PartitionOp::Delete { key }))
        .collect();
    let stats = check_unbounded_against_model(8, &ops);
    assert!(stats.overflow_probes > 0, "no bucket overflowed: {stats:?}");
    assert!(stats.inline_hits > 0, "no probe resolved inline: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unbounded_partition_matches_hashmap_model(
        ops in prop::collection::vec(partition_op(), 1..400),
        buckets in bucket_count(),
    ) {
        check_unbounded_against_model(buckets, &ops);
    }

    #[test]
    fn bounded_partition_never_exceeds_budget_and_keeps_its_invariants(
        ops in prop::collection::vec(partition_op(), 1..300),
        capacity in 64usize..512,
        random_eviction in any::<bool>(),
        buckets in bucket_count(),
    ) {
        let policy = if random_eviction { EvictionPolicy::Random } else { EvictionPolicy::Clock };
        let mut partition = Partition::new(
            PartitionConfig::new(buckets, Some(capacity)).with_eviction(policy),
        );
        for op in &ops {
            match *op {
                PartitionOp::Insert { key, len } => {
                    // Values can exceed the budget; both error cases are legal.
                    let value = vec![0xA5u8; len];
                    let _ = partition.insert_copy(key, &value);
                }
                PartitionOp::Lookup { key } => {
                    let mut buf = Vec::new();
                    let _ = partition.lookup_copy(key, &mut buf);
                }
                PartitionOp::Delete { key } => {
                    let _ = partition.delete(key);
                }
            }
            prop_assert!(partition.bytes_in_use() <= capacity,
                "bytes_in_use {} exceeds capacity {}", partition.bytes_in_use(), capacity);
            partition.check_invariants();
        }
    }

    #[test]
    fn ring_buffer_preserves_every_message_in_order(
        chunks in prop::collection::vec(1usize..50, 1..40),
        capacity in 16usize..256,
    ) {
        let (mut tx, mut rx) = ring::<u64>(RingConfig::with_capacity(capacity));
        let mut sent = 0u64;
        let mut received = Vec::new();
        for chunk in chunks {
            // Push up to `chunk` messages (stopping early if full), flush,
            // then drain everything currently visible.
            for _ in 0..chunk {
                if tx.try_push(sent).is_ok() {
                    sent += 1;
                } else {
                    break;
                }
            }
            tx.flush();
            rx.pop_batch(&mut received, usize::MAX);
        }
        tx.flush();
        rx.pop_batch(&mut received, usize::MAX);
        prop_assert_eq!(received.len() as u64, sent);
        for (i, v) in received.iter().enumerate() {
            prop_assert_eq!(*v, i as u64, "messages reordered");
        }
    }

    #[test]
    fn kv_wire_protocol_roundtrips_arbitrary_frames(
        frames in prop::collection::vec(
            (any::<bool>(), 0u64..=cphash_suite::kvproto::MAX_KEY, prop::collection::vec(any::<u8>(), 0..200)),
            1..30
        ),
        split in 1usize..64,
    ) {
        // Encode a session — the handshake, then a stream of frames — and
        // decode it in arbitrary-sized slices; the decoded sequence must
        // match exactly.
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, VERSION_2);
        let mut expected = vec![ServerEvent::Hello { requested: VERSION_2 }];
        for (is_lookup, key, value) in &frames {
            let frame = if *is_lookup {
                OpFrame::lookup(*key)
            } else {
                OpFrame::insert(*key, value.clone())
            };
            encode_op(&mut wire, &frame);
            expected.push(ServerEvent::Op(ServerOp { frame }));
        }
        let mut decoder = ServerDecoder::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(split) {
            decoder.feed(piece);
            decoder.drain(&mut decoded).unwrap();
        }
        prop_assert_eq!(decoded, expected);
    }

    #[test]
    fn kv_responses_roundtrip(values in prop::collection::vec(prop::option::of(prop::collection::vec(any::<u8>(), 0..100)), 1..20)) {
        // A hit may carry an empty value; it must not read as a miss.
        let replies: Vec<Reply> = values
            .iter()
            .map(|v| v.clone().map_or_else(Reply::miss, Reply::ok_value))
            .collect();
        let mut wire = BytesMut::new();
        for reply in &replies {
            encode_reply(&mut wire, reply);
        }
        let mut decoder = ReplyDecoder::new();
        decoder.feed(&wire);
        for reply in &replies {
            let decoded = decoder.next_reply().unwrap().expect("frame present");
            prop_assert_eq!(&decoded, reply);
        }
        prop_assert!(decoder.next_reply().unwrap().is_none());
    }

    #[test]
    fn cphash_request_words_roundtrip(
        key in 0u64..=cphash_suite::MAX_KEY,
        size in any::<u64>(),
        id in any::<u32>(),
        selector in 0u8..6,
    ) {
        use cphash_suite::hashcore::{ElementId, InlineValue};
        let request = match selector {
            0 => protocol::Request::Lookup { key },
            1 => protocol::Request::Insert { key, size },
            2 => protocol::Request::Ready { id: ElementId(id) },
            3 => protocol::Request::Decref { id: ElementId(id) },
            4 => protocol::Request::InsertInline {
                key,
                value: InlineValue::new(&size.to_le_bytes()[..id as usize % 9]).unwrap(),
            },
            _ => protocol::Request::Delete { key },
        };
        let (w0, w1) = protocol::encode(&request);
        prop_assert_eq!(1 + w1.iter().len(), protocol::request_words(&request));
        prop_assert_eq!(protocol::decode(w0, w1), Some(request));
    }

    #[test]
    fn allocator_blocks_never_overlap_and_accounting_balances(
        // Sizes one below, on and one above a class boundary (8 B .. 8 KiB):
        // where a mis-rounded request would land in a block too small for it.
        sizes in prop::collection::vec(
            (0..=class_for_size(8 * 1024).0, 0usize..3),
            1..100,
        ),
        capacity in prop::option::of(4096usize..65536),
    ) {
        let mut allocator = SlabAllocator::new(SlabConfig {
            capacity_bytes: capacity,
            ..SlabConfig::default()
        });
        let mut live: Vec<cphash_suite::alloc::ValueHandle> = Vec::new();
        for (i, &(class, step)) in sizes.iter().enumerate() {
            let boundary = class_size(SizeClass(class));
            let size = boundary - 1 + step;
            if i % 3 == 2 && !live.is_empty() {
                // Free an arbitrary live block.
                let h = live.swap_remove(i % live.len());
                allocator.free(h);
            } else if let Some(handle) = allocator.allocate(size) {
                prop_assert!(handle.block_bytes() >= size);
                prop_assert_eq!(handle.block_bytes() == boundary, step < 2);
                prop_assert_eq!(handle.block_bytes(), SlabAllocator::block_bytes_for(size));
                live.push(handle);
            }
            // No two live blocks may overlap.
            let mut ranges: Vec<(u64, u64)> = live
                .iter()
                .map(|h| (h.addr(), h.addr() + h.block_bytes().max(1) as u64))
                .collect();
            ranges.sort_unstable();
            for pair in ranges.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "live blocks overlap");
            }
            prop_assert_eq!(
                allocator.bytes_in_use(),
                live.iter().map(|h| h.block_bytes()).sum::<usize>()
            );
            if let Some(cap) = capacity {
                prop_assert!(allocator.bytes_in_use() <= cap);
            }
        }
        let outstanding = live.len();
        for handle in live.drain(..) {
            allocator.free(handle);
        }
        prop_assert_eq!(allocator.bytes_in_use(), 0);
        prop_assert_eq!(allocator.stats().outstanding(), 0);
        prop_assert!(allocator.stats().total_frees >= outstanding as u64);
    }

    #[test]
    fn latency_histogram_summaries_match_the_samples(
        samples in prop::collection::vec(latency_sample(), 1..300),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().map(|&v| v as u128).sum::<u128>());
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        // Percentiles are monotone in the percentile and the top one bounds
        // every sample (bucket upper bounds are `>=` their contents).
        let pcts = [0.0, 10.0, 50.0, 90.0, 99.0, 100.0];
        let values: Vec<u64> = pcts.iter().map(|&p| h.percentile(p)).collect();
        for pair in values.windows(2) {
            prop_assert!(pair[0] <= pair[1], "percentiles regressed: {values:?}");
        }
        prop_assert!(*values.last().unwrap() >= h.max());
        // The exported buckets are exactly the per-bound sample counts.
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut bounds: Vec<u64> = samples.iter().map(|&v| expected_bound(v)).collect();
        bounds.sort_unstable();
        for bound in bounds {
            match expected.last_mut() {
                Some((b, c)) if *b == bound => *c += 1,
                _ => expected.push((bound, 1)),
            }
        }
        prop_assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn latency_histogram_merge_equals_recording_into_one(
        a in prop::collection::vec(latency_sample(), 0..200),
        b in prop::collection::vec(latency_sample(), 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
            combined.record(v);
        }
        for &v in &b {
            hb.record(v);
            combined.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), combined.count());
        prop_assert_eq!(ha.sum(), combined.sum());
        prop_assert_eq!(ha.min(), combined.min());
        prop_assert_eq!(ha.max(), combined.max());
        prop_assert_eq!(
            ha.nonzero_buckets().collect::<Vec<_>>(),
            combined.nonzero_buckets().collect::<Vec<_>>()
        );
        for pct in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            prop_assert_eq!(ha.percentile(pct), combined.percentile(pct), "pct {}", pct);
        }
    }

    #[test]
    fn trace_ring_wraparound_keeps_the_most_recent_events(
        capacity in 1usize..64,
        events in 1usize..200,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Ring capacity binds at a thread's first recorded event, so each
        // case runs on a fresh, uniquely named thread.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let name = format!("proptest-trace-{}", CASE.fetch_add(1, Ordering::Relaxed));
        trace::set_ring_capacity(capacity);
        trace::set_trace_enabled(true);
        std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                for i in 0..events {
                    let span = StageSpan::begin(TraceStage::Execute);
                    span.finish(i as u32);
                }
            })
            .unwrap()
            .join()
            .unwrap();
        trace::set_trace_enabled(false);

        let report = trace::snapshot(usize::MAX);
        let thread = report
            .threads
            .iter()
            .find(|t| t.name == name)
            .expect("traced thread registered");
        prop_assert_eq!(thread.total, events as u64);
        prop_assert_eq!(thread.events.len(), events.min(capacity));
        // The retained window is the most recent events, oldest first: the
        // `ops` stamps must be the trailing run of the recorded sequence.
        let oldest_retained = events - thread.events.len();
        for (offset, event) in thread.events.iter().enumerate() {
            prop_assert_eq!(event.ops as usize, oldest_retained + offset);
            prop_assert_eq!(event.stage as usize, TraceStage::Execute as usize);
        }
        // Histograms are cumulative across wrap-around: every event counts.
        let mut recorded = 0u64;
        for t in &report.threads {
            if t.name == name {
                recorded = t.total;
            }
        }
        prop_assert!(report.stage(TraceStage::Execute).count() >= recorded);
    }
}
