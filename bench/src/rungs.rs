//! Single-layer rungs: each drives one layer alone through its public API
//! with the workload's own op stream, on one thread (except the channel
//! echo and the LockHash baseline), for a *fixed operation count* — so the
//! counters they report repeat exactly from run to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use cphash_alloc::SlabAllocator;
use cphash_channel::{duplex, ring, RingConfig};
use cphash_hashcore::{Partition, PartitionConfig};
use cphash_kvproto::{
    encode_hello, encode_op, encode_reply_parts, ErrCode, OpFrame, ReplyDecoder, ServerDecoder,
    ServerEvent, Status, VERSION_2,
};
use cphash_lockhash::{LockHash, LockHashConfig};

use crate::alloc_count;
use crate::engine::{stored_value, user_value, Clock};
use crate::gen::{check_value, fill_value, KeyKind, KeySpace, OpStream};
use crate::host;
use crate::span::{SpanName, SpanRecorder};
use crate::spec::{Metrics, Workload, RUNG_BATCH};

/// Operations the hashcore rung executes.
const HASHCORE_OPS: usize = 2_000_000;
/// Allocate/free pairs the alloc rung executes.
const ALLOC_PAIRS: usize = 1_000_000;
/// Live blocks the alloc rung keeps (so frees hit warm free lists).
const ALLOC_LIVE: usize = 4_096;
/// Messages each channel rung moves.
const CHANNEL_MSGS: usize = 4_000_000;
/// Messages the echo rung keeps in flight.
const CHANNEL_WINDOW: usize = 512;
/// Operations the kvproto rung encodes and decodes.
const KVPROTO_OPS: usize = 200_000;
/// LockHash partitions (the paper's configuration, and the crate default).
const LOCKHASH_THREADS: usize = 2;

/// Stored size of one value of the workload.
pub fn stored_len(w: &Workload, keys: &KeySpace) -> usize {
    match w.key_kind {
        KeyKind::U64 => w.value_bytes,
        // Byte keys are 16..=24 bytes; use key 0's length as representative.
        KeyKind::Bytes => 4 + keys.byte_key(0).len() + w.value_bytes,
    }
}

/// Operations a rung executed and how many of them gave a wrong result.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Operations executed.
    pub ops: u64,
    /// Operations whose result was wrong.
    pub failed: u64,
}

/// A bare `Partition` sized like the workload's table, driven in staged
/// batches of 64: prepare all → prefetch all → execute all.
pub fn hashcore(
    w: &Workload,
    keys: &KeySpace,
    seed: u64,
    clock: &Clock,
    rec: &mut SpanRecorder,
    out: &mut Metrics,
) -> Outcome {
    let rss0 = host::rss_bytes();
    let mut partition = Partition::new(PartitionConfig {
        buckets: w.buckets,
        capacity_bytes: None,
        ..Default::default()
    });
    let mut versions = vec![1u32; keys.len()];
    let mut value = vec![0u8; w.value_bytes];
    let mut failed = 0u64;
    for index in 0..keys.len() as u32 {
        fill_value(index, 1, &mut value);
        let stored = stored_value(keys, index, &value);
        failed += partition
            .insert_copy(keys.table_key(index), &stored)
            .is_err() as u64;
    }
    let bytes_per_key = host::rss_bytes().saturating_sub(rss0) as f64 / keys.len() as f64;
    partition.reset_stats();

    let mut stream = OpStream::new(seed, 0, w.keys, w.write_permille, w.popularity);
    let mut ops = Vec::with_capacity(RUNG_BATCH);
    let mut prepared = Vec::with_capacity(RUNG_BATCH);
    // Per-slot buffers: the bytes a write stores, the bytes a read returned.
    // Values are generated before and verified after the timed spans, so
    // the spans hold calls into the partition and nothing else.
    let mut stored: Vec<Vec<u8>> = vec![Vec::new(); RUNG_BATCH];
    let mut returned: Vec<Option<Vec<u8>>> = vec![Some(Vec::new()); RUNG_BATCH];
    let mut scratch = Vec::new();
    for batch in 0..(HASHCORE_OPS / RUNG_BATCH) as u64 {
        ops.clear();
        ops.extend((0..RUNG_BATCH).map(|_| stream.next_op()));
        for (op, slot) in ops.iter().zip(stored.iter_mut()) {
            if op.write {
                let version = &mut versions[op.index as usize];
                *version += 1;
                fill_value(op.index, *version, &mut value);
                slot.clear();
                slot.extend_from_slice(&stored_value(keys, op.index, &value));
            }
        }
        rec.begin(SpanName::HashcorePrepare, batch);
        prepared.clear();
        prepared.extend(
            ops.iter()
                .map(|op| partition.prepare(keys.table_key(op.index))),
        );
        rec.end(RUNG_BATCH as u32);
        rec.begin(SpanName::HashcorePrefetch, batch);
        for prep in &prepared {
            partition.prefetch_prepared(prep);
        }
        rec.end(RUNG_BATCH as u32);
        rec.begin(SpanName::HashcoreExecute, batch);
        for (slot, (op, prep)) in ops.iter().zip(prepared.drain(..)).enumerate() {
            if op.write {
                match partition.insert_prepared(prep, stored[slot].len()) {
                    Ok(reservation) => partition.fill_and_ready(reservation.id, &stored[slot]),
                    Err(_) => failed += 1,
                }
            } else {
                let out = returned[slot].get_or_insert_with(Vec::new);
                match partition.lookup_prepared(prep) {
                    Some(hit) => {
                        partition.read_value(&hit, out);
                        partition.decref(hit.id);
                    }
                    None => returned[slot] = None,
                }
            }
        }
        rec.end(RUNG_BATCH as u32);
        // Single-threaded: a read returns the key's latest version, or an
        // older one only when a write later in this same batch bumped it.
        for (slot, op) in ops.iter().enumerate().filter(|(_, op)| !op.write) {
            let got = returned[slot]
                .as_deref()
                .and_then(|bytes| user_value(keys, op.index, bytes))
                .and_then(|v| check_value(op.index, v, w.value_bytes, &mut scratch));
            failed += got.is_none_or(|v| v > versions[op.index as usize]) as u64;
        }
    }
    let ops_done = (HASHCORE_OPS / RUNG_BATCH * RUNG_BATCH) as f64;
    let stats = partition.stats();
    let staged: u64 = [
        SpanName::HashcorePrepare,
        SpanName::HashcorePrefetch,
        SpanName::HashcoreExecute,
    ]
    .iter()
    .map(|&n| rec.totals(n).cycles)
    .sum();
    let per_op = |count: u64| count as f64 / ops_done;
    out.put("hashcore.cycles_per_op", per_op(staged));
    out.put("hashcore.ops_s", ops_done / clock.seconds(staged));
    out.put("hashcore.hit_ratio", stats.hit_rate());
    out.put("hashcore.inline_hit_ratio", per_op(stats.inline_hits));
    out.put(
        "hashcore.overflow_probes_per_op",
        per_op(stats.overflow_probes),
    );
    out.put(
        "hashcore.tag_false_positives_per_mop",
        per_op(stats.tag_false_positives) * 1e6,
    );
    out.put(
        "hashcore.evictions_per_insert",
        stats.evictions as f64 / stats.inserts.max(1) as f64,
    );
    out.put("hashcore.bytes_per_key", bytes_per_key);
    Outcome {
        ops: ops_done as u64,
        failed,
    }
}

/// The value slab alone: free one block, allocate one, over a warm set.
pub fn alloc(w: &Workload, keys: &KeySpace, seed: u64, rec: &mut SpanRecorder, out: &mut Metrics) {
    let size = stored_len(w, keys);
    let mut slab = SlabAllocator::unbounded();
    let mut live: Vec<_> = (0..ALLOC_LIVE)
        .map(|_| slab.allocate(size).expect("unbounded slab allocates"))
        .collect();
    let block_bytes = live[0].block_bytes();
    let mut rng = crate::gen::Rng::new(seed ^ 0x0061_6C6C_6F63);
    for batch in 0..(ALLOC_PAIRS / RUNG_BATCH) as u64 {
        rec.begin(SpanName::AllocCycle, batch);
        for _ in 0..RUNG_BATCH {
            let slot = rng.below(ALLOC_LIVE as u64) as usize;
            slab.free(live[slot]);
            live[slot] = slab.allocate(size).expect("unbounded slab allocates");
        }
        rec.end(RUNG_BATCH as u32);
    }
    for handle in live {
        slab.free(handle);
    }
    out.put(
        "alloc.cycles_per_alloc_free",
        rec.cycles_per_op(SpanName::AllocCycle).unwrap_or(0.0),
    );
    out.put(
        "alloc.block_bytes_per_value_byte",
        block_bytes as f64 / w.value_bytes as f64,
    );
}

/// The SPSC rings alone.
pub fn channel(rec: &mut SpanRecorder, out: &mut Metrics) {
    // Same-thread ring: the pure cost of the index arithmetic and copies.
    let (mut producer, mut consumer) = ring::<u64>(RingConfig::default());
    let messages: Vec<u64> = (0..RUNG_BATCH as u64).collect();
    let mut popped_buf = Vec::with_capacity(RUNG_BATCH);
    for batch in 0..(CHANNEL_MSGS / RUNG_BATCH) as u64 {
        rec.begin(SpanName::ChannelPushPop, batch);
        let pushed = producer.push_batch(&messages);
        producer.flush();
        popped_buf.clear();
        let popped = consumer.pop_batch(&mut popped_buf, RUNG_BATCH);
        rec.end(popped as u32);
        assert_eq!(
            (pushed, popped),
            (RUNG_BATCH, RUNG_BATCH),
            "same-thread ring lost messages"
        );
    }

    // Cross-thread duplex echo: what a request/response pair costs when the
    // cache lines actually change cores.
    let (mut client, mut server) = duplex::<u64, u64>(RingConfig::default());
    let stop = AtomicBool::new(false);
    let mut echoed = 0usize;
    let mut sum = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut batch = Vec::with_capacity(256);
            // relaxed: stop flag only; the rings carry the data.
            while !stop.load(Ordering::Relaxed) {
                batch.clear();
                if server.recv_batch(&mut batch, 256) == 0 {
                    std::hint::spin_loop();
                    continue;
                }
                let mut sent = 0;
                while sent < batch.len() {
                    sent += server.send_batch(&batch[sent..]);
                }
                server.flush();
            }
        });
        let mut sent = 0usize;
        let mut replies = Vec::with_capacity(256);
        rec.begin(SpanName::ChannelRoundtrip, 0);
        while echoed < CHANNEL_MSGS {
            while sent < CHANNEL_MSGS && sent - echoed < CHANNEL_WINDOW {
                if client.try_send(sent as u64).is_err() {
                    break;
                }
                sent += 1;
            }
            client.flush();
            replies.clear();
            let n = client.recv_batch(&mut replies, 256);
            sum += replies.iter().sum::<u64>();
            echoed += n;
        }
        rec.end(echoed as u32);
        stop.store(true, Ordering::Relaxed);
    });
    let n = CHANNEL_MSGS as u64;
    assert_eq!(sum, n * (n - 1) / 2, "echo ring corrupted a message");
    let stats = client.request_stats();
    out.put(
        "channel.push_pop_cycles_per_msg",
        rec.cycles_per_op(SpanName::ChannelPushPop).unwrap_or(0.0),
    );
    out.put(
        "channel.roundtrip_cycles_per_msg",
        rec.cycles_per_op(SpanName::ChannelRoundtrip).unwrap_or(0.0),
    );
    out.put("channel.msgs_per_flush", stats.messages_per_flush());
    out.put(
        "channel.full_events_per_mop",
        stats.full_events() as f64 / CHANNEL_MSGS as f64 * 1e6,
    );
}

/// The wire codec alone, no socket: every operation goes
/// `encode_op` → `ServerDecoder` → `encode_reply_parts` → `ReplyDecoder`.
pub fn kvproto(
    w: &Workload,
    keys: &KeySpace,
    seed: u64,
    rec: &mut SpanRecorder,
    out: &mut Metrics,
) -> (Outcome, u64) {
    let mut stream = OpStream::new(seed, 0, w.keys, w.write_permille, w.popularity);
    let mut server = ServerDecoder::new();
    let mut client = ReplyDecoder::new();
    let mut request_wire = BytesMut::with_capacity(64 * 1024);
    let mut reply_wire = BytesMut::with_capacity(64 * 1024);
    encode_hello(&mut request_wire, VERSION_2);
    server.feed(&request_wire);
    request_wire.clear();
    let mut failed = !matches!(server.next_event(), Ok(Some(ServerEvent::Hello { .. }))) as u64;

    let mut versions = vec![1u32; keys.len()];
    let mut value = vec![0u8; w.value_bytes];
    let mut ops = Vec::with_capacity(RUNG_BATCH);
    let mut decoded = Vec::with_capacity(RUNG_BATCH);
    let mut wire_bytes = 0u64;
    let was_armed_from = alloc_count::thread_counts();
    alloc_count::arm(true);
    for batch in 0..(KVPROTO_OPS / RUNG_BATCH) as u64 {
        ops.clear();
        ops.extend((0..RUNG_BATCH).map(|_| stream.next_op()));

        rec.begin(SpanName::KvprotoEncodeOp, batch);
        for op in &ops {
            let frame = match (op.write, keys.kind()) {
                (false, KeyKind::U64) => OpFrame::lookup(keys.u64_key(op.index)),
                (false, KeyKind::Bytes) => OpFrame::lookup_bytes(keys.byte_key(op.index)),
                (true, kind) => {
                    let version = &mut versions[op.index as usize];
                    *version += 1;
                    fill_value(op.index, *version, &mut value);
                    match kind {
                        KeyKind::U64 => OpFrame::insert(keys.u64_key(op.index), value.as_slice()),
                        KeyKind::Bytes => {
                            OpFrame::insert_bytes(keys.byte_key(op.index), value.as_slice())
                        }
                    }
                }
            };
            encode_op(&mut request_wire, &frame);
        }
        rec.end(RUNG_BATCH as u32);
        wire_bytes += request_wire.len() as u64;

        rec.begin(SpanName::KvprotoDecodeOp, batch);
        server.feed(&request_wire);
        request_wire.clear();
        decoded.clear();
        while let Ok(Some(ServerEvent::Op(op))) = server.next_event() {
            decoded.push(op);
        }
        rec.end(decoded.len() as u32);
        failed += (decoded.len() != ops.len()) as u64;

        rec.begin(SpanName::KvprotoEncodeReply, batch);
        for (op, request) in ops.iter().zip(&decoded) {
            failed +=
                (request.frame.value.len() != if op.write { w.value_bytes } else { 0 }) as u64;
            if op.write {
                encode_reply_parts(&mut reply_wire, Status::Ok, ErrCode::None, &[]);
            } else {
                fill_value(op.index, versions[op.index as usize], &mut value);
                encode_reply_parts(&mut reply_wire, Status::Ok, ErrCode::None, &value);
            }
        }
        rec.end(RUNG_BATCH as u32);
        wire_bytes += reply_wire.len() as u64;

        rec.begin(SpanName::KvprotoDecodeReply, batch);
        client.feed(&reply_wire);
        reply_wire.clear();
        let mut replies = 0u32;
        for op in &ops {
            match client.next_reply() {
                Ok(Some(reply)) => {
                    replies += 1;
                    let expect = if op.write { 0 } else { w.value_bytes };
                    failed += (reply.status != Status::Ok || reply.value.len() != expect) as u64;
                }
                _ => failed += 1,
            }
        }
        rec.end(replies);
    }
    alloc_count::arm(false);
    let counts = alloc_count::thread_counts().since(was_armed_from);
    let n = (KVPROTO_OPS / RUNG_BATCH * RUNG_BATCH) as f64;
    for (metric, span) in [
        ("kvproto.encode_op_cycles", SpanName::KvprotoEncodeOp),
        ("kvproto.decode_op_cycles", SpanName::KvprotoDecodeOp),
        ("kvproto.encode_reply_cycles", SpanName::KvprotoEncodeReply),
        ("kvproto.decode_reply_cycles", SpanName::KvprotoDecodeReply),
    ] {
        out.put(metric, rec.cycles_per_op(span).unwrap_or(0.0));
    }
    out.put("kvproto.wire_bytes_per_op", wire_bytes as f64 / n);
    out.put("kvproto.allocs_per_op", counts.allocs as f64 / n);
    out.put("kvproto.alloc_bytes_per_op", counts.bytes as f64 / n);
    // The second value is the exact allocation count: the rung is
    // deterministic, so `selfcheck` asserts it repeats.
    (
        Outcome {
            ops: n as u64,
            failed,
        },
        counts.allocs,
    )
}

/// The paper's baseline: `LockHash` (4096 spin-locked partitions, the
/// crate default) under the workload's op stream from two threads.
pub fn lockhash(
    w: &Workload,
    keys: &KeySpace,
    seed: u64,
    seconds: f64,
    rec: &mut SpanRecorder,
    out: &mut Metrics,
) -> Outcome {
    let defaults = LockHashConfig::default();
    let table = LockHash::new(LockHashConfig {
        buckets_per_partition: (w.buckets / defaults.partitions).max(1),
        ..defaults
    });
    let mut value = vec![0u8; w.value_bytes];
    let mut failed = 0u64;
    for index in 0..keys.len() as u32 {
        fill_value(index, 1, &mut value);
        failed += !table.insert(keys.table_key(index), &value) as u64;
    }
    let stop = AtomicBool::new(false);
    rec.begin(SpanName::LockhashOps, 0);
    let started = Instant::now();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..LOCKHASH_THREADS as u64)
            .map(|lane| {
                let (table, stop) = (&table, &stop);
                scope.spawn(move || {
                    let mut stream =
                        OpStream::new(seed, lane, w.keys, w.write_permille, w.popularity);
                    let mut value = vec![0u8; w.value_bytes];
                    let mut out = Vec::with_capacity(w.value_bytes);
                    let mut scratch = Vec::new();
                    let (mut ops, mut failed, mut version) = (0u64, 0u64, 1u32);
                    // relaxed: stop flag only.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..RUNG_BATCH {
                            let op = stream.next_op();
                            let key = keys.table_key(op.index);
                            if op.write {
                                // Threads race on keys, so versions are per
                                // thread; any well-formed value verifies.
                                version += 1;
                                fill_value(op.index, version, &mut value);
                                failed += !table.insert(key, &value) as u64;
                            } else if table.lookup(key, &mut out) {
                                failed += check_value(op.index, &out, w.value_bytes, &mut scratch)
                                    .is_none() as u64;
                            } else {
                                failed += 1;
                            }
                        }
                        ops += RUNG_BATCH as u64;
                    }
                    (ops, failed)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|h| h.join().expect("lockhash worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let ops: u64 = results.iter().map(|r| r.0).sum();
    failed += results.iter().map(|r| r.1).sum::<u64>();
    rec.end(ops.min(u32::MAX as u64) as u32);
    out.put("baseline.lockhash_ops_s", ops as f64 / elapsed);
    Outcome { ops, failed }
}
