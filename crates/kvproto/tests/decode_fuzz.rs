//! Property/fuzz tests for every kvproto decoder: arbitrary byte streams —
//! truncated, garbage, version-skewed — fed in arbitrary chunkings must
//! yield `DecodeError` or valid frames, never a panic and never a silent
//! desync (decoding must be deterministic in the bytes, not the chunking).
//!
//! The vendored proptest shim is deterministic (each case seeds its own
//! xorshift stream), so CI runs are reproducible by construction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use bytes::{BufMut, BytesMut};
use cphash_kvproto::{
    encode_hello, encode_op, encode_reply, DecodeError, OpFrame, OpKind, Reply, ReplyDecoder,
    ServerDecoder, ServerEvent, ServerEventRef, WireKeyRef, MAX_VALUE_BYTES, VERSION_2,
};
use proptest::prelude::*;

thread_local! {
    /// Heap allocations made by this thread (tests run on parallel threads,
    /// so a process-wide count would see the neighbours').
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Feed `bytes` to a fresh server decoder in one gulp, collecting events
/// until exhaustion or error.
fn decode_all(bytes: &[u8]) -> (Vec<ServerEvent>, bool) {
    let mut decoder = ServerDecoder::new();
    decoder.feed(bytes);
    let mut events = Vec::new();
    let errored = decoder.drain(&mut events).is_err();
    (events, errored)
}

/// Feed `bytes` in chunks of `chunk` bytes, collecting the same way — and
/// checking at every step that the borrowed parser, driven on a twin
/// decoder, yields the same events and the same errors as the owned one.
fn decode_chunked(bytes: &[u8], chunk: usize) -> (Vec<ServerEvent>, bool) {
    let mut decoder = ServerDecoder::new();
    let mut borrowed = ServerDecoder::new();
    let mut events = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        decoder.feed(piece);
        borrowed.feed(piece);
        loop {
            let owned = decoder.next_event();
            let twin = borrowed
                .next_event_ref()
                .map(|event| event.map(ServerEventRef::into_owned));
            assert_eq!(owned, twin, "borrowed and owned parsers disagree");
            assert_eq!(decoder.buffered(), borrowed.buffered());
            match owned {
                Ok(Some(event)) => events.push(event),
                Ok(None) => break,
                Err(_) => return (events, true),
            }
        }
    }
    (events, false)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Pure garbage: any byte soup either errors or waits for more bytes —
    /// and chunking never changes the outcome. (Catches panics from
    /// out-of-bounds slicing, overflow on length fields, etc.)
    #[test]
    fn garbage_never_panics_and_chunking_is_invisible(
        args in (prop::collection::vec(any::<u8>(), 0..512), 1usize..64),
    ) {
        let (bytes, chunk) = args;
        let (whole, whole_err) = decode_all(&bytes);
        let (pieces, pieces_err) = decode_chunked(&bytes, chunk);
        prop_assert_eq!(whole_err, pieces_err);
        prop_assert_eq!(whole, pieces);

        // The client-side decoder must hold the same bar.
        let mut reply = ReplyDecoder::new();
        reply.feed(&bytes);
        while let Ok(Some(_)) = reply.next_reply() {}
    }

    /// Valid streams (any HELLO version, mixed op shapes) decode to exactly the
    /// frames that were encoded, under any chunking, with garbage appended
    /// after a truncation point never reinterpreted as a frame boundary.
    #[test]
    fn valid_streams_round_trip_then_truncate_cleanly(
        args in (
            VERSION_2..5,
            prop::collection::vec((any::<bool>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..48)), 1..12),
            1usize..48,
            0usize..16,
        ),
    ) {
        let (hello_version, keys, chunk, cut_back) = args;
        // Build a valid session: hello + a mix of typed ops.
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, hello_version);
        let mut expected = vec![ServerEvent::Hello { requested: hello_version }];
        for (i, (byte_key, key, value)) in keys.iter().enumerate() {
            let frame = match (i % 4, byte_key) {
                (0, false) => OpFrame::lookup(*key),
                (0, true) => OpFrame::lookup_bytes(key.to_le_bytes().to_vec()),
                (1, false) => OpFrame::insert(*key, value.clone()),
                (1, true) => OpFrame::insert_bytes(key.to_le_bytes().to_vec(), value.clone()),
                (2, false) => OpFrame::delete(*key),
                (2, true) => OpFrame::delete_bytes(key.to_le_bytes().to_vec()),
                _ => OpFrame::resize_paced(*key % 64, (*key >> 32) as u32),
            };
            encode_op(&mut wire, &frame);
            expected.push(ServerEvent::Op(cphash_kvproto::ServerOp { frame }));
        }

        let (events, errored) = decode_chunked(&wire, chunk);
        prop_assert!(!errored, "a valid stream must not error");
        prop_assert_eq!(&events, &expected);

        // Truncate the tail: decoding must yield a prefix of the expected
        // events and no error (incomplete ≠ invalid).
        let cut = wire.len().saturating_sub(cut_back % wire.len().max(1));
        let (truncated, errored) = decode_chunked(&wire[..cut], chunk);
        prop_assert!(!errored);
        prop_assert!(truncated.len() <= expected.len());
        prop_assert_eq!(&truncated[..], &expected[..truncated.len()]);
    }

    /// Version-skewed and bit-flipped streams: corrupting one byte of a
    /// valid stream must produce either a clean error, the original
    /// decoding, or a different-but-valid decoding — never a panic. (The
    /// decoder cannot detect every corruption — lengths and key bytes are
    /// data — but it must stay memory-safe and deterministic.)
    #[test]
    fn bit_flips_never_panic(
        args in (
            0usize..256,
            0u8..8,
            prop::collection::vec(any::<u64>(), 1..8),
            1usize..32,
        ),
    ) {
        let (flip_at, flip_bit, keys, chunk) = args;
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, VERSION_2);
        for key in &keys {
            encode_op(&mut wire, &OpFrame::insert_bytes(key.to_le_bytes().to_vec(), key.to_le_bytes().to_vec()));
        }
        let mut bytes = wire.to_vec();
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        // Both gulped and chunked decoding agree and terminate.
        let (whole, whole_err) = decode_all(&bytes);
        let (pieces, pieces_err) = decode_chunked(&bytes, chunk);
        prop_assert_eq!(whole_err, pieces_err);
        prop_assert_eq!(whole, pieces);
    }

    /// Reply streams: round trip + bit-flip safety for the client decoder.
    #[test]
    fn reply_streams_round_trip_and_survive_flips(
        args in (
            prop::collection::vec(prop::option::of(prop::collection::vec(any::<u8>(), 0..32)), 1..8),
            prop::option::of((0usize..128, 0u8..8)),
            1usize..16,
        ),
    ) {
        let (values, flip, chunk) = args;
        let mut wire = BytesMut::new();
        let mut expected = Vec::new();
        for v in &values {
            let reply = match v {
                Some(bytes) => Reply::ok_value(bytes.clone()),
                None => Reply::miss(),
            };
            encode_reply(&mut wire, &reply);
            expected.push(reply);
        }
        let mut bytes = wire.to_vec();
        if let Some((at, bit)) = flip {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        let mut decoder = ReplyDecoder::new();
        let mut borrowed = ReplyDecoder::new();
        let mut decoded = Vec::new();
        let mut errored = false;
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            borrowed.feed(piece);
            loop {
                let owned = decoder.next_reply();
                let twin = borrowed.next_reply_ref().map(|r| r.map(|r| r.into_owned()));
                prop_assert_eq!(&owned, &twin);
                match owned {
                    Ok(Some(r)) => decoded.push(r),
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                break;
            }
        }
        if flip.is_none() {
            prop_assert!(!errored);
            prop_assert_eq!(decoded, expected);
        }
        // With a flip: no panic is the property; outcomes may differ.
    }
}

/// A v2 session of `frames` pipelined hash-key lookups, as one buffer.
fn pipelined_lookups(frames: usize) -> BytesMut {
    let mut wire = BytesMut::with_capacity(4 + frames * 16);
    encode_hello(&mut wire, VERSION_2);
    for key in 0..frames as u64 {
        encode_op(&mut wire, &OpFrame::lookup(key));
    }
    wire
}

/// Decode a whole pipelined buffer fed in one gulp; returns the time the
/// decode loop took and the allocations it made.
fn decode_pipelined(wire: &BytesMut, frames: usize, owned: bool) -> (Duration, u64) {
    let mut decoder = ServerDecoder::new();
    decoder.feed(wire);
    assert!(matches!(
        decoder.next_event_ref(),
        Ok(Some(ServerEventRef::Hello { .. }))
    ));
    let before = allocations();
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..frames {
        if owned {
            let Ok(Some(ServerEvent::Op(op))) = decoder.next_event() else {
                panic!("a complete frame must decode");
            };
            sum += op.frame.key.hash();
        } else {
            let Ok(Some(ServerEventRef::Op(op))) = decoder.next_event_ref() else {
                panic!("a complete frame must decode");
            };
            sum += op.key.hash();
        }
    }
    let elapsed = started.elapsed();
    let allocated = allocations() - before;
    assert_eq!(sum, (0..frames as u64).sum::<u64>());
    assert_eq!(decoder.buffered(), 0);
    (elapsed, allocated)
}

/// The point of the read cursor: a deep pipeline decodes without touching
/// the heap and in time linear in its bytes.  (The pre-cursor shim moved
/// the whole buffered tail per frame: 4x the frames took 16x the time.)
#[test]
fn pipelined_lookups_decode_without_allocating_in_linear_time() {
    const FRAMES: usize = 64 * 1024;
    let small = pipelined_lookups(FRAMES / 4);
    let large = pipelined_lookups(FRAMES);
    for owned in [false, true] {
        let (_, allocated) = decode_pipelined(&large, FRAMES, owned);
        assert_eq!(
            allocated, 0,
            "hash-key lookups must decode off the heap (owned API: {owned})"
        );
    }
    // Best of several runs each, so a descheduled run cannot fail the test.
    let best = |wire: &BytesMut, frames: usize| {
        (0..7)
            .map(|_| decode_pipelined(wire, frames, false).0)
            .min()
            .expect("seven runs")
    };
    let (quarter, full) = (best(&small, FRAMES / 4), best(&large, FRAMES));
    assert!(
        full < quarter * 6,
        "decoding 4x the frames took {full:?} against {quarter:?}: not linear"
    );
}

/// What the borrowed parser hands out is the frame and nothing but the
/// frame, and rejected or incomplete frames behave as they always did.
#[test]
fn borrowed_frames_never_reach_past_their_own_bytes() {
    // Two byte-keyed inserts back to back, filled with distinct bytes.
    let mut wire = BytesMut::new();
    encode_hello(&mut wire, VERSION_2);
    encode_op(
        &mut wire,
        &OpFrame::insert_bytes(vec![0xAA; 5], vec![0xAA; 40]),
    );
    encode_op(
        &mut wire,
        &OpFrame::insert_bytes(vec![0xBB; 7], vec![0xBB; 9]),
    );
    let mut decoder = ServerDecoder::new();
    decoder.feed(&wire);
    assert_eq!(decoder.take_hello(), Ok(Some(VERSION_2)));
    for (fill, key_len, val_len) in [(0xAAu8, 5usize, 40usize), (0xBB, 7, 9)] {
        let op = decoder.next_op_ref().unwrap().expect("complete frame");
        assert_eq!(op.kind, OpKind::Insert);
        assert_eq!(op.key, WireKeyRef::Bytes(&vec![fill; key_len]));
        assert_eq!(op.value, &vec![fill; val_len][..]);
    }
    assert_eq!(decoder.next_op_ref(), Ok(None));
    assert_eq!(decoder.buffered(), 0);

    // A truncated frame is "need more bytes", consumes nothing, and
    // completes once the rest arrives — with the neighbour's first bytes
    // already buffered behind it.
    let mut frame = BytesMut::new();
    encode_op(&mut frame, &OpFrame::insert(7, vec![0xCC; 32]));
    let mut next = BytesMut::new();
    encode_op(&mut next, &OpFrame::lookup(9));
    for cut in 0..frame.len() {
        let mut decoder = ServerDecoder::new();
        let mut hello = BytesMut::new();
        encode_hello(&mut hello, VERSION_2);
        decoder.feed(&hello);
        assert_eq!(decoder.take_hello(), Ok(Some(VERSION_2)));
        decoder.feed(&frame[..cut]);
        assert_eq!(decoder.next_op_ref(), Ok(None), "cut at {cut}");
        assert_eq!(decoder.buffered(), cut);
        decoder.feed(&frame[cut..]);
        decoder.feed(&next[..3]);
        let op = decoder.next_op_ref().unwrap().expect("now complete");
        assert_eq!(op.key, WireKeyRef::Hash(7));
        assert_eq!(op.value, &[0xCC; 32][..]);
        assert_eq!(decoder.next_op_ref(), Ok(None));
        assert_eq!(decoder.buffered(), 3);
    }

    // Oversized and contradictory frames are rejected from the header
    // alone, by both parsers, with the errors they always had.
    let mut oversized = BytesMut::new();
    encode_hello(&mut oversized, VERSION_2);
    oversized.put_u8(OpKind::Insert as u8);
    oversized.put_u8(0);
    oversized.put_u16_le(0);
    oversized.put_u32_le(MAX_VALUE_BYTES as u32 + 1);
    oversized.put_u64_le(1);
    let too_large = DecodeError::ValueTooLarge(MAX_VALUE_BYTES as u64 + 1);
    let mut decoder = ServerDecoder::new();
    decoder.feed(&oversized);
    assert!(matches!(
        decoder.next_event(),
        Ok(Some(ServerEvent::Hello { .. }))
    ));
    assert_eq!(decoder.next_event(), Err(too_large));
    assert_eq!(decoder.next_event_ref(), Err(too_large));
    let mut replies = ReplyDecoder::new();
    replies.feed(&[0, 0, 0, 0, 1, 0, 0, 1]); // Ok, val_len = 16 MiB + 1
    assert_eq!(replies.next_reply_ref(), Err(too_large));
    assert_eq!(replies.next_reply(), Err(too_large));
}
