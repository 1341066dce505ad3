//! Model test for the vendored `bytes` shim: random sequences of appends,
//! front consumption and clears against a plain `Vec<u8>`.  Every
//! observable — length, contents, equality, `to_vec` — must see the
//! readable bytes only, whatever the read cursor, the compaction or the
//! growth did underneath.  (Tier-1 `cargo test -q` runs the root package,
//! so the shim's model test lives here; its own crate keeps a unit test.)

use std::io::Read;

use bytes::{Buf, BufMut, BytesMut};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    PutU8(u8),
    PutU16(u16),
    PutU32(u32),
    PutU64(u64),
    Extend(Vec<u8>),
    PutSlice(Vec<u8>),
    /// Consume this share (in 1/256ths) of what is buffered.
    Advance(u8),
    SplitTo(u8),
    Consume(u8),
    Reserve(usize),
    /// Read from a source holding this many bytes, asking for this much
    /// spare capacity.
    ReadFrom(Vec<u8>, usize),
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    // Payloads up to 300 bytes against initial capacities of 0–64 bytes
    // cross the growth and compaction paths many times per case.
    let payload = || prop::collection::vec(any::<u8>(), 0..300);
    prop_oneof![
        any::<u8>().prop_map(Op::PutU8),
        any::<u16>().prop_map(Op::PutU16),
        any::<u32>().prop_map(Op::PutU32),
        any::<u64>().prop_map(Op::PutU64),
        payload().prop_map(Op::Extend),
        payload().prop_map(Op::PutSlice),
        any::<u8>().prop_map(Op::Advance),
        any::<u8>().prop_map(Op::Advance),
        any::<u8>().prop_map(Op::SplitTo),
        any::<u8>().prop_map(Op::Consume),
        (0usize..600).prop_map(Op::Reserve),
        (payload(), 0usize..128).prop_map(|(bytes, spare)| Op::ReadFrom(bytes, spare)),
        Just(Op::Clear),
    ]
}

fn share(of: usize, part: u8) -> usize {
    of * part as usize / 256
}

/// Every view of the buffer agrees with the model.
fn check(buf: &BytesMut, model: &[u8]) {
    prop_assert_eq!(buf.len(), model.len());
    prop_assert_eq!(buf.remaining(), model.len());
    prop_assert_eq!(buf.is_empty(), model.is_empty());
    prop_assert_eq!(&buf[..], model);
    prop_assert_eq!(buf.as_ref(), model);
    prop_assert_eq!(buf.to_vec(), model.to_vec());
    // Equality is over the readable bytes: a fresh buffer holding the same
    // bytes (cursor 0, different capacity) is equal; one byte more is not.
    prop_assert_eq!(buf, &BytesMut::from(model));
    prop_assert_eq!(&buf.clone(), buf);
    let mut longer = BytesMut::from(model);
    longer.put_u8(0);
    prop_assert!(buf != &longer);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn random_sequences_match_a_plain_vec(
        args in (0usize..65, prop::collection::vec(op(), 1..120)),
    ) {
        let (capacity, ops) = args;
        let mut buf = BytesMut::with_capacity(capacity);
        let mut model: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                Op::PutU8(v) => {
                    buf.put_u8(v);
                    model.push(v);
                }
                Op::PutU16(v) => {
                    buf.put_u16_le(v);
                    model.extend_from_slice(&v.to_le_bytes());
                }
                Op::PutU32(v) => {
                    buf.put_u32_le(v);
                    model.extend_from_slice(&v.to_le_bytes());
                }
                Op::PutU64(v) => {
                    buf.put_u64_le(v);
                    model.extend_from_slice(&v.to_le_bytes());
                }
                Op::Extend(bytes) => {
                    buf.extend_from_slice(&bytes);
                    model.extend_from_slice(&bytes);
                }
                Op::PutSlice(bytes) => {
                    buf.put_slice(&bytes);
                    model.extend_from_slice(&bytes);
                }
                Op::Advance(part) => {
                    let n = share(model.len(), part);
                    buf.advance(n);
                    model.drain(..n);
                }
                Op::SplitTo(part) => {
                    let n = share(model.len(), part);
                    let front = buf.split_to(n);
                    let expected: Vec<u8> = model.drain(..n).collect();
                    prop_assert_eq!(&front[..], &expected[..]);
                    prop_assert_eq!(front, BytesMut::from(&expected[..]));
                }
                Op::Consume(part) => {
                    let n = share(model.len(), part);
                    let expected: Vec<u8> = model.drain(..n).collect();
                    prop_assert_eq!(buf.consume(n), &expected[..]);
                }
                Op::Reserve(n) => buf.reserve(n),
                Op::ReadFrom(bytes, spare) => {
                    let mut source = &bytes[..];
                    let (read, filled) = buf.read_from(&mut source, spare).unwrap();
                    prop_assert!(read <= bytes.len());
                    // A read that left spare capacity unused drained the
                    // source; one that filled it may have left bytes behind.
                    prop_assert!(filled || source.is_empty());
                    model.extend_from_slice(&bytes[..read]);
                    let mut rest = Vec::new();
                    source.read_to_end(&mut rest).unwrap();
                    prop_assert_eq!(&rest[..], &bytes[read..]);
                }
                Op::Clear => {
                    buf.clear();
                    model.clear();
                }
            }
            check(&buf, &model);
        }
    }
}

/// Streaming through a small buffer — append a frame, consume a frame,
/// with a straggling partial frame always left over — must reuse the
/// consumed space rather than grow without bound, on both sides of the
/// compaction rule (dead prefix larger / smaller than the live bytes).
#[test]
fn streaming_reuses_consumed_space() {
    let mut buf = BytesMut::with_capacity(64);
    let mut model: Vec<u8> = Vec::new();
    let frame: Vec<u8> = (0..48u8).collect();
    let mut high_water = 0usize;
    for round in 0..10_000usize {
        buf.extend_from_slice(&frame);
        model.extend_from_slice(&frame);
        // Leave a tail behind whose size walks across the threshold.
        let keep = round % 40;
        let n = model.len().saturating_sub(keep);
        assert_eq!(buf.consume(n), &model[..n]);
        model.drain(..n);
        assert_eq!(&buf[..], &model[..]);
        high_water = high_water.max(buf.len());
    }
    assert!(high_water < 128);
    // An endless source fills exactly the spare capacity, so the length
    // afterwards is the size of the store: a small multiple of the live
    // high-water mark, not 10 000 frames.
    let (_, filled) = buf.read_from(&mut std::io::repeat(7), 1).unwrap();
    assert!(filled);
    assert!(buf.len() <= 4 * 128, "store grew to {} bytes", buf.len());
}
