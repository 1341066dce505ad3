//! The §8.2 arbitrary-length-key envelope, as a protocol-layer concern.
//!
//! The paper's extension plan for byte-string keys: hash the key down to
//! the table's 60-bit key space, store `key ++ value` together as the
//! value, and on LOOKUP compare the stored key against the requested one —
//! a mismatch is a hash collision and reads as a miss (acceptable for a
//! cache).  It lives in the protocol layer so *servers* can store
//! byte-keyed entries and verify key-collision mismatches themselves,
//! making byte-string keys a first-class wire citizen; in process,
//! `cphash::KvClient` with `KeyRef::Bytes` applies the same envelope.
//!
//! Envelope layout: `[key_len: u32 LE][key bytes][value bytes]`.

use cphash_hashcore::{hash64, MAX_KEY};

/// The 60-bit hash key used for a byte-string key.
///
/// Hashes the bytes 8 at a time through the same mixer the table uses, so
/// every backend (in-process, CPSERVER, memcache baseline) places a given
/// byte key identically.
pub fn hash_key(key: &[u8]) -> u64 {
    let mut acc: u64 = 0x9E37_79B9_97F4_A7C1 ^ (key.len() as u64);
    for chunk in key.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = hash64(acc ^ u64::from_le_bytes(word));
    }
    acc & MAX_KEY
}

/// Bytes of the `key_len` header.
const HEADER_BYTES: usize = 4;

/// The length of the envelope [`encode_envelope`] would build for `key` and
/// a value of `value_len` bytes, without building it.
pub fn enveloped_len(key: &[u8], value_len: usize) -> usize {
    HEADER_BYTES + key.len() + value_len
}

/// Encode `key ++ value` into a fresh envelope.
pub fn encode_envelope(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(enveloped_len(key, value.len()));
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    out
}

/// Split an envelope back into `(key, value)`.  `None` on a malformed
/// envelope (truncated header or key).
pub fn decode_envelope(envelope: &[u8]) -> Option<(&[u8], &[u8])> {
    let (header, rest) = envelope.split_first_chunk::<HEADER_BYTES>()?;
    let key_len = u32::from_le_bytes(*header) as usize;
    if rest.len() < key_len {
        return None;
    }
    Some(rest.split_at(key_len))
}

/// Decode an envelope and return the value iff the stored key matches the
/// requested one (`None` on malformed envelopes *and* on collisions — both
/// read as a miss, per §8.2's cache argument).
pub fn unwrap_matching<'a>(envelope: &'a [u8], wanted_key: &[u8]) -> Option<&'a [u8]> {
    decode_envelope(envelope).and_then(|(stored, value)| (stored == wanted_key).then_some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let e = encode_envelope(b"key", b"value bytes");
        assert_eq!(e.len(), enveloped_len(b"key", b"value bytes".len()));
        assert_eq!(
            decode_envelope(&e),
            Some((&b"key"[..], &b"value bytes"[..]))
        );
        assert_eq!(decode_envelope(&[1, 2]), None);
        assert_eq!(decode_envelope(&[200, 0, 0, 0, 1]), None);
    }

    #[test]
    fn unwrap_matching_detects_collisions() {
        let e = encode_envelope(b"alpha", b"v");
        assert_eq!(unwrap_matching(&e, b"alpha"), Some(&b"v"[..]));
        assert_eq!(
            unwrap_matching(&e, b"beta"),
            None,
            "collision reads as a miss"
        );
        assert_eq!(unwrap_matching(&[1, 2], b"alpha"), None);
    }

    #[test]
    fn hash_keys_are_60_bit_and_deterministic() {
        let a = hash_key(b"hello");
        assert_eq!(a, hash_key(b"hello"));
        assert_ne!(a, hash_key(b"hellp"));
        assert!(a <= MAX_KEY);
        assert_ne!(hash_key(b""), hash_key(&[0u8; 8]), "length is mixed in");
    }
}
