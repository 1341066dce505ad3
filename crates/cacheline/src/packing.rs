//! Message-packing arithmetic.
//!
//! Batching is one of CPHash's two load-bearing ideas (the other is
//! partition-per-core placement).  The paper's accounting (§6.2) is:
//!
//! > "CPHASH can place eight lookup messages (consisting of an 8-byte key),
//! > or four insert messages (consisting of an 8-byte key and an 8-byte
//! > value pointer) into a single 64-byte cache line."
//!
//! and the headline consequence:
//!
//! > "CPHASH incurs about 1.5 cache misses, on average, to send and receive
//! > two messages per operation."
//!
//! [`messages_per_line`] captures the first half of that arithmetic (the
//! protocol's layout test pins the message sizes with it);
//! [`bucket_inline_slots`] does the same for the tagged bucket line the
//! partition sizes its buckets with.

use crate::CACHE_LINE_SIZE;

/// How many fixed-size messages of `msg_size` bytes pack into one cache line.
///
/// Messages larger than a line pack zero-per-line (they must be split by the
/// caller); the CPHash request/response structs are all ≤ 16 bytes so this
/// never happens in practice.
#[inline]
pub const fn messages_per_line(msg_size: usize) -> usize {
    if msg_size == 0 {
        return usize::MAX;
    }
    CACHE_LINE_SIZE / msg_size
}

/// Bytes of one inline bucket entry's key tag (see
/// [`bucket_inline_slots`]).
pub const BUCKET_TAG_BYTES: usize = 2;

/// Bytes of the tag header that opens a bucket line: the tags of every
/// inline slot, read as two 8-byte words (see [`bucket_inline_slots`]).
pub const BUCKET_TAG_HEADER_BYTES: usize = 16;

/// Bytes of one inline bucket entry's element reference (a `u32` slot
/// index into the partition's element slab).
pub const BUCKET_REF_BYTES: usize = 4;

/// Bytes of the overflow chain head stored at the end of a bucket line.
pub const BUCKET_OVERFLOW_BYTES: usize = 4;

/// Bytes of the occupancy bitmap (one bit per inline slot).
pub const BUCKET_USED_BYTES: usize = 1;

/// How many tagged entries pack inline into one bucket cache line.
///
/// The tagged-bucket layout opens each line with a 16-byte *tag header*:
/// the 16-bit key tags fill it, so at most `16 / 2 = 8` tags fit, and a
/// probe compares all of them as two 8-byte words.  The occupancy bitmap,
/// the `u32` element refs and the `u32` overflow chain head must then
/// still fit in the remainder of the line; whichever bound is tighter
/// wins.  For the ubiquitous 64-byte line the header allows 8 and the
/// body 11, and the populated part of the line is
/// `16 + 1 + 8·4 + 4 = 53` bytes (56 with the refs' alignment).
#[inline]
pub const fn bucket_inline_slots(line_bytes: usize) -> usize {
    let by_header = BUCKET_TAG_HEADER_BYTES / BUCKET_TAG_BYTES;
    let fixed = BUCKET_TAG_HEADER_BYTES + BUCKET_USED_BYTES + BUCKET_OVERFLOW_BYTES;
    if line_bytes < fixed {
        return 0;
    }
    // Refs, occupancy byte and overflow head fill the rest of the line.
    let by_body = (line_bytes - fixed) / BUCKET_REF_BYTES;
    if by_header < by_body {
        by_header
    } else {
        by_body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packing_claims_hold() {
        // Eight 8-byte lookup messages per line.
        assert_eq!(messages_per_line(8), 8);
        // Four 16-byte insert messages (key + value-pointer word) per line.
        assert_eq!(messages_per_line(16), 4);
    }

    #[test]
    fn bucket_line_geometry_fits_eight_tagged_entries() {
        // The tagged-bucket layout: 8 two-byte tags fill the 16-byte
        // header, the occupancy byte, 8 refs and the overflow head fill
        // 37 more bytes — 53 of 64 used (56 once the refs are aligned).
        let n = bucket_inline_slots(CACHE_LINE_SIZE);
        assert_eq!(n, 8);
        assert_eq!(n * BUCKET_TAG_BYTES, BUCKET_TAG_HEADER_BYTES);
        assert_eq!(
            BUCKET_TAG_HEADER_BYTES
                + BUCKET_USED_BYTES
                + n * BUCKET_REF_BYTES
                + BUCKET_OVERFLOW_BYTES,
            53
        );
        // The header bound (not the body bound) is what caps a 64-byte
        // line; a hypothetical 32-byte line is body-capped instead.
        assert_eq!(bucket_inline_slots(32), 2);
        assert_eq!(bucket_inline_slots(16), 0);
    }
}
