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
pub const BUCKET_TAG_BYTES: usize = 1;

/// Bytes of one inline bucket entry's element reference (a `u32` slot
/// index into the partition's element slab).
pub const BUCKET_REF_BYTES: usize = 4;

/// Bytes of the overflow chain head stored at the end of a bucket line.
pub const BUCKET_OVERFLOW_BYTES: usize = 4;

/// How many tagged entries pack inline into one bucket cache line.
///
/// The tagged-bucket layout opens each line with a *header word*: the
/// 8-bit key tags share the line's first 8-byte word with a one-byte
/// occupancy bitmap, so at most `8 - 1 = 7` tags fit — which also leaves
/// the `u32` element refs naturally aligned right behind the header with
/// zero padding.  The refs plus the `u32` overflow chain head must then
/// still fit in the remainder of the line; whichever bound is tighter
/// wins.  For the ubiquitous 64-byte line both bounds allow 7, and the
/// populated prefix of the line is `8 + 7·4 + 4 = 40` bytes.
#[inline]
pub const fn bucket_inline_slots(line_bytes: usize) -> usize {
    // Tags + occupancy bitmap share the leading 8-byte header word.
    let by_header = (8 - 1) / BUCKET_TAG_BYTES;
    // Refs + overflow head fill the rest of the line.
    if line_bytes < 8 + BUCKET_OVERFLOW_BYTES {
        return 0;
    }
    let by_body = (line_bytes - 8 - BUCKET_OVERFLOW_BYTES) / BUCKET_REF_BYTES;
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
    fn bucket_line_geometry_fits_seven_tagged_entries() {
        // The tagged-bucket layout: 7 tags + occupancy byte fill the header
        // word, 7 refs + overflow head fill 32 more bytes — 40 of 64 used.
        let n = bucket_inline_slots(CACHE_LINE_SIZE);
        assert_eq!(n, 7);
        assert_eq!(8 + n * BUCKET_REF_BYTES + BUCKET_OVERFLOW_BYTES, 40);
        // The header bound (not the body bound) is what caps a 64-byte
        // line; a hypothetical 32-byte line is body-capped instead.
        assert_eq!(bucket_inline_slots(32), 5);
        assert_eq!(bucket_inline_slots(8), 0);
    }
}
