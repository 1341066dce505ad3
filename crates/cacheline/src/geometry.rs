//! Address ↔ cache-line arithmetic.
//!
//! The partition's bucket array is probed a *line* at a time, and the ring
//! buffers flush when a *line* worth of messages has been produced.  Both
//! need the same small set of address computations, collected here.

use crate::CACHE_LINE_SIZE;

/// Identifier of a cache line: the address shifted right by `log2(line size)`.
///
/// Two addresses map to the same `LineId` exactly when they live on the same
/// cache line and therefore move between caches together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub u64);

impl LineId {
    /// The line containing byte address `addr`.
    #[inline]
    pub const fn containing(addr: u64) -> Self {
        LineId(addr / CACHE_LINE_SIZE as u64)
    }

    /// First byte address of this line.
    #[inline]
    pub const fn base_addr(self) -> u64 {
        self.0 * CACHE_LINE_SIZE as u64
    }

    /// The `n`-th line after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> Self {
        LineId(self.0 + n)
    }
}

/// The line id of a Rust reference (used when feeding real objects to the
/// cache model).
#[inline]
pub fn line_of<T>(r: &T) -> LineId {
    LineId::containing(r as *const T as u64)
}

/// All line ids touched by an object of `len` bytes starting at `addr`.
///
/// Zero-length objects touch no lines.
pub fn lines_touched(addr: u64, len: usize) -> impl Iterator<Item = LineId> {
    let first = if len == 0 {
        1
    } else {
        LineId::containing(addr).0
    };
    let last = if len == 0 {
        0
    } else {
        LineId::containing(addr + len as u64 - 1).0
    };
    (first..=last).map(LineId)
}

/// Number of distinct cache lines an object of `len` bytes starting at
/// `addr` overlaps. Accounts for misalignment: a 64-byte object that starts
/// mid-line straddles two lines.
#[inline]
pub fn lines_spanned(addr: u64, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let first = addr / CACHE_LINE_SIZE as u64;
    let last = (addr + len as u64 - 1) / CACHE_LINE_SIZE as u64;
    (last - first + 1) as usize
}

/// Returns `true` when `[addr, addr+len)` is entirely inside a single cache
/// line. Message structs must satisfy this so that writing one message never
/// dirties two lines.
#[inline]
pub fn fits_in_one_line(addr: u64, len: usize) -> bool {
    lines_spanned(addr, len) <= 1
}

/// Offset of `addr` within its cache line.
#[inline]
pub const fn offset_in_line(addr: u64) -> usize {
    (addr % CACHE_LINE_SIZE as u64) as usize
}

/// Returns `true` when `addr` is the first byte of a cache line.
#[inline]
pub const fn is_line_start(addr: u64) -> bool {
    addr.is_multiple_of(CACHE_LINE_SIZE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_id_containing_and_base() {
        assert_eq!(LineId::containing(0), LineId(0));
        assert_eq!(LineId::containing(63), LineId(0));
        assert_eq!(LineId::containing(64), LineId(1));
        assert_eq!(LineId(5).base_addr(), 320);
        assert_eq!(LineId(3).offset(4), LineId(7));
    }

    #[test]
    fn lines_spanned_handles_alignment() {
        // Aligned 64-byte object: exactly one line.
        assert_eq!(lines_spanned(128, 64), 1);
        // Misaligned 64-byte object: straddles two lines.
        assert_eq!(lines_spanned(130, 64), 2);
        // Tiny object never spans more than one line when aligned.
        assert_eq!(lines_spanned(8, 8), 1);
        // Zero bytes span zero lines.
        assert_eq!(lines_spanned(8, 0), 0);
        // Large object.
        assert_eq!(lines_spanned(0, 4096), 64);
    }

    #[test]
    fn lines_touched_enumerates_every_line() {
        let ids: Vec<_> = lines_touched(60, 10).collect();
        assert_eq!(ids, vec![LineId(0), LineId(1)]);
        let ids: Vec<_> = lines_touched(64, 128).collect();
        assert_eq!(ids, vec![LineId(1), LineId(2)]);
        assert_eq!(lines_touched(100, 0).count(), 0);
    }

    #[test]
    fn fits_in_one_line_checks() {
        assert!(fits_in_one_line(0, 64));
        assert!(fits_in_one_line(32, 32));
        assert!(!fits_in_one_line(32, 33));
        assert!(fits_in_one_line(12345, 0));
    }

    #[test]
    fn offsets_and_starts() {
        assert_eq!(offset_in_line(0), 0);
        assert_eq!(offset_in_line(70), 6);
        assert!(is_line_start(0));
        assert!(is_line_start(192));
        assert!(!is_line_start(191));
    }

    #[test]
    fn line_of_reference_is_stable() {
        let x = 42u64;
        assert_eq!(line_of(&x), line_of(&x));
    }

    #[test]
    fn touched_count_matches_spanned() {
        for addr in [0u64, 1, 17, 63, 64, 65, 1000] {
            for len in [0usize, 1, 7, 8, 63, 64, 65, 200, 511] {
                assert_eq!(
                    lines_touched(addr, len).count(),
                    lines_spanned(addr, len),
                    "addr={addr} len={len}"
                );
            }
        }
    }
}
