//! Quarter-step size classes.
//!
//! Allocation requests are rounded up to the next class: 8 bytes, then
//! 16/32/48/64, then four classes per doubling (1.25, 1.5, 1.75 and 2 × 2ᵏ)
//! up to [`MAX_CLASS_BYTES`].  A request of 64 bytes or more therefore
//! wastes less than a quarter of its block, and every class above the
//! 8-byte one is a multiple of 16 so the slab's block alignment holds when a
//! chunk is carved at class-size strides.  Requests above
//! [`MAX_CLASS_BYTES`] are "huge" and served by a dedicated allocation per
//! value rather than a slab chunk.

/// Smallest block handed out, in bytes (one 64-bit word — the microbenchmark
/// values are exactly this size).
pub const MIN_CLASS_BYTES: usize = 8;

/// Largest slab-managed block, in bytes. Larger requests become huge
/// allocations with their own backing chunk.
pub const MAX_CLASS_BYTES: usize = 1 << 20;

/// log₂ of the first size (64) whose doubling is cut into quarter steps;
/// below it the steps are a flat 16 bytes.
const QUARTER_BASE_LOG2: u32 = 6;

/// Number of slab size classes: the 8-byte class, 16/32/48/64, and four per
/// doubling from 64 up to [`MAX_CLASS_BYTES`].
pub const NUM_CLASSES: usize =
    5 + 4 * (MAX_CLASS_BYTES.trailing_zeros() - QUARTER_BASE_LOG2) as usize;

const _: () = assert!(NUM_CLASSES == 61);

/// Index of a size class. `SizeClass(NUM_CLASSES)` is used internally to tag
/// huge allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SizeClass(pub usize);

impl SizeClass {
    /// Marker class for huge (non-slab) allocations.
    pub const HUGE: SizeClass = SizeClass(NUM_CLASSES);

    /// Is this the huge-allocation marker?
    pub fn is_huge(self) -> bool {
        self.0 >= NUM_CLASSES
    }
}

/// The size class for a request of `size` bytes, or [`SizeClass::HUGE`] if
/// the request exceeds [`MAX_CLASS_BYTES`].
///
/// Zero-byte requests map to the smallest class so every element value has a
/// distinct, non-null address (the CPHash protocol passes value pointers
/// around even for empty values).
#[inline]
pub fn class_for_size(size: usize) -> SizeClass {
    if size <= MIN_CLASS_BYTES {
        return SizeClass(0);
    }
    if size > MAX_CLASS_BYTES {
        return SizeClass::HUGE;
    }
    // `last` is the highest byte offset the block must cover.  Its top set
    // bit picks the doubling and the two bits below it the quarter; under 64
    // the doubling is pinned so the same shift yields the flat 16-byte steps.
    let last = size - 1;
    let log2 = (usize::BITS - 1 - last.leading_zeros()).max(QUARTER_BASE_LOG2);
    let quarter = last >> (log2 - 2);
    SizeClass(1 + 4 * (log2 - QUARTER_BASE_LOG2) as usize + quarter)
}

/// Number of usable bytes in a block of the given class — the exact inverse
/// of [`class_for_size`].
///
/// For [`SizeClass::HUGE`] the block size equals the request, so callers
/// must track it themselves; this function panics to catch misuse.
#[inline]
pub fn class_size(class: SizeClass) -> usize {
    assert!(
        !class.is_huge(),
        "huge allocations have no fixed class size"
    );
    let Some(step) = class.0.checked_sub(1) else {
        return MIN_CLASS_BYTES;
    };
    // Steps 0..4 are 16/32/48/64; from there every group of four is one
    // doubling cut into quarters 5/4 .. 8/4.
    let (quarter, shift) = if step < 4 {
        (step, QUARTER_BASE_LOG2 as usize - 2)
    } else {
        (4 + step % 4, QUARTER_BASE_LOG2 as usize - 3 + step / 4)
    };
    (quarter + 1) << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_count_matches_range() {
        // 8, then 16/32/48/64, then 4 × the 14 doublings 64 → 1 MiB.
        assert_eq!(NUM_CLASSES, 61);
    }

    #[test]
    fn small_requests_round_up_to_min() {
        assert_eq!(class_for_size(0), SizeClass(0));
        assert_eq!(class_for_size(1), SizeClass(0));
        assert_eq!(class_for_size(8), SizeClass(0));
        assert_eq!(class_size(SizeClass(0)), 8);
    }

    #[test]
    fn class_sizes_map_to_their_own_class() {
        assert_eq!(class_for_size(16), SizeClass(1));
        assert_eq!(class_for_size(64), SizeClass(4));
        assert_eq!(class_for_size(80), SizeClass(5));
        assert_eq!(class_for_size(128), SizeClass(8));
        assert_eq!(class_size(class_for_size(4096)), 4096);
        for c in 0..NUM_CLASSES {
            assert_eq!(class_for_size(class_size(SizeClass(c))), SizeClass(c));
        }
    }

    #[test]
    fn requests_between_classes_round_up() {
        assert_eq!(class_for_size(9), SizeClass(1));
        assert_eq!(class_size(class_for_size(9)), 16);
        assert_eq!(class_size(class_for_size(33)), 48);
        assert_eq!(class_size(class_for_size(65)), 80);
        assert_eq!(class_size(class_for_size(100)), 112);
        assert_eq!(class_size(class_for_size(1048)), 1280);
        assert_eq!(class_size(class_for_size(1500)), 1536);
    }

    #[test]
    fn huge_requests_are_tagged() {
        assert_eq!(class_for_size(MAX_CLASS_BYTES), SizeClass(NUM_CLASSES - 1));
        assert_eq!(class_size(SizeClass(NUM_CLASSES - 1)), MAX_CLASS_BYTES);
        assert!(class_for_size(MAX_CLASS_BYTES + 1).is_huge());
        assert!(class_for_size(usize::MAX).is_huge());
        assert!(SizeClass::HUGE.is_huge());
    }

    #[test]
    #[should_panic(expected = "huge")]
    fn class_size_of_huge_panics() {
        let _ = class_size(SizeClass::HUGE);
    }

    #[test]
    fn every_class_above_the_word_is_a_multiple_of_sixteen() {
        let mut previous = 0;
        for c in 0..NUM_CLASSES {
            let bytes = class_size(SizeClass(c));
            assert!(bytes > previous, "class {c} does not grow");
            assert!(
                c == 0 || bytes.is_multiple_of(16),
                "class {c} is {bytes} bytes"
            );
            previous = bytes;
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a million rounds of safe arithmetic")]
    fn every_request_fits_its_class_with_bounded_waste() {
        let mut previous = SizeClass(0);
        for size in 1..=MAX_CLASS_BYTES {
            let class = class_for_size(size);
            assert!(class >= previous, "size={size}: class went down");
            previous = class;
            let block = class_size(class);
            assert!(block >= size, "size={size} block={block}");
            // The next class down must not have fitted.
            assert!(
                class.0 == 0 || class_size(SizeClass(class.0 - 1)) < size,
                "size={size} skipped a class"
            );
            if size >= 64 {
                assert!(
                    (block - size) * 4 < size,
                    "size={size} wastes {} of {block}",
                    block - size
                );
            }
        }
        assert!(class_for_size(MAX_CLASS_BYTES + 1).is_huge());
    }
}
