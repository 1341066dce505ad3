//! Sixteenth-step size classes.
//!
//! Allocation requests are rounded up to the next class: 8 bytes, then flat
//! 16-byte steps up to 256, then sixteen classes per doubling (17/16 ..
//! 32/16 of 2ᵏ) up to [`MAX_CLASS_BYTES`].  A request of 256 bytes or more
//! therefore wastes less than a sixteenth of itself, one below 256 less than
//! 16 bytes, and every class above the 8-byte one is a multiple of 16 so the
//! slab's block alignment holds when a chunk is carved at class-size
//! strides.  Every size of the coarser four-classes-per-doubling rule (8,
//! 16, 32, 48, 64, then 5/4 .. 8/4 of 2ᵏ) is still a class, so no request
//! gets a larger block than it would there.  Requests above
//! [`MAX_CLASS_BYTES`] are "huge" and served by a dedicated allocation per
//! value rather than a slab chunk.
//!
//! The price of the finer steps is free-list headers: a slab keeps one per
//! class, 209 of them, 148 more than four per doubling needs (about 3.5 KB
//! per partition).  Each class in use holds at most one partly carved
//! chunk, and carving writes nothing into the blocks it has not handed out,
//! so the untouched tail of that chunk is not made resident.

/// Smallest block handed out, in bytes (one 64-bit word — the microbenchmark
/// values are exactly this size).
pub const MIN_CLASS_BYTES: usize = 8;

/// Largest slab-managed block, in bytes. Larger requests become huge
/// allocations with their own backing chunk.
pub const MAX_CLASS_BYTES: usize = 1 << 20;

/// log₂ of the flat step below [`STEPPED_BASE_LOG2`], which is also every
/// class's alignment (16 bytes).
const FLAT_STEP_LOG2: u32 = 4;

/// Bits of a request's length, below its top set bit, that pick its class
/// within a doubling: 2ᴹ classes per doubling.
const MANTISSA_BITS: u32 = 4;

/// Classes per doubling (and flat steps below [`STEPPED_BASE_LOG2`]).
const STEPS: usize = 1 << MANTISSA_BITS;

/// log₂ of the first size (256) whose doubling is cut into [`STEPS`]
/// classes; below it the steps are a flat 16 bytes, the smallest step that
/// keeps every class a multiple of 16.
const STEPPED_BASE_LOG2: u32 = FLAT_STEP_LOG2 + MANTISSA_BITS;

/// Number of slab size classes: the 8-byte class, the sixteen flat steps up
/// to 256, and sixteen per doubling from 256 up to [`MAX_CLASS_BYTES`].
pub const NUM_CLASSES: usize =
    1 + STEPS + STEPS * (MAX_CLASS_BYTES.trailing_zeros() - STEPPED_BASE_LOG2) as usize;

const _: () = assert!(NUM_CLASSES == 209);

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
    // bit picks the doubling and the `MANTISSA_BITS` below it the step; under
    // 256 the doubling is pinned so the same shift yields the flat 16-byte
    // steps.
    let last = size - 1;
    let log2 = (usize::BITS - 1 - last.leading_zeros()).max(STEPPED_BASE_LOG2);
    let mantissa = last >> (log2 - MANTISSA_BITS);
    SizeClass(1 + STEPS * (log2 - STEPPED_BASE_LOG2) as usize + mantissa)
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
    // The first `STEPS` steps are 16 .. 256; from there every group of
    // `STEPS` is one doubling cut into sixteenths 17/16 .. 32/16.
    let (mantissa, shift) = if step < STEPS {
        (step, FLAT_STEP_LOG2 as usize)
    } else {
        (
            STEPS + step % STEPS,
            FLAT_STEP_LOG2 as usize - 1 + step / STEPS,
        )
    };
    (mantissa + 1) << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_count_matches_range() {
        // 8, then 16 .. 256, then 16 × the 12 doublings 256 → 1 MiB.
        assert_eq!(NUM_CLASSES, 209);
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
        assert_eq!(class_for_size(256), SizeClass(16));
        assert_eq!(class_for_size(272), SizeClass(17));
        assert_eq!(class_for_size(512), SizeClass(32));
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
        assert_eq!(class_size(class_for_size(257)), 272);
        assert_eq!(class_size(class_for_size(1048)), 1088);
        assert_eq!(class_size(class_for_size(1052)), 1088);
        assert_eq!(class_size(class_for_size(1089)), 1152);
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
            if size >= 256 {
                assert!(
                    (block - size) * 16 < size,
                    "size={size} wastes {} of {block}",
                    block - size
                );
            } else {
                assert!(block - size < 16, "size={size} block={block}");
            }
        }
        assert!(class_for_size(MAX_CLASS_BYTES + 1).is_huge());
    }

    #[test]
    fn every_four_per_doubling_size_is_still_a_class() {
        // The coarser rule's classes: 8, 16/32/48/64, then 5/4 .. 8/4 of
        // each doubling up to the largest class.  Each is its own block
        // here, so no request's block grew when the steps got finer.
        let mut sizes = vec![8, 16, 32, 48, 64];
        for k in 4..=MAX_CLASS_BYTES.trailing_zeros() - 3 {
            sizes.extend((5..=8usize).map(|q| q << k));
        }
        assert_eq!(sizes.len(), 61);
        for size in sizes {
            assert_eq!(class_size(class_for_size(size)), size, "size={size}");
        }
    }
}
