//! Cache-line aligned wrapper type.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Forces the wrapped value to begin on a cache-line boundary and to occupy
/// a whole number of cache lines.
///
/// The shared indices of the ring buffers (read index, write index) and each
/// side's counters are wrapped in `CacheAligned` so the producer and
/// consumer never invalidate each other's lines when updating their own —
/// the paper calls this out explicitly: "The read index,
/// write index and temporary write index are aligned in memory to avoid
/// false sharing" (§3.4).
///
/// `CacheAligned<T>` derefs to `T`, so it is transparent at use sites.
#[derive(Default, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

impl<T> CacheAligned<T> {
    /// Wrap a value, aligning it to a cache-line boundary.
    #[inline]
    pub const fn new(value: T) -> Self {
        CacheAligned(value)
    }

    /// Consume the wrapper and return the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.0
    }

    /// Borrow the inner value.
    #[inline]
    pub const fn get(&self) -> &T {
        &self.0
    }

    /// Mutably borrow the inner value.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> Deref for CacheAligned<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CacheAligned<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> From<T> for CacheAligned<T> {
    #[inline]
    fn from(value: T) -> Self {
        CacheAligned(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CacheAligned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CacheAligned").field(&self.0).finish()
    }
}

impl<T: fmt::Display> fmt::Display for CacheAligned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CACHE_LINE_SIZE;
    use core::sync::atomic::AtomicUsize;

    #[test]
    fn alignment_is_a_cache_line() {
        assert_eq!(core::mem::align_of::<CacheAligned<u8>>(), CACHE_LINE_SIZE);
        assert_eq!(core::mem::align_of::<CacheAligned<u64>>(), CACHE_LINE_SIZE);
        assert_eq!(
            core::mem::align_of::<CacheAligned<AtomicUsize>>(),
            CACHE_LINE_SIZE
        );
    }

    #[test]
    fn small_values_occupy_a_full_line() {
        assert_eq!(core::mem::size_of::<CacheAligned<u8>>(), CACHE_LINE_SIZE);
        assert_eq!(core::mem::size_of::<CacheAligned<u64>>(), CACHE_LINE_SIZE);
    }

    #[test]
    fn adjacent_array_entries_live_on_distinct_lines() {
        let arr = [CacheAligned::new(0u64), CacheAligned::new(1u64)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= CACHE_LINE_SIZE);
        assert_eq!(a % CACHE_LINE_SIZE, 0);
        assert_eq!(b % CACHE_LINE_SIZE, 0);
    }

    #[test]
    fn deref_round_trip() {
        let mut x = CacheAligned::new(41u32);
        *x += 1;
        assert_eq!(*x.get(), 42);
        assert_eq!(x.into_inner(), 42);
    }

    #[test]
    fn from_and_display() {
        let x: CacheAligned<u32> = 7.into();
        assert_eq!(format!("{x}"), "7");
        assert_eq!(format!("{x:?}"), "CacheAligned(7)");
    }
}
