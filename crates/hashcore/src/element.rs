//! Element headers and their overflow-chain links.

use cphash_alloc::ValueHandle;

/// Index of an element slot within its partition.
///
/// Element ids are partition-local; the CPHash protocol always pairs an id
/// with the partition (server) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

/// Sentinel "null" link used by the overflow chains and the free list.
pub(crate) const NIL: u32 = u32::MAX;

/// Publication state of an element's value (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementState {
    /// Space has been allocated but the client has not yet copied the value;
    /// lookups must not return it.
    NotReady,
    /// The value is fully written and visible to lookups.
    Ready,
}

/// Longest value kept in the element header itself instead of a slab block.
pub const INLINE_VALUE_BYTES: usize = 8;

/// A value of at most [`INLINE_VALUE_BYTES`] bytes, held by value: what an
/// element stores in place of a block handle, and what travels in the
/// CPHash request and reply words in place of a pointer.
///
/// Word-aligned, so the bytes move as one aligned word wherever the value
/// is embedded (a byte-aligned copy inside an enum straddles two words, and
/// reading it back right after writing it stalls on store forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(8))]
pub struct InlineValue {
    bytes: [u8; INLINE_VALUE_BYTES],
    len: u8,
}

impl InlineValue {
    /// `data` by value, or `None` when it is too long to inline.
    #[inline]
    pub fn new(data: &[u8]) -> Option<InlineValue> {
        if data.len() > INLINE_VALUE_BYTES {
            return None;
        }
        let mut bytes = [0u8; INLINE_VALUE_BYTES];
        bytes[..data.len()].copy_from_slice(data);
        Some(InlineValue {
            bytes,
            len: data.len() as u8,
        })
    }

    /// Rebuild from the message form: the bytes as one little-endian word
    /// plus the length, which is clamped to [`INLINE_VALUE_BYTES`]; whatever
    /// the word holds past the length is dropped.
    #[inline]
    pub fn from_word(word: u64, len: usize) -> InlineValue {
        let len = len.min(INLINE_VALUE_BYTES);
        let kept = match len {
            INLINE_VALUE_BYTES => u64::MAX,
            _ => (1u64 << (8 * len)) - 1,
        };
        InlineValue {
            bytes: (word & kept).to_le_bytes(),
            len: len as u8,
        }
    }

    /// The bytes as one little-endian word (bytes past the length are 0).
    #[inline]
    pub fn word(&self) -> u64 {
        u64::from_le_bytes(self.bytes)
    }

    /// The value bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` for the empty value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Where an element's value bytes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredValue {
    /// In a slab block (values longer than [`INLINE_VALUE_BYTES`]): §3.2's
    /// pointer hand-off applies.
    Block(ValueHandle),
    /// In the element itself; the copy here is the value.
    Inline(InlineValue),
}

impl StoredValue {
    /// View the value as a byte slice.
    ///
    /// # Safety
    /// For a value in a block, [`ValueHandle::as_slice`]'s contract: the
    /// element is READY and pinned (or the partition exclusively borrowed).
    /// An inline value has none.
    #[inline]
    pub(crate) unsafe fn as_slice(&self) -> &[u8] {
        match self {
            // SAFETY: contract forwarded to the caller.
            StoredValue::Block(handle) => unsafe { handle.as_slice() },
            StoredValue::Inline(value) => value.as_slice(),
        }
    }
}

/// The 16 bytes of an element that hold either the block handle or the
/// inline bytes; `Element::inline_len` says which.
#[derive(Clone, Copy)]
union ValueStorage {
    block: ValueHandle,
    inline: [u8; INLINE_VALUE_BYTES],
}

/// `Element::inline_len` of an element whose value is in a slab block.
const IN_BLOCK: u8 = u8::MAX;

/// One element header: "the key, the reference count, the size of the value
/// (in bytes), and doubly-linked-list pointers for the bucket" (§3.1), plus
/// the value itself or the allocator handle to it, and a CLOCK reference
/// bit where §3.1 threads an LRU list (see `Partition::evict_one`).
///
/// The bucket a key hashes to is *not* stored: only the unlink paths need
/// it, and one `hash64(key)` gives it — and, since a bucket's top index
/// bits are the key's migration chunk, the chunk too.
pub(crate) struct Element {
    pub key: u64,
    storage: ValueStorage,
    pub refcount: u32,
    /// Length of the inline value, or [`IN_BLOCK`].
    inline_len: u8,
    pub state: ElementState,
    /// Still linked into its bucket?  An element that has been evicted or
    /// deleted while clients still hold references is unlinked but not yet
    /// freed.
    pub linked: bool,
    /// CLOCK reference bit: set by a hit, cleared by the eviction hand as
    /// it passes.
    pub referenced: bool,
    /// Overflow-chain links.  An element that resides in one of its bucket
    /// line's tagged slots is *not* on the chain: both links stay NIL until the bucket overflows past its
    /// inline capacity (see `partition::BucketLine`).
    pub bucket_next: u32,
    pub bucket_prev: u32,
}

impl Element {
    pub(crate) fn new(key: u64, value: StoredValue) -> Self {
        let (storage, inline_len) = match value {
            StoredValue::Block(block) => (ValueStorage { block }, IN_BLOCK),
            StoredValue::Inline(v) => (ValueStorage { inline: v.bytes }, v.len),
        };
        Element {
            key,
            storage,
            refcount: 0,
            inline_len,
            state: ElementState::NotReady,
            linked: true,
            referenced: false,
            bucket_next: NIL,
            bucket_prev: NIL,
        }
    }

    /// The element's value: a copy of the inline bytes, or the block handle.
    #[inline]
    pub(crate) fn value(&self) -> StoredValue {
        if self.inline_len == IN_BLOCK {
            // SAFETY: `inline_len` is IN_BLOCK only for an element built from
            // (and never since overwritten over) a block handle.
            StoredValue::Block(unsafe { self.storage.block })
        } else {
            StoredValue::Inline(InlineValue {
                // SAFETY: `inline_len` is a length only for an element whose
                // storage was initialised as `inline`, all 8 bytes of it.
                bytes: unsafe { self.storage.inline },
                len: self.inline_len,
            })
        }
    }

    /// Set an inline value's bytes to `data`, zero-padded to the length it
    /// was reserved with.
    ///
    /// # Panics
    /// If the value is in a block or shorter than `data`.
    pub(crate) fn fill_inline(&mut self, data: &[u8]) {
        assert!(
            self.inline_len != IN_BLOCK && data.len() <= self.inline_len as usize,
            "value larger than reservation"
        );
        let mut bytes = [0u8; INLINE_VALUE_BYTES];
        bytes[..data.len()].copy_from_slice(data);
        self.storage = ValueStorage { inline: bytes };
    }
}

impl core::fmt::Debug for Element {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Element")
            .field("key", &self.key)
            .field("value", &self.value())
            .field("refcount", &self.refcount)
            .field("state", &self.state)
            .field("linked", &self.linked)
            .finish_non_exhaustive()
    }
}

/// A slot in the partition's element arena: either occupied or a free-list
/// link to the next free slot.
#[derive(Debug)]
pub(crate) enum Slot {
    Occupied(Element),
    Free { next_free: u32 },
}

// One slot per key, so its size is bytes per key — and cache lines per
// probe: a 40-byte slot touches one or two.  The enum tag rides in the spare
// values of the element's flag bytes; a value of up to 8 bytes rides in the
// space the handle to its block would take.
const _: () = assert!(core::mem::size_of::<Slot>() <= 40);

impl Slot {
    pub(crate) fn element(&self) -> &Element {
        match self {
            Slot::Occupied(e) => e,
            Slot::Free { .. } => panic!("accessed a free element slot"),
        }
    }

    pub(crate) fn element_mut(&mut self) -> &mut Element {
        match self {
            Slot::Occupied(e) => e,
            Slot::Free { .. } => panic!("accessed a free element slot"),
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_occupied(&self) -> bool {
        matches!(self, Slot::Occupied(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_alloc::SlabAllocator;

    #[test]
    fn new_elements_start_not_ready_and_linked() {
        let mut a = SlabAllocator::unbounded();
        let v = a.allocate(64).unwrap();
        let e = Element::new(7, StoredValue::Block(v));
        assert_eq!(e.key, 7);
        assert_eq!(e.value(), StoredValue::Block(v));
        assert_eq!(e.state, ElementState::NotReady);
        assert!(e.linked && !e.referenced);
        assert_eq!(e.refcount, 0);
        assert_eq!(e.bucket_next, NIL);
        a.free(v);
    }

    #[test]
    fn slot_accessors() {
        let value = InlineValue::new(&[1, 2, 3]).unwrap();
        let mut slot = Slot::Occupied(Element::new(1, StoredValue::Inline(value)));
        assert!(slot.is_occupied());
        assert_eq!(slot.element().key, 1);
        slot.element_mut().refcount += 1;
        assert_eq!(slot.element().refcount, 1);
        let free = Slot::Free { next_free: NIL };
        assert!(!free.is_occupied());
    }

    #[test]
    fn inline_values_round_trip_through_the_element_and_the_word() {
        assert_eq!(InlineValue::new(&[0; INLINE_VALUE_BYTES + 1]), None);
        for len in 0..=INLINE_VALUE_BYTES {
            let data: Vec<u8> = (0..len as u8).map(|b| 0xF0 | b).collect();
            let value = InlineValue::new(&data).unwrap();
            assert_eq!(value.as_slice(), data);
            assert_eq!((value.len(), value.is_empty()), (len, len == 0));
            assert_eq!(InlineValue::from_word(value.word(), len), value);
            let mut e = Element::new(9, StoredValue::Inline(value));
            assert_eq!(e.value(), StoredValue::Inline(value));
            // Refilling keeps the reserved length and zero-pads.
            e.fill_inline(&data[..len / 2]);
            let StoredValue::Inline(refilled) = e.value() else {
                panic!("an inline element stays inline");
            };
            assert_eq!(refilled.len(), len);
            assert_eq!(refilled.as_slice()[..len / 2], data[..len / 2]);
            assert!(refilled.as_slice()[len / 2..].iter().all(|&b| b == 0));
        }
        // A length from the wire is clamped, never trusted, and bytes past
        // it are not kept.
        assert_eq!(InlineValue::from_word(7, 200).len(), INLINE_VALUE_BYTES);
        assert_eq!(InlineValue::from_word(u64::MAX, 3).word(), 0xFF_FFFF);
        assert_eq!(
            InlineValue::from_word(u64::MAX, 3),
            InlineValue::new(&[0xFF; 3]).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "larger than reservation")]
    fn filling_past_an_inline_reservation_panics() {
        let mut e = Element::new(1, StoredValue::Inline(InlineValue::new(&[0; 4]).unwrap()));
        e.fill_inline(&[1; 5]);
    }

    #[test]
    #[should_panic(expected = "free element slot")]
    fn accessing_free_slot_panics() {
        let slot = Slot::Free { next_free: 4 };
        let _ = slot.element();
    }
}
