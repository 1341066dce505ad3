//! Element headers and their intrusive list links.

use cphash_alloc::ValueHandle;

/// Index of an element slot within its partition.
///
/// Element ids are partition-local; the CPHash protocol always pairs an id
/// with the partition (server) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

/// Sentinel "null" link used by the intrusive lists.
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

/// One element header: "the key, the reference count, the size of the value
/// (in bytes), and doubly-linked-list pointers for the bucket and for the
/// LRU list" (§3.1), plus the allocator handle for the value bytes and the
/// intrusive links of the per-chunk migration index (so exporting one
/// migration chunk walks only that chunk's elements, never the whole table).
///
/// The bucket and migration chunk a key hashes to are *not* stored: only the
/// unlink paths need them, and one `hash64(key)` gives both.
#[derive(Debug)]
pub(crate) struct Element {
    pub key: u64,
    pub value: ValueHandle,
    pub refcount: u32,
    pub state: ElementState,
    /// Still linked into the bucket/LRU lists?  An element that has been
    /// evicted or deleted while clients still hold references is unlinked
    /// but not yet freed.
    pub linked: bool,
    /// Overflow-chain links.  An element that resides in one of its bucket
    /// line's tagged slots is *not* on the chain: both links stay NIL until the bucket overflows past its
    /// inline capacity (see `partition::BucketLine`).
    pub bucket_next: u32,
    pub bucket_prev: u32,
    pub lru_next: u32,
    pub lru_prev: u32,
    /// Links of the key's migration-chunk membership list.
    pub chunk_next: u32,
    pub chunk_prev: u32,
}

impl Element {
    pub(crate) fn new(key: u64, value: ValueHandle) -> Self {
        Element {
            key,
            value,
            refcount: 0,
            state: ElementState::NotReady,
            linked: true,
            bucket_next: NIL,
            bucket_prev: NIL,
            lru_next: NIL,
            lru_prev: NIL,
            chunk_next: NIL,
            chunk_prev: NIL,
        }
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
// probe: a 56-byte slot touches one or two, the 80-byte one it replaces
// touched two or three.  The enum tag rides in the spare values of the
// element's flag bytes.
const _: () = assert!(core::mem::size_of::<Slot>() <= 56);

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
        let v = a.allocate(8).unwrap();
        let e = Element::new(7, v);
        assert_eq!(e.key, 7);
        assert_eq!(e.chunk_next, NIL);
        assert_eq!(e.state, ElementState::NotReady);
        assert!(e.linked);
        assert_eq!(e.refcount, 0);
        assert_eq!(e.bucket_next, NIL);
        a.free(v);
    }

    #[test]
    fn slot_accessors() {
        let mut a = SlabAllocator::unbounded();
        let v = a.allocate(8).unwrap();
        let mut slot = Slot::Occupied(Element::new(1, v));
        assert!(slot.is_occupied());
        assert_eq!(slot.element().key, 1);
        slot.element_mut().refcount += 1;
        assert_eq!(slot.element().refcount, 1);
        let free = Slot::Free { next_free: NIL };
        assert!(!free.is_occupied());
        a.free(v);
    }

    #[test]
    #[should_panic(expected = "free element slot")]
    fn accessing_free_slot_panics() {
        let slot = Slot::Free { next_free: 4 };
        let _ = slot.element();
    }
}
