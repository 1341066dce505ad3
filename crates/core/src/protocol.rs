//! The CPHash wire protocol between client and server threads.
//!
//! Requests travel client → server as packed 64-bit words so that eight of
//! them fit in one cache line (§6.2: "CPHASH can place eight lookup messages
//! (consisting of an 8-byte key) … into a single 64-byte cache line").
//! Because keys are limited to 60 bits (§3.1), the top four bits of each
//! word carry the opcode:
//!
//! | opcode | payload word 0 (low 60 bits) | extra words |
//! |--------|------------------------------|-------------|
//! | `Lookup` | key                        | —           |
//! | `Insert` | key                        | value size in bytes (more than 8) |
//! | `Ready`  | element id                 | —           |
//! | `Decref` | element id                 | —           |
//! | `Delete` | key                        | —           |
//! | `MigratePrepare` | chunk, old and new partition count | — |
//! | `MigrateOut` | chunk, old and new partition count | — (the reply carries the address of the chunk's leaving keys, in batches by receiver) |
//! | `MigrateIn` | chunk, old and new partition count | the address of one batch of them |
//! | `InsertInline` | key                  | value bytes (at most 7) with their count in the top byte |
//! | `InsertWord` | key                    | value bytes (exactly 8) |
//!
//! Responses travel server → client as 16-byte [`Response`] structs (a value
//! address plus element id and size), four per cache line — the same
//! packing the paper uses for insert messages.
//!
//! §3.2 hands values over by pointer because they can be large: the server
//! allocates, the client copies, and `Ready` / `Decref` bracket the copy.
//! A value of at most [`INLINE_VALUE_BYTES`] bytes fits in a message word,
//! so it travels *in* the messages instead — `InsertInline` (or, when the
//! 8 bytes leave no room for their count, `InsertWord`) carries it to the
//! server, which stores it in the element and publishes it at once, and
//! a hit returns it in the reply ([`Response::with_inline`]) with the
//! element already unpinned — and neither `Ready` nor `Decref` is ever
//! sent for it.  The value's length alone selects the form.

use cphash_hashcore::{ElementId, InlineValue, INLINE_VALUE_BYTES, MAX_KEY};

/// Operation codes carried in the top four bits of a request word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Look up a key; the server responds with the value location.
    Lookup = 1,
    /// Insert a key with a value of a given size; the server allocates space
    /// and responds with where the client must copy the bytes.
    Insert = 2,
    /// The client finished copying an inserted value; publish it.
    Ready = 3,
    /// The client finished reading a looked-up value; release the reference.
    Decref = 4,
    /// Remove a key; the server responds with whether it was present.
    Delete = 5,
    /// Announce to a *destination* server that a migration chunk is about to
    /// arrive, so it can defer requests for not-yet-absorbed keys.
    MigratePrepare = 6,
    /// Ask a *source* server to extract the keys of one migration chunk that
    /// the new partition layout assigns elsewhere.
    MigrateOut = 7,
    /// Hand a *destination* server an extracted batch to absorb.
    MigrateIn = 8,
    /// Insert a key whose value, shorter than [`INLINE_VALUE_BYTES`] bytes,
    /// rides in the request's second word under its length; the server
    /// stores and publishes it in one step and responds with whether it
    /// could.
    InsertInline = 9,
    /// [`OpCode::InsertInline`] for a value of exactly
    /// [`INLINE_VALUE_BYTES`] bytes: the second word is the value.
    InsertWord = 10,
}

impl OpCode {
    /// Is this a table operation (answered through the staged pipeline), as
    /// opposed to a control message (executed on its own, in place)?
    pub fn is_data(self) -> bool {
        matches!(
            self,
            OpCode::Lookup
                | OpCode::Insert
                | OpCode::InsertInline
                | OpCode::InsertWord
                | OpCode::Delete
        )
    }

    fn from_bits(bits: u64) -> Option<OpCode> {
        match bits {
            1 => Some(OpCode::Lookup),
            2 => Some(OpCode::Insert),
            3 => Some(OpCode::Ready),
            4 => Some(OpCode::Decref),
            5 => Some(OpCode::Delete),
            6 => Some(OpCode::MigratePrepare),
            7 => Some(OpCode::MigrateOut),
            8 => Some(OpCode::MigrateIn),
            9 => Some(OpCode::InsertInline),
            10 => Some(OpCode::InsertWord),
            _ => None,
        }
    }
}

/// One step of a re-partitioning: the chunk being moved plus the partition
/// counts on either side of the transition. Packed into the 60-bit payload
/// of the migration opcodes as `chunk:28 | old:16 | new:16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStep {
    /// Migration chunk index (see `cphash_hashcore::migration_chunk`).
    pub chunk: usize,
    /// Partition count before the transition.
    pub old_partitions: usize,
    /// Partition count after the transition.
    pub new_partitions: usize,
}

impl MigrationStep {
    /// Pack into a request payload.
    pub fn to_payload(self) -> u64 {
        debug_assert!(self.chunk < (1 << 28));
        debug_assert!(self.old_partitions < (1 << 16) && self.new_partitions < (1 << 16));
        ((self.chunk as u64) << 32)
            | ((self.old_partitions as u64) << 16)
            | self.new_partitions as u64
    }

    /// Unpack from a request payload.
    pub fn from_payload(payload: u64) -> MigrationStep {
        MigrationStep {
            chunk: (payload >> 32) as usize,
            old_partitions: ((payload >> 16) & 0xFFFF) as usize,
            new_partitions: (payload & 0xFFFF) as usize,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Look up `key`.
    Lookup {
        /// The 60-bit key.
        key: u64,
    },
    /// Reserve space for `key` with a value of `size` bytes, more than
    /// [`INLINE_VALUE_BYTES`] (the server refuses a shorter one: it has no
    /// second representation for short values).
    Insert {
        /// The 60-bit key.
        key: u64,
        /// Value size in bytes.
        size: u64,
    },
    /// Insert `key` with the value the request carries.
    InsertInline {
        /// The 60-bit key.
        key: u64,
        /// The value.
        value: InlineValue,
    },
    /// Publish a previously reserved element.
    Ready {
        /// Element id returned by the insert response.
        id: ElementId,
    },
    /// Release a reference obtained by a lookup.
    Decref {
        /// Element id returned by the lookup response.
        id: ElementId,
    },
    /// Remove `key` from the table.
    Delete {
        /// The 60-bit key.
        key: u64,
    },
    /// Announce an incoming migration chunk to its destination server.
    MigratePrepare {
        /// The transition step.
        step: MigrationStep,
    },
    /// Extract a migration chunk from its source server.
    MigrateOut {
        /// The transition step.
        step: MigrationStep,
    },
    /// Deliver one cut of a chunk's records; the second word carries the
    /// address of a leaked `Box<MigrationBatch>` the destination takes
    /// ownership of (or 1: nothing arrives for it in this chunk).
    MigrateIn {
        /// The transition step.
        step: MigrationStep,
        /// Address of the `Box<MigrationBatch>` (shared-memory handoff).
        batch_addr: u64,
    },
}

/// Number of ring words a request occupies.
pub fn request_words(request: &Request) -> usize {
    match request {
        Request::Insert { .. } | Request::InsertInline { .. } | Request::MigrateIn { .. } => 2,
        _ => 1,
    }
}

const OP_SHIFT: u32 = 60;
const PAYLOAD_MASK: u64 = (1 << OP_SHIFT) - 1;

/// Where a short inline value's length sits in its word: above the (at
/// most seven) bytes.
const INLINE_LEN_SHIFT: u32 = 56;

/// The value an inline insert's second word carries (`op` is
/// [`OpCode::InsertInline`] or [`OpCode::InsertWord`]).  A length a client
/// could not have written is clamped, not trusted.
pub(crate) fn inline_from_word(op: OpCode, word: u64) -> InlineValue {
    if op == OpCode::InsertWord {
        InlineValue::from_word(word, INLINE_VALUE_BYTES)
    } else {
        let len = (word >> INLINE_LEN_SHIFT) as usize;
        InlineValue::from_word(word, len.min(INLINE_VALUE_BYTES - 1))
    }
}

/// Encode a request into one or two ring words (the second word is `None`
/// for single-word requests).
#[inline]
pub fn encode(request: &Request) -> (u64, Option<u64>) {
    let word = |op: OpCode, payload: u64| ((op as u64) << OP_SHIFT) | payload;
    match *request {
        Request::Lookup { key } => {
            debug_assert!(key <= MAX_KEY);
            (word(OpCode::Lookup, key), None)
        }
        Request::Insert { key, size } => {
            debug_assert!(key <= MAX_KEY);
            (word(OpCode::Insert, key), Some(size))
        }
        Request::InsertInline { key, value } => {
            debug_assert!(key <= MAX_KEY);
            if value.len() == INLINE_VALUE_BYTES {
                (word(OpCode::InsertWord, key), Some(value.word()))
            } else {
                let len = (value.len() as u64) << INLINE_LEN_SHIFT;
                (word(OpCode::InsertInline, key), Some(len | value.word()))
            }
        }
        Request::Ready { id } => (word(OpCode::Ready, id.0 as u64), None),
        Request::Decref { id } => (word(OpCode::Decref, id.0 as u64), None),
        Request::Delete { key } => {
            debug_assert!(key <= MAX_KEY);
            (word(OpCode::Delete, key), None)
        }
        Request::MigratePrepare { step } => (word(OpCode::MigratePrepare, step.to_payload()), None),
        Request::MigrateOut { step } => (word(OpCode::MigrateOut, step.to_payload()), None),
        Request::MigrateIn { step, batch_addr } => {
            (word(OpCode::MigrateIn, step.to_payload()), Some(batch_addr))
        }
    }
}

/// The opcode and payload of a request word. Returns `None` for a word whose
/// opcode bits are invalid (which would indicate ring corruption).
pub fn decode_word(word: u64) -> Option<(OpCode, u64)> {
    let op = OpCode::from_bits(word >> OP_SHIFT)?;
    Some((op, word & PAYLOAD_MASK))
}

/// Reassemble a full request from its first word and (for two-word
/// requests) the extra word.
pub fn decode(word: u64, extra: Option<u64>) -> Option<Request> {
    let (op, payload) = decode_word(word)?;
    Some(match op {
        OpCode::Lookup => Request::Lookup { key: payload },
        OpCode::Insert => Request::Insert {
            key: payload,
            size: extra?,
        },
        OpCode::InsertInline | OpCode::InsertWord => Request::InsertInline {
            key: payload,
            value: inline_from_word(op, extra?),
        },
        OpCode::Ready => Request::Ready {
            id: ElementId(payload as u32),
        },
        OpCode::Decref => Request::Decref {
            id: ElementId(payload as u32),
        },
        OpCode::Delete => Request::Delete { key: payload },
        OpCode::MigratePrepare => Request::MigratePrepare {
            step: MigrationStep::from_payload(payload),
        },
        OpCode::MigrateOut => Request::MigrateOut {
            step: MigrationStep::from_payload(payload),
        },
        OpCode::MigrateIn => Request::MigrateIn {
            step: MigrationStep::from_payload(payload),
            batch_addr: extra?,
        },
    })
}

/// A response from a server thread: where the value lives plus the element
/// id the client must hand back (`Ready`/`Decref`) and the value size — or,
/// for a hit on a value of at most [`INLINE_VALUE_BYTES`] bytes, the value
/// itself, with nothing to hand back.
///
/// Exactly 16 bytes so four responses pack into one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Response {
    /// Address of the value bytes; 0 means "not found" (for lookups) or
    /// "failed" (for inserts), 1 means "found/deleted/inserted" for
    /// responses that carry no data pointer.  In an inline response, the
    /// value bytes themselves — any word, the sentinels included.
    pub addr: u64,
    /// Low 32 bits: element id, or `Response::INLINE_ID` for an inline
    /// response. High 32 bits: value size in bytes.
    pub meta: u64,
}

const _: () = assert!(core::mem::size_of::<Response>() == 16);

impl Response {
    /// The miss/failure response.
    pub const MISS: Response = Response { addr: 0, meta: 0 };

    /// Response indicating success without a data pointer (delete-found).
    pub const FOUND: Response = Response { addr: 1, meta: 0 };

    /// Sentinel address marking a retry response. Real value addresses are
    /// heap pointers and can never be all-ones.
    const RETRY_ADDR: u64 = u64::MAX;

    /// The element id that marks a response carrying the value itself.  No
    /// element has it: it is the partition's "no slot" link value.
    const INLINE_ID: u64 = u32::MAX as u64;

    /// Build a response carrying the value itself.  The server has already
    /// dropped its pin on the element: there is nothing to `Decref`.
    pub fn with_inline(value: InlineValue) -> Response {
        Response {
            addr: value.word(),
            meta: ((value.len() as u64) << 32) | Self::INLINE_ID,
        }
    }

    /// The value an inline response carries; `None` for every other kind.
    /// Tested before the `addr` sentinels mean anything: an inline value's
    /// word may be any of them.
    #[inline]
    pub fn inline_value(&self) -> Option<InlineValue> {
        self.is_inline()
            .then(|| InlineValue::from_word(self.addr, self.value_size()))
    }

    #[inline]
    fn is_inline(&self) -> bool {
        self.meta & 0xFFFF_FFFF == Self::INLINE_ID
    }

    /// Build a response carrying a value location.
    pub fn with_value(addr: u64, id: ElementId, size: usize) -> Response {
        debug_assert!(
            addr > 1 && addr != Self::RETRY_ADDR,
            "value addresses never alias the sentinel values"
        );
        // The size has the upper 32 bits of `meta`; the allocator refuses
        // longer values (`cphash_alloc::MAX_VALUE_BYTES`), so none gets here.
        debug_assert!(size <= u32::MAX as usize, "value size overflows 32 bits");
        debug_assert!(
            id.0 as u64 != Self::INLINE_ID,
            "no element has the inline marker's id"
        );
        Response {
            addr,
            meta: ((size as u64) << 32) | id.0 as u64,
        }
    }

    /// Build a "wrong owner" response: the key now belongs to partition
    /// `dest` (or is mid-migration towards it); the client must resubmit the
    /// operation there.
    pub fn retry(dest: usize) -> Response {
        Response {
            addr: Self::RETRY_ADDR,
            meta: dest as u64,
        }
    }

    /// Build a response carrying a chunk's extracted keys: the address of a
    /// leaked `Box<MigrationExport>` plus its entry count.
    pub fn with_batch(batch_addr: u64, entries: usize) -> Response {
        debug_assert!(batch_addr > 1 && batch_addr != Self::RETRY_ADDR);
        Response {
            addr: batch_addr,
            meta: entries as u64,
        }
    }

    /// Does this response redirect the operation to another partition?
    pub fn is_retry(&self) -> bool {
        !self.is_inline() && self.addr == Self::RETRY_ADDR
    }

    /// The partition to resubmit to, for a retry response.
    pub fn retry_destination(&self) -> usize {
        debug_assert!(self.is_retry());
        self.meta as usize
    }

    /// Does this response indicate a hit / success?
    pub fn is_hit(&self) -> bool {
        self.is_inline() || (self.addr != 0 && self.addr != Self::RETRY_ADDR)
    }

    /// Does this response carry a usable value pointer?  (An inline
    /// response carries the value instead: [`Response::inline_value`].)
    pub fn has_value(&self) -> bool {
        !self.is_inline() && self.addr > 1 && self.addr != Self::RETRY_ADDR
    }

    /// The element id encoded in the response.
    pub fn element_id(&self) -> ElementId {
        ElementId((self.meta & 0xFFFF_FFFF) as u32)
    }

    /// The value size encoded in the response.
    pub fn value_size(&self) -> usize {
        (self.meta >> 32) as usize
    }
}

/// Ceiling on the record bytes of one batch of a chunk's moving keys.
///
/// A receiving server absorbs a delivery in one go between serving requests,
/// so the ceiling bounds the single-server stall one migration step can
/// cause — the per-chunk analogue of what the pacer does across chunks.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// A record's header: the key (8 bytes), then the value length (4 bytes),
/// both little-endian.  The value bytes follow.
const RECORD_HEADER: usize = 12;

/// One delivery of a migration chunk to one receiver: the moved entries as
/// `(key, len, bytes)` records in one buffer, written by the source and
/// read by the receiver — no entry has an allocation of its own.
///
/// Handed between threads *by address* through the existing rings — the
/// same shared-memory pointer-passing the paper uses for values — as a
/// leaked `Box` whose ownership transfers with the message: inside a
/// [`MigrationExport`] from the source to the coordinator, then alone from
/// the coordinator to the receiver ([`Request::MigrateIn`]).  A receiver may
/// get several batches of one chunk (one per source, and more where the
/// records pass [`MAX_BATCH_BYTES`]); only the one with `last` set completes
/// the chunk at the receiver.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct MigrationBatch {
    /// The records, back to back.
    records: Vec<u8>,
    /// How many records `records` holds.
    entries: usize,
    /// Whether this is the final delivery of its chunk to this receiver.
    /// Until the final batch lands, the receiver keeps treating the chunk
    /// as in flight (holding off requests for not-yet-absorbed keys).
    pub last: bool,
}

impl MigrationBatch {
    /// Append one entry's record.
    pub(crate) fn push(&mut self, key: u64, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("a value fits a 32-bit length");
        self.records.extend_from_slice(&key.to_le_bytes());
        self.records.extend_from_slice(&len.to_le_bytes());
        self.records.extend_from_slice(bytes);
        self.entries += 1;
    }

    /// The entries, in the order they were pushed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let mut rest = self.records.as_slice();
        core::iter::from_fn(move || {
            let (key, tail) = rest.split_first_chunk::<8>()?;
            let (len, tail) = tail.split_first_chunk::<4>()?;
            let (bytes, after) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = after;
            Some((u64::from_le_bytes(*key), bytes))
        })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Leak onto the heap, returning the address to ship over a ring.
    pub(crate) fn into_addr(self) -> u64 {
        Box::into_raw(Box::new(self)) as u64
    }

    /// Reclaim a batch previously leaked with [`MigrationBatch::into_addr`].
    ///
    /// # Safety
    /// `addr` must come from exactly one `into_addr` call whose ownership
    /// was transferred to the caller and not yet reclaimed.
    pub(crate) unsafe fn from_addr(addr: u64) -> Box<MigrationBatch> {
        debug_assert!(addr > 1 && addr != Response::RETRY_ADDR);
        // SAFETY: per the contract above, `addr` is a uniquely-owned
        // `Box<MigrationBatch>` leaked by `into_addr`.
        unsafe { Box::from_raw(addr as *mut MigrationBatch) }
    }
}

/// What one source extracts for one chunk: its leaving entries sorted by
/// new owner as they leave the table, each receiver's cut into batches of
/// at most [`MAX_BATCH_BYTES`] record bytes.  An entry larger than the
/// ceiling travels alone, and no batch is empty.
///
/// The `MigrateOut` reply hands it over by address
/// ([`Response::with_batch`]); the coordinator forwards each batch to its
/// receiver without reading it.
#[derive(Debug, Default)]
pub(crate) struct MigrationExport {
    /// Per receiver (by partition index), its batches in order.
    receivers: Vec<Vec<MigrationBatch>>,
}

impl MigrationExport {
    /// Append one entry to `receiver`'s batches.
    pub(crate) fn push(&mut self, receiver: usize, key: u64, bytes: &[u8]) {
        if receiver >= self.receivers.len() {
            self.receivers.resize_with(receiver + 1, Vec::new);
        }
        let batches = &mut self.receivers[receiver];
        let cost = RECORD_HEADER + bytes.len();
        match batches.last_mut() {
            Some(batch) if batch.records.len() + cost <= MAX_BATCH_BYTES => batch.push(key, bytes),
            _ => {
                // A batch starts at a sixteenth of the ceiling, so it grows
                // to it in four steps, not one per doubling from nothing.
                let mut batch = MigrationBatch {
                    records: Vec::with_capacity(cost.max(MAX_BATCH_BYTES / 16)),
                    ..MigrationBatch::default()
                };
                batch.push(key, bytes);
                batches.push(batch);
            }
        }
    }

    /// Take `receiver`'s batches, in order (none is marked `last`).
    pub(crate) fn take(&mut self, receiver: usize) -> Vec<MigrationBatch> {
        self.receivers
            .get_mut(receiver)
            .map(core::mem::take)
            .unwrap_or_default()
    }

    /// Leak onto the heap, returning the address to ship over a ring.
    pub(crate) fn into_addr(self) -> u64 {
        Box::into_raw(Box::new(self)) as u64
    }

    /// Reclaim an export previously leaked with
    /// [`MigrationExport::into_addr`].
    ///
    /// # Safety
    /// `addr` must come from exactly one `into_addr` call whose ownership
    /// was transferred to the caller and not yet reclaimed.
    pub(crate) unsafe fn from_addr(addr: u64) -> Box<MigrationExport> {
        debug_assert!(addr > 1 && addr != Response::RETRY_ADDR);
        // SAFETY: per the contract above, `addr` is a uniquely-owned
        // `Box<MigrationExport>` leaked by `into_addr`.
        unsafe { Box::from_raw(addr as *mut MigrationExport) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_step_payload_round_trips() {
        let cases = [
            MigrationStep {
                chunk: 0,
                old_partitions: 2,
                new_partitions: 4,
            },
            MigrationStep {
                chunk: 1023,
                old_partitions: 1024,
                new_partitions: 1,
            },
            MigrationStep {
                chunk: (1 << 28) - 1,
                old_partitions: 65_535,
                new_partitions: 65_535,
            },
        ];
        for step in cases {
            assert_eq!(MigrationStep::from_payload(step.to_payload()), step);
            for request in [
                Request::MigrateOut { step },
                Request::MigratePrepare { step },
                Request::MigrateIn {
                    step,
                    batch_addr: 0xBEEF_0000,
                },
            ] {
                let (w0, w1) = encode(&request);
                assert_eq!(decode(w0, w1), Some(request));
            }
        }
    }

    #[test]
    fn retry_responses_are_distinguishable() {
        let r = Response::retry(7);
        assert!(r.is_retry());
        assert_eq!(r.retry_destination(), 7);
        assert!(!r.is_hit());
        assert!(!r.has_value());
        assert!(!Response::MISS.is_retry());
        assert!(!Response::FOUND.is_retry());
        assert!(!Response::with_value(0x1000, ElementId(1), 8).is_retry());
    }

    #[test]
    fn migration_batch_address_round_trip() {
        let mut export = MigrationExport::default();
        export.push(1, 1, &[0xAA; 16]);
        export.push(1, 2, &[0xBB; 3]);
        export.push(3, 3, &[]);
        let resp = Response::with_batch(export.into_addr(), 3);
        assert!(resp.is_hit());
        assert_eq!(resp.meta, 3);
        // SAFETY: the address comes from into_addr above and is reclaimed once.
        let mut export = unsafe { MigrationExport::from_addr(resp.addr) };
        assert!(export.take(0).is_empty() && export.take(2).is_empty());
        assert!(export.take(7).is_empty(), "a receiver past the last one");
        let mut batches = export.take(1);
        assert_eq!(batches.len(), 1);
        let mut batch = batches.remove(0);
        batch.last = true;
        let sent = batch.clone();
        // SAFETY: as above.
        let back = unsafe { MigrationBatch::from_addr(batch.into_addr()) };
        assert_eq!(*back, sent);
        assert!(back.last);
        let entries: Vec<(u64, &[u8])> = back.iter().collect();
        assert_eq!(entries, [(1, &[0xAA; 16][..]), (2, &[0xBB; 3][..])]);
        assert_eq!(back.records.len(), 2 * RECORD_HEADER + 16 + 3);
        let third = export.take(3);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].iter().collect::<Vec<_>>(), [(3, &[][..])]);
    }

    /// Push `(key, value length)` entries for one receiver and return its
    /// batches.
    fn cut(entries: &[(u64, usize)]) -> Vec<MigrationBatch> {
        let mut export = MigrationExport::default();
        for &(key, len) in entries {
            export.push(0, key, &vec![key as u8; len]);
        }
        let batches = export.take(0);
        assert_eq!(
            batches.iter().map(MigrationBatch::len).sum::<usize>(),
            entries.len()
        );
        batches
    }

    #[test]
    fn small_deliveries_are_not_cut() {
        let batches = cut(&[(1, 10), (2, 10)]);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn deliveries_are_cut_at_the_byte_ceiling_in_order() {
        // Four entries of a little over a third of the ceiling: two per cut.
        let len = MAX_BATCH_BYTES / 3;
        let batches = cut(&[(1, len), (2, len), (3, len), (4, len)]);
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.len() == 2));
        assert!(batches.iter().all(|b| b.records.len() <= MAX_BATCH_BYTES));
        let keys: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.iter().map(|(k, _)| k))
            .collect();
        assert_eq!(keys, [1, 2, 3, 4]);
        for (key, bytes) in batches.iter().flat_map(MigrationBatch::iter) {
            assert_eq!(bytes, vec![key as u8; len]);
        }
    }

    #[test]
    fn an_entry_larger_than_the_ceiling_travels_alone() {
        let batches = cut(&[(1, 10), (2, MAX_BATCH_BYTES), (3, 10)]);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[1].iter().next().unwrap().0, 2);
        assert!(batches[1].records.len() > MAX_BATCH_BYTES);
    }

    #[test]
    fn no_cut_is_empty() {
        for len in [1, MAX_BATCH_BYTES / 7, MAX_BATCH_BYTES / 2, MAX_BATCH_BYTES] {
            let entries: Vec<(u64, usize)> = (0..9).map(|k| (k, len + k as usize)).collect();
            let batches = cut(&entries);
            assert!(batches.iter().all(|b| b.len() > 0), "length {len}");
            assert_eq!(batches.iter().map(MigrationBatch::len).sum::<usize>(), 9);
            assert!(batches
                .iter()
                .all(|b| b.len() == 1 || b.records.len() <= MAX_BATCH_BYTES));
        }
    }

    #[test]
    fn request_words_match_paper_packing() {
        // Lookups are one 8-byte word → 8 per cache line; inserts are two
        // words (16 bytes) → 4 per cache line — whether the second word is
        // the size of a value to reserve room for or a short value itself.
        let inline = Request::InsertInline {
            key: 1,
            value: InlineValue::new(&[7; 8]).unwrap(),
        };
        let step = MigrationStep::from_payload(0);
        for (request, words) in [
            (Request::Lookup { key: 1 }, 1),
            (Request::Insert { key: 1, size: 64 }, 2),
            (inline, 2),
            (Request::Ready { id: ElementId(3) }, 1),
            (Request::Decref { id: ElementId(3) }, 1),
            (Request::Delete { key: 1 }, 1),
            (Request::MigratePrepare { step }, 1),
            (Request::MigrateOut { step }, 1),
            (
                Request::MigrateIn {
                    step,
                    batch_addr: 16,
                },
                2,
            ),
        ] {
            assert_eq!(request_words(&request), words, "{request:?}");
            assert_eq!(1 + encode(&request).1.iter().len(), words, "{request:?}");
        }
        assert_eq!(core::mem::size_of::<Response>(), 16);
        assert_eq!(cphash_cacheline::packing::messages_per_line(8), 8);
        assert_eq!(cphash_cacheline::packing::messages_per_line(16), 4);
    }

    #[test]
    fn encode_decode_round_trips() {
        let cases = [
            Request::Lookup { key: 0 },
            Request::Lookup { key: MAX_KEY },
            Request::Insert { key: 42, size: 0 },
            Request::Insert {
                key: 42,
                size: u64::MAX,
            },
            Request::Ready { id: ElementId(7) },
            Request::Decref {
                id: ElementId(u32::MAX - 1),
            },
            Request::Delete { key: 99 },
            Request::InsertInline {
                key: MAX_KEY,
                value: InlineValue::new(&[]).unwrap(),
            },
            Request::InsertInline {
                key: 42,
                value: InlineValue::new(&[0xFF; 7]).unwrap(),
            },
            Request::InsertInline {
                key: 42,
                value: InlineValue::from_word(u64::MAX, 8),
            },
        ];
        for case in cases {
            let (w0, w1) = encode(&case);
            assert_eq!(decode(w0, w1), Some(case), "case {case:?}");
        }
    }

    #[test]
    fn inline_insert_words_are_key_then_bytes_under_their_length() {
        let (w0, w1) = encode(&Request::InsertInline {
            key: 5,
            value: InlineValue::new(&[0xAA, 0xBB, 0xCC]).unwrap(),
        });
        assert_eq!(decode_word(w0), Some((OpCode::InsertInline, 5)));
        assert_eq!(w1, Some((3 << 56) | 0xCC_BBAA));
        // Eight bytes leave no room for a length: the opcode says it.
        let (w0, w1) = encode(&Request::InsertInline {
            key: 5,
            value: InlineValue::from_word(u64::MAX, 8),
        });
        assert_eq!(decode_word(w0), Some((OpCode::InsertWord, 5)));
        assert_eq!(w1, Some(u64::MAX));
        for op in [OpCode::InsertInline, OpCode::InsertWord, OpCode::Insert] {
            assert!(op.is_data());
        }
        assert!(!OpCode::Ready.is_data() && !OpCode::MigrateIn.is_data());
        // Short of its second word the message is incomplete; a length a
        // client could not have written is clamped, not trusted, and bytes
        // past the length are not kept.
        assert_eq!(decode(w0, None), None);
        let (short, _) = encode(&Request::InsertInline {
            key: 5,
            value: InlineValue::new(&[]).unwrap(),
        });
        assert_eq!(
            decode(short, Some(u64::MAX)),
            Some(Request::InsertInline {
                key: 5,
                value: InlineValue::new(&[0xFF; 7]).unwrap(),
            })
        );
    }

    #[test]
    fn inline_responses_are_told_apart_before_the_sentinels() {
        // The value words that are MISS / FOUND / RETRY addresses in every
        // other response, and one that looks like a pointer.
        for word in [0u64, 1, u64::MAX, 0x7F00_DEAD_BEE0] {
            for len in [0usize, 1, 7, 8] {
                let value = InlineValue::from_word(word, len);
                let r = Response::with_inline(value);
                assert_eq!(r.inline_value(), Some(value), "{word:#x}/{len}");
                assert!(r.is_hit() && !r.is_retry() && !r.has_value());
                assert_eq!(r.value_size(), len);
            }
        }
        for r in [
            Response::MISS,
            Response::FOUND,
            Response::retry(3),
            Response::with_value(0x1000, ElementId(u32::MAX - 1), 64),
            Response::with_batch(0x2000, 12),
        ] {
            assert_eq!(r.inline_value(), None, "{r:?}");
        }
    }

    #[test]
    fn invalid_opcode_is_rejected() {
        assert_eq!(decode_word(0), None);
        assert_eq!(decode_word(0xF << 60), None);
        assert_eq!(decode(0, None), None);
    }

    #[test]
    fn insert_without_extra_word_is_incomplete() {
        let (w0, _) = encode(&Request::Insert { key: 5, size: 100 });
        assert_eq!(decode(w0, None), None);
        let (op, payload) = decode_word(w0).unwrap();
        assert_eq!(op, OpCode::Insert);
        assert_eq!(payload, 5);
    }

    #[test]
    fn response_encoding_round_trips() {
        let r = Response::with_value(0xDEAD_BEEF_0000, ElementId(77), 4096);
        assert!(r.is_hit());
        assert!(r.has_value());
        assert_eq!(r.element_id(), ElementId(77));
        assert_eq!(r.value_size(), 4096);
        assert!(!Response::MISS.is_hit());
        assert!(Response::FOUND.is_hit());
        assert!(!Response::FOUND.has_value());
    }

    #[test]
    fn keys_with_high_bits_are_a_debug_error() {
        // In release builds the encode would silently mask; the public API
        // (`CpHash` / `ClientHandle`) masks keys to 60 bits before building
        // requests, so this is only reachable through the raw protocol.
        let key = MAX_KEY; // largest legal key round-trips fine
        let (w0, _) = encode(&Request::Lookup { key });
        assert_eq!(decode(w0, None), Some(Request::Lookup { key }));
    }
}
