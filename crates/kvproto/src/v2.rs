//! kvproto v2: the versioned, typed operations protocol — the only dialect
//! the servers and clients in this tree speak.
//!
//! * a **connect-time handshake** (magic + version byte, acked by the
//!   server with the negotiated version): a connection that opens with
//!   anything else is dropped;
//! * one unified request frame carrying `Lookup | Insert | Delete | Resize`
//!   over **both u64 hash keys and arbitrary byte-string keys** (the §8.2
//!   envelope, [`crate::envelope`], is the server's job);
//! * **every** request gets a response, carrying a typed status
//!   (`Ok | Miss | Retry | Err{code}`).
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! hello     := 0xCF 'C' 'P' version:u8                      (client → server, once)
//! hello_ack := 0xCF 'C' 'P' negotiated:u8                   (server → client, once)
//! request   := op:u8 flags:u8 key_len:u16 val_len:u32
//!              key_field:u64 key[key_len] value[val_len]
//! reply     := status:u8 code:u8 reserved:u16 val_len:u32 value[val_len]
//! ```
//!
//! `flags` bit 0 (`FLAG_BYTE_KEY`) selects byte-string keys: the key is the
//! `key_len` bytes following the header and `key_field` must be zero.
//! Without it, `key_field` is the 60-bit hash key and `key_len` must be
//! zero.  Replies are matched to requests by order — one reply per request,
//! FIFO per connection.

use std::io::{self, Read, Write};

use bytes::{BufMut, BytesMut};

use crate::MAX_KEY;

/// The handshake magic.  Its first byte is outside the opcode space of the
/// unversioned frames earlier builds spoke (1..=3), so such a peer is
/// refused on its first byte.
pub const MAGIC: [u8; 3] = [0xCF, b'C', b'P'];

/// Version byte for the typed operations protocol described here; the
/// lowest (and only) version a HELLO may ask for.
pub const VERSION_2: u8 = 2;

/// Size of HELLO and HELLO-ACK on the wire.
pub const HELLO_BYTES: usize = 4;

/// Size of a v2 request header.
pub const OP_HEADER_BYTES: usize = 1 + 1 + 2 + 4 + 8;

/// Size of a v2 reply header.
pub const REPLY_HEADER_BYTES: usize = 1 + 1 + 2 + 4;

/// `flags` bit 0: the key is a byte string, not a u64 hash key.
pub const FLAG_BYTE_KEY: u8 = 1 << 0;

/// Largest byte-string key (the `key_len` field is a u16).
pub const MAX_KEY_STRING_BYTES: usize = u16::MAX as usize;

/// Typed v2 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Fetch the value stored under a key.
    Lookup = 1,
    /// Store a value under a key.
    Insert = 2,
    /// Remove a key.
    Delete = 3,
    /// Admin: re-partition the live table (key packs partitions + pacing,
    /// see [`pack_resize`]).
    Resize = 4,
    /// Admin: fetch the server's live metrics snapshot.  The reply value
    /// carries the snapshot serialized in the Prometheus text exposition
    /// format — the same bytes `cpserverd --stats-addr` serves over HTTP.
    Stats = 5,
}

impl OpKind {
    /// Parse an opcode byte.
    pub fn from_byte(b: u8) -> Option<OpKind> {
        match b {
            1 => Some(OpKind::Lookup),
            2 => Some(OpKind::Insert),
            3 => Some(OpKind::Delete),
            4 => Some(OpKind::Resize),
            5 => Some(OpKind::Stats),
            _ => None,
        }
    }
}

/// A key on the wire: the table's native 60-bit hash key, or an arbitrary
/// byte string (stored via the [`crate::envelope`] encoding server-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireKey {
    /// 60-bit hash key.
    Hash(u64),
    /// Arbitrary byte-string key.
    Bytes(Vec<u8>),
}

impl WireKey {
    /// The 60-bit hash key this key routes by: itself for hash keys, the
    /// envelope hash for byte keys.
    pub fn hash(&self) -> u64 {
        self.as_ref().hash()
    }

    /// Borrow this key.
    pub fn as_ref(&self) -> WireKeyRef<'_> {
        match self {
            WireKey::Hash(k) => WireKeyRef::Hash(*k),
            WireKey::Bytes(b) => WireKeyRef::Bytes(b),
        }
    }
}

/// A [`WireKey`] by reference — what the borrowed decoders yield, with
/// byte-string keys pointing into the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKeyRef<'a> {
    /// 60-bit hash key.
    Hash(u64),
    /// Arbitrary byte-string key.
    Bytes(&'a [u8]),
}

impl WireKeyRef<'_> {
    /// The 60-bit hash key this key routes by (see [`WireKey::hash`]).
    pub fn hash(&self) -> u64 {
        match self {
            WireKeyRef::Hash(k) => *k & MAX_KEY,
            WireKeyRef::Bytes(b) => crate::envelope::hash_key(b),
        }
    }

    /// Copy into an owned [`WireKey`].
    pub fn into_owned(self) -> WireKey {
        match self {
            WireKeyRef::Hash(k) => WireKey::Hash(k),
            WireKeyRef::Bytes(b) => WireKey::Bytes(b.to_vec()),
        }
    }
}

/// A decoded (or to-be-encoded) v2 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpFrame {
    /// What to do.
    pub kind: OpKind,
    /// Which key.
    pub key: WireKey,
    /// Value bytes (inserts only; empty otherwise).
    pub value: Vec<u8>,
}

impl OpFrame {
    /// Lookup of a hash key.
    pub fn lookup(key: u64) -> OpFrame {
        OpFrame {
            kind: OpKind::Lookup,
            key: WireKey::Hash(key & MAX_KEY),
            value: Vec::new(),
        }
    }

    /// Lookup of a byte-string key.
    pub fn lookup_bytes(key: impl Into<Vec<u8>>) -> OpFrame {
        OpFrame {
            kind: OpKind::Lookup,
            key: WireKey::Bytes(key.into()),
            value: Vec::new(),
        }
    }

    /// Insert under a hash key.
    pub fn insert(key: u64, value: impl Into<Vec<u8>>) -> OpFrame {
        OpFrame {
            kind: OpKind::Insert,
            key: WireKey::Hash(key & MAX_KEY),
            value: value.into(),
        }
    }

    /// Insert under a byte-string key.
    pub fn insert_bytes(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> OpFrame {
        OpFrame {
            kind: OpKind::Insert,
            key: WireKey::Bytes(key.into()),
            value: value.into(),
        }
    }

    /// Delete a hash key.
    pub fn delete(key: u64) -> OpFrame {
        OpFrame {
            kind: OpKind::Delete,
            key: WireKey::Hash(key & MAX_KEY),
            value: Vec::new(),
        }
    }

    /// Delete a byte-string key.
    pub fn delete_bytes(key: impl Into<Vec<u8>>) -> OpFrame {
        OpFrame {
            kind: OpKind::Delete,
            key: WireKey::Bytes(key.into()),
            value: Vec::new(),
        }
    }

    /// Re-partition to `partitions` with the server's default pacing.
    pub fn resize(partitions: u64) -> OpFrame {
        Self::resize_paced(partitions, 0)
    }

    /// Re-partition with an explicit chunks-per-second pacing budget
    /// (0 keeps the server's default).
    pub fn resize_paced(partitions: u64, chunks_per_sec: u32) -> OpFrame {
        OpFrame {
            kind: OpKind::Resize,
            key: WireKey::Hash(pack_resize(partitions, chunks_per_sec)),
            value: Vec::new(),
        }
    }

    /// Request the server's live metrics snapshot (Prometheus text in the
    /// reply value).
    pub fn stats() -> OpFrame {
        OpFrame {
            kind: OpKind::Stats,
            key: WireKey::Hash(0),
            value: Vec::new(),
        }
    }
}

/// Pack a RESIZE key field: target partition count in the low 16 bits plus
/// an optional pacing budget in chunk hand-offs per second (0 keeps the
/// server's default) in bits 16..48.
pub fn pack_resize(partitions: u64, chunks_per_sec: u32) -> u64 {
    (partitions & 0xFFFF) | ((chunks_per_sec as u64) << 16)
}

/// The target partition count packed in a RESIZE key field.
pub fn resize_partitions(key: u64) -> usize {
    (key & 0xFFFF) as usize
}

/// The pacing budget packed in a RESIZE key field (`None` when the client
/// left it zero, i.e. "use the server's default pacing").
pub fn resize_chunks_per_sec(key: u64) -> Option<u32> {
    match ((key >> 16) & 0xFFFF_FFFF) as u32 {
        0 => None,
        rate => Some(rate),
    }
}

/// Typed reply status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The operation succeeded; lookups carry the value bytes.
    Ok = 0,
    /// The key was absent (lookup / delete), or a byte-key lookup hit a
    /// hash collision with a different key (§8.2: reads as a miss).
    Miss = 1,
    /// The server could not place the operation right now.  Reserved: no
    /// server in this workspace sends it (a live re-partition stays behind
    /// the server's own table client), and `RemoteClient` fails an
    /// operation that receives one.
    Retry = 2,
    /// The operation failed; `code` says why and the value bytes may carry
    /// a human-readable message.
    Err = 3,
}

impl Status {
    /// Parse a status byte.
    pub fn from_byte(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Miss),
            2 => Some(Status::Retry),
            3 => Some(Status::Err),
            _ => None,
        }
    }
}

/// Why an operation failed (`Status::Err`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// No error (the code byte of non-`Err` replies).
    None,
    /// The table could not make room (value larger than a partition, or
    /// everything pinned).
    Capacity,
    /// The server does not support this operation (e.g. RESIZE on a static
    /// table or on the memcached baseline).
    Unsupported,
    /// The admin path rejected or could not complete the request.
    Admin,
    /// Internal server error.
    Internal,
    /// A code this client does not know (forward compatibility).
    Other(u8),
}

impl ErrCode {
    /// Wire byte for this code.
    pub fn to_byte(self) -> u8 {
        match self {
            ErrCode::None => 0,
            ErrCode::Capacity => 1,
            ErrCode::Unsupported => 2,
            ErrCode::Admin => 3,
            ErrCode::Internal => 4,
            ErrCode::Other(b) => b,
        }
    }

    /// Parse a wire byte (never fails: unknown codes are preserved).
    pub fn from_byte(b: u8) -> ErrCode {
        match b {
            0 => ErrCode::None,
            1 => ErrCode::Capacity,
            2 => ErrCode::Unsupported,
            3 => ErrCode::Admin,
            4 => ErrCode::Internal,
            other => ErrCode::Other(other),
        }
    }
}

impl core::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ErrCode::None => f.write_str("ok"),
            ErrCode::Capacity => f.write_str("out of capacity"),
            ErrCode::Unsupported => f.write_str("operation unsupported"),
            ErrCode::Admin => f.write_str("admin error"),
            ErrCode::Internal => f.write_str("internal error"),
            ErrCode::Other(b) => write!(f, "error code {b}"),
        }
    }
}

/// A decoded (or to-be-encoded) v2 reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// What happened.
    pub status: Status,
    /// Why it failed (`ErrCode::None` unless `status == Err`).
    pub code: ErrCode,
    /// Value bytes (lookup hits; error / admin status messages).
    pub value: Vec<u8>,
}

impl Reply {
    /// Success without a value (insert / delete-found).
    pub fn ok() -> Reply {
        Reply {
            status: Status::Ok,
            code: ErrCode::None,
            value: Vec::new(),
        }
    }

    /// Success with value bytes (lookup hit, admin status string).
    pub fn ok_value(value: impl Into<Vec<u8>>) -> Reply {
        Reply {
            status: Status::Ok,
            code: ErrCode::None,
            value: value.into(),
        }
    }

    /// Key absent (or byte-key collision).
    pub fn miss() -> Reply {
        Reply {
            status: Status::Miss,
            code: ErrCode::None,
            value: Vec::new(),
        }
    }

    /// Resubmit, please.
    pub fn retry() -> Reply {
        Reply {
            status: Status::Retry,
            code: ErrCode::None,
            value: Vec::new(),
        }
    }

    /// Failure with a typed code and an optional message.
    pub fn err(code: ErrCode, message: impl Into<Vec<u8>>) -> Reply {
        Reply {
            status: Status::Err,
            code,
            value: message.into(),
        }
    }
}

/// Append a HELLO (or HELLO-ACK — same layout) to `out`.
pub fn encode_hello(out: &mut BytesMut, version: u8) {
    out.reserve(HELLO_BYTES);
    out.put_slice(&MAGIC);
    out.put_u8(version);
}

/// Parse a HELLO / HELLO-ACK.  Returns the version byte, which is never
/// below [`VERSION_2`]: no peer in this tree speaks anything older.
pub fn parse_hello(bytes: &[u8; HELLO_BYTES]) -> Result<u8, crate::DecodeError> {
    if bytes[..3] != MAGIC {
        return Err(crate::DecodeError::BadMagic(bytes[0]));
    }
    match bytes[3] {
        v if v < VERSION_2 => Err(crate::DecodeError::BadVersion(v)),
        v => Ok(v),
    }
}

/// The client's half of the handshake, over a blocking stream: send a HELLO
/// for [`VERSION_2`] and read the ACK.  `InvalidData` when the peer answers
/// with anything but an ACK for version 2 (a server may only negotiate
/// down, and nothing below 2 exists); the stream's own error when it
/// closes (`UnexpectedEof`) or stays silent past its read timeout.
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> io::Result<()> {
    stream.write_all(&[MAGIC[0], MAGIC[1], MAGIC[2], VERSION_2])?;
    let mut ack = [0u8; HELLO_BYTES];
    stream.read_exact(&mut ack)?;
    let refused = match parse_hello(&ack) {
        Ok(VERSION_2) => return Ok(()),
        Ok(other) => crate::DecodeError::BadVersion(other),
        Err(e) => e,
    };
    Err(io::Error::new(io::ErrorKind::InvalidData, refused))
}

/// Append an encoded v2 request to `out`.
///
/// Panics if a byte-string key exceeds [`MAX_KEY_STRING_BYTES`] — that is a
/// caller bug, not a wire condition.
pub fn encode_op(out: &mut BytesMut, frame: &OpFrame) {
    encode_op_parts(out, frame.kind, frame.key.as_ref(), &frame.value);
}

/// Append an encoded v2 request from its parts — the path clients use, so
/// a request's key and value go straight from the caller's borrow into the
/// output buffer.  Panics as [`encode_op`] does.
pub fn encode_op_parts(out: &mut BytesMut, kind: OpKind, key: WireKeyRef<'_>, value: &[u8]) {
    let (flags, key_len, key_field, key_bytes): (u8, usize, u64, &[u8]) = match key {
        WireKeyRef::Hash(k) => (0, 0, k & MAX_KEY, &[]),
        WireKeyRef::Bytes(b) => {
            assert!(
                b.len() <= MAX_KEY_STRING_BYTES,
                "byte-string keys are limited to {MAX_KEY_STRING_BYTES} bytes"
            );
            (FLAG_BYTE_KEY, b.len(), 0, b)
        }
    };
    out.reserve(OP_HEADER_BYTES + key_len + value.len());
    out.put_u8(kind as u8);
    out.put_u8(flags);
    out.put_u16_le(key_len as u16);
    out.put_u32_le(value.len() as u32);
    out.put_u64_le(key_field);
    out.put_slice(key_bytes);
    out.put_slice(value);
}

/// Append an encoded v2 reply to `out`.
pub fn encode_reply(out: &mut BytesMut, reply: &Reply) {
    encode_reply_parts(out, reply.status, reply.code, &reply.value);
}

/// Append an encoded v2 reply from its parts — the zero-intermediate-copy
/// path servers use for lookup hits (value bytes go straight from the
/// table's copy into the connection's output buffer).
pub fn encode_reply_parts(out: &mut BytesMut, status: Status, code: ErrCode, value: &[u8]) {
    out.reserve(REPLY_HEADER_BYTES + value.len());
    out.put_u8(status as u8);
    out.put_u8(code.to_byte());
    out.put_u16_le(0);
    out.put_u32_le(value.len() as u32);
    out.put_slice(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_and_rejects_garbage() {
        let mut buf = BytesMut::new();
        encode_hello(&mut buf, VERSION_2);
        assert_eq!(buf.len(), HELLO_BYTES);
        let bytes: [u8; HELLO_BYTES] = buf[..].try_into().unwrap();
        assert_eq!(parse_hello(&bytes).unwrap(), VERSION_2);
        assert!(parse_hello(&[1, b'C', b'P', 2]).is_err());
        for old in [0, 1] {
            assert_eq!(
                parse_hello(&[0xCF, b'C', b'P', old]),
                Err(crate::DecodeError::BadVersion(old))
            );
        }
        assert_eq!(parse_hello(&[0xCF, b'C', b'P', 3]), Ok(3));
    }

    #[test]
    fn op_encoding_layout_hash_key() {
        let mut buf = BytesMut::new();
        encode_op(&mut buf, &OpFrame::insert(7, b"abc".to_vec()));
        assert_eq!(buf.len(), OP_HEADER_BYTES + 3);
        assert_eq!(buf[0], OpKind::Insert as u8);
        assert_eq!(buf[1], 0);
        assert_eq!(u16::from_le_bytes(buf[2..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(buf[8..16].try_into().unwrap()), 7);
        assert_eq!(&buf[16..], b"abc");
    }

    #[test]
    fn op_encoding_layout_byte_key() {
        let mut buf = BytesMut::new();
        encode_op(&mut buf, &OpFrame::lookup_bytes(b"user:1".to_vec()));
        assert_eq!(buf.len(), OP_HEADER_BYTES + 6);
        assert_eq!(buf[0], OpKind::Lookup as u8);
        assert_eq!(buf[1], FLAG_BYTE_KEY);
        assert_eq!(u16::from_le_bytes(buf[2..4].try_into().unwrap()), 6);
        assert_eq!(&buf[16..22], b"user:1");
    }

    #[test]
    fn reply_encoding_layout() {
        let mut buf = BytesMut::new();
        encode_reply(&mut buf, &Reply::err(ErrCode::Capacity, b"full".to_vec()));
        assert_eq!(buf[0], Status::Err as u8);
        assert_eq!(buf[1], ErrCode::Capacity.to_byte());
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 4);
        assert_eq!(&buf[8..], b"full");
    }

    #[test]
    fn stats_opcode_round_trips() {
        assert_eq!(OpKind::from_byte(5), Some(OpKind::Stats));
        assert_eq!(OpKind::from_byte(6), None);
        let mut buf = BytesMut::new();
        encode_op(&mut buf, &OpFrame::stats());
        assert_eq!(buf.len(), OP_HEADER_BYTES);
        assert_eq!(buf[0], OpKind::Stats as u8);
    }

    #[test]
    fn resize_key_packs_partitions_and_pacing() {
        // Plain resize: partition count only, "default pacing" marker.
        let WireKey::Hash(plain) = OpFrame::resize(8).key else {
            panic!("resize frames carry packed hash keys");
        };
        assert_eq!(plain, 8);
        assert_eq!(resize_partitions(plain), 8);
        assert_eq!(resize_chunks_per_sec(plain), None);
        assert_eq!(
            OpFrame::resize_paced(4, 250).key,
            WireKey::Hash(pack_resize(4, 250))
        );
        assert_eq!(resize_chunks_per_sec(pack_resize(4, 250)), Some(250));
        // The packing keeps the two fields independent.
        assert_eq!(resize_partitions(pack_resize(0xFFFF, u32::MAX)), 0xFFFF);
        assert_eq!(
            resize_chunks_per_sec(pack_resize(3, u32::MAX)),
            Some(u32::MAX)
        );
    }

    #[test]
    fn err_codes_round_trip() {
        for code in [
            ErrCode::None,
            ErrCode::Capacity,
            ErrCode::Unsupported,
            ErrCode::Admin,
            ErrCode::Internal,
            ErrCode::Other(99),
        ] {
            assert_eq!(ErrCode::from_byte(code.to_byte()), code);
        }
        assert_eq!(Status::from_byte(9), None);
    }

    #[test]
    fn wire_key_hash_routes_byte_keys_through_the_envelope() {
        assert_eq!(WireKey::Hash(u64::MAX).hash(), MAX_KEY);
        assert_eq!(
            WireKey::Bytes(b"k".to_vec()).hash(),
            crate::envelope::hash_key(b"k")
        );
    }
}
