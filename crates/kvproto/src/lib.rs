//! The CPSERVER / LOCKSERVER wire protocol.
//!
//! The paper's protocol (§4.1) is "a simple binary protocol with two
//! message types", u64-keyed LOOKUP and silent INSERT.  This reproduction
//! speaks one dialect, the typed operations protocol in [`v2`]: a
//! connect-time handshake (magic + version byte, acked with the negotiated
//! version), one unified `Lookup | Insert | Delete | Resize | Stats`
//! request frame over both u64 and byte-string keys (the §8.2 envelope,
//! [`envelope`], lives here so servers verify key-collision mismatches),
//! and a typed `Ok | Miss | Retry | Err{code}` reply for *every* request.
//!
//! A connection that does not open with the handshake — the unversioned
//! frames earlier builds also accepted start with an opcode byte 1..=3 — is
//! refused with [`DecodeError::BadMagic`] and dropped.  The README's "Wire
//! protocol" section is the normative spec.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod decode;
pub mod envelope;
pub mod v2;

pub use decode::{
    DecodeError, ReplyDecoder, ReplyRef, ServerDecoder, ServerEvent, ServerEventRef, ServerOp,
    ServerOpRef,
};
pub use v2::{
    client_handshake, encode_hello, encode_op, encode_op_parts, encode_reply, encode_reply_parts,
    pack_resize, parse_hello, resize_chunks_per_sec, resize_partitions, ErrCode, OpFrame, OpKind,
    Reply, Status, WireKey, WireKeyRef, HELLO_BYTES, MAX_KEY_STRING_BYTES, VERSION_2,
};

/// Largest value size the servers accept, to bound memory per request
/// (16 MiB; memcached's default limit is 1 MiB).
pub const MAX_VALUE_BYTES: usize = 16 * 1024 * 1024;

/// Largest legal key (60 bits), mirroring the table's key width.
pub const MAX_KEY: u64 = (1 << 60) - 1;
