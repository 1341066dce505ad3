//! The CPSERVER / LOCKSERVER wire protocol, in two generations.
//!
//! **v1** is the paper's protocol (§4.1): "CPSERVER uses a simple binary
//! protocol with two message types" — u64-keyed LOOKUP (answered with a
//! size-prefixed value, size 0 on a miss) and silent INSERT — plus this
//! reproduction's RESIZE admin opcode.  It is unversioned:
//!
//! ```text
//! request  := opcode:u8  key:u64le  size:u32le  value[size]      (size = 0 for LOOKUP)
//! response := size:u32le value[size]                             (LOOKUP only)
//! ```
//!
//! **v2** ([`v2`]) is the typed operations protocol: a connect-time
//! handshake (magic + version byte, acked with the negotiated version),
//! one unified `Lookup | Insert | Delete | Resize` request frame over both
//! u64 and byte-string keys (the §8.2 envelope, [`envelope`], lives here so
//! servers verify key-collision mismatches), and a typed
//! `Ok | Miss | Retry | Err{code}` reply for *every* request.
//!
//! Servers speak both: [`ServerDecoder`] tells them apart by the first
//! byte a connection sends, so v1 clients keep working unchanged, and v2
//! clients fall back to v1 when a v1-only server drops their handshake.
//! The README's "Wire protocol" section is the normative spec.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod decode;
pub mod envelope;
pub mod frame;
pub mod v2;

pub use decode::{
    DecodeError, ReplyDecoder, ReplyRef, RequestDecoder, ResponseDecoder, ServerDecoder,
    ServerEvent, ServerEventRef, ServerOp, ServerOpRef,
};
pub use frame::{
    encode_insert, encode_lookup, encode_request, encode_resize, encode_resize_paced,
    encode_response, pack_resize, resize_chunks_per_sec, resize_partitions, Request, RequestKind,
    Response,
};
pub use v2::{
    encode_hello, encode_op, encode_reply, encode_reply_parts, parse_hello, ErrCode, OpFrame,
    OpKind, Reply, Status, WireKey, WireKeyRef, HELLO_BYTES, MAX_KEY_STRING_BYTES, VERSION_1,
    VERSION_2,
};

/// Largest value size the servers accept, to bound memory per request
/// (16 MiB; memcached's default limit is 1 MiB).
pub const MAX_VALUE_BYTES: usize = 16 * 1024 * 1024;

/// Largest legal key (60 bits), mirroring the table's key width.
pub const MAX_KEY: u64 = (1 << 60) - 1;
