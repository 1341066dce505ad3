//! Incremental decoders for streamed frames.
//!
//! CPSERVER's client threads "gather as many requests as possible to perform
//! them in a single batch" (§4.1), which means they read whatever bytes TCP
//! delivers and must handle frames that arrive split across reads.  The
//! decoders here consume from a growable byte buffer and yield complete
//! frames as they become available.
//!
//! There is one parser per direction, and it is *borrowed*:
//! [`ServerDecoder::next_event_ref`] and [`ReplyDecoder::next_reply_ref`]
//! yield key and value slices of the receive buffer, so a pipelined buffer
//! decodes in time linear in its bytes and without touching the heap.  The
//! owned `next_event` / `next_reply` / `drain` are thin copies on top, and
//! `read_from` lets a socket fill the buffer directly.
//
// cphash-lint: hot-path

use std::io::{self, Read};

use bytes::{Buf, BytesMut};

use crate::frame::{Request, RequestKind, Response, REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES};
use crate::v2::{
    ErrCode, OpFrame, OpKind, Reply, Status, WireKeyRef, FLAG_BYTE_KEY, HELLO_BYTES,
    OP_HEADER_BYTES, REPLY_HEADER_BYTES, VERSION_1, VERSION_2,
};
use crate::{MAX_KEY, MAX_VALUE_BYTES};

/// Least spare capacity a decoder offers a socket read: one page, so an
/// idle connection holds 4 KiB.  A read that fills it makes the buffer
/// double, so a connection that pipelines deeply gets large reads.
const MIN_READ_SPARE: usize = 4096;

/// Why decoding failed (the connection should be dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Value size field exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge(u64),
    /// First byte looked like a handshake but the magic did not match.
    BadMagic(u8),
    /// Handshake version byte is not a version this peer can speak.
    BadVersion(u8),
    /// Unknown reply status byte.
    BadStatus(u8),
    /// Frame fields contradict each other (e.g. a byte-key flag with a
    /// nonzero hash-key field, or a hash-key frame with a key length).
    Malformed,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            DecodeError::ValueTooLarge(n) => {
                write!(f, "value of {n} bytes exceeds the protocol limit")
            }
            DecodeError::BadMagic(b) => write!(f, "bad handshake magic (first byte {b:#04x})"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadStatus(b) => write!(f, "unknown reply status byte {b:#04x}"),
            DecodeError::Malformed => f.write_str("malformed frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn le_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    (le_u32(bytes, at) as u64) | ((le_u32(bytes, at + 4) as u64) << 32)
}

/// A v1 request in place: kind, key, and the value as a slice of the
/// receive buffer.
type V1RequestRef<'a> = (RequestKind, u64, &'a [u8]);

/// Take the next complete v1 request off `buffer`, borrowing its value.
/// The one v1 request parser, shared by [`RequestDecoder`] and
/// [`ServerDecoder`].
fn v1_request_ref(buffer: &mut BytesMut) -> Result<Option<V1RequestRef<'_>>, DecodeError> {
    // Validate the opcode as soon as it is buffered, before waiting for
    // the rest of the header: a v2 client probing with HELLO (4 bytes,
    // leading 0xCF) must be rejected immediately, not after its
    // handshake timeout expires waiting for byte 13.
    let Some(&opcode) = buffer.first() else {
        return Ok(None);
    };
    let kind = RequestKind::from_byte(opcode).ok_or(DecodeError::BadOpcode(opcode))?;
    if buffer.len() < REQUEST_HEADER_BYTES {
        return Ok(None);
    }
    let key = le_u64(buffer, 1);
    let size = le_u32(buffer, 9) as usize;
    if size > MAX_VALUE_BYTES {
        return Err(DecodeError::ValueTooLarge(size as u64));
    }
    let body = if kind == RequestKind::Insert { size } else { 0 };
    if buffer.len() < REQUEST_HEADER_BYTES + body {
        return Ok(None);
    }
    let frame = buffer.consume(REQUEST_HEADER_BYTES + body);
    Ok(Some((kind, key, &frame[REQUEST_HEADER_BYTES..])))
}

/// Streaming decoder for request frames (server side).
#[derive(Debug, Default)]
pub struct RequestDecoder {
    buffer: BytesMut,
}

impl RequestDecoder {
    /// New empty decoder.
    pub fn new() -> Self {
        RequestDecoder {
            buffer: BytesMut::with_capacity(4096),
        }
    }

    /// Feed freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Try to decode the next complete request.  `Ok(None)` means more bytes
    /// are needed.
    pub fn next_request(&mut self) -> Result<Option<Request>, DecodeError> {
        Ok(
            v1_request_ref(&mut self.buffer)?.map(|(kind, key, value)| Request {
                kind,
                key,
                // lint: allow(hot-path) — owned v1 API for tests and benches
                value: value.to_vec(),
            }),
        )
    }

    /// Decode every complete request currently buffered.
    pub fn drain(&mut self, out: &mut Vec<Request>) -> Result<usize, DecodeError> {
        let before = out.len();
        while let Some(req) = self.next_request()? {
            out.push(req);
        }
        Ok(out.len() - before)
    }
}

/// Streaming decoder for response frames (client side).
#[derive(Debug, Default)]
pub struct ResponseDecoder {
    buffer: BytesMut,
}

impl ResponseDecoder {
    /// New empty decoder.
    pub fn new() -> Self {
        ResponseDecoder {
            buffer: BytesMut::with_capacity(4096),
        }
    }

    /// Feed freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Read once from `reader` straight into the decode buffer.  Returns
    /// the bytes read and whether the read filled the space offered (if it
    /// did not, the reader had no more).
    pub fn read_from<R: Read>(&mut self, reader: &mut R) -> io::Result<(usize, bool)> {
        self.buffer.read_from(reader, MIN_READ_SPARE)
    }

    /// Try to decode the next complete response.  `Ok(None)` means more
    /// bytes are needed.
    pub fn next_response(&mut self) -> Result<Option<Response>, DecodeError> {
        if self.buffer.len() < RESPONSE_HEADER_BYTES {
            return Ok(None);
        }
        let size = le_u32(&self.buffer, 0) as usize;
        if size > MAX_VALUE_BYTES {
            return Err(DecodeError::ValueTooLarge(size as u64));
        }
        if self.buffer.len() < RESPONSE_HEADER_BYTES + size {
            return Ok(None);
        }
        self.buffer.advance(RESPONSE_HEADER_BYTES);
        let value = self.buffer.consume(size);
        Ok(Some(Response {
            // lint: allow(hot-path) — owned v1 API (legacy clients, tests)
            value: (size != 0).then(|| value.to_vec()),
        }))
    }
}

/// A decoded server-side event: either a request, or the connection's
/// one-time handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// The client sent a HELLO requesting `version`; the server must answer
    /// with a HELLO-ACK carrying the negotiated version (and, if it
    /// negotiates down to v1, call [`ServerDecoder::set_wire_version`]).
    Hello {
        /// The version the client asked for.
        requested: u8,
    },
    /// A complete request.
    Op(ServerOp),
}

/// One decoded request plus its response obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOp {
    /// The operation.
    pub frame: OpFrame,
    /// Whether the client expects a reply frame.  Every v2 request does;
    /// v1 INSERTs are fire-and-forget ("the server silently performs INSERT
    /// requests", §4.1).
    pub wants_response: bool,
}

/// A [`ServerEvent`] whose request borrows the decoder's receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEventRef<'a> {
    /// See [`ServerEvent::Hello`].
    Hello {
        /// The version the client asked for.
        requested: u8,
    },
    /// A complete request.
    Op(ServerOpRef<'a>),
}

impl ServerEventRef<'_> {
    /// Copy into an owned [`ServerEvent`].
    pub fn into_owned(self) -> ServerEvent {
        match self {
            ServerEventRef::Hello { requested } => ServerEvent::Hello { requested },
            ServerEventRef::Op(op) => ServerEvent::Op(op.into_owned()),
        }
    }
}

/// A [`ServerOp`] by reference: key and value are slices of the decoder's
/// receive buffer, valid until the decoder is next touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOpRef<'a> {
    /// What to do.
    pub kind: OpKind,
    /// Which key.
    pub key: WireKeyRef<'a>,
    /// Value bytes (inserts only; empty otherwise).
    pub value: &'a [u8],
    /// See [`ServerOp::wants_response`].
    pub wants_response: bool,
    /// The framing the request arrived in ([`VERSION_1`] or
    /// [`VERSION_2`]) — which is also the framing its reply must use.
    pub wire_version: u8,
}

impl ServerOpRef<'_> {
    /// Copy into an owned [`ServerOp`].
    pub fn into_owned(self) -> ServerOp {
        ServerOp {
            frame: OpFrame {
                kind: self.kind,
                key: self.key.into_owned(),
                // lint: allow(hot-path) — the owned API copies by definition
                value: self.value.to_vec(),
            },
            wants_response: self.wants_response,
        }
    }
}

/// Which framing a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireMode {
    /// Nothing received yet: the first byte decides.
    Detect,
    /// Legacy unversioned frames.
    V1,
    /// Versioned typed frames.
    V2,
}

/// Streaming, version-negotiating decoder for the server side of a
/// connection.
///
/// The first byte received decides the mode: a v1 opcode (1..=3) locks the
/// connection to v1 framing; the handshake magic starts a v2 session.
/// Anything else is an error and the connection should be dropped — which
/// is exactly what a pre-versioning server did with the magic byte, and
/// what v2 clients rely on for transparent fallback.
#[derive(Debug)]
pub struct ServerDecoder {
    buffer: BytesMut,
    mode: WireMode,
    hello_seen: bool,
}

impl Default for ServerDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerDecoder {
    /// New decoder in detection state.
    pub fn new() -> Self {
        ServerDecoder {
            buffer: BytesMut::with_capacity(MIN_READ_SPARE),
            mode: WireMode::Detect,
            hello_seen: false,
        }
    }

    /// Feed freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Read once from `reader` straight into the decode buffer.  Returns
    /// the bytes read and whether the read filled the space offered (if it
    /// did not, the reader had no more).
    pub fn read_from<R: Read>(&mut self, reader: &mut R) -> io::Result<(usize, bool)> {
        self.buffer.read_from(reader, MIN_READ_SPARE)
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The framing this connection resolved to (`None` until the first byte
    /// arrives): [`VERSION_1`] or [`VERSION_2`].
    pub fn wire_version(&self) -> Option<u8> {
        match self.mode {
            WireMode::Detect => None,
            WireMode::V1 => Some(VERSION_1),
            WireMode::V2 => Some(VERSION_2),
        }
    }

    /// Force the framing for subsequent bytes.  Servers that negotiate a
    /// HELLO down to v1 call this so the client's following v1 frames parse.
    pub fn set_wire_version(&mut self, version: u8) {
        self.mode = if version <= VERSION_1 {
            WireMode::V1
        } else {
            WireMode::V2
        };
    }

    /// Let the first buffered byte decide the framing.
    fn detect(&mut self) -> Result<(), DecodeError> {
        if self.mode == WireMode::Detect {
            if let Some(&first) = self.buffer.first() {
                self.mode = if first == crate::v2::MAGIC[0] {
                    WireMode::V2
                } else if RequestKind::from_byte(first).is_some() {
                    WireMode::V1
                } else {
                    return Err(DecodeError::BadOpcode(first));
                };
            }
        }
        Ok(())
    }

    /// Consume the connection's one-time HELLO if it is what comes next,
    /// returning the version the client asked for.  `Ok(None)` means the
    /// next thing buffered (if anything) is not a complete handshake.
    pub fn take_hello(&mut self) -> Result<Option<u8>, DecodeError> {
        self.detect()?;
        if self.mode != WireMode::V2 || self.hello_seen || self.buffer.len() < HELLO_BYTES {
            return Ok(None);
        }
        let hello = [
            self.buffer[0],
            self.buffer[1],
            self.buffer[2],
            self.buffer[3],
        ];
        let requested = crate::v2::parse_hello(&hello)?;
        self.buffer.advance(HELLO_BYTES);
        self.hello_seen = true;
        Ok(Some(requested))
    }

    /// Try to decode the next request, borrowing key and value from the
    /// receive buffer.  `Ok(None)` means more bytes are needed — or that a
    /// handshake comes first, which [`ServerDecoder::take_hello`] consumes.
    pub fn next_op_ref(&mut self) -> Result<Option<ServerOpRef<'_>>, DecodeError> {
        self.detect()?;
        match self.mode {
            WireMode::V1 => self.next_v1_ref(),
            WireMode::V2 if self.hello_seen => self.next_v2_ref(),
            WireMode::V2 | WireMode::Detect => Ok(None),
        }
    }

    /// Try to decode the next event without copying it out of the receive
    /// buffer.  `Ok(None)` means more bytes are needed.
    pub fn next_event_ref(&mut self) -> Result<Option<ServerEventRef<'_>>, DecodeError> {
        if let Some(requested) = self.take_hello()? {
            return Ok(Some(ServerEventRef::Hello { requested }));
        }
        Ok(self.next_op_ref()?.map(ServerEventRef::Op))
    }

    /// Try to decode the next event.  `Ok(None)` means more bytes are
    /// needed.
    pub fn next_event(&mut self) -> Result<Option<ServerEvent>, DecodeError> {
        Ok(self.next_event_ref()?.map(ServerEventRef::into_owned))
    }

    /// Decode every complete event currently buffered.
    pub fn drain(&mut self, out: &mut Vec<ServerEvent>) -> Result<usize, DecodeError> {
        let before = out.len();
        while let Some(event) = self.next_event()? {
            out.push(event);
        }
        Ok(out.len() - before)
    }

    fn next_v1_ref(&mut self) -> Result<Option<ServerOpRef<'_>>, DecodeError> {
        let Some((kind, key, value)) = v1_request_ref(&mut self.buffer)? else {
            return Ok(None);
        };
        let (kind, wants_response) = match kind {
            RequestKind::Lookup => (OpKind::Lookup, true),
            RequestKind::Insert => (OpKind::Insert, false),
            RequestKind::Resize => (OpKind::Resize, true),
        };
        Ok(Some(ServerOpRef {
            kind,
            key: WireKeyRef::Hash(unmasked_unless_data(kind, key)),
            value,
            wants_response,
            wire_version: VERSION_1,
        }))
    }

    fn next_v2_ref(&mut self) -> Result<Option<ServerOpRef<'_>>, DecodeError> {
        let buffered = &self.buffer[..];
        if buffered.len() < OP_HEADER_BYTES {
            return Ok(None);
        }
        let opcode = buffered[0];
        let kind = OpKind::from_byte(opcode).ok_or(DecodeError::BadOpcode(opcode))?;
        let flags = buffered[1];
        let key_len = le_u16(buffered, 2) as usize;
        let val_len = le_u32(buffered, 4) as usize;
        let key_field = le_u64(buffered, 8);
        if val_len > MAX_VALUE_BYTES {
            return Err(DecodeError::ValueTooLarge(val_len as u64));
        }
        let byte_key = flags & FLAG_BYTE_KEY != 0;
        // Contradictory frames mean a desynced or buggy peer; drop it
        // rather than guessing (unknown future flag bits are also refused:
        // they could change the meaning of the fields we just parsed).
        if flags & !FLAG_BYTE_KEY != 0
            || (byte_key && key_field != 0)
            || (!byte_key && key_len != 0)
        {
            return Err(DecodeError::Malformed);
        }
        let total = OP_HEADER_BYTES + key_len + val_len;
        if buffered.len() < total {
            return Ok(None);
        }
        // Everything handed out below is a slice of this one frame, so a
        // lying length field can never expose a neighbour's bytes.
        let frame = self.buffer.consume(total);
        let (key_bytes, value) = frame[OP_HEADER_BYTES..].split_at(key_len);
        Ok(Some(ServerOpRef {
            kind,
            key: if byte_key {
                WireKeyRef::Bytes(key_bytes)
            } else {
                WireKeyRef::Hash(unmasked_unless_data(kind, key_field))
            },
            value,
            wants_response: true,
            wire_version: VERSION_2,
        }))
    }
}

/// Data operations carry 60-bit hash keys; RESIZE keys pack partitions +
/// pacing and must not be masked.
fn unmasked_unless_data(kind: OpKind, key: u64) -> u64 {
    if kind == OpKind::Resize {
        key
    } else {
        key & MAX_KEY
    }
}

/// A [`Reply`] whose value borrows the decoder's receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRef<'a> {
    /// What happened.
    pub status: Status,
    /// Why it failed (`ErrCode::None` unless `status == Err`).
    pub code: ErrCode,
    /// Value bytes (lookup hits; error / admin status messages).
    pub value: &'a [u8],
}

impl ReplyRef<'_> {
    /// Copy into an owned [`Reply`].
    pub fn into_owned(self) -> Reply {
        Reply {
            status: self.status,
            code: self.code,
            // lint: allow(hot-path) — the owned API copies by definition
            value: self.value.to_vec(),
        }
    }
}

/// Streaming decoder for v2 reply frames (client side).
#[derive(Debug, Default)]
pub struct ReplyDecoder {
    buffer: BytesMut,
}

impl ReplyDecoder {
    /// New empty decoder.
    pub fn new() -> Self {
        ReplyDecoder {
            buffer: BytesMut::with_capacity(MIN_READ_SPARE),
        }
    }

    /// Feed freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Read once from `reader` straight into the decode buffer.  Returns
    /// the bytes read and whether the read filled the space offered (if it
    /// did not, the reader had no more).
    pub fn read_from<R: Read>(&mut self, reader: &mut R) -> io::Result<(usize, bool)> {
        self.buffer.read_from(reader, MIN_READ_SPARE)
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Try to decode the next complete reply, borrowing its value from the
    /// receive buffer.  `Ok(None)` means more bytes are needed.
    pub fn next_reply_ref(&mut self) -> Result<Option<ReplyRef<'_>>, DecodeError> {
        let buffered = &self.buffer[..];
        if buffered.len() < REPLY_HEADER_BYTES {
            return Ok(None);
        }
        let status = Status::from_byte(buffered[0]).ok_or(DecodeError::BadStatus(buffered[0]))?;
        let code = ErrCode::from_byte(buffered[1]);
        let val_len = le_u32(buffered, 4) as usize;
        if val_len > MAX_VALUE_BYTES {
            return Err(DecodeError::ValueTooLarge(val_len as u64));
        }
        if buffered.len() < REPLY_HEADER_BYTES + val_len {
            return Ok(None);
        }
        let frame = self.buffer.consume(REPLY_HEADER_BYTES + val_len);
        Ok(Some(ReplyRef {
            status,
            code,
            value: &frame[REPLY_HEADER_BYTES..],
        }))
    }

    /// Try to decode the next complete reply.  `Ok(None)` means more bytes
    /// are needed.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, DecodeError> {
        Ok(self.next_reply_ref()?.map(ReplyRef::into_owned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_insert, encode_lookup, encode_response};
    use bytes::{BufMut, BytesMut};

    #[test]
    fn decodes_back_to_back_requests() {
        let mut wire = BytesMut::new();
        encode_lookup(&mut wire, 11);
        encode_insert(&mut wire, 22, b"hello");
        encode_lookup(&mut wire, 33);

        let mut dec = RequestDecoder::new();
        dec.feed(&wire);
        let mut out = Vec::new();
        assert_eq!(dec.drain(&mut out).unwrap(), 3);
        assert_eq!(out[0], Request::lookup(11));
        assert_eq!(out[1], Request::insert(22, b"hello".to_vec()));
        assert_eq!(out[2], Request::lookup(33));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn handles_bytes_arriving_one_at_a_time() {
        let mut wire = BytesMut::new();
        encode_insert(&mut wire, 7, b"split-value");
        let mut dec = RequestDecoder::new();
        let mut decoded = Vec::new();
        for &b in wire.iter() {
            dec.feed(&[b]);
            dec.drain(&mut decoded).unwrap();
        }
        assert_eq!(decoded, vec![Request::insert(7, b"split-value".to_vec())]);
    }

    #[test]
    fn rejects_bad_opcode_and_oversized_values() {
        let mut dec = RequestDecoder::new();
        dec.feed(&[0xFFu8; REQUEST_HEADER_BYTES]);
        assert_eq!(dec.next_request(), Err(DecodeError::BadOpcode(0xFF)));

        let mut dec = RequestDecoder::new();
        let mut frame = vec![2u8];
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        dec.feed(&frame);
        assert!(matches!(
            dec.next_request(),
            Err(DecodeError::ValueTooLarge(_))
        ));
        assert!(format!("{}", DecodeError::BadOpcode(3)).contains("opcode"));
    }

    #[test]
    fn response_round_trip_hit_and_miss() {
        let mut wire = BytesMut::new();
        encode_response(&mut wire, Some(b"v1"));
        encode_response(&mut wire, None);
        encode_response(&mut wire, Some(b""));
        let mut dec = ResponseDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_response().unwrap(),
            Some(Response {
                value: Some(b"v1".to_vec())
            })
        );
        assert_eq!(dec.next_response().unwrap(), Some(Response { value: None }));
        // A present-but-empty value is indistinguishable from a miss in this
        // protocol (size 0), exactly as in the paper's description.
        assert_eq!(dec.next_response().unwrap(), Some(Response { value: None }));
        assert_eq!(dec.next_response().unwrap(), None);
    }

    #[test]
    fn server_decoder_detects_v1_from_the_first_byte() {
        let mut wire = BytesMut::new();
        encode_lookup(&mut wire, 11);
        encode_insert(&mut wire, 22, b"hello");
        let mut dec = ServerDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.wire_version(), None);
        let mut events = Vec::new();
        assert_eq!(dec.drain(&mut events).unwrap(), 2);
        assert_eq!(dec.wire_version(), Some(VERSION_1));
        assert_eq!(
            events[0],
            ServerEvent::Op(ServerOp {
                frame: OpFrame::lookup(11),
                wants_response: true
            })
        );
        assert_eq!(
            events[1],
            ServerEvent::Op(ServerOp {
                frame: OpFrame::insert(22, b"hello".to_vec()),
                wants_response: false
            })
        );
    }

    #[test]
    fn server_decoder_handshakes_then_decodes_v2_ops() {
        let mut wire = BytesMut::new();
        crate::v2::encode_hello(&mut wire, VERSION_2);
        crate::v2::encode_op(
            &mut wire,
            &OpFrame::insert_bytes(b"k".to_vec(), b"v".to_vec()),
        );
        crate::v2::encode_op(&mut wire, &OpFrame::delete(9));
        let mut dec = ServerDecoder::new();
        // One byte at a time: every partial state must hold.
        let mut events = Vec::new();
        for &b in wire.iter() {
            dec.feed(&[b]);
            dec.drain(&mut events).unwrap();
        }
        assert_eq!(dec.wire_version(), Some(VERSION_2));
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            ServerEvent::Hello {
                requested: VERSION_2
            }
        );
        assert_eq!(
            events[1],
            ServerEvent::Op(ServerOp {
                frame: OpFrame::insert_bytes(b"k".to_vec(), b"v".to_vec()),
                wants_response: true
            })
        );
        assert_eq!(
            events[2],
            ServerEvent::Op(ServerOp {
                frame: OpFrame::delete(9),
                wants_response: true
            })
        );
    }

    #[test]
    fn server_decoder_can_negotiate_down_to_v1_framing() {
        let mut dec = ServerDecoder::new();
        let mut wire = BytesMut::new();
        crate::v2::encode_hello(&mut wire, 7); // future version
        dec.feed(&wire);
        assert_eq!(
            dec.next_event().unwrap(),
            Some(ServerEvent::Hello { requested: 7 })
        );
        // Server decides v1 is the common ground; subsequent frames are v1.
        dec.set_wire_version(VERSION_1);
        let mut wire = BytesMut::new();
        encode_lookup(&mut wire, 5);
        dec.feed(&wire);
        assert_eq!(
            dec.next_event().unwrap(),
            Some(ServerEvent::Op(ServerOp {
                frame: OpFrame::lookup(5),
                wants_response: true
            }))
        );
    }

    #[test]
    fn server_decoder_rejects_garbage_and_contradictions() {
        // Garbage first byte.
        let mut dec = ServerDecoder::new();
        dec.feed(&[0x77]);
        assert_eq!(dec.next_event(), Err(DecodeError::BadOpcode(0x77)));

        // Bad magic tail.
        let mut dec = ServerDecoder::new();
        dec.feed(&[crate::v2::MAGIC[0], b'X', b'P', 2]);
        assert!(matches!(dec.next_event(), Err(DecodeError::BadMagic(_))));

        // Byte-key flag with a nonzero hash field.
        let mut dec = ServerDecoder::new();
        let mut wire = BytesMut::new();
        crate::v2::encode_hello(&mut wire, VERSION_2);
        wire.put_u8(OpKind::Lookup as u8);
        wire.put_u8(FLAG_BYTE_KEY);
        wire.put_u16_le(1);
        wire.put_u32_le(0);
        wire.put_u64_le(5);
        wire.put_u8(b'k');
        dec.feed(&wire);
        assert_eq!(
            dec.next_event().unwrap(),
            Some(ServerEvent::Hello {
                requested: VERSION_2
            })
        );
        assert_eq!(dec.next_event(), Err(DecodeError::Malformed));
    }

    #[test]
    fn reply_decoder_round_trips_every_status() {
        use crate::v2::{encode_reply, ErrCode};
        let replies = [
            Reply::ok_value(b"value".to_vec()),
            Reply::ok(),
            Reply::miss(),
            Reply::retry(),
            Reply::err(ErrCode::Capacity, b"no room".to_vec()),
        ];
        let mut wire = BytesMut::new();
        for r in &replies {
            encode_reply(&mut wire, r);
        }
        let mut dec = ReplyDecoder::new();
        let mut decoded = Vec::new();
        for &b in wire.iter() {
            dec.feed(&[b]);
            while let Some(r) = dec.next_reply().unwrap() {
                decoded.push(r);
            }
        }
        assert_eq!(decoded, replies);
        assert_eq!(dec.buffered(), 0);
        let mut dec = ReplyDecoder::new();
        dec.feed(&[9u8; REPLY_HEADER_BYTES]);
        assert_eq!(dec.next_reply(), Err(DecodeError::BadStatus(9)));
    }

    #[test]
    fn partial_response_waits_for_more_bytes() {
        let mut wire = BytesMut::new();
        encode_response(&mut wire, Some(b"abcdef"));
        let mut dec = ResponseDecoder::new();
        dec.feed(&wire[..5]);
        assert_eq!(dec.next_response().unwrap(), None);
        dec.feed(&wire[5..]);
        assert_eq!(
            dec.next_response().unwrap(),
            Some(Response {
                value: Some(b"abcdef".to_vec())
            })
        );
    }
}
