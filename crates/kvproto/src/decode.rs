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

use crate::v2::{
    ErrCode, OpFrame, OpKind, Reply, Status, WireKeyRef, FLAG_BYTE_KEY, HELLO_BYTES, MAGIC,
    OP_HEADER_BYTES, REPLY_HEADER_BYTES,
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
    /// The connection did not open with the handshake magic (carries the
    /// first byte received).
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

/// A decoded server-side event: either a request, or the connection's
/// one-time handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// The client sent a HELLO requesting `version` (never below
    /// [`crate::VERSION_2`]); the server must answer with a HELLO-ACK
    /// carrying the negotiated version.
    Hello {
        /// The version the client asked for.
        requested: u8,
    },
    /// A complete request.
    Op(ServerOp),
}

/// One decoded request.  Every request is owed exactly one reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOp {
    /// The operation.
    pub frame: OpFrame,
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
        }
    }
}

/// Streaming decoder for the server side of a connection: the one-time
/// HELLO, then typed request frames.
///
/// A connection whose first byte is not the handshake magic is refused with
/// [`DecodeError::BadMagic`] as soon as that byte arrives — including the
/// unversioned frames (opcode byte 1..=3) earlier builds also served — and
/// a HELLO asking for a version below 2 with [`DecodeError::BadVersion`].
#[derive(Debug)]
pub struct ServerDecoder {
    buffer: BytesMut,
    hello_seen: bool,
}

impl Default for ServerDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerDecoder {
    /// New decoder awaiting the handshake.
    pub fn new() -> Self {
        ServerDecoder {
            buffer: BytesMut::with_capacity(MIN_READ_SPARE),
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

    /// Consume the connection's one-time HELLO if it is what comes next,
    /// returning the version the client asked for.  `Ok(None)` means the
    /// handshake is already done, or not yet complete.
    pub fn take_hello(&mut self) -> Result<Option<u8>, DecodeError> {
        if self.hello_seen {
            return Ok(None);
        }
        // Judge the first byte as soon as it is buffered: a peer that will
        // never send the magic must not be held until byte four arrives.
        match self.buffer.first() {
            Some(&first) if first != MAGIC[0] => return Err(DecodeError::BadMagic(first)),
            _ => {}
        }
        if self.buffer.len() < HELLO_BYTES {
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
        if !self.hello_seen {
            return Ok(None);
        }
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
        }))
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
    use crate::v2::{encode_hello, encode_op, VERSION_2};
    use bytes::{BufMut, BytesMut};

    /// An unversioned LOOKUP as earlier builds framed it:
    /// `opcode:u8 key:u64le size:u32le`.
    fn unversioned_frame(opcode: u8, key: u64) -> Vec<u8> {
        let mut frame = vec![opcode];
        frame.extend_from_slice(&key.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame
    }

    #[test]
    fn server_decoder_handshakes_then_decodes_ops() {
        let mut wire = BytesMut::new();
        encode_hello(&mut wire, VERSION_2);
        encode_op(
            &mut wire,
            &OpFrame::insert_bytes(b"k".to_vec(), b"v".to_vec()),
        );
        encode_op(&mut wire, &OpFrame::delete(9));
        let mut dec = ServerDecoder::new();
        // One byte at a time: every partial state must hold.
        let mut events = Vec::new();
        for &b in wire.iter() {
            dec.feed(&[b]);
            dec.drain(&mut events).unwrap();
        }
        assert_eq!(dec.buffered(), 0);
        assert_eq!(
            events,
            [
                ServerEvent::Hello {
                    requested: VERSION_2
                },
                ServerEvent::Op(ServerOp {
                    frame: OpFrame::insert_bytes(b"k".to_vec(), b"v".to_vec()),
                }),
                ServerEvent::Op(ServerOp {
                    frame: OpFrame::delete(9),
                }),
            ]
        );
    }

    #[test]
    fn unversioned_streams_are_refused_on_their_first_byte() {
        // Opcodes 1..=3 opened a connection in the retired unversioned
        // dialect.  However the bytes are chunked, the first one is enough
        // to refuse the peer, through either entry point.
        for opcode in 1..=3u8 {
            let frame = unversioned_frame(opcode, 11);
            for cuts in 0u32..1 << (frame.len() - 1) {
                for via_take_hello in [true, false] {
                    let mut dec = ServerDecoder::new();
                    let mut start = 0;
                    for end in 1..=frame.len() {
                        if end < frame.len() && cuts & (1 << (end - 1)) == 0 {
                            continue;
                        }
                        dec.feed(&frame[start..end]);
                        start = end;
                        let refused = if via_take_hello {
                            dec.take_hello().map(|_| ())
                        } else {
                            dec.next_event().map(|_| ())
                        };
                        assert_eq!(refused, Err(DecodeError::BadMagic(opcode)));
                        assert_eq!(dec.next_op_ref(), Ok(None), "nothing is ever served");
                    }
                }
            }
        }
    }

    #[test]
    fn hello_versions_below_two_are_refused_and_above_are_reported() {
        let mut dec = ServerDecoder::new();
        dec.feed(&[MAGIC[0], MAGIC[1], MAGIC[2], 1]);
        assert_eq!(dec.next_event(), Err(DecodeError::BadVersion(1)));

        // A future version is the server's to negotiate down.
        let mut dec = ServerDecoder::new();
        dec.feed(&[MAGIC[0], MAGIC[1], MAGIC[2], 3]);
        assert_eq!(
            dec.next_event().unwrap(),
            Some(ServerEvent::Hello { requested: 3 })
        );
    }

    #[test]
    fn server_decoder_rejects_garbage_and_contradictions() {
        // Garbage first byte.
        let mut dec = ServerDecoder::new();
        dec.feed(&[0x77]);
        assert_eq!(dec.next_event(), Err(DecodeError::BadMagic(0x77)));

        // Bad magic tail.
        let mut dec = ServerDecoder::new();
        dec.feed(&[MAGIC[0], b'X', b'P', 2]);
        assert!(matches!(dec.next_event(), Err(DecodeError::BadMagic(_))));

        let hello_then = |frame: &[u8]| {
            let mut wire = BytesMut::new();
            encode_hello(&mut wire, VERSION_2);
            wire.put_slice(frame);
            let mut dec = ServerDecoder::new();
            dec.feed(&wire);
            assert_eq!(
                dec.next_event().unwrap(),
                Some(ServerEvent::Hello {
                    requested: VERSION_2
                })
            );
            dec.next_event()
        };

        // Byte-key flag with a nonzero hash field.
        let mut frame = BytesMut::new();
        frame.put_u8(OpKind::Lookup as u8);
        frame.put_u8(FLAG_BYTE_KEY);
        frame.put_u16_le(1);
        frame.put_u32_le(0);
        frame.put_u64_le(5);
        frame.put_u8(b'k');
        assert_eq!(hello_then(&frame), Err(DecodeError::Malformed));

        // Unknown opcode, and a value length past the protocol limit.
        assert_eq!(
            hello_then(&[0xFF; OP_HEADER_BYTES]),
            Err(DecodeError::BadOpcode(0xFF))
        );
        let mut frame = BytesMut::new();
        frame.put_u8(OpKind::Insert as u8);
        frame.put_u8(0);
        frame.put_u16_le(0);
        frame.put_u32_le(u32::MAX);
        frame.put_u64_le(5);
        assert!(matches!(
            hello_then(&frame),
            Err(DecodeError::ValueTooLarge(_))
        ));
        assert!(format!("{}", DecodeError::BadOpcode(3)).contains("opcode"));
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
}
