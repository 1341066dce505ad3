//! Per-connection state shared by all three servers.
//
// cphash-lint: hot-path

use std::io::{ErrorKind, Write};
use std::net::TcpStream;

use bytes::{Buf, BytesMut};
use cphash_kvproto::{
    encode_hello, encode_response, Reply, ServerDecoder, ServerOp, ServerOpRef, Status, VERSION_1,
    VERSION_2,
};

use crate::metrics::ServerMetrics;
use crate::reactor::{RawFd, Reactor};

/// A non-blocking TCP connection with streaming request decoding and a
/// buffered response path.
///
/// Worker threads own a set of these registered on a
/// [`crate::reactor::Reactor`]; the reactor reports which are ready and the
/// worker drains each, which is how the paper's client threads
/// "monitor TCP connections assigned to [them] and gather as many requests
/// as possible".  The socket reads land directly in the decoder's buffer
/// and requests are decoded in place ([`Connection::next_request`]), so a
/// request's bytes are copied once — to wherever the server stores them.
///
/// The connection owns protocol-version negotiation: the first byte a
/// client sends either starts a v2 handshake (answered here with a
/// HELLO-ACK carrying `min(requested, max_protocol)`) or locks the
/// connection to v1 framing, and [`Connection::queue_reply`] encodes every
/// reply in whichever framing was negotiated.
pub struct Connection {
    stream: TcpStream,
    decoder: ServerDecoder,
    outgoing: BytesMut,
    closed: bool,
    /// Negotiated protocol version (v1 until a handshake says otherwise).
    version: u8,
    /// Highest protocol version the server is willing to speak.
    max_protocol: u8,
    /// Whether the owning reactor currently has write interest registered
    /// for this connection (output was back-logged at the last flush).
    want_write: bool,
    /// `read(2)` / `write(2)` calls issued since [`settle`] last folded
    /// them into the server's metrics.
    read_syscalls: u64,
    write_syscalls: u64,
}

impl Connection {
    /// Wrap an accepted stream (switched to non-blocking mode), speaking
    /// up to kvproto v2.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        Self::with_max_protocol(stream, VERSION_2)
    }

    /// Wrap an accepted stream, capping the negotiated protocol version
    /// (`max_protocol` 1 makes the server behave like a pre-versioning
    /// build for compatibility testing).
    pub fn with_max_protocol(stream: TcpStream, max_protocol: u8) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: ServerDecoder::new(),
            outgoing: BytesMut::with_capacity(16 * 1024),
            closed: false,
            version: VERSION_1,
            max_protocol: max_protocol.clamp(VERSION_1, VERSION_2),
            want_write: false,
            read_syscalls: 0,
            write_syscalls: 0,
        })
    }

    /// The protocol version this connection speaks (v1 until a v2
    /// handshake completes).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The raw descriptor, for reactor registration.
    pub fn raw_fd(&self) -> RawFd {
        crate::reactor::raw_fd_of(&self.stream)
    }

    /// Does the reactor currently watch this connection for writability?
    pub fn wants_write(&self) -> bool {
        self.want_write
    }

    /// Record the write-interest state the owning reactor last registered.
    pub fn set_wants_write(&mut self, want: bool) {
        self.want_write = want;
    }

    /// Has the peer closed the connection (or a protocol error occurred)?
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Issue one `read(2)` straight into the decoder's buffer.  Returns the
    /// bytes read and whether the socket may hold more: a read that did
    /// not fill the space offered drained the socket, and every reactor
    /// backend is level-triggered, so whatever arrives later is reported
    /// again — no second `read` just to see `EAGAIN`.
    pub fn read_once(&mut self) -> (usize, bool) {
        while !self.closed {
            self.read_syscalls += 1;
            match self.decoder.read_from(&mut &self.stream) {
                Ok((0, _)) => self.closed = true,
                Ok(progress) => return progress,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        (0, false)
    }

    /// Decode the next buffered request in place, answering the handshake
    /// along the way.  The request borrows the receive buffer, so it must
    /// be dispatched before the connection is touched again.
    pub fn next_request(&mut self) -> Option<ServerOpRef<'_>> {
        match self.decoder.take_hello() {
            Ok(Some(requested)) => {
                // Negotiate down to what both sides speak and ack.  If
                // the common ground is v1, the client's following
                // frames are legacy-framed; tell the decoder.
                self.version = requested.min(self.max_protocol);
                if self.version <= VERSION_1 {
                    self.decoder.set_wire_version(VERSION_1);
                }
                encode_hello(&mut self.outgoing, self.version);
            }
            Ok(None) => {}
            Err(_) => {
                self.closed = true;
                return None;
            }
        }
        match self.decoder.next_op_ref() {
            Ok(op) => op,
            Err(_) => {
                // Protocol violation: drop the connection.
                self.closed = true;
                None
            }
        }
    }

    /// Read whatever bytes are available and decode complete requests into
    /// `out` (owned copies — the synchronous servers' path; CPSERVER
    /// drives [`Connection::read_once`] / [`Connection::next_request`]
    /// itself).  Returns the number of bytes read.
    pub fn poll_requests(&mut self, out: &mut Vec<ServerOp>) -> usize {
        let mut total = 0usize;
        loop {
            let (read, more) = self.read_once();
            total += read;
            while let Some(op) = self.next_request() {
                out.push(op.into_owned());
            }
            if !more {
                return total;
            }
        }
    }

    /// Queue a typed reply, encoded in the connection's negotiated framing.
    ///
    /// v1 connections get the legacy size-prefixed value frame: `Ok` and
    /// `Err` carry their bytes (admin status strings travelled as response
    /// values before status codes existed), `Miss` is the empty frame, and
    /// `Retry` — which v1 cannot express — degrades to a miss (correct for
    /// a cache: the client treats it as absent and re-fetches).
    pub fn queue_reply(&mut self, reply: &Reply) {
        self.queue_reply_parts(reply.status, reply.code, &reply.value);
    }

    /// [`Connection::queue_reply`] from parts — the hot path for lookup
    /// hits: value bytes go straight into the output buffer without an
    /// intermediate owned `Reply`.
    pub fn queue_reply_parts(
        &mut self,
        status: Status,
        code: cphash_kvproto::ErrCode,
        value: &[u8],
    ) {
        if self.version >= VERSION_2 {
            cphash_kvproto::encode_reply_parts(&mut self.outgoing, status, code, value);
            return;
        }
        match status {
            Status::Ok | Status::Err => encode_response(&mut self.outgoing, Some(value)),
            Status::Miss | Status::Retry => encode_response(&mut self.outgoing, None),
        }
    }

    /// Attempt to flush queued response bytes. Returns bytes written.
    pub fn flush(&mut self) -> usize {
        let mut written = 0usize;
        while !self.closed && !self.outgoing.is_empty() {
            self.write_syscalls += 1;
            match self.stream.write(&self.outgoing) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    written += n;
                    self.outgoing.advance(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        written
    }

    /// Bytes currently waiting to be written.
    pub fn pending_output(&self) -> usize {
        self.outgoing.len()
    }
}

/// Insert into the first free slot of a connection slab (slot indices stay
/// stable, so they double as reactor tokens) and return the slot.
pub(crate) fn slab_insert<T>(slab: &mut Vec<Option<T>>, item: T) -> usize {
    match slab.iter_mut().position(|entry| entry.is_none()) {
        Some(slot) => {
            slab[slot] = Some(item);
            slot
        }
        None => {
            slab.push(Some(item));
            slab.len() - 1
        }
    }
}

/// Adopt a new connection into a worker: insert it into the slab's first
/// free slot, register it with the reactor under that slot, and push the
/// slot onto `ready` so any bytes that arrived before registration are
/// served this pass.  On registration failure the slot is rolled back and
/// `false` returned (the caller owns any accept-side accounting).
///
/// `conn_of` projects the slab element to its [`Connection`] (identity for
/// plain slabs; the `ConnState` wrapper for CPSERVER).
pub(crate) fn adopt<T>(
    slab: &mut Vec<Option<T>>,
    reactor: &mut Reactor,
    ready: &mut Vec<usize>,
    item: T,
    conn_of: impl Fn(&T) -> &Connection,
) -> bool {
    let fd = conn_of(&item).raw_fd();
    let slot = slab_insert(slab, item);
    if reactor.register(fd, slot, false).is_ok() {
        ready.push(slot);
        true
    } else {
        slab[slot] = None;
        false
    }
}

/// What [`settle`] decided about a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settle {
    /// Peer gone: the fd was deregistered; the caller must clear the slot
    /// (and do any per-server bookkeeping tied to it).
    Retired,
    /// Still open; the reactor's write interest matches the output backlog.
    Open,
}

/// The shared tail of every worker loop: flush queued output and account
/// for it (bytes out, plus the `read`/`write` syscalls the connection
/// issued since it was last settled), then either retire a closed
/// connection from the reactor or keep the reactor's write interest in
/// sync with any back-logged output.
pub(crate) fn settle(
    conn: &mut Connection,
    reactor: &mut Reactor,
    token: usize,
    metrics: &ServerMetrics,
) -> Settle {
    let written = conn.flush();
    metrics.note_io(0, written);
    metrics.note_conn_syscalls(
        core::mem::take(&mut conn.read_syscalls),
        core::mem::take(&mut conn.write_syscalls),
    );
    if conn.is_closed() {
        // Once the peer is gone no remaining output can be delivered
        // (`flush` refuses closed connections), so reclaim immediately —
        // churn cannot leak fds or slots.
        let _ = reactor.deregister(conn.raw_fd(), token);
        Settle::Retired
    } else {
        let backlogged = conn.pending_output() > 0;
        if backlogged != conn.wants_write() {
            let _ = reactor.rearm(conn.raw_fd(), token, backlogged);
            conn.set_wants_write(backlogged);
        }
        Settle::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use cphash_kvproto::{encode_insert, encode_lookup, OpKind};
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn slab_insert_reuses_freed_slots() {
        let mut slab: Vec<Option<u32>> = Vec::new();
        assert_eq!(slab_insert(&mut slab, 10), 0);
        assert_eq!(slab_insert(&mut slab, 11), 1);
        slab[0] = None;
        assert_eq!(slab_insert(&mut slab, 12), 0);
        assert_eq!(slab_insert(&mut slab, 13), 2);
        assert_eq!(slab, vec![Some(12), Some(11), Some(13)]);
    }

    #[test]
    fn decodes_requests_and_writes_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Connection::new(server_side).unwrap();

        // Client sends two requests in one write.
        let mut wire = BytesMut::new();
        encode_lookup(&mut wire, 10);
        encode_insert(&mut wire, 20, b"abc");
        client.write_all(&wire).unwrap();

        let mut requests = Vec::new();
        // Non-blocking read may need a moment for the bytes to arrive.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while requests.len() < 2 && std::time::Instant::now() < deadline {
            conn.poll_requests(&mut requests);
        }
        assert_eq!(requests.len(), 2);
        assert_eq!(conn.version(), VERSION_1);
        assert_eq!(requests[0].frame.kind, OpKind::Lookup);
        assert!(requests[0].wants_response);
        assert_eq!(requests[1].frame.kind, OpKind::Insert);
        assert!(!requests[1].wants_response, "v1 inserts are silent");
        assert!(!conn.is_closed());

        // Server responds to the lookup (legacy framing: plain value).
        conn.queue_reply(&Reply::ok_value(b"value".to_vec()));
        assert!(conn.pending_output() > 0);
        while conn.pending_output() > 0 {
            conn.flush();
        }
        let mut buf = [0u8; 16];
        client.read_exact(&mut buf[..9]).unwrap();
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 5);
        assert_eq!(&buf[4..9], b"value");
    }

    #[test]
    fn v2_handshake_is_acked_and_ops_reply_typed() {
        use cphash_kvproto::{OpFrame, ReplyDecoder, Status};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Connection::new(server_side).unwrap();

        let mut wire = BytesMut::new();
        cphash_kvproto::encode_hello(&mut wire, VERSION_2);
        cphash_kvproto::encode_op(&mut wire, &OpFrame::delete_bytes(b"k".to_vec()));
        client.write_all(&wire).unwrap();

        let mut requests = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while requests.is_empty() && std::time::Instant::now() < deadline {
            conn.poll_requests(&mut requests);
        }
        assert_eq!(conn.version(), VERSION_2);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].frame.kind, OpKind::Delete);
        assert!(requests[0].wants_response);

        conn.queue_reply(&Reply::miss());
        while conn.pending_output() > 0 {
            conn.flush();
        }
        // Client sees the HELLO-ACK, then the typed reply.
        let mut ack = [0u8; cphash_kvproto::HELLO_BYTES];
        client.read_exact(&mut ack).unwrap();
        assert_eq!(cphash_kvproto::parse_hello(&ack).unwrap(), VERSION_2);
        let mut decoder = ReplyDecoder::new();
        let mut buf = [0u8; 64];
        let reply = loop {
            if let Some(r) = decoder.next_reply().unwrap() {
                break r;
            }
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0);
            decoder.feed(&buf[..n]);
        };
        assert_eq!(reply.status, Status::Miss);
    }

    #[test]
    fn max_protocol_one_negotiates_a_v2_client_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Connection::with_max_protocol(server_side, VERSION_1).unwrap();

        let mut wire = BytesMut::new();
        cphash_kvproto::encode_hello(&mut wire, VERSION_2);
        // After a graceful downgrade the client speaks v1 frames.
        encode_lookup(&mut wire, 3);
        client.write_all(&wire).unwrap();

        let mut requests = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while requests.is_empty() && std::time::Instant::now() < deadline {
            conn.poll_requests(&mut requests);
        }
        assert_eq!(conn.version(), VERSION_1);
        assert_eq!(requests[0].frame.kind, OpKind::Lookup);
        while conn.pending_output() > 0 {
            conn.flush();
        }
        let mut ack = [0u8; cphash_kvproto::HELLO_BYTES];
        client.read_exact(&mut ack).unwrap();
        assert_eq!(cphash_kvproto::parse_hello(&ack).unwrap(), VERSION_1);
    }

    #[test]
    fn peer_close_is_detected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut conn = Connection::new(server_side).unwrap();
        drop(client);
        let mut requests = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while !conn.is_closed() && std::time::Instant::now() < deadline {
            conn.poll_requests(&mut requests);
        }
        assert!(conn.is_closed());
        assert!(requests.is_empty());
    }
}
