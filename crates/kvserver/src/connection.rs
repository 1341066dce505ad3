//! Per-connection state shared by all three servers.
//
// cphash-lint: hot-path

use std::io::{ErrorKind, Write};
use std::net::TcpStream;

use bytes::{Buf, BytesMut};
use cphash_kvproto::{
    encode_hello, Reply, ServerDecoder, ServerOp, ServerOpRef, Status, VERSION_2,
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
/// The connection owns the handshake: a client's HELLO is answered here
/// with a HELLO-ACK carrying `min(requested, 2)`, and a peer that opens
/// with anything else is closed without a reply byte.
pub struct Connection {
    stream: TcpStream,
    decoder: ServerDecoder,
    outgoing: BytesMut,
    closed: bool,
    /// Whether the owning reactor currently has write interest registered
    /// for this connection (output was back-logged at the last flush).
    want_write: bool,
    /// `read(2)` / `write(2)` calls issued since [`settle`] last folded
    /// them into the server's metrics.
    read_syscalls: u64,
    write_syscalls: u64,
}

impl Connection {
    /// Wrap an accepted stream (switched to non-blocking mode).
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: ServerDecoder::new(),
            outgoing: BytesMut::with_capacity(16 * 1024),
            closed: false,
            want_write: false,
            read_syscalls: 0,
            write_syscalls: 0,
        })
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
            // Negotiate down to what both sides speak and ack.
            Ok(Some(requested)) => encode_hello(&mut self.outgoing, requested.min(VERSION_2)),
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

    /// Queue a typed reply.
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
        cphash_kvproto::encode_reply_parts(&mut self.outgoing, status, code, value);
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
    use cphash_kvproto::{OpFrame, OpKind, ReplyDecoder};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A server-side [`Connection`] and the client's end of its socket.
    fn connected_pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (Connection::new(server_side).unwrap(), client)
    }

    /// Poll `conn` until `done` holds (a non-blocking read may need a
    /// moment for the bytes to arrive), collecting decoded requests.
    fn poll_until(
        conn: &mut Connection,
        done: impl Fn(&Connection, &[ServerOp]) -> bool,
    ) -> Vec<ServerOp> {
        let mut requests = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done(conn, &requests) && Instant::now() < deadline {
            conn.poll_requests(&mut requests);
        }
        requests
    }

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
    fn handshake_is_acked_down_to_two_and_ops_reply_typed() {
        // Version 3 is a client from the future: the server negotiates
        // down to what it speaks.
        for requested in [VERSION_2, 3] {
            let (mut conn, mut client) = connected_pair();
            let mut wire = BytesMut::new();
            encode_hello(&mut wire, requested);
            cphash_kvproto::encode_op(&mut wire, &OpFrame::lookup(10));
            cphash_kvproto::encode_op(&mut wire, &OpFrame::delete_bytes(b"k".to_vec()));
            client.write_all(&wire).unwrap();

            let requests = poll_until(&mut conn, |_, requests| requests.len() == 2);
            assert_eq!(requests.len(), 2);
            assert_eq!(requests[0].frame.kind, OpKind::Lookup);
            assert_eq!(requests[1].frame.kind, OpKind::Delete);
            assert!(!conn.is_closed());

            conn.queue_reply(&Reply::ok_value(b"value".to_vec()));
            conn.queue_reply(&Reply::miss());
            while conn.pending_output() > 0 {
                conn.flush();
            }
            // Client sees the HELLO-ACK, then the typed replies in order.
            let mut ack = [0u8; cphash_kvproto::HELLO_BYTES];
            client.read_exact(&mut ack).unwrap();
            assert_eq!(cphash_kvproto::parse_hello(&ack).unwrap(), VERSION_2);
            let mut decoder = ReplyDecoder::new();
            let mut replies = Vec::new();
            while replies.len() < 2 {
                match decoder.next_reply().unwrap() {
                    Some(reply) => replies.push(reply),
                    None => assert!(decoder.read_from(&mut client).unwrap().0 > 0),
                }
            }
            assert_eq!(replies, [Reply::ok_value(b"value".to_vec()), Reply::miss()]);
        }
    }

    #[test]
    fn a_peer_that_skips_the_handshake_is_closed_unanswered_and_reclaimed() {
        let metrics = ServerMetrics::new();
        let mut reactor = Reactor::new(Arc::clone(&metrics.frontend)).unwrap();
        let mut slab: Vec<Option<Connection>> = Vec::new();
        let mut ready = Vec::new();
        let (conn, mut client) = connected_pair();
        assert!(adopt(&mut slab, &mut reactor, &mut ready, conn, |c| c));
        let slot = ready[0];

        // A LOOKUP, well-formed in the unversioned dialect earlier builds
        // also served: `opcode:u8 key:u64le size:u32le`.
        let mut frame = vec![1u8];
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        client.write_all(&frame).unwrap();

        let conn = slab[slot].as_mut().unwrap();
        let requests = poll_until(conn, |conn, _| conn.is_closed());
        assert!(conn.is_closed(), "the peer must be refused");
        assert!(requests.is_empty(), "nothing it sent may be served");
        assert_eq!(conn.pending_output(), 0);
        assert_eq!(settle(conn, &mut reactor, slot, &metrics), Settle::Retired);
        slab[slot] = None;

        // The peer sees the close and not one reply byte...
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.read(&mut [0u8; 16]).unwrap(), 0);
        assert_eq!(metrics.snapshot().bytes_out, 0);
        // ...and its slot serves the next connection.
        let (next, _client) = connected_pair();
        assert!(adopt(&mut slab, &mut reactor, &mut ready, next, |c| c));
        assert_eq!(ready, [slot, slot]);
    }

    #[test]
    fn peer_close_is_detected() {
        let (mut conn, client) = connected_pair();
        drop(client);
        let requests = poll_until(&mut conn, |conn, _| conn.is_closed());
        assert!(conn.is_closed());
        assert!(requests.is_empty());
    }
}
