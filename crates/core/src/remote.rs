//! TCP backends for the unified [`crate::kv::KvClient`] API.
//!
//! [`RemoteClient`] drives one CPSERVER / LOCKSERVER / memcache-instance
//! connection speaking kvproto v2 (typed ops, byte-string keys, DELETE,
//! status codes).  Connecting performs the handshake once; a peer that
//! does not ack it is reported as the connect error.
//!
//! [`PartitionedClient`] fans one logical client out over several
//! `RemoteClient`s with client-side key partitioning — the paper's §7
//! memcached comparison "configured the client to partition the key space
//! across these multiple MEMCACHED instances", and this is that client.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{Buf, BytesMut};
use cphash_kvproto::{
    client_handshake, encode_op, encode_op_parts, ErrCode, OpFrame, OpKind, ReplyDecoder, Status,
    WireKeyRef, VERSION_2,
};

use crate::client::{Completion, CompletionKind, OpError, ValueBytes};
use crate::kv::{KeyRef, KvClient, KvError, KvOp};

/// Pipelined-window recommendation for remote backends.
const WINDOW: usize = 256;

/// Queued request bytes past which `submit` sends without waiting for the
/// next poll: a socket send buffer's worth, so a caller that submits far
/// more than a window between polls neither grows `outgoing` without bound
/// nor leaves the server idle until it finally polls.
const FLUSH_THRESHOLD: usize = 16 * 1024;

/// How long to wait for the server's HELLO-ACK before giving up on the
/// connection attempt.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// One operation awaiting its reply, in request order.
struct PendingRemote {
    token: u64,
    kind: OpKind,
}

/// A [`KvClient`] over one TCP connection speaking kvproto.
///
/// Like the in-process [`crate::ClientHandle`], it batches: `submit` only
/// encodes the request into a client-side buffer, and the buffered bytes
/// leave in one `write` at the next `poll_completions` (or blocking
/// helper), at an explicit [`RemoteClient::flush`], or as soon as
/// `FLUSH_THRESHOLD` bytes are queued.  A pipelined batch therefore
/// costs one syscall, not one per operation — and a caller that submits
/// and never polls or flushes sends nothing.
pub struct RemoteClient {
    stream: TcpStream,
    outgoing: BytesMut,
    reply_decoder: ReplyDecoder,
    pending: VecDeque<PendingRemote>,
    next_token: u64,
    dead: Option<ErrorKind>,
    retries: u64,
}

impl RemoteClient {
    /// Connect and perform the handshake.  A peer that is not a kvproto
    /// server fails here with the handshake's own error: `InvalidData` for
    /// a wrong magic or a version below 2, `UnexpectedEof` when it closes,
    /// `TimedOut`/`WouldBlock` when it stays silent.
    pub fn connect(addr: SocketAddr) -> std::io::Result<RemoteClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        client_handshake(&mut stream)?;
        stream.set_read_timeout(None)?;
        stream.set_nonblocking(true)?;
        Ok(RemoteClient {
            stream,
            outgoing: BytesMut::with_capacity(FLUSH_THRESHOLD),
            reply_decoder: ReplyDecoder::new(),
            pending: VecDeque::new(),
            next_token: 1,
            dead: None,
            retries: 0,
        })
    }

    /// The protocol version this connection negotiated.
    pub fn protocol_version(&self) -> u8 {
        VERSION_2
    }

    /// `Retry` replies received.  No server of this crate sends one, so
    /// each failed its operation with [`OpError::Internal`].
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn take_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Send every queued request now instead of at the next poll — useful
    /// before a quiet period, or when another thread collects the replies.
    /// Mirrors [`crate::ClientHandle::flush`].  Bytes the socket will not
    /// take yet stay queued for the next flush or poll.
    pub fn flush(&mut self) {
        while !self.outgoing.is_empty() && self.dead.is_none() {
            match self.stream.write(&self.outgoing) {
                Ok(0) => self.dead = Some(ErrorKind::WriteZero),
                Ok(n) => self.outgoing.advance(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => self.dead = Some(e.kind()),
            }
        }
    }

    /// Queue the wire bytes for a logical op, sending them only once a
    /// buffer's worth has accumulated.
    fn enqueue(&mut self, kind: OpKind, key: WireKeyRef<'_>, value: &[u8]) {
        encode_op_parts(&mut self.outgoing, kind, key, value);
        if self.outgoing.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }

    /// Read available bytes straight into the decoder's buffer, stopping
    /// at the first read that did not fill the space offered.
    fn pump_reads(&mut self) {
        while self.dead.is_none() {
            match self.reply_decoder.read_from(&mut self.stream) {
                Ok((0, _)) => self.dead = Some(ErrorKind::UnexpectedEof),
                Ok((_, true)) => {}
                Ok((_, false)) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => self.dead = Some(e.kind()),
            }
        }
    }

    /// Decode replies and resolve them against pending ops in FIFO order.
    fn resolve_replies(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut produced = 0usize;
        loop {
            let reply = match self.reply_decoder.next_reply_ref() {
                Ok(Some(reply)) => reply,
                Ok(None) => break,
                Err(_) => {
                    self.dead = Some(ErrorKind::InvalidData);
                    break;
                }
            };
            // Hint the value bytes as early as possible: the copy into a
            // `ValueBytes` below — the only copy a hit's value gets,
            // straight out of the receive buffer — reads every line of the
            // payload, and large replies sit in memory the hot path has not
            // touched since the socket read landed it.
            prefetch_value_lines(reply.value);
            let Some(pending) = self.pending.pop_front() else {
                // A reply with nothing pending: protocol desync.
                self.dead = Some(ErrorKind::InvalidData);
                break;
            };
            if reply.status == Status::Retry {
                self.retries += 1;
            }
            let kind = match (pending.kind, reply.status) {
                (OpKind::Lookup, Status::Ok) => {
                    CompletionKind::LookupHit(ValueBytes::from_slice(reply.value))
                }
                (OpKind::Lookup, Status::Miss) => CompletionKind::LookupMiss,
                (OpKind::Insert, Status::Ok) => CompletionKind::Inserted,
                (OpKind::Insert, Status::Err) if reply.code == ErrCode::Capacity => {
                    CompletionKind::InsertFailed
                }
                (OpKind::Delete, Status::Ok) => CompletionKind::Deleted(true),
                (OpKind::Delete, Status::Miss) => CompletionKind::Deleted(false),
                // Admin replies surface their payload as a hit; only the
                // blocking admin paths submit resizes and stats.
                (OpKind::Resize, Status::Ok) | (OpKind::Stats, Status::Ok) => {
                    CompletionKind::LookupHit(ValueBytes::from_slice(reply.value))
                }
                (_, Status::Err) => CompletionKind::Failed(reply.code.into()),
                _ => CompletionKind::Failed(OpError::Internal),
            };
            out.push(Completion {
                token: pending.token,
                kind,
            });
            produced += 1;
        }
        produced
    }
}

/// Hint every cache line a decoded value occupies, so the copy that follows
/// overlaps its misses instead of paying them one line at a time.
#[inline]
fn prefetch_value_lines(bytes: &[u8]) {
    if bytes.is_empty() {
        return;
    }
    let start = bytes.as_ptr() as usize;
    let end = start + bytes.len();
    let mut line = start & !(cphash_cacheline::CACHE_LINE_SIZE - 1);
    while line < end {
        cphash_cacheline::prefetch_read(line as *const u8);
        line += cphash_cacheline::CACHE_LINE_SIZE;
    }
}

impl KvClient for RemoteClient {
    fn backend(&self) -> &'static str {
        "remote-v2"
    }

    fn submit(&mut self, op: KvOp<'_>) -> u64 {
        let token = self.take_token();
        let (kind, key, value) = match op {
            KvOp::Get(key) => (OpKind::Lookup, key, &[][..]),
            KvOp::Insert(key, value) => (OpKind::Insert, key, value),
            KvOp::Delete(key) => (OpKind::Delete, key, &[][..]),
        };
        let key = match key {
            KeyRef::Hash(k) => WireKeyRef::Hash(k),
            KeyRef::Bytes(b) => WireKeyRef::Bytes(b),
        };
        self.enqueue(kind, key, value);
        self.pending.push_back(PendingRemote { token, kind });
        token
    }

    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        self.flush();
        self.pump_reads();
        self.resolve_replies(out)
    }

    fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    fn recommended_window(&self) -> usize {
        WINDOW
    }

    fn is_alive(&self) -> bool {
        self.dead.is_none()
    }

    fn admin_resize(&mut self, partitions: usize, chunks_per_sec: u32) -> Result<String, KvError> {
        self.blocking_admin(OpFrame::resize_paced(partitions as u64, chunks_per_sec))
    }
}

impl RemoteClient {
    /// Fetch the server's live metrics over the data connection, rendered
    /// as Prometheus text exposition — the same bytes the HTTP stats
    /// endpoint serves.
    pub fn fetch_stats(&mut self) -> Result<String, KvError> {
        self.blocking_admin(OpFrame::stats())
    }

    /// Drain in-flight work, submit one admin frame, and block for its
    /// reply.  Admin replies can take minutes (a paced resize), so the
    /// wait spins-with-yield politely.
    fn blocking_admin(&mut self, frame: OpFrame) -> Result<String, KvError> {
        let mut buf = Vec::new();
        self.drain_completions(&mut buf)?;
        drop(buf);
        let token = self.take_token();
        encode_op(&mut self.outgoing, &frame);
        self.pending.push_back(PendingRemote {
            token,
            kind: frame.kind,
        });
        let mut out = Vec::new();
        let mut idle: u32 = 0;
        while out.is_empty() {
            if self.poll_completions(&mut out) == 0 {
                if !self.is_alive() {
                    return Err(self.dead.map(KvError::Io).unwrap_or(KvError::Disconnected));
                }
                idle = idle.saturating_add(1);
                if idle > 64 {
                    std::thread::sleep(Duration::from_millis(1));
                } else {
                    std::thread::yield_now();
                }
            }
        }
        match out.remove(0).kind {
            // Servers answer Ok with the payload string, or Err{Admin}.
            CompletionKind::LookupHit(v) => Ok(String::from_utf8_lossy(v.as_slice()).into_owned()),
            CompletionKind::Failed(e) => Err(KvError::Op(e)),
            CompletionKind::LookupMiss => Err(KvError::Protocol),
            other => Err(KvError::Op(match other {
                CompletionKind::InsertFailed => OpError::Capacity,
                _ => OpError::Internal,
            })),
        }
    }
}

/// A [`KvClient`] that partitions the key space across several
/// [`RemoteClient`]s — the §7 memcached-comparison client.
pub struct PartitionedClient {
    shards: Vec<RemoteClient>,
    /// Per-shard translation from the shard's token to ours.
    token_maps: Vec<HashMap<u64, u64>>,
    next_token: u64,
    scratch: Vec<Completion>,
}

impl PartitionedClient {
    /// Connect one shard per address.
    pub fn connect(addrs: &[SocketAddr]) -> std::io::Result<PartitionedClient> {
        assert!(!addrs.is_empty(), "need at least one shard");
        let shards = addrs
            .iter()
            .map(|a| RemoteClient::connect(*a))
            .collect::<std::io::Result<Vec<_>>>()?;
        let token_maps = addrs.iter().map(|_| HashMap::new()).collect();
        Ok(PartitionedClient {
            shards,
            token_maps,
            next_token: 1,
            scratch: Vec::with_capacity(256),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to (stable hash partitioning, as the paper's
    /// clients did for memcached).
    fn shard_of(&self, key: &KeyRef<'_>) -> usize {
        (key.hash() % self.shards.len() as u64) as usize
    }
}

impl KvClient for PartitionedClient {
    fn backend(&self) -> &'static str {
        "partitioned-remote"
    }

    fn submit(&mut self, op: KvOp<'_>) -> u64 {
        let shard = match &op {
            KvOp::Get(k) | KvOp::Delete(k) | KvOp::Insert(k, _) => self.shard_of(k),
        };
        let inner = self.shards[shard].submit(op);
        let token = self.next_token;
        self.next_token += 1;
        self.token_maps[shard].insert(inner, token);
        token
    }

    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut produced = 0usize;
        for (shard, client) in self.shards.iter_mut().enumerate() {
            self.scratch.clear();
            client.poll_completions(&mut self.scratch);
            for mut completion in self.scratch.drain(..) {
                if let Some(outer) = self.token_maps[shard].remove(&completion.token) {
                    completion.token = outer;
                    out.push(completion);
                    produced += 1;
                }
            }
        }
        produced
    }

    fn pending_ops(&self) -> usize {
        self.shards.iter().map(|s| s.pending_ops()).sum()
    }

    fn recommended_window(&self) -> usize {
        self.shards.iter().map(|s| s.recommended_window()).sum()
    }

    fn is_alive(&self) -> bool {
        self.shards.iter().all(|s| s.is_alive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_kvproto::{encode_hello, encode_reply, parse_hello, Reply, HELLO_BYTES};
    use std::io::Read;
    use std::net::TcpListener;

    /// Size of a v2 hash-key lookup on the wire.
    const LOOKUP_BYTES: usize = 16;

    /// A v2 client plus the server's end of its connection, handshake done.
    fn connected_pair() -> (RemoteClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = [0u8; HELLO_BYTES];
            stream.read_exact(&mut hello).unwrap();
            assert_eq!(parse_hello(&hello).unwrap(), VERSION_2);
            stream.write_all(&hello).unwrap();
            stream
        });
        let client = RemoteClient::connect(addr).unwrap();
        let stream = server.join().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.protocol_version(), VERSION_2);
        (client, stream)
    }

    /// Bytes waiting on `stream` right now (loopback delivers within the
    /// sender's `write`, so nothing later means nothing was sent).
    fn waiting_bytes(stream: &mut TcpStream) -> usize {
        std::thread::sleep(Duration::from_millis(20));
        stream.set_nonblocking(true).unwrap();
        let mut total = 0;
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => panic!("client closed the connection"),
                Ok(n) => total += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        stream.set_nonblocking(false).unwrap();
        total
    }

    #[test]
    fn submits_stay_buffered_until_flush_poll_or_threshold() {
        let (mut client, mut server) = connected_pair();
        for key in 0..100 {
            client.submit(KvOp::Get(KeyRef::Hash(key)));
        }
        assert_eq!(client.pending_ops(), 100);
        assert_eq!(waiting_bytes(&mut server), 0, "submit must not send");

        // An explicit flush sends without polling...
        client.flush();
        let mut batch = vec![0u8; 100 * LOOKUP_BYTES];
        server.read_exact(&mut batch).unwrap();
        // ... and so does a poll.
        client.submit(KvOp::Get(KeyRef::Hash(100)));
        let mut out = Vec::new();
        assert_eq!(client.poll_completions(&mut out), 0);
        server.read_exact(&mut batch[..LOOKUP_BYTES]).unwrap();
        assert_eq!(waiting_bytes(&mut server), 0);

        // Past the threshold a submit sends what has accumulated, so the
        // buffer stays bounded however long the caller goes without polling:
        // the submit that reaches it sends everything queued so far, and
        // what follows waits again.
        let until_threshold = FLUSH_THRESHOLD / LOOKUP_BYTES;
        for key in 0..until_threshold as u64 + 50 {
            client.submit(KvOp::Get(KeyRef::Hash(key)));
        }
        assert_eq!(waiting_bytes(&mut server), FLUSH_THRESHOLD);
        assert_eq!(client.pending_ops(), 101 + until_threshold + 50);
    }

    #[test]
    fn a_retry_reply_fails_its_operation_and_is_counted() {
        let (mut client, mut server) = connected_pair();
        let token = client.submit(KvOp::Get(KeyRef::Hash(7)));
        client.flush();
        let mut request = [0u8; LOOKUP_BYTES];
        server.read_exact(&mut request).unwrap();

        let mut wire = BytesMut::new();
        encode_reply(&mut wire, &Reply::retry());
        server.write_all(&wire).unwrap();
        let mut out = Vec::new();
        client.drain_completions(&mut out).unwrap();
        assert_eq!(client.retries(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, token);
        assert_eq!(out[0].kind, CompletionKind::Failed(OpError::Internal));
        // Nothing was sent again, and the connection still serves.
        assert_eq!(waiting_bytes(&mut server), 0);
        assert!(client.is_alive());
    }

    /// Point a client at a listener whose first connection is handled by
    /// `peer`; returns the connect error and how many connections the
    /// listener saw in all.
    fn connect_to_stub(peer: impl FnOnce(TcpStream) + Send + 'static) -> (std::io::Error, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Take the HELLO first: closing with it unread would turn the
            // close into a reset.
            stream.read_exact(&mut [0u8; HELLO_BYTES]).unwrap();
            peer(stream);
            listener
        });
        let error = RemoteClient::connect(addr)
            .err()
            .expect("the stub is not a kvproto server");
        let listener = server.join().unwrap();
        // A second attempt would have finished its TCP handshake before
        // `connect` returned, so it would be waiting in the backlog now.
        listener.set_nonblocking(true).unwrap();
        let mut accepted = 1;
        while listener.accept().is_ok() {
            accepted += 1;
        }
        (error, accepted)
    }

    #[test]
    fn connect_reports_a_peer_that_answers_garbage() {
        let (error, accepted) = connect_to_stub(|mut stream| {
            stream.write_all(b"HTTP/1.1 400 Bad Request\r\n").unwrap();
        });
        assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
        assert_eq!(accepted, 1, "the handshake is attempted once");
    }

    #[test]
    fn connect_reports_a_peer_that_closes_on_the_handshake() {
        let (error, accepted) = connect_to_stub(drop);
        assert_eq!(error.kind(), ErrorKind::UnexpectedEof, "{error}");
        assert_eq!(accepted, 1, "the handshake is attempted once");
    }

    #[test]
    fn connect_reports_a_peer_that_acks_version_one() {
        let (error, accepted) = connect_to_stub(|mut stream| {
            let mut ack = BytesMut::new();
            encode_hello(&mut ack, 1);
            stream.write_all(&ack).unwrap();
        });
        assert_eq!(error.kind(), ErrorKind::InvalidData, "{error}");
        assert!(error.to_string().contains("version 1"), "{error}");
        assert_eq!(accepted, 1, "the handshake is attempted once");
    }
}
