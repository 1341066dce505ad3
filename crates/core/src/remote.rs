//! TCP backends for the unified [`crate::kv::KvClient`] API.
//!
//! [`RemoteClient`] drives one CPSERVER / LOCKSERVER / memcache-instance
//! connection.  It speaks kvproto v2 (typed ops, byte-string keys, DELETE,
//! status codes) when the server acks the connect-time handshake, and
//! falls back transparently to v1 — against a v1-only server the handshake
//! is an unknown opcode, the server drops the connection, and the client
//! reconnects speaking v1 (byte-string keys then ride the §8.2 envelope
//! client-side, exactly what `AnyKeyClient` did; DELETE completes as
//! `Failed(Unsupported)` because v1 has no such opcode).
//!
//! [`PartitionedClient`] fans one logical client out over several
//! `RemoteClient`s with client-side key partitioning — the paper's §7
//! memcached comparison "configured the client to partition the key space
//! across these multiple MEMCACHED instances", and this is that client.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bytes::{Buf, BytesMut};
use cphash_kvproto::{
    encode_hello, encode_op, envelope, parse_hello, ErrCode, OpFrame, OpKind, ReplyDecoder,
    ResponseDecoder, Status, WireKey, HELLO_BYTES, VERSION_1, VERSION_2,
};

use crate::client::{Completion, CompletionKind, OpError, ValueBytes};
use crate::kv::{KeyRef, KvClient, KvError, KvOp};

/// Default pipelined-window recommendation for remote backends.
const DEFAULT_WINDOW: usize = 256;

/// Queued request bytes past which `submit` sends without waiting for the
/// next poll: a socket send buffer's worth, so a caller that submits far
/// more than a window between polls neither grows `outgoing` without bound
/// nor leaves the server idle until it finally polls.
const FLUSH_THRESHOLD: usize = 16 * 1024;

/// How long to wait for the server's HELLO-ACK before giving up on the
/// connection attempt (a v1 server answers faster than this: it *closes*).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// One operation awaiting its reply, in request order.
struct PendingRemote {
    token: u64,
    /// The logical operation, kept so a `Retry` reply can resubmit it and
    /// so v1 byte-key lookups can verify the envelope client-side.
    frame: OpFrame,
}

/// A [`KvClient`] over one TCP connection speaking kvproto.
///
/// Like the in-process [`crate::ClientHandle`], it batches: `submit` only
/// encodes the request into a client-side buffer, and the buffered bytes
/// leave in one `write` at the next `poll_completions` (or blocking
/// helper), at an explicit [`RemoteClient::flush`], or as soon as
/// [`FLUSH_THRESHOLD`] bytes are queued.  A pipelined batch therefore
/// costs one syscall, not one per operation — and a caller that submits
/// and never polls or flushes sends nothing.
pub struct RemoteClient {
    stream: TcpStream,
    version: u8,
    outgoing: BytesMut,
    reply_decoder: ReplyDecoder,
    v1_decoder: ResponseDecoder,
    pending: VecDeque<PendingRemote>,
    /// Completions resolved client-side (v1 fire-and-forget inserts, v1
    /// deletes), delivered by the next poll.
    immediate: VecDeque<Completion>,
    next_token: u64,
    window: usize,
    dead: Option<ErrorKind>,
    retries: u64,
}

impl RemoteClient {
    /// Connect preferring v2, with transparent v1 fallback.
    pub fn connect(addr: SocketAddr) -> std::io::Result<RemoteClient> {
        Self::connect_capped(addr, VERSION_2)
    }

    /// Connect speaking at most `max_version` (1 forces the legacy
    /// protocol; useful for compatibility testing).
    pub fn connect_capped(addr: SocketAddr, max_version: u8) -> std::io::Result<RemoteClient> {
        // Any handshake failure — connection closed by a v1 server that
        // read our magic as a bad opcode, timeout, short read — falls back
        // to a fresh v1 connection.
        if max_version >= VERSION_2 {
            if let Ok(client) = Self::try_handshake(addr) {
                return Ok(client);
            }
        }
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, VERSION_1)
    }

    fn try_handshake(addr: SocketAddr) -> std::io::Result<RemoteClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hello = BytesMut::new();
        encode_hello(&mut hello, VERSION_2);
        stream.write_all(&hello)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let mut ack = [0u8; HELLO_BYTES];
        stream.read_exact(&mut ack)?;
        let negotiated = parse_hello(&ack)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?
            .min(VERSION_2);
        stream.set_read_timeout(None)?;
        // A graceful downgrade (server acked v1) keeps this connection and
        // switches framing; the server has done the same.
        Self::from_stream(stream, negotiated)
    }

    fn from_stream(stream: TcpStream, version: u8) -> std::io::Result<RemoteClient> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(RemoteClient {
            stream,
            version,
            outgoing: BytesMut::with_capacity(FLUSH_THRESHOLD),
            reply_decoder: ReplyDecoder::new(),
            v1_decoder: ResponseDecoder::new(),
            pending: VecDeque::new(),
            immediate: VecDeque::new(),
            next_token: 1,
            window: DEFAULT_WINDOW,
            dead: None,
            retries: 0,
        })
    }

    /// The protocol version this connection negotiated (1 or 2).
    pub fn protocol_version(&self) -> u8 {
        self.version
    }

    /// Operations resubmitted after a `Retry` reply.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Override the recommended pipelined window.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    fn take_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Queue the wire bytes for a logical op.  In v1 mode byte keys are
    /// enveloped client-side and the hash key goes on the wire.
    fn encode_for_wire(&mut self, frame: &OpFrame) {
        if self.version >= VERSION_2 {
            encode_op(&mut self.outgoing, frame);
            return;
        }
        match (&frame.kind, &frame.key) {
            (OpKind::Lookup, key) => cphash_kvproto::encode_lookup(&mut self.outgoing, key.hash()),
            (OpKind::Insert, WireKey::Hash(k)) => {
                cphash_kvproto::encode_insert(&mut self.outgoing, *k, &frame.value)
            }
            (OpKind::Insert, WireKey::Bytes(b)) => cphash_kvproto::encode_insert(
                &mut self.outgoing,
                envelope::hash_key(b),
                &envelope::encode_envelope(b, &frame.value),
            ),
            (OpKind::Resize, key) => {
                // The packed resize key must pass through unmasked.
                let WireKey::Hash(packed) = key else {
                    unreachable!("resize frames carry packed hash keys")
                };
                cphash_kvproto::frame::encode_resize_packed(&mut self.outgoing, *packed);
            }
            (OpKind::Delete, _) => unreachable!("v1 deletes complete client-side"),
            // Stats is v2-only (v1's opcode space is 1..=3); the submit path
            // never queues it on a downgraded connection.
            (OpKind::Stats, _) => unreachable!("v1 connections never carry stats frames"),
        }
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
    fn enqueue(&mut self, frame: &OpFrame) {
        self.encode_for_wire(frame);
        if self.outgoing.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }

    /// Read available bytes straight into the right decoder's buffer,
    /// stopping at the first read that did not fill the space offered.
    fn pump_reads(&mut self) {
        while self.dead.is_none() {
            let read = if self.version >= VERSION_2 {
                self.reply_decoder.read_from(&mut self.stream)
            } else {
                self.v1_decoder.read_from(&mut self.stream)
            };
            match read {
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
            if self.version >= VERSION_2 {
                let reply = match self.reply_decoder.next_reply_ref() {
                    Ok(Some(reply)) => reply,
                    Ok(None) => break,
                    Err(_) => {
                        self.dead = Some(ErrorKind::InvalidData);
                        break;
                    }
                };
                // Hint the value bytes as early as possible: the copy into
                // a `ValueBytes` below — the only copy a hit's value gets,
                // straight out of the receive buffer — reads every line of
                // the payload, and large replies sit in memory the hot path
                // has not touched since the socket read landed it.
                prefetch_value_lines(reply.value);
                let Some(pending) = self.pending.pop_front() else {
                    // A reply with nothing pending: protocol desync.
                    self.dead = Some(ErrorKind::InvalidData);
                    break;
                };
                if reply.status == Status::Retry {
                    // Resubmit transparently; the token survives the trip.
                    self.retries += 1;
                    self.encode_for_wire(&pending.frame);
                    self.pending.push_back(pending);
                    continue;
                }
                let kind = match (pending.frame.kind, reply.status) {
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
                    // Admin replies surface their payload as a hit; only
                    // the blocking admin paths submit resizes and stats.
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
            } else {
                let response = match self.v1_decoder.next_response() {
                    Ok(Some(response)) => response,
                    Ok(None) => break,
                    Err(_) => {
                        self.dead = Some(ErrorKind::InvalidData);
                        break;
                    }
                };
                if let Some(value) = &response.value {
                    prefetch_value_lines(value);
                }
                let Some(pending) = self.pending.pop_front() else {
                    self.dead = Some(ErrorKind::InvalidData);
                    break;
                };
                // v1 responses exist only for lookups (and resize, which the
                // blocking admin path consumes before submitting more work).
                let kind = match (&pending.frame.key, response.value) {
                    (_, None) => CompletionKind::LookupMiss,
                    (WireKey::Hash(_), Some(value)) => {
                        CompletionKind::LookupHit(ValueBytes::from_slice(&value))
                    }
                    (WireKey::Bytes(wanted), Some(stored)) => {
                        match envelope::unwrap_matching(&stored, wanted) {
                            Some(value) => CompletionKind::LookupHit(ValueBytes::from_slice(value)),
                            None => CompletionKind::LookupMiss,
                        }
                    }
                };
                out.push(Completion {
                    token: pending.token,
                    kind,
                });
                produced += 1;
            }
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
        if self.version >= VERSION_2 {
            "remote-v2"
        } else {
            "remote-v1"
        }
    }

    fn submit(&mut self, op: KvOp<'_>) -> u64 {
        let token = self.take_token();
        let frame = match op {
            KvOp::Get(KeyRef::Hash(k)) => OpFrame::lookup(k),
            KvOp::Get(KeyRef::Bytes(b)) => OpFrame::lookup_bytes(b.to_vec()),
            KvOp::Insert(KeyRef::Hash(k), v) => OpFrame::insert(k, v.to_vec()),
            KvOp::Insert(KeyRef::Bytes(b), v) => OpFrame::insert_bytes(b.to_vec(), v.to_vec()),
            KvOp::Delete(KeyRef::Hash(k)) => OpFrame::delete(k),
            KvOp::Delete(KeyRef::Bytes(b)) => OpFrame::delete_bytes(b.to_vec()),
        };
        if self.version < VERSION_2 {
            // v1 has no DELETE and answers no INSERT; complete those here.
            match frame.kind {
                OpKind::Delete => {
                    self.immediate.push_back(Completion {
                        token,
                        kind: CompletionKind::Failed(OpError::Unsupported),
                    });
                    return token;
                }
                OpKind::Insert => {
                    self.enqueue(&frame);
                    self.immediate.push_back(Completion {
                        token,
                        kind: CompletionKind::Inserted,
                    });
                    return token;
                }
                _ => {}
            }
        }
        self.enqueue(&frame);
        self.pending.push_back(PendingRemote { token, frame });
        token
    }

    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut produced = 0usize;
        while let Some(c) = self.immediate.pop_front() {
            out.push(c);
            produced += 1;
        }
        self.flush();
        self.pump_reads();
        produced += self.resolve_replies(out);
        // A retry resubmission queued above should leave this poll's
        // process, not wait for the next one.
        self.flush();
        produced
    }

    fn pending_ops(&self) -> usize {
        self.pending.len() + self.immediate.len()
    }

    fn recommended_window(&self) -> usize {
        self.window
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
    /// endpoint serves.  v2 only: a v1 server has no STATS opcode.
    pub fn fetch_stats(&mut self) -> Result<String, KvError> {
        if self.version < VERSION_2 {
            return Err(KvError::Op(OpError::Unsupported));
        }
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
        self.encode_for_wire(&frame);
        self.pending.push_back(PendingRemote { token, frame });
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
            // v2 servers answer Ok with the payload string, or Err{Admin}.
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
    /// Connect one shard per address (v2 preferred, v1 fallback each).
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
    use cphash_kvproto::frame::REQUEST_HEADER_BYTES;
    use cphash_kvproto::{encode_reply, Reply};
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
    fn retry_resubmission_leaves_in_the_same_poll() {
        let (mut client, mut server) = connected_pair();
        let token = client.submit(KvOp::Get(KeyRef::Hash(7)));
        client.flush();
        let mut request = [0u8; LOOKUP_BYTES];
        server.read_exact(&mut request).unwrap();

        let mut wire = BytesMut::new();
        encode_reply(&mut wire, &Reply::retry());
        server.write_all(&wire).unwrap();
        // The poll that sees the Retry re-sends the request itself.
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.retries() == 0 && std::time::Instant::now() < deadline {
            assert_eq!(client.poll_completions(&mut out), 0);
        }
        assert_eq!(client.retries(), 1);
        let mut again = [0u8; LOOKUP_BYTES];
        server.read_exact(&mut again).unwrap();
        assert_eq!(again, request);

        wire.clear();
        encode_reply(&mut wire, &Reply::ok_value(b"seven".to_vec()));
        server.write_all(&wire).unwrap();
        client.drain_completions(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, token);
        assert_eq!(
            out[0].kind,
            CompletionKind::LookupHit(ValueBytes::from_slice(b"seven"))
        );
    }

    #[test]
    fn v1_inserts_stay_fire_and_forget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = RemoteClient::connect_capped(listener.local_addr().unwrap(), 1).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        assert_eq!(client.protocol_version(), VERSION_1);

        // No reply will ever come for a v1 insert (or the delete v1 cannot
        // express): both complete client-side at the next poll, which is
        // also when the insert's bytes leave.
        let insert = client.submit(KvOp::Insert(KeyRef::Hash(5), b"five"));
        let delete = client.submit(KvOp::Delete(KeyRef::Hash(5)));
        assert_eq!(client.pending_ops(), 2);
        assert_eq!(waiting_bytes(&mut server), 0);
        let mut out = Vec::new();
        assert_eq!(client.poll_completions(&mut out), 2);
        assert_eq!(client.pending_ops(), 0);
        assert_eq!(
            (out[0].token, &out[0].kind),
            (insert, &CompletionKind::Inserted)
        );
        assert_eq!(
            (out[1].token, &out[1].kind),
            (delete, &CompletionKind::Failed(OpError::Unsupported))
        );
        assert_eq!(waiting_bytes(&mut server), REQUEST_HEADER_BYTES + 4);
    }
}
