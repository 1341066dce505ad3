//! LOCKSERVER: the LockHash-backed key/value cache server (paper §4.2).

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cphash_kvproto::{envelope, ErrCode, OpKind, Reply, Status};
use cphash_lockhash::{EvictionPolicy, LockHash, LockHashConfig, LockKind};

use crate::acceptor::{
    drain_accepts, shard_listeners, spawn_acceptor, worker_channels, AcceptPath, WorkerInbox,
};
use crate::connection::Connection;
use crate::metrics::ServerMetrics;
use crate::reactor::{raw_fd_of, FrontendKind, Reactor, LISTENER_TOKEN, WAKER_TOKEN};

/// Configuration for [`LockServer`].
#[derive(Debug, Clone)]
pub struct LockServerConfig {
    /// Address to bind ("127.0.0.1:0" picks a free port).
    pub bind: SocketAddr,
    /// Worker threads processing TCP connections (the paper uses one per
    /// hardware thread).
    pub worker_threads: usize,
    /// LockHash partitions (4,096 in the paper).
    pub partitions: usize,
    /// Total hash-table byte budget.
    pub capacity_bytes: Option<usize>,
    /// Typical value size, used to size the bucket arrays.
    pub typical_value_bytes: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Lock algorithm.
    pub lock_kind: LockKind,
    /// Front-end driving the worker loops (readiness-based or busy-poll).
    pub frontend: FrontendKind,
    /// Accept path: per-worker `SO_REUSEPORT` listeners (the default) or
    /// the single least-loaded acceptor thread (also the fallback where
    /// reuseport sharding is unavailable).
    pub accept: AcceptPath,
}

impl Default for LockServerConfig {
    fn default() -> Self {
        LockServerConfig {
            bind: "127.0.0.1:0".parse().expect("literal address"),
            worker_threads: 2,
            partitions: 256,
            capacity_bytes: None,
            typical_value_bytes: 64,
            eviction: EvictionPolicy::Lru,
            lock_kind: LockKind::Spin,
            frontend: FrontendKind::from_env(),
            accept: AcceptPath::from_env(),
        }
    }
}

/// A running LOCKSERVER.
pub struct LockServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    table: Arc<LockHash>,
    metrics: Arc<ServerMetrics>,
}

impl LockServer {
    /// Start the server.
    pub fn start(config: LockServerConfig) -> std::io::Result<LockServer> {
        let mut table_config = LockHashConfig::new(config.partitions)
            .with_eviction(config.eviction)
            .with_lock_kind(config.lock_kind);
        if let Some(capacity) = config.capacity_bytes {
            table_config = table_config.with_capacity(capacity, config.typical_value_bytes.max(1));
        }
        let table = Arc::new(LockHash::new(table_config));

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        {
            let table = Arc::clone(&table);
            metrics.attach_partition_source(move || table.stats());
        }
        let (slots, inboxes) = worker_channels(config.worker_threads, config.frontend);
        // Accept path: sharded SO_REUSEPORT listeners by default, the
        // single least-loaded acceptor thread on request or as fallback
        // (see cpserver).
        let sharded = match config.accept {
            AcceptPath::Sharded => shard_listeners(config.bind, config.worker_threads).ok(),
            AcceptPath::Single => None,
        };
        let mut threads = Vec::new();
        let (addr, listeners) = match sharded {
            Some((addr, listeners)) => {
                drop(slots); // workers accept directly; the hand-off lanes stay unused
                (addr, listeners.into_iter().map(Some).collect::<Vec<_>>())
            }
            None => {
                let listener = TcpListener::bind(config.bind)?;
                let (addr, acceptor) = spawn_acceptor(listener, slots, Arc::clone(&stop))?;
                threads.push(acceptor);
                (addr, (0..config.worker_threads).map(|_| None).collect())
            }
        };
        for (index, (inbox, listener)) in inboxes.into_iter().zip(listeners).enumerate() {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let table = Arc::clone(&table);
            let frontend = config.frontend;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("lockserver-worker-{index}"))
                    .spawn(move || lock_worker(table, inbox, listener, stop, metrics, frontend))
                    .expect("spawning a worker thread"),
            );
        }

        Ok(LockServer {
            addr,
            stop,
            threads,
            table,
            metrics,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Aggregate hash-table statistics.
    pub fn table_stats(&self) -> cphash_lockhash::PartitionStats {
        self.table.stats()
    }

    /// Stop every thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LockServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One LOCKSERVER worker thread: waits for readiness on its connections and
/// executes their requests directly against the lock-based table ("first
/// acquiring the lock for the appropriate partition, then performing the
/// query, updating the LRU list and, finally, releasing the lock", §4.2).
///
/// Responses are synchronous, so the worker can always sleep in the reactor
/// between events; back-logged output is watched via write interest.
fn lock_worker(
    table: Arc<LockHash>,
    inbox: WorkerInbox,
    listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    frontend: FrontendKind,
) {
    let mut reactor = Reactor::new(frontend, Arc::clone(&metrics.frontend));
    if let Some(fd) = inbox.waker.fd() {
        let _ = reactor.register(fd, WAKER_TOKEN, false);
    }
    // Sharded accept path: this worker owns one of the SO_REUSEPORT
    // listeners (see cpserver).
    if let Some(l) = listener.as_ref() {
        let _ = reactor.register_listener(raw_fd_of(l), LISTENER_TOKEN);
    }
    let mut accepted: Vec<std::net::TcpStream> = Vec::new();
    let mut connections: Vec<Option<Connection>> = Vec::new();
    let mut requests = Vec::with_capacity(256);
    let mut value_buf = Vec::with_capacity(256);
    let mut ready: Vec<usize> = Vec::with_capacity(256);
    // Whether the previous iteration served anything: while it did, poll
    // the reactor without blocking so the busy-poll backend's idle back-off
    // resets under load (the legacy loop's `did_work` behaviour).
    let mut did_work = false;

    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        ready.clear();
        let timeout = (!did_work).then(|| Duration::from_millis(25));
        let _ = reactor.wait(&mut ready, timeout);
        did_work = false;

        // Drain the waker *before* polling the channel so a hand-off racing
        // this iteration cannot have its wake-up consumed (see cpserver).
        if ready.contains(&WAKER_TOKEN) {
            inbox.waker.drain();
        }
        while let Ok(stream) = inbox.receiver.try_recv() {
            let adopted = Connection::new(stream).is_ok_and(|conn| {
                crate::connection::adopt(&mut connections, &mut reactor, &mut ready, conn, |c| c)
            });
            if adopted {
                metrics.note_connection();
                did_work = true;
            } else {
                inbox.active.fetch_sub(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
            }
        }

        // Sharded accept path: adopt connections straight off this
        // worker's own listener; adoption pushes the new tokens into
        // `ready` so buffered bytes are served this same iteration.
        if let Some(l) = listener.as_ref() {
            if ready.contains(&LISTENER_TOKEN) {
                drain_accepts(l, &mut reactor, LISTENER_TOKEN, &mut accepted);
                for stream in accepted.drain(..) {
                    // Keep the active gauge balanced with the retire path.
                    inbox.active.fetch_add(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
                    let adopted = Connection::new(stream).is_ok_and(|conn| {
                        crate::connection::adopt(
                            &mut connections,
                            &mut reactor,
                            &mut ready,
                            conn,
                            |c| c,
                        )
                    });
                    if adopted {
                        metrics.note_connection();
                        did_work = true;
                    } else {
                        inbox.active.fetch_sub(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
                    }
                }
            }
        }

        for &idx in ready.iter() {
            if idx == WAKER_TOKEN || idx == LISTENER_TOKEN {
                continue; // drained above, before the inbox poll
            }
            let Some(conn) = connections.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            requests.clear();
            let read = conn.poll_requests(&mut requests);
            metrics.note_io(read, 0);
            did_work |= !requests.is_empty();
            for request in requests.drain(..) {
                let wants_response = request.wants_response;
                let cphash_kvproto::OpFrame { kind, key, value } = request.frame;
                match kind {
                    OpKind::Lookup => {
                        let hit = table.lookup(key.hash(), &mut value_buf);
                        // Byte keys store §8.2 envelopes: verify the stored
                        // key and read collisions as misses.  Hit values
                        // encode straight from the lookup buffer.
                        let verified = if hit {
                            envelope::verify_stored(key.as_ref(), &value_buf)
                        } else {
                            None
                        };
                        metrics.note_lookup(verified.is_some());
                        match verified {
                            Some(v) => {
                                conn.queue_reply_parts(Status::Ok, ErrCode::None, v);
                            }
                            None => conn.queue_reply(&Reply::miss()),
                        }
                    }
                    OpKind::Insert => {
                        let (hash, stored) = envelope::stored_form(key.as_ref(), &value);
                        // The envelope may push a near-limit value past
                        // MAX_VALUE_BYTES; storing it would later produce
                        // replies no client decoder accepts.
                        let ok = stored.len() <= cphash_kvproto::MAX_VALUE_BYTES
                            && table.insert(hash, &stored);
                        metrics.note_insert();
                        if wants_response {
                            conn.queue_reply(&if ok {
                                Reply::ok()
                            } else {
                                Reply::err(ErrCode::Capacity, b"ERR table out of capacity".to_vec())
                            });
                        }
                    }
                    OpKind::Delete => {
                        let found = table.delete(key.hash());
                        metrics.note_delete();
                        if wants_response {
                            conn.queue_reply(&if found { Reply::ok() } else { Reply::miss() });
                        }
                    }
                    OpKind::Resize => {
                        // LOCKSERVER's partition count is fixed; report the
                        // unsupported admin command instead of hanging the
                        // client's ordered response stream.
                        conn.queue_reply(&Reply::err(
                            ErrCode::Unsupported,
                            b"ERR resize unsupported on LOCKSERVER".to_vec(),
                        ));
                    }
                    OpKind::Stats => {
                        // v2-only admin op: the reply value is the full
                        // metrics snapshot in Prometheus text format.
                        metrics.note_stats();
                        let text = metrics.render_prometheus();
                        conn.queue_reply_parts(Status::Ok, ErrCode::None, text.as_bytes());
                    }
                }
            }
            let verdict = crate::connection::settle(conn, &mut reactor, idx, &metrics);
            if verdict == crate::connection::Settle::Retired {
                connections[idx] = None;
                inbox.active.fetch_sub(1, Ordering::Relaxed); // relaxed: load-balance gauge; staleness is benign
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use cphash_kvproto::{encode_insert, encode_lookup, ResponseDecoder};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn lookup(stream: &mut TcpStream, decoder: &mut ResponseDecoder, key: u64) -> Option<Vec<u8>> {
        let mut wire = BytesMut::new();
        encode_lookup(&mut wire, key);
        stream.write_all(&wire).unwrap();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(resp) = decoder.next_response().unwrap() {
                return resp.value;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0);
            decoder.feed(&buf[..n]);
        }
    }

    #[test]
    fn serves_the_same_protocol_as_cpserver() {
        let mut server = LockServer::start(LockServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut decoder = ResponseDecoder::new();
        assert_eq!(lookup(&mut stream, &mut decoder, 7), None);
        let mut wire = BytesMut::new();
        encode_insert(&mut wire, 7, b"locked value");
        stream.write_all(&wire).unwrap();
        assert_eq!(
            lookup(&mut stream, &mut decoder, 7).as_deref(),
            Some(&b"locked value"[..])
        );
        assert!(server.table_stats().inserts >= 1);
        assert!(server.metrics().requests() >= 3);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_with_disjoint_keys() {
        let mut server = LockServer::start(LockServerConfig {
            worker_threads: 2,
            partitions: 64,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut decoder = ResponseDecoder::new();
                    for i in 0..100u64 {
                        let key = t * 500 + i;
                        let mut wire = BytesMut::new();
                        encode_insert(&mut wire, key, &key.to_le_bytes());
                        stream.write_all(&wire).unwrap();
                    }
                    for i in 0..100u64 {
                        let key = t * 500 + i;
                        assert_eq!(
                            lookup(&mut stream, &mut decoder, key).as_deref(),
                            Some(&key.to_le_bytes()[..])
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.metrics().hit_rate() > 0.99);
        server.shutdown();
    }
}
