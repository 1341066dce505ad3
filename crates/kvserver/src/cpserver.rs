//! CPSERVER: the CPHash-backed key/value cache server (paper §4.1).

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cphash::{ClientHandle, CompletionKind, CpHash, CpHashConfig, EvictionPolicy, MigrationPacing};
use cphash_affinity::HwThreadId;
use cphash_kvproto::{
    envelope, resize_chunks_per_sec, resize_partitions, ErrCode, OpKind, ServerOpRef, Status,
    WireKeyRef,
};
use cphash_migrate::{MigrationPacer, RepartitionCoordinator};
use cphash_perfmon::SharedLatencyWindow;

use crate::acceptor::{drain_accepts, shard_listeners};
use crate::connection::Connection;
use crate::metrics::{MigrationProgress, ServerMetrics};
use crate::reactor::{raw_fd_of, Reactor, LISTENER_TOKEN};
use crate::stats_http::spawn_stats_listener;

/// An admin resize request in flight from a client thread to the admin
/// thread that owns the repartition coordinator.
struct AdminRequest {
    new_partitions: usize,
    /// Per-request pacing override from the wire (`None` = the server's
    /// configured default pacing).
    chunks_per_sec: Option<u32>,
    reply: mpsc::Sender<String>,
}

/// The admin thread: serializes resize requests onto the coordinator,
/// pacing each through the server's default pacer (which keeps its feedback
/// state across resizes) or a per-request rate override from the wire.
fn admin_worker(
    mut coordinator: RepartitionCoordinator,
    mut default_pacer: MigrationPacer,
    requests: mpsc::Receiver<AdminRequest>,
    stop: Arc<AtomicBool>,
    progress: Arc<MigrationProgress>,
) {
    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        match requests.recv_timeout(Duration::from_millis(20)) {
            Ok(request) => {
                let (result, rate) = match request.chunks_per_sec {
                    Some(rate) => {
                        let mut override_pacer =
                            MigrationPacer::from_config(MigrationPacing::Rate {
                                chunks_per_sec: rate as f64,
                            });
                        let result = coordinator
                            .resize_to_paced(request.new_partitions, &mut override_pacer);
                        (result, override_pacer.current_rate())
                    }
                    None => {
                        let result =
                            coordinator.resize_to_paced(request.new_partitions, &mut default_pacer);
                        (result, default_pacer.current_rate())
                    }
                };
                let status = match result {
                    Ok(report) => {
                        // Publish live-repartitioning progress on the
                        // metrics plane before answering the client.
                        progress.note_repartition(
                            report.chunks as u64,
                            report.keys_moved as u64,
                            report.paced_waits,
                        );
                        progress.set_pacer_rate(rate);
                        format!(
                            "partitions={} moved={} chunks={} paced_waits={}",
                            report.to_partitions,
                            report.keys_moved,
                            report.chunks,
                            report.paced_waits
                        )
                    }
                    Err(e) => format!("ERR {e}"),
                };
                // The requesting worker may have dropped the receiver when
                // its connection closed; that is fine.
                let _ = request.reply.send(status);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Configuration for [`CpServer`].
#[derive(Debug, Clone)]
pub struct CpServerConfig {
    /// Address to bind ("127.0.0.1:0" picks a free port).
    pub bind: SocketAddr,
    /// Client threads gathering requests from TCP connections.
    pub client_threads: usize,
    /// CPHash partitions / server threads.
    pub partitions: usize,
    /// Total hash-table byte budget.
    pub capacity_bytes: Option<usize>,
    /// Typical value size, used to size the bucket arrays.
    pub typical_value_bytes: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Hardware threads to pin CPHash server threads to.
    pub server_pins: Vec<HwThreadId>,
    /// Outstanding-request window per client thread.
    pub batch: usize,
    /// Upper bound for the runtime `resize` admin command. Resize is only
    /// enabled when this exceeds `partitions`; otherwise (0 or equal) the
    /// table is static and RESIZE frames are refused.
    pub max_partitions: usize,
    /// Default pacing for live resizes (RESIZE frames may override it per
    /// request with an explicit chunks-per-second budget).
    pub migration_pacing: MigrationPacing,
    /// Pipeline depth for the hash-table servers (operations staged per
    /// batch).
    pub batch_size: usize,
    /// Overload shedding: when a worker has at least this many hash-table
    /// operations in flight, *lookups* get wire-level `Retry` replies
    /// instead of being absorbed server-side — exercising the client's
    /// transparent-resubmission path.  Writes are never shed (resubmission
    /// would reorder them behind later same-key operations).  `None` (the
    /// default) never sheds; values below 1 are treated as 1.
    pub overload_retry: Option<usize>,
    /// Address for the Prometheus stats HTTP endpoint (`None` disables it;
    /// port 0 picks a free port, reported by [`CpServer::stats_addr`]).
    pub stats_addr: Option<SocketAddr>,
}

impl Default for CpServerConfig {
    fn default() -> Self {
        CpServerConfig {
            bind: "127.0.0.1:0".parse().expect("literal address"),
            client_threads: 2,
            partitions: 2,
            capacity_bytes: None,
            typical_value_bytes: 64,
            eviction: EvictionPolicy::Clock,
            server_pins: Vec::new(),
            batch: 1024,
            max_partitions: 0,
            migration_pacing: MigrationPacing::Unpaced,
            batch_size: cphash::DEFAULT_BATCH_SIZE,
            overload_retry: None,
            stats_addr: None,
        }
    }
}

/// A running CPSERVER.
pub struct CpServer {
    addr: SocketAddr,
    stats_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    table: Option<CpHash>,
    metrics: Arc<ServerMetrics>,
}

impl CpServer {
    /// Start the server: binds one listener per client thread, spawns the
    /// client threads and the CPHash server threads.
    pub fn start(config: CpServerConfig) -> std::io::Result<CpServer> {
        let mut table_config = CpHashConfig::new(config.partitions, config.client_threads);
        if let Some(capacity) = config.capacity_bytes {
            table_config = table_config.with_capacity(capacity, config.typical_value_bytes.max(1));
        }
        table_config.eviction = config.eviction;
        table_config.server_pins = config.server_pins.clone();
        table_config.max_partitions = config.max_partitions;
        table_config.migration_pacing = config.migration_pacing;
        table_config.batch_size = config.batch_size;
        let (table, handles) = CpHash::new(table_config);

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        metrics.attach_batch_sources(table.server_stats());
        metrics.attach_partition_source(table.partition_stats_sampler());
        // Every client thread accepts on its own listener (see `acceptor`).
        let (addr, listeners) = shard_listeners(config.bind, config.client_threads)?;
        let mut threads = Vec::new();

        // The admin thread owns the table's repartition coordinator and
        // serializes `resize` requests from every client thread. A static
        // table (max_partitions == 0) gets no admin thread at all, so even
        // shrink requests are refused rather than re-shaping a topology the
        // operator declared fixed.
        let resize_enabled = config.max_partitions > config.partitions;
        let (admin_tx, admin_rx) = mpsc::channel::<AdminRequest>();
        let mut stats_addr = None;
        if let Some(requested) = config.stats_addr {
            let (bound, handle) =
                spawn_stats_listener(requested, Arc::clone(&metrics), Arc::clone(&stop))?;
            stats_addr = Some(bound);
            threads.push(handle);
        }
        if resize_enabled {
            let coordinator =
                RepartitionCoordinator::new(table.take_control().expect("fresh table has control"));
            // The default pacer samples the table's own queue-depth gauges
            // (depth feedback) or the workers' shared request-latency
            // window (latency feedback), so both modes work out of the box.
            let pacer = match config.migration_pacing {
                MigrationPacing::FeedbackLatency { .. } => {
                    MigrationPacer::from_config(config.migration_pacing)
                        .with_latency_window(Arc::clone(&metrics.latency))
                }
                pacing => MigrationPacer::for_table(&table, pacing),
            };
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&metrics.migration);
            threads.push(
                std::thread::Builder::new()
                    .name("cpserver-admin".into())
                    .spawn(move || admin_worker(coordinator, pacer, admin_rx, stop, progress))
                    .expect("spawning the admin thread"),
            );
        } else {
            drop(admin_rx);
        }

        for (index, (handle, listener)) in handles.into_iter().zip(listeners).enumerate() {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let batch = config.batch;
            let admin = resize_enabled.then(|| admin_tx.clone());
            let overload_retry = config.overload_retry.map(|t| t.max(1));
            // Workers only pay for latency stamping when something will
            // actually sample the window.
            // (and only when a resize can actually run — without an admin
            // thread no pacer ever takes the window).
            let record_latency = resize_enabled
                && matches!(
                    config.migration_pacing,
                    MigrationPacing::FeedbackLatency { .. }
                );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cpserver-client-{index}"))
                    .spawn(move || {
                        client_worker(
                            handle,
                            listener,
                            stop,
                            metrics,
                            batch,
                            admin,
                            overload_retry,
                            record_latency,
                        )
                    })
                    .expect("spawning a client thread"),
            );
        }

        Ok(CpServer {
            addr,
            stats_addr,
            stop,
            threads,
            table: Some(table),
            metrics,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the Prometheus stats endpoint, when enabled.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_addr
    }

    /// Request metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Aggregate hash-table statistics.
    pub fn table_stats(&self) -> cphash::PartitionStats {
        self.table
            .as_ref()
            .map(|t| t.partition_stats())
            .unwrap_or_default()
    }

    /// Live counters of the table's server threads, one entry per spawned
    /// partition server (empty once the server has shut down).
    pub fn server_stats(&self) -> &[Arc<cphash::ServerStats>] {
        self.table.as_ref().map_or(&[], |t| t.server_stats())
    }

    /// Stop every thread and shut the table down.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(mut table) = self.table.take() {
            table.shutdown();
        }
    }
}

impl Drop for CpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Book-keeping for writes (inserts *and* deletes) whose completion is
/// still in flight, per hash key.
#[derive(Default)]
struct InflightWrites {
    /// Outstanding writes for this key.
    count: usize,
    /// Lookups for this key waiting for the writes to finish, identified
    /// by (connection slot, per-connection sequence number, byte key to
    /// verify against the §8.2 envelope — `None` for plain hash keys).
    deferred: Vec<(usize, u64, Option<Vec<u8>>)>,
}

/// A reply waiting in a connection's ordered queue.  Like
/// [`cphash_kvproto::Reply`] but holding the value as [`cphash::ValueBytes`]
/// so lookup hits move the table's copy straight through to the output
/// buffer without an intermediate allocation.
struct OutReply {
    status: Status,
    code: ErrCode,
    value: cphash::ValueBytes,
}

impl OutReply {
    fn ok() -> Self {
        Self::ok_value(cphash::ValueBytes::from_slice(&[]))
    }

    fn ok_value(value: cphash::ValueBytes) -> Self {
        OutReply {
            status: Status::Ok,
            code: ErrCode::None,
            value,
        }
    }

    fn ok_bytes(value: &[u8]) -> Self {
        Self::ok_value(cphash::ValueBytes::from_slice(value))
    }

    fn miss() -> Self {
        OutReply {
            status: Status::Miss,
            code: ErrCode::None,
            value: cphash::ValueBytes::from_slice(&[]),
        }
    }

    /// Wire-level overload shed: the client resubmits transparently.
    fn retry() -> Self {
        OutReply {
            status: Status::Retry,
            code: ErrCode::None,
            value: cphash::ValueBytes::from_slice(&[]),
        }
    }

    fn err(code: ErrCode, message: &[u8]) -> Self {
        OutReply {
            status: Status::Err,
            code,
            value: cphash::ValueBytes::from_slice(message),
        }
    }
}

/// State of one response-bearing request, kept in arrival order so the
/// connection's responses go out in request order (correlation on this
/// wire is by ordering).
enum ReplyState {
    /// Deferred behind an in-flight write of the same key; not submitted.
    WaitingWrite,
    /// Submitted to the hash table (or admin thread); result not yet known.
    Submitted,
    /// Result known; written out once it reaches the queue head.
    Done(OutReply),
}

/// One queued response slot on a connection.
struct PendingReply {
    state: ReplyState,
    /// When the request was decoded, for the client-observed latency
    /// window (the migration pacer's latency-feedback signal); only
    /// stamped when latency-feedback pacing is configured.
    at: Option<Instant>,
}

/// A connection's unanswered requests in arrival order.  Sequence numbers
/// are dense and only the head is ever popped, so the entry for `seq` sits
/// `seq - head_seq` places in: resolving a reply is an index, not a scan.
struct ReplyQueue {
    next_seq: u64,
    pending: VecDeque<PendingReply>,
    /// Whether to clock-stamp requests for the latency window.
    stamp_latency: bool,
}

impl ReplyQueue {
    fn enqueue(&mut self, state: ReplyState) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingReply {
            state,
            at: self.stamp_latency.then(Instant::now),
        });
        seq
    }

    fn entry(&mut self, seq: u64) -> Option<&mut PendingReply> {
        let head_seq = self.next_seq - self.pending.len() as u64;
        self.pending.get_mut(seq.checked_sub(head_seq)? as usize)
    }

    /// Mark a deferred lookup as submitted (its blocking write finished and
    /// the lookup has now been sent to the hash table).
    fn resolve_waiting(&mut self, seq: u64) {
        if let Some(entry) = self.entry(seq) {
            if matches!(entry.state, ReplyState::WaitingWrite) {
                entry.state = ReplyState::Submitted;
            }
        }
    }

    fn resolve(&mut self, seq: u64, reply: OutReply) {
        if let Some(entry) = self.entry(seq) {
            entry.state = ReplyState::Done(reply);
        }
    }
}

/// One connection plus its ordered queue of unanswered requests.
struct ConnState {
    conn: Connection,
    replies: ReplyQueue,
}

impl ConnState {
    fn new(conn: Connection, stamp_latency: bool) -> Self {
        ConnState {
            conn,
            replies: ReplyQueue {
                next_seq: 0,
                pending: VecDeque::new(),
                stamp_latency,
            },
        }
    }

    /// Write out every response whose predecessors have all been written,
    /// recording each request's decode→reply latency into the shared
    /// window when one is attached (latency-feedback pacing only — the
    /// window is a cross-worker mutex, so it is not touched when nothing
    /// would ever sample it).  Returns how many responses were queued.
    fn flush_ready_responses(&mut self, latency: Option<&SharedLatencyWindow>) -> usize {
        let mut wrote = 0usize;
        while matches!(
            self.replies.pending.front(),
            Some(PendingReply {
                state: ReplyState::Done(_),
                ..
            })
        ) {
            let entry = self.replies.pending.pop_front().expect("front checked");
            let ReplyState::Done(reply) = entry.state else {
                unreachable!()
            };
            if let (Some(window), Some(at)) = (latency, entry.at) {
                window.record_ns(at.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            self.conn
                .queue_reply_parts(reply.status, reply.code, reply.value.as_slice());
            wrote += 1;
        }
        wrote
    }
}

/// Where a hash-table completion goes.
enum TokenTarget {
    /// Nothing to resolve: the token completed already, or it was a lookup
    /// whose connection has since retired.
    Vacant,
    /// A lookup's reply slot, plus the byte key to verify against the
    /// stored envelope (byte-keyed lookups only).
    Lookup {
        conn: usize,
        seq: u64,
        bytekey: Option<Vec<u8>>,
    },
    /// A write (insert or delete).
    Write {
        /// The 60-bit hash key, for per-key in-flight accounting.
        key: u64,
        /// Reply slot, or `None` once the connection has retired.
        reply: Option<(usize, u64)>,
    },
}

/// In-flight hash-table operations by token.  [`ClientHandle`] hands out
/// dense, monotonic tokens, so the targets live in a ring indexed by
/// `token - base` rather than a hash map: one slot written at submit, one
/// read at completion, and the ring's head advances past finished tokens.
#[derive(Default)]
struct TokenRing {
    /// Token of `slots[0]`.
    base: u64,
    slots: VecDeque<TokenTarget>,
}

impl TokenRing {
    fn insert(&mut self, token: u64, target: TokenTarget) {
        if self.slots.is_empty() {
            self.base = token;
        }
        // The worker records every operation it submits, in submit order:
        // a gap would shift every later index onto the wrong reply slot.
        assert_eq!(token, self.base + self.slots.len() as u64);
        self.slots.push_back(target);
    }

    fn take(&mut self, token: u64) -> TokenTarget {
        let slot = token
            .checked_sub(self.base)
            .and_then(|index| self.slots.get_mut(index as usize));
        let Some(slot) = slot else {
            return TokenTarget::Vacant;
        };
        let target = std::mem::replace(slot, TokenTarget::Vacant);
        while matches!(self.slots.front(), Some(TokenTarget::Vacant)) {
            self.slots.pop_front();
            self.base += 1;
        }
        target
    }

    /// Detach every in-flight operation from connection slot `conn`: the
    /// slot (and its per-connection sequence numbers) can be reused, and a
    /// late completion must not resolve against a successor connection's
    /// request of the same seq.  Writes keep their per-key accounting (the
    /// table operation still completes) but lose their reply slot.
    fn retire_connection(&mut self, conn: usize) {
        for slot in self.slots.iter_mut() {
            match slot {
                TokenTarget::Lookup { conn: c, .. } if *c == conn => *slot = TokenTarget::Vacant,
                TokenTarget::Write { reply, .. } if reply.is_some_and(|(c, _)| c == conn) => {
                    *reply = None
                }
                _ => {}
            }
        }
    }
}

/// Turn an admin status string into a typed reply (the coordinator reports
/// errors as `ERR ...` strings).
fn admin_reply(status: String) -> OutReply {
    if status.starts_with("ERR") {
        OutReply::err(ErrCode::Admin, status.as_bytes())
    } else {
        OutReply::ok_bytes(status.as_bytes())
    }
}

/// Fruitless polls of the completion rings (a memory read each) a worker
/// makes between two zero-timeout reactor waits while table operations are
/// in flight.  Sixty-four polls take a few microseconds — the longest an
/// accept or fresh request bytes can wait for the worker to look at the
/// reactor — and stand in for as many `epoll_wait` calls.
const RING_POLLS_PER_REACTOR_WAIT: u32 = 64;

/// Fruitless rounds — [`RING_POLLS_PER_REACTOR_WAIT`] polls and an empty
/// reactor wait, some ten microseconds in all — after which a worker yields
/// its CPU once per round.  A partition server on another CPU answers
/// within one round; silence for this long means it is probably waiting for
/// *this* CPU, and spinning on would burn the rest of the time slice (see
/// `IDLE_POLLS_PER_YIELD` in `cphash::server`, the other half of the
/// hand-off).  With nobody else runnable the yield returns at once.
const FRUITLESS_ROUNDS_BEFORE_YIELD: u32 = 4;

/// One CPSERVER client thread: waits for readiness on its connections,
/// drains every ready connection fully, ships the gathered requests to the
/// CPHash servers, and writes responses back.
///
/// The loop only sleeps (in the reactor) when it is *quiescent*: no
/// hash-table operations in flight, no ordered responses waiting and no
/// admin commands pending.  Everything that can unblock it from outside is
/// a readiness event — socket bytes, socket writability for back-logged
/// output, or a connection arriving on the worker's listener — so idle
/// connections cost nothing.
#[allow(clippy::too_many_arguments)] // one call site, spawned per worker
fn client_worker(
    mut handle: ClientHandle,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    batch: usize,
    admin: Option<mpsc::Sender<AdminRequest>>,
    overload_retry: Option<usize>,
    record_latency: bool,
) {
    // The listener is this worker's only source of connections; without a
    // reactor watching it the worker would be deaf forever, so fail loudly
    // at startup instead.
    let mut reactor =
        Reactor::new(Arc::clone(&metrics.frontend)).expect("creating the worker's reactor");
    reactor
        .register(raw_fd_of(&listener), LISTENER_TOKEN, false)
        .expect("registering the worker's listener on the reactor");
    let mut accepted: Vec<TcpStream> = Vec::new();
    // Connection slab: indices stay stable (they double as reactor tokens)
    // so in-flight tokens can refer to their connection even as others
    // close.
    let mut connections: Vec<Option<ConnState>> = Vec::new();
    // In-flight hash-table operations by token, plus per-key in-flight
    // write accounting, to provide read-your-writes ordering on a
    // connection: the CPHash insert is a two-phase protocol (allocate, then
    // copy + Ready), so a lookup for a key whose write is still in flight is
    // deferred until the write completes rather than racing it to the
    // server thread.
    let mut tokens = TokenRing::default();
    let mut inflight_writes: HashMap<u64, InflightWrites> = HashMap::new();
    // Resize admin commands awaiting the coordinator's answer, resolved
    // against the connection's ordered response queue like lookups.
    let mut pending_admin: Vec<(usize, u64, mpsc::Receiver<String>)> = Vec::new();
    let mut completions = Vec::with_capacity(256);
    let mut ready: Vec<usize> = Vec::with_capacity(256);
    // Connection slots whose response path must run this iteration.
    let mut touched: Vec<usize> = Vec::new();
    // Ordered responses not yet queued for writing (lookups awaiting their
    // completion, or blocked behind one that is).  While nonzero the worker
    // must keep polling the completion rings instead of sleeping.
    let mut waiting_responses: usize = 0;
    // Whether the previous iteration saw a readiness event or a completion,
    // and how many iterations in a row have skipped the reactor since.
    let mut progressed = true;
    let mut ring_polls: u32 = 0;
    let mut fruitless_rounds: u32 = 0;

    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        // Sleep only when nothing can complete without a readiness event.
        // While a resize is the *only* thing in flight (its reply arrives on
        // an mpsc channel, not an fd), nap briefly instead of hot-spinning:
        // a paced migration can take minutes.
        let quiescent =
            handle.outstanding() == 0 && pending_admin.is_empty() && waiting_responses == 0;
        let timeout = if quiescent {
            Some(Duration::from_millis(25))
        } else if handle.outstanding() == 0 && !pending_admin.is_empty() {
            Some(Duration::from_millis(1))
        } else {
            None
        };
        ready.clear();
        // With table operations in flight and nothing found at the last
        // look, the next thing to happen is almost certainly a completion,
        // and watching for it is a memory read: poll the rings a bounded
        // number of times before paying for another zero-timeout wait.
        // Any readiness event or completion sends the worker straight back
        // to the reactor, so sockets and accepts wait a few µs at most.
        if timeout.is_none()
            && !progressed
            && handle.outstanding() > 0
            && ring_polls < RING_POLLS_PER_REACTOR_WAIT
        {
            ring_polls += 1;
        } else {
            let spun_out = ring_polls == RING_POLLS_PER_REACTOR_WAIT;
            ring_polls = 0;
            // A blocking wait is announced: with nothing in flight, no
            // request reaches the partition servers until it returns, so
            // they park after a short spin instead of their full budget.
            let _ = match timeout {
                Some(_) => handle.asleep_during(|| reactor.wait(&mut ready, timeout)),
                None => reactor.wait(&mut ready, None),
            };
            if spun_out && ready.is_empty() {
                fruitless_rounds += 1;
                if fruitless_rounds >= FRUITLESS_ROUNDS_BEFORE_YIELD {
                    std::thread::yield_now();
                }
            } else {
                fruitless_rounds = 0;
            }
        }
        progressed = !ready.is_empty();
        touched.clear();

        // Adopt connections straight off this worker's own listener.
        // Adoption pushes the new tokens into `ready` mid-iteration, so a
        // connection that already has bytes buffered is served by the
        // dispatch loop just below.
        if ready.contains(&LISTENER_TOKEN) {
            drain_accepts(&listener, &mut accepted);
            for stream in accepted.drain(..) {
                let adopted = Connection::new(stream).is_ok_and(|conn| {
                    crate::connection::adopt(
                        &mut connections,
                        &mut reactor,
                        &mut ready,
                        ConnState::new(conn, record_latency),
                        |state| &state.conn,
                    )
                });
                if adopted {
                    metrics.note_connection();
                }
            }
        }

        // Drain every ready connection fully and forward its requests to
        // the hash-table servers without waiting for answers.
        for &idx in ready.iter() {
            if idx == LISTENER_TOKEN {
                continue; // drained above
            }
            let Some(state) = connections.get_mut(idx).and_then(|c| c.as_mut()) else {
                continue;
            };
            touched.push(idx);
            // One read per wake-up unless it filled the buffer, and none
            // once the window is full: the bytes stay in the socket, the
            // level-triggered reactor reports the connection again once
            // completions free the window, and the worker does not sleep
            // while operations are outstanding.
            while handle.outstanding() < batch {
                let (read, more) = state.conn.read_once();
                metrics.note_io(read, 0);
                while let Some(request) = state.conn.next_request() {
                    let ServerOpRef { kind, key, value } = request;
                    // Overload shedding: past the configured in-flight
                    // threshold, answer *lookups* with a wire-level `Retry`
                    // instead of absorbing them — the client's
                    // transparent-resubmission path (`RemoteClient`) re-sends
                    // them when the server has room again.  Writes are never
                    // shed: a resubmitted write would re-enter the pipeline
                    // *behind* later same-key operations, breaking the
                    // per-connection read-your-writes ordering the
                    // `inflight_writes` deferral machinery guarantees.  A shed
                    // lookup keeps that guarantee — resubmitted late it lands
                    // after the write it followed (or gets deferred behind it
                    // on arrival, like any other lookup).  A lookup pipelined
                    // *ahead of* a later same-key write may observe that write
                    // after resubmission; reads racing writes the client chose
                    // to pipeline behind them carry no ordering promise
                    // anywhere in this system (the in-process client's
                    // migration-retry resubmission has the same property).
                    if kind == OpKind::Lookup
                        && overload_retry.is_some_and(|threshold| handle.outstanding() >= threshold)
                    {
                        metrics.note_retry_emitted();
                        waiting_responses += 1;
                        let seq = state.replies.enqueue(ReplyState::Submitted);
                        state.replies.resolve(seq, OutReply::retry());
                        continue;
                    }
                    match kind {
                        OpKind::Lookup => {
                            waiting_responses += 1;
                            // Hash keys go to the table without touching
                            // the heap; a byte key is kept until the
                            // completion to verify the stored envelope.
                            let (hash, bytekey) = match key {
                                WireKeyRef::Hash(k) => (k, None),
                                WireKeyRef::Bytes(b) => (envelope::hash_key(b), Some(b.to_vec())),
                            };
                            if let Some(pending) = inflight_writes.get_mut(&hash) {
                                let seq = state.replies.enqueue(ReplyState::WaitingWrite);
                                pending.deferred.push((idx, seq, bytekey));
                            } else {
                                let seq = state.replies.enqueue(ReplyState::Submitted);
                                let token = handle.submit_lookup(hash);
                                tokens.insert(
                                    token,
                                    TokenTarget::Lookup {
                                        conn: idx,
                                        seq,
                                        bytekey,
                                    },
                                );
                            }
                        }
                        OpKind::Insert => {
                            // Byte keys are stored as §8.2 envelopes under
                            // their hash so the server can verify collisions
                            // at lookup time; hash-key values go from the
                            // receive buffer to the table in one copy.
                            let (hash, stored) = envelope::stored_form(key, value);
                            metrics.note_insert();
                            // The envelope may push a near-limit value past
                            // MAX_VALUE_BYTES; storing it would later produce
                            // replies no client decoder accepts.  Refuse
                            // up-front.
                            waiting_responses += 1;
                            let seq = state.replies.enqueue(ReplyState::Submitted);
                            if stored.len() > cphash_kvproto::MAX_VALUE_BYTES {
                                state.replies.resolve(
                                    seq,
                                    OutReply::err(
                                        ErrCode::Capacity,
                                        b"ERR enveloped value exceeds the protocol limit",
                                    ),
                                );
                                continue;
                            }
                            let token = handle.submit_insert(hash, &stored);
                            tokens.insert(
                                token,
                                TokenTarget::Write {
                                    key: hash,
                                    reply: Some((idx, seq)),
                                },
                            );
                            inflight_writes.entry(hash).or_default().count += 1;
                        }
                        OpKind::Delete => {
                            let hash = key.hash();
                            waiting_responses += 1;
                            let seq = state.replies.enqueue(ReplyState::Submitted);
                            let token = handle.submit_delete(hash);
                            tokens.insert(
                                token,
                                TokenTarget::Write {
                                    key: hash,
                                    reply: Some((idx, seq)),
                                },
                            );
                            inflight_writes.entry(hash).or_default().count += 1;
                            metrics.note_delete();
                        }
                        OpKind::Stats => {
                            // Admin op: resolve immediately through the ordered
                            // reply FIFO with the full metrics snapshot in
                            // Prometheus text format as the reply value.
                            metrics.note_stats();
                            waiting_responses += 1;
                            let seq = state.replies.enqueue(ReplyState::Submitted);
                            let text = metrics.render_prometheus();
                            state
                                .replies
                                .resolve(seq, OutReply::ok_bytes(text.as_bytes()));
                        }
                        OpKind::Resize => {
                            metrics.note_admin();
                            waiting_responses += 1;
                            let seq = state.replies.enqueue(ReplyState::Submitted);
                            // A byte-keyed resize is nonsense; refuse it here
                            // rather than bouncing it off the admin thread.
                            let WireKeyRef::Hash(packed) = key else {
                                state.replies.resolve(
                                    seq,
                                    OutReply::err(
                                        ErrCode::Unsupported,
                                        b"ERR resize takes a packed hash key",
                                    ),
                                );
                                continue;
                            };
                            let Some(admin) = admin.as_ref() else {
                                state.replies.resolve(
                                    seq,
                                    OutReply::err(
                                        ErrCode::Unsupported,
                                        b"ERR resize disabled (start with --max-partitions)",
                                    ),
                                );
                                continue;
                            };
                            let (reply_tx, reply_rx) = mpsc::channel();
                            let sent = admin
                                .send(AdminRequest {
                                    new_partitions: resize_partitions(packed),
                                    chunks_per_sec: resize_chunks_per_sec(packed),
                                    reply: reply_tx,
                                })
                                .is_ok();
                            if sent {
                                pending_admin.push((idx, seq, reply_rx));
                            } else {
                                state.replies.resolve(
                                    seq,
                                    OutReply::err(ErrCode::Admin, b"ERR admin unavailable"),
                                );
                            }
                        }
                    }
                }
                if !more {
                    break;
                }
            }
        }

        // Resolve finished resize commands against their connections.
        let touched_ref = &mut touched;
        pending_admin.retain(|(conn_idx, seq, reply_rx)| match reply_rx.try_recv() {
            Ok(status) => {
                if let Some(state) = connections.get_mut(*conn_idx).and_then(|c| c.as_mut()) {
                    state.replies.resolve(*seq, admin_reply(status));
                    touched_ref.push(*conn_idx);
                }
                false
            }
            Err(mpsc::TryRecvError::Empty) => true,
            Err(mpsc::TryRecvError::Disconnected) => {
                if let Some(state) = connections.get_mut(*conn_idx).and_then(|c| c.as_mut()) {
                    state.replies.resolve(
                        *seq,
                        OutReply::err(ErrCode::Admin, b"ERR admin unavailable"),
                    );
                    touched_ref.push(*conn_idx);
                }
                false
            }
        });

        // Collect hash-table completions and resolve them against the
        // per-connection ordered reply queues.
        completions.clear();
        progressed |= handle.poll(&mut completions) > 0;
        for completion in completions.drain(..) {
            let target = tokens.take(completion.token);
            match completion.kind {
                CompletionKind::LookupHit(_) | CompletionKind::LookupMiss => {
                    // Count the lookup even when its connection already
                    // retired (its target is gone and bytekey unknowable:
                    // count the raw table hit).
                    let (dest, bytekey) = match target {
                        TokenTarget::Lookup { conn, seq, bytekey } => (Some((conn, seq)), bytekey),
                        _ => (None, None),
                    };
                    // Byte-keyed lookups carry the §8.2 envelope: check the
                    // stored key and read collisions as misses.
                    let reply = match (completion.kind, bytekey) {
                        (CompletionKind::LookupHit(value), None) => OutReply::ok_value(value),
                        (CompletionKind::LookupHit(value), Some(wanted)) => {
                            match envelope::unwrap_matching(value.as_slice(), &wanted) {
                                Some(v) => OutReply::ok_bytes(v),
                                None => OutReply::miss(),
                            }
                        }
                        _ => OutReply::miss(),
                    };
                    metrics.note_lookup(reply.status == Status::Ok);
                    if let Some((conn_idx, seq)) = dest {
                        if let Some(state) = connections[conn_idx].as_mut() {
                            state.replies.resolve(seq, reply);
                            touched.push(conn_idx);
                        }
                    }
                }
                CompletionKind::Inserted
                | CompletionKind::InsertFailed
                | CompletionKind::Deleted(_)
                | CompletionKind::Failed(_) => {
                    let TokenTarget::Write { key, reply } = target else {
                        continue;
                    };
                    // Every write gets a typed answer, unless its connection
                    // has retired in the meantime.
                    if let Some((conn_idx, seq)) = reply {
                        if let Some(state) = connections.get_mut(conn_idx).and_then(|c| c.as_mut())
                        {
                            let reply = match &completion.kind {
                                CompletionKind::Inserted => OutReply::ok(),
                                CompletionKind::InsertFailed => {
                                    OutReply::err(ErrCode::Capacity, b"ERR table out of capacity")
                                }
                                CompletionKind::Deleted(true) => OutReply::ok(),
                                CompletionKind::Deleted(false) => OutReply::miss(),
                                _ => OutReply::err(ErrCode::Internal, b"ERR internal"),
                            };
                            state.replies.resolve(seq, reply);
                            touched.push(conn_idx);
                        }
                    }
                    // A finished write releases lookups for the same key
                    // that were deferred to preserve read-your-writes
                    // ordering.
                    let finished = match inflight_writes.get_mut(&key) {
                        Some(pending) => {
                            pending.count -= 1;
                            pending.count == 0
                        }
                        None => false,
                    };
                    if finished {
                        if let Some(pending) = inflight_writes.remove(&key) {
                            for (conn_idx, seq, bytekey) in pending.deferred {
                                if let Some(state) =
                                    connections.get_mut(conn_idx).and_then(|c| c.as_mut())
                                {
                                    let token = handle.submit_lookup(key);
                                    tokens.insert(
                                        token,
                                        TokenTarget::Lookup {
                                            conn: conn_idx,
                                            seq,
                                            bytekey,
                                        },
                                    );
                                    state.replies.resolve_waiting(seq);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Write out in-order responses on every connection something
        // happened to this iteration, keep the reactor's write interest in
        // sync with back-logged output, and retire closed connections.
        touched.sort_unstable();
        touched.dedup();
        for &idx in touched.iter() {
            let Some(state) = connections[idx].as_mut() else {
                continue;
            };
            waiting_responses -=
                state.flush_ready_responses(record_latency.then_some(&*metrics.latency));
            let verdict = crate::connection::settle(&mut state.conn, &mut reactor, idx, &metrics);
            if verdict == crate::connection::Settle::Retired {
                waiting_responses -= state.replies.pending.len();
                connections[idx] = None;
                tokens.retire_connection(idx);
                for pending in inflight_writes.values_mut() {
                    pending.deferred.retain(|(c, _, _)| *c != idx);
                }
                // Admin replies must die with the connection for the same
                // reason.
                pending_admin.retain(|(c, _, _)| *c != idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{KeyRef, KvClient, KvError, KvOp, OpError, RemoteClient};
    use cphash_kvproto::ReplyDecoder;
    use std::net::TcpStream;

    /// Pipeline an insert of `key -> key.to_le_bytes()` for every key and
    /// wait for all of them to be acknowledged.
    fn insert_keys(client: &mut RemoteClient, keys: std::ops::Range<u64>) {
        let expected = keys.end - keys.start;
        for key in keys {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &key.to_le_bytes()));
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        assert_eq!(completions.len() as u64, expected);
        assert!(completions
            .iter()
            .all(|c| c.kind == CompletionKind::Inserted));
    }

    /// Every key must read back the value [`insert_keys`] stored.
    fn assert_keys_hit(client: &mut RemoteClient, keys: std::ops::Range<u64>) {
        for key in keys {
            let got = client.get_blocking(KeyRef::Hash(key)).unwrap();
            assert_eq!(
                got.as_ref().map(|v| v.as_slice()),
                Some(&key.to_le_bytes()[..]),
                "key {key}"
            );
        }
    }

    /// A server-side [`ConnState`] and the client's end of its socket.
    fn conn_state_pair() -> (ConnState, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let state = ConnState::new(Connection::new(server_side).unwrap(), false);
        (state, client)
    }

    /// Flush what is ready and read the replies that went out: a hit's
    /// value, or `None` for a miss.
    fn flushed_replies(
        state: &mut ConnState,
        client: &mut TcpStream,
        decoder: &mut ReplyDecoder,
    ) -> Vec<Option<Vec<u8>>> {
        let ready = state.flush_ready_responses(None);
        while state.conn.pending_output() > 0 {
            state.conn.flush();
        }
        let mut replies = Vec::new();
        while replies.len() < ready {
            match decoder.next_reply().unwrap() {
                Some(reply) => replies.push((reply.status == Status::Ok).then_some(reply.value)),
                None => assert!(decoder.read_from(client).unwrap().0 > 0),
            }
        }
        replies
    }

    #[test]
    fn replies_resolve_by_index_and_leave_in_request_order() {
        let (mut state, mut client) = conn_state_pair();
        let mut decoder = ReplyDecoder::new();
        // Five requests: hit, miss, a lookup deferred behind a write, hit,
        // hit — completing in the order 3, 1, 0, (2 released) 4, 2.
        let seqs: Vec<u64> = [
            ReplyState::Submitted,
            ReplyState::Submitted,
            ReplyState::WaitingWrite,
            ReplyState::Submitted,
            ReplyState::Submitted,
        ]
        .into_iter()
        .map(|s| state.replies.enqueue(s))
        .collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);

        state.replies.resolve(3, OutReply::ok_bytes(b"r3"));
        state.replies.resolve(1, OutReply::miss());
        assert!(flushed_replies(&mut state, &mut client, &mut decoder).is_empty());
        state.replies.resolve(0, OutReply::ok_bytes(b"r0"));
        // 0 and 1 leave; 2 still waits for its write, holding 3 back.
        assert_eq!(
            flushed_replies(&mut state, &mut client, &mut decoder),
            [Some(b"r0".to_vec()), None]
        );
        // The head moved: later sequence numbers still find their entries,
        // ones already answered (or never issued) find nothing.
        state.replies.resolve(0, OutReply::ok_bytes(b"stale"));
        state
            .replies
            .resolve(99, OutReply::ok_bytes(b"never issued"));
        state.replies.resolve_waiting(2);
        assert!(matches!(
            state.replies.entry(2).unwrap().state,
            ReplyState::Submitted
        ));
        // `resolve_waiting` only ever promotes a waiting entry.
        state.replies.resolve_waiting(3);
        assert!(matches!(
            state.replies.entry(3).unwrap().state,
            ReplyState::Done(_)
        ));
        state.replies.resolve(4, OutReply::ok_bytes(b"r4"));
        assert!(flushed_replies(&mut state, &mut client, &mut decoder).is_empty());
        state.replies.resolve(2, OutReply::ok_bytes(b"r2"));
        assert_eq!(
            flushed_replies(&mut state, &mut client, &mut decoder),
            [
                Some(b"r2".to_vec()),
                Some(b"r3".to_vec()),
                Some(b"r4".to_vec())
            ]
        );
        // Drained: the next request continues the numbering.
        assert!(state.replies.pending.is_empty());
        assert_eq!(state.replies.enqueue(ReplyState::Submitted), 5);
        state.replies.resolve(5, OutReply::miss());
        assert_eq!(
            flushed_replies(&mut state, &mut client, &mut decoder),
            [None]
        );
    }

    #[test]
    fn token_ring_detaches_a_retired_slot_before_it_is_reused() {
        let lookup = |conn, seq| TokenTarget::Lookup {
            conn,
            seq,
            bytekey: None,
        };
        let mut tokens = TokenRing::default();
        // Connection slot 0 has a lookup and a write in flight, slot 1 a
        // lookup, when slot 0's peer goes away.
        tokens.insert(10, lookup(0, 0));
        tokens.insert(
            11,
            TokenTarget::Write {
                key: 9,
                reply: Some((0, 1)),
            },
        );
        tokens.insert(12, lookup(1, 0));
        tokens.retire_connection(0);
        // A new connection reuses slot 0 and its sequence numbers start
        // over, so its first request is (0, 0) again.
        tokens.insert(13, lookup(0, 0));

        // The late completions of the old connection resolve nothing; the
        // write keeps its key (per-key accounting must still balance).
        assert!(matches!(tokens.take(10), TokenTarget::Vacant));
        assert!(matches!(
            tokens.take(11),
            TokenTarget::Write {
                key: 9,
                reply: None
            }
        ));
        // Out-of-order completion, then a duplicate and an unknown token.
        assert!(matches!(
            tokens.take(13),
            TokenTarget::Lookup {
                conn: 0,
                seq: 0,
                ..
            }
        ));
        assert!(matches!(tokens.take(13), TokenTarget::Vacant));
        assert!(matches!(tokens.take(500), TokenTarget::Vacant));
        assert!(matches!(tokens.take(3), TokenTarget::Vacant));
        assert!(matches!(
            tokens.take(12),
            TokenTarget::Lookup { conn: 1, .. }
        ));
        // Everything completed: the ring is empty and restarts wherever
        // the next token says.
        assert!(tokens.slots.is_empty());
        tokens.insert(14, lookup(1, 1));
        assert_eq!((tokens.base, tokens.slots.len()), (14, 1));
    }

    #[test]
    fn serves_inserts_and_lookups_over_tcp() {
        let mut server = CpServer::start(CpServerConfig::default()).unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();

        // Miss first, then insert and hit: the lookup travels the same
        // connection as the insert, so ordering holds.
        assert_eq!(client.get_blocking(KeyRef::Hash(99)).unwrap(), None);
        assert!(client
            .insert_blocking(KeyRef::Hash(99), b"cached value")
            .unwrap());
        let got = client.get_blocking(KeyRef::Hash(99)).unwrap();
        assert_eq!(got.unwrap().as_slice(), b"cached value");

        assert!(server.metrics().requests() >= 3);
        assert!(server.table_stats().inserts >= 1 || server.metrics().requests() >= 3);
        server.shutdown();
    }

    #[test]
    fn many_connections_and_interleaved_clients() {
        let mut server = CpServer::start(CpServerConfig {
            client_threads: 2,
            partitions: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).unwrap();
                    let keys = t * 1_000..t * 1_000 + 200;
                    insert_keys(&mut client, keys.clone());
                    assert_keys_hit(&mut client, keys);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.metrics().hit_rate() > 0.99);
        server.shutdown();
    }

    #[test]
    fn overloaded_server_sheds_with_wire_level_retry() {
        // Threshold 1: any pipelined read depth beyond a single in-flight
        // op is answered with a wire-level Retry, which RemoteClient
        // resubmits transparently — so every operation still completes
        // correctly.  Writes are never shed.
        let mut server = CpServer::start(CpServerConfig {
            overload_retry: Some(1),
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        assert_eq!(client.protocol_version(), 2);
        const N: u64 = 400;
        for key in 0..N {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &key.to_le_bytes()));
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        assert_eq!(completions.len(), N as usize);
        // A deep pipeline of lookups crosses the shed threshold; every one
        // must still complete as the correct hit.
        for key in 0..N {
            client.submit(KvOp::Get(KeyRef::Hash(key)));
        }
        completions.clear();
        client.drain_completions(&mut completions).unwrap();
        assert_eq!(completions.len(), N as usize);
        for completion in &completions {
            assert!(
                matches!(completion.kind, CompletionKind::LookupHit(_)),
                "shed lookup completed as {:?}",
                completion.kind
            );
        }
        assert!(
            server.metrics().retries_emitted() > 0,
            "a deeply pipelined reader must have been shed at least once"
        );
        assert!(
            client.retries() > 0,
            "the client must have resubmitted shed operations"
        );
        server.shutdown();
    }

    #[test]
    fn shedding_preserves_read_your_writes_ordering() {
        // Interleaved dependent pairs under a shed-happy server: a lookup
        // pipelined right behind its own key's insert must never observe a
        // miss (writes are not shed, and a shed lookup resubmits *after*
        // the write, where the inflight-write deferral still covers it).
        let mut server = CpServer::start(CpServerConfig {
            overload_retry: Some(1),
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        assert_eq!(client.protocol_version(), 2);
        let mut get_tokens = Vec::new();
        for key in 0..200u64 {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &(key ^ 0xAB).to_le_bytes()));
            get_tokens.push((key, client.submit(KvOp::Get(KeyRef::Hash(key)))));
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        for (key, token) in get_tokens {
            let completion = completions
                .iter()
                .find(|c| c.token == token)
                .expect("completion for the read");
            match &completion.kind {
                CompletionKind::LookupHit(v) => {
                    assert_eq!(v.as_slice(), (key ^ 0xAB).to_le_bytes(), "key {key}")
                }
                other => panic!("read-after-write of key {key} completed as {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn batch_pipeline_counters_are_visible_through_metrics() {
        let mut server = CpServer::start(CpServerConfig {
            batch_size: 16,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..500);
        assert_keys_hit(&mut client, 0..500);
        let batch = server.metrics().batch_stats();
        assert!(batch.batches > 0, "staged rounds must have run: {batch:?}");
        assert!(batch.ops >= 1_000, "every data op runs batched: {batch:?}");
        assert!(batch.avg_occupancy() >= 1.0);
        server.shutdown();
    }

    #[test]
    fn latency_feedback_resize_completes_and_samples_the_window() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            migration_pacing: MigrationPacing::FeedbackLatency {
                chunks_per_sec: 5_000.0,
                high_p99_us: 50_000.0,
                low_p99_us: 10_000.0,
            },
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..300);
        // Lookups populate the latency window the pacer samples.
        assert_keys_hit(&mut client, 0..300);
        let status = client.admin_resize(4, 0).unwrap();
        assert!(
            status.starts_with("partitions=4"),
            "unexpected status {status:?}"
        );
        // Every key survives the latency-paced transition.
        assert_keys_hit(&mut client, 0..300);
        server.shutdown();
    }

    #[test]
    fn static_servers_refuse_resize_frames() {
        // Default config: max_partitions == 0, table declared static.
        let mut server = CpServer::start(CpServerConfig::default()).unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        // Even a *shrink* (which the router could technically satisfy) must
        // be refused on a static table.
        assert_eq!(
            client.admin_resize(1, 0),
            Err(KvError::Op(OpError::Unsupported))
        );
        // The data path is unaffected.
        insert_keys(&mut client, 5..6);
        assert_keys_hit(&mut client, 5..6);
        server.shutdown();
    }

    #[test]
    fn paced_resize_over_the_wire_reports_paced_waits() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..200);
        // Resize 2 -> 4 with an explicit budget of 250 chunk hand-offs/sec
        // (64 chunks ≈ 256 ms minimum — well above the unpaced hand-off
        // latency, so the bucket must actually delay), overriding the
        // server's default (unpaced) configuration.
        let status = client.admin_resize(4, 250).unwrap();
        assert!(
            status.starts_with("partitions=4"),
            "unexpected status {status:?}"
        );
        let paced_waits: u64 = status
            .split_whitespace()
            .find_map(|f| f.strip_prefix("paced_waits="))
            .expect("status reports paced_waits")
            .parse()
            .unwrap();
        assert!(
            paced_waits > 0,
            "a finite budget must delay some hand-offs: {status:?}"
        );
        // Data still intact after the paced transition.
        assert_keys_hit(&mut client, 0..200);
        server.shutdown();
    }

    #[test]
    fn resize_admin_command_repartitions_the_live_server() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();

        // Populate, then resize 2 -> 4 over the wire.
        insert_keys(&mut client, 0..500);
        let status = client.admin_resize(4, 0).unwrap();
        assert!(
            status.starts_with("partitions=4"),
            "unexpected status {status:?}"
        );
        // Every key must still be served after the live repartition.
        assert_keys_hit(&mut client, 0..500);

        // Out-of-range resizes report errors over the wire.
        assert_eq!(client.admin_resize(64, 0), Err(KvError::Op(OpError::Admin)));
        assert_eq!(server.metrics().snapshot().admin_commands, 2);
        server.shutdown();
    }
}
