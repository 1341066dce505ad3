//! The one worker loop behind all three servers.
//!
//! CPSERVER and LOCKSERVER are the same cache server with a different table
//! behind the request loop (§4.1 vs §4.2), and the memcached-style baseline
//! is LOCKSERVER's loop over a single global lock, so one loop, [`serve`],
//! serves all three.  It reaches its table only through [`KvClient`]:
//! submit an operation, poll for its completion.  A [`cphash::ClientHandle`]
//! over the message-passing lanes already is one; a table that does its own
//! locking ([`SyncStore`]) joins through [`SyncClient`], which runs each
//! operation inside `submit`.  Servers differ in data only ([`ServeCtx`]):
//! whether RESIZE has an admin thread to go to and whether lookups are shed
//! under load.

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use cphash::{Completion, CompletionKind, KeyRef, KvClient, KvOp, ValueBytes};
use cphash_hashcore::Partition;
use cphash_kvproto::{
    envelope, resize_chunks_per_sec, resize_partitions, ErrCode, OpKind, ServerOpRef, Status,
    WireKeyRef, MAX_VALUE_BYTES,
};
use cphash_lockhash::LockHash;
use parking_lot::Mutex;

use crate::acceptor::drain_accepts;
use crate::connection::{adopt, settle, Connection};
use crate::metrics::{RequestTally, ServerMetrics};
use crate::reactor::{raw_fd_of, Reactor, LISTENER_TOKEN};

/// A table whose operations complete before the call returns; concurrency
/// control is the store's own business.
pub(crate) trait SyncStore {
    /// Copy `key`'s value into `out`; `false` on a miss.
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool;
    /// Store `value` under `key`; `false` when it cannot be made to fit.
    fn insert(&self, key: u64, value: &[u8]) -> bool;
    /// Remove `key`; `false` when it was absent.
    fn delete(&self, key: u64) -> bool;
}

impl SyncStore for LockHash {
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool {
        LockHash::lookup(self, key, out)
    }

    fn insert(&self, key: u64, value: &[u8]) -> bool {
        LockHash::insert(self, key, value)
    }

    fn delete(&self, key: u64) -> bool {
        LockHash::delete(self, key)
    }
}

/// The single global lock: every operation serializes on it.
impl SyncStore for Mutex<Partition> {
    fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool {
        self.lock().lookup_copy(key, out)
    }

    fn insert(&self, key: u64, value: &[u8]) -> bool {
        self.lock().insert_copy(key, value).is_ok()
    }

    fn delete(&self, key: u64) -> bool {
        self.lock().delete(key)
    }
}

/// Completed operations a synchronous server's worker lets pile up before
/// it stops reading and writes their replies (the paper's clients pipeline
/// ~1,000, §6.1).
const SYNC_WINDOW: usize = 1024;

/// A [`SyncStore`] as a [`KvClient`]: each operation runs inside `submit`,
/// so operations take effect in submit order, and its completion comes out
/// of the next `poll_completions`.  Byte keys are stored as §8.2 envelopes
/// and a collision reads as a miss, as in [`cphash::ClientHandle`]'s impl.
pub(crate) struct SyncClient<S> {
    store: Arc<S>,
    next_token: u64,
    done: Vec<Completion>,
    /// Lookup buffer, reused across lookups.
    value: Vec<u8>,
}

impl<S> SyncClient<S> {
    pub(crate) fn new(store: Arc<S>) -> Self {
        SyncClient {
            store,
            next_token: 0,
            done: Vec::new(),
            value: Vec::new(),
        }
    }
}

impl<S: SyncStore> KvClient for SyncClient<S> {
    fn backend(&self) -> &'static str {
        "synchronous"
    }

    fn submit(&mut self, op: KvOp<'_>) -> u64 {
        let kind = match op {
            KvOp::Get(key) => {
                let hit = self.store.lookup(key.hash(), &mut self.value);
                let value = match key {
                    _ if !hit => None,
                    KeyRef::Hash(_) => Some(&self.value[..]),
                    KeyRef::Bytes(wanted) => envelope::unwrap_matching(&self.value, wanted),
                };
                value.map_or(CompletionKind::LookupMiss, |v| {
                    CompletionKind::LookupHit(ValueBytes::from_slice(v))
                })
            }
            KvOp::Insert(key, value) => {
                let stored = match key {
                    KeyRef::Hash(_) => self.store.insert(key.hash(), value),
                    KeyRef::Bytes(b) => self
                        .store
                        .insert(key.hash(), &envelope::encode_envelope(b, value)),
                };
                if stored {
                    CompletionKind::Inserted
                } else {
                    CompletionKind::InsertFailed
                }
            }
            KvOp::Delete(key) => CompletionKind::Deleted(self.store.delete(key.hash())),
        };
        let token = self.next_token;
        self.next_token += 1;
        self.done.push(Completion { token, kind });
        token
    }

    fn poll_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let completed = self.done.len();
        // The worker polls into an empty vector: hand it the whole batch.
        if out.is_empty() {
            std::mem::swap(out, &mut self.done);
        } else {
            out.append(&mut self.done);
        }
        completed
    }

    fn pending_ops(&self) -> usize {
        self.done.len()
    }

    fn recommended_window(&self) -> usize {
        SYNC_WINDOW
    }

    fn is_alive(&self) -> bool {
        true
    }
}

/// A RESIZE on its way from a worker to the admin thread that owns the
/// table's repartition coordinator.
pub(crate) struct AdminRequest {
    pub(crate) new_partitions: usize,
    /// Per-request pacing override from the wire (`None` = the server's
    /// configured default pacing).
    pub(crate) chunks_per_sec: Option<u32>,
    pub(crate) reply: mpsc::Sender<String>,
}

/// What a server's workers share, and all that tells one server's workers
/// from another's besides the table.
#[derive(Clone)]
pub(crate) struct ServeCtx {
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Where RESIZE goes; `None` refuses it (a static table).
    pub(crate) admin: Option<mpsc::Sender<AdminRequest>>,
}

impl ServeCtx {
    /// A server with a static table.
    pub(crate) fn new(metrics: Arc<ServerMetrics>) -> Self {
        ServeCtx {
            metrics,
            admin: None,
        }
    }
}

/// A server's threads — its workers, plus any helper thread — and the flag
/// that stops them.  Dropping it stops and joins them all.
pub(crate) struct Workers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Workers {
    pub(crate) fn new() -> Self {
        Workers {
            stop: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
        }
    }

    /// The stop flag, for a helper thread to watch.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Join `thread` with the workers at shutdown.
    pub(crate) fn keep(&mut self, thread: JoinHandle<()>) {
        self.threads.push(thread);
    }

    /// Spawn a worker thread that serves `listener`'s connections through
    /// `client`.
    pub(crate) fn spawn<C: KvClient + Send + 'static>(
        &mut self,
        name: String,
        client: C,
        listener: TcpListener,
        ctx: ServeCtx,
    ) {
        let stop = self.stop_flag();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || serve(client, listener, &stop, ctx))
            .expect("spawning a worker thread");
        self.keep(thread);
    }

    /// Stop every thread and wait for it.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A reply waiting in a connection's ordered queue.  Like
/// [`cphash_kvproto::Reply`] but holding the value as [`ValueBytes`] so
/// lookup hits move the table's copy straight through to the output buffer
/// without an intermediate allocation.
struct OutReply {
    status: Status,
    code: ErrCode,
    value: ValueBytes,
}

impl OutReply {
    fn ok(value: ValueBytes) -> Self {
        OutReply {
            status: Status::Ok,
            code: ErrCode::None,
            value,
        }
    }

    /// A reply without a value: a write's `Ok` or a `Miss`.
    fn bare(status: Status) -> Self {
        OutReply {
            status,
            ..Self::ok(ValueBytes::from_slice(&[]))
        }
    }

    fn err(code: ErrCode, message: &[u8]) -> Self {
        OutReply {
            status: Status::Err,
            code,
            value: ValueBytes::from_slice(message),
        }
    }
}

/// Turn an admin status string into a typed reply (the coordinator reports
/// errors as `ERR ...` strings).
fn admin_reply(status: String) -> OutReply {
    if status.starts_with("ERR") {
        OutReply::err(ErrCode::Admin, status.as_bytes())
    } else {
        OutReply::ok(ValueBytes::from_slice(status.as_bytes()))
    }
}

fn admin_unavailable() -> OutReply {
    OutReply::err(ErrCode::Admin, b"ERR admin unavailable")
}

/// One queued response slot on a connection: the answer, once known;
/// written out when it reaches the queue head.
type PendingReply = Option<OutReply>;

/// A connection's unanswered requests in arrival order (correlation on this
/// wire is by ordering).  Sequence numbers are dense and only the head is
/// ever popped, so the entry for `seq` sits `seq - head_seq` places in:
/// resolving a reply is an index, not a scan.
struct ReplyQueue {
    next_seq: u64,
    pending: VecDeque<PendingReply>,
}

impl ReplyQueue {
    fn enqueue(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(None);
        seq
    }

    fn resolve(&mut self, seq: u64, reply: OutReply) {
        let head_seq = self.next_seq - self.pending.len() as u64;
        let entry = seq
            .checked_sub(head_seq)
            .and_then(|index| self.pending.get_mut(index as usize));
        if let Some(entry) = entry {
            *entry = Some(reply);
        }
    }
}

/// One connection plus its ordered queue of unanswered requests.
struct ConnState {
    conn: Connection,
    replies: ReplyQueue,
}

impl ConnState {
    fn new(conn: Connection) -> Self {
        ConnState {
            conn,
            replies: ReplyQueue {
                next_seq: 0,
                pending: VecDeque::new(),
            },
        }
    }

    /// Write out every response whose predecessors have all been written.
    /// Returns how many responses were queued.
    fn flush_ready_responses(&mut self) -> usize {
        let mut wrote = 0usize;
        while let Some(reply) = self.replies.pending.front_mut().and_then(Option::take) {
            self.replies.pending.pop_front();
            self.conn
                .queue_reply_parts(reply.status, reply.code, reply.value.as_slice());
            wrote += 1;
        }
        wrote
    }
}

/// A request's reply slot: connection slot and per-connection sequence
/// number.
type ReplySlot = (usize, u64);

/// Answer request `seq` on connection slot `conn`, unless the connection
/// has retired since.
fn answer(
    connections: &mut [Option<ConnState>],
    touched: &mut Vec<usize>,
    (conn, seq): ReplySlot,
    reply: OutReply,
) {
    if let Some(state) = connections.get_mut(conn).and_then(Option::as_mut) {
        state.replies.resolve(seq, reply);
        if touched.last() != Some(&conn) {
            touched.push(conn);
        }
    }
}

/// In-flight table operations by token.  Every [`KvClient`] the worker
/// drives hands out dense, monotonic tokens, so the reply slots live in a
/// ring indexed by `token - base` rather than a hash map: one slot written
/// at submit, one read at completion, and the ring's head advances past
/// finished tokens.  A slot is `None` once its token completed or its
/// connection retired.
#[derive(Default)]
struct TokenRing {
    /// Token of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<ReplySlot>>,
}

impl TokenRing {
    fn insert(&mut self, token: u64, reply: ReplySlot) {
        if self.slots.is_empty() {
            self.base = token;
        }
        // The worker records every operation it submits, in submit order:
        // a gap would shift every later index onto the wrong reply slot.
        assert_eq!(token, self.base + self.slots.len() as u64);
        self.slots.push_back(Some(reply));
    }

    fn take(&mut self, token: u64) -> Option<ReplySlot> {
        let slot = token
            .checked_sub(self.base)
            .and_then(|index| self.slots.get_mut(index as usize))?;
        let reply = slot.take();
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        reply
    }

    /// Detach every in-flight operation from connection slot `conn`: the
    /// slot (and its per-connection sequence numbers) can be reused, and a
    /// late completion must not resolve against a successor connection's
    /// request of the same seq.
    fn retire_connection(&mut self, conn: usize) {
        for slot in self.slots.iter_mut() {
            if slot.is_some_and(|(c, _)| c == conn) {
                *slot = None;
            }
        }
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

/// Serve `listener`'s connections through `client` until `stop` is raised.
///
/// The worker waits for readiness on its connections, drains every ready
/// connection, submits the requests to the table without waiting for
/// answers, and writes the responses back in request order.  It only
/// sleeps (in the reactor) when it is *quiescent*: no table operations in
/// flight, no ordered responses waiting and no admin commands pending.
/// Everything that can unblock it from outside is a readiness event —
/// socket bytes, socket writability for back-logged output, or a
/// connection arriving on the worker's listener — so idle connections cost
/// nothing.
pub(crate) fn serve<C: KvClient>(
    client: C,
    listener: TcpListener,
    stop: &AtomicBool,
    ctx: ServeCtx,
) {
    let mut worker = Worker::new(client, listener, ctx);
    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        worker.wait();
        worker.read_and_dispatch();
        worker.resolve();
        worker.flush_and_settle();
    }
}

/// The table side of a worker: the client, what is in flight through it,
/// and the server's policy for new requests.
struct Backend<C> {
    client: C,
    ctx: ServeCtx,
    /// Stop reading new requests while this many operations are in flight.
    window: usize,
    tokens: TokenRing,
    /// Resize commands awaiting the admin thread's answer, resolved against
    /// the connection's ordered reply queue like lookups.
    admin: Vec<(usize, u64, mpsc::Receiver<String>)>,
    completions: Vec<Completion>,
    /// Requests answered or submitted this iteration, published before any
    /// of their replies is written.
    tally: RequestTally,
}

impl<C: KvClient> Backend<C> {
    /// Start one request whose reply slot is `(conn, seq)`: submit it or
    /// hand it to the admin thread — or answer it on the spot, by returning
    /// the answer.
    fn dispatch(&mut self, conn: usize, seq: u64, request: ServerOpRef<'_>) -> Option<OutReply> {
        let ServerOpRef {
            kind,
            key: wire_key,
            value,
        } = request;
        let key = match wire_key {
            WireKeyRef::Hash(k) => KeyRef::Hash(k),
            WireKeyRef::Bytes(b) => KeyRef::Bytes(b),
        };
        // Per key, the client applies a connection's requests in arrival
        // order (see `cphash::KvClient`): a lookup sees the writes the
        // connection sent before it.
        let op = match kind {
            OpKind::Lookup => KvOp::Get(key),
            OpKind::Insert => {
                self.tally.inserts += 1;
                // A byte key's §8.2 envelope may push a near-limit value
                // past MAX_VALUE_BYTES; storing it would later produce
                // replies no client decoder accepts.  Refuse up-front.
                let stored = match key {
                    KeyRef::Hash(_) => value.len(),
                    KeyRef::Bytes(b) => envelope::enveloped_len(b, value.len()),
                };
                if stored > MAX_VALUE_BYTES {
                    return Some(OutReply::err(
                        ErrCode::Capacity,
                        b"ERR enveloped value exceeds the protocol limit",
                    ));
                }
                KvOp::Insert(key, value)
            }
            OpKind::Delete => {
                self.tally.deletes += 1;
                KvOp::Delete(key)
            }
            OpKind::Stats => {
                // The reply value is the full metrics snapshot in
                // Prometheus text format.  Rendering samples the partition
                // counters through the table's own locks, none of which is
                // held here.
                self.ctx.metrics.note_admin();
                let text = self.ctx.metrics.render_prometheus();
                return Some(OutReply::ok(ValueBytes::from_slice(text.as_bytes())));
            }
            OpKind::Resize => {
                self.ctx.metrics.note_admin();
                return self.resize(conn, seq, wire_key);
            }
        };
        let token = self.client.submit(op);
        self.tokens.insert(token, (conn, seq));
        None
    }

    /// Hand a RESIZE to the admin thread, or refuse it.
    fn resize(&mut self, conn: usize, seq: u64, key: WireKeyRef<'_>) -> Option<OutReply> {
        // A byte-keyed resize is nonsense; refuse it here rather than
        // bouncing it off the admin thread.
        let WireKeyRef::Hash(packed) = key else {
            return Some(OutReply::err(
                ErrCode::Unsupported,
                b"ERR resize takes a packed hash key",
            ));
        };
        let Some(admin) = &self.ctx.admin else {
            return Some(OutReply::err(
                ErrCode::Unsupported,
                b"ERR resize unsupported on a static table",
            ));
        };
        let (reply, status) = mpsc::channel();
        let request = AdminRequest {
            new_partitions: resize_partitions(packed),
            chunks_per_sec: resize_chunks_per_sec(packed),
            reply,
        };
        if admin.send(request).is_err() {
            return Some(admin_unavailable());
        }
        self.admin.push((conn, seq, status));
        None
    }
}

/// One worker's state across iterations of [`serve`]'s loop.
struct Worker<C> {
    backend: Backend<C>,
    listener: TcpListener,
    reactor: Reactor,
    accepted: Vec<TcpStream>,
    /// Connection slab: indices stay stable (they double as reactor tokens)
    /// so in-flight tokens can refer to their connection even as others
    /// close.
    connections: Vec<Option<ConnState>>,
    ready: Vec<usize>,
    /// Connection slots whose response path must run this iteration.
    touched: Vec<usize>,
    /// Ordered responses not yet queued for writing (requests awaiting
    /// their completion, or blocked behind one that is).  While nonzero the
    /// worker must keep polling for completions instead of sleeping.
    waiting_responses: usize,
    /// Whether the previous iteration saw a readiness event or a
    /// completion, and how many iterations in a row have skipped the
    /// reactor since.
    progressed: bool,
    ring_polls: u32,
    fruitless_rounds: u32,
}

impl<C: KvClient> Worker<C> {
    fn new(client: C, listener: TcpListener, ctx: ServeCtx) -> Self {
        // The listener is this worker's only source of connections; without
        // a reactor watching it the worker would be deaf forever, so fail
        // loudly at startup instead.
        let mut reactor =
            Reactor::new(Arc::clone(&ctx.metrics.frontend)).expect("creating the worker's reactor");
        reactor
            .register(raw_fd_of(&listener), LISTENER_TOKEN, false)
            .expect("registering the worker's listener on the reactor");
        Worker {
            backend: Backend {
                window: client.recommended_window(),
                client,
                ctx,
                tokens: TokenRing::default(),
                admin: Vec::new(),
                completions: Vec::with_capacity(256),
                tally: RequestTally::default(),
            },
            listener,
            reactor,
            accepted: Vec::new(),
            connections: Vec::new(),
            ready: Vec::with_capacity(256),
            touched: Vec::new(),
            waiting_responses: 0,
            progressed: true,
            ring_polls: 0,
            fruitless_rounds: 0,
        }
    }

    /// Collect readiness events, sleeping only when nothing can complete
    /// without one.
    fn wait(&mut self) {
        let in_flight = self.backend.client.pending_ops();
        // While a resize is the *only* thing in flight (its reply arrives on
        // an mpsc channel, not an fd), nap briefly instead of hot-spinning:
        // a paced migration can take minutes.
        let quiescent =
            in_flight == 0 && self.backend.admin.is_empty() && self.waiting_responses == 0;
        let timeout = if quiescent {
            Some(Duration::from_millis(25))
        } else if in_flight == 0 && !self.backend.admin.is_empty() {
            Some(Duration::from_millis(1))
        } else {
            None
        };
        self.ready.clear();
        // With table operations in flight and nothing found at the last
        // look, the next thing to happen is almost certainly a completion,
        // and watching for it is a memory read: poll the rings a bounded
        // number of times before paying for another zero-timeout wait.
        // Any readiness event or completion sends the worker straight back
        // to the reactor, so sockets and accepts wait a few µs at most.
        if timeout.is_none()
            && !self.progressed
            && in_flight > 0
            && self.ring_polls < RING_POLLS_PER_REACTOR_WAIT
        {
            self.ring_polls += 1;
        } else {
            let spun_out = self.ring_polls == RING_POLLS_PER_REACTOR_WAIT;
            self.ring_polls = 0;
            // A blocking wait is announced: with nothing in flight, no
            // request reaches the partition servers until it returns, so
            // they park after a short spin instead of their full budget.
            let (reactor, ready) = (&mut self.reactor, &mut self.ready);
            let _ = match timeout {
                Some(_) => self
                    .backend
                    .client
                    .asleep_during(|| reactor.wait(ready, timeout)),
                None => reactor.wait(ready, None),
            };
            if spun_out && self.ready.is_empty() {
                self.fruitless_rounds += 1;
                if self.fruitless_rounds >= FRUITLESS_ROUNDS_BEFORE_YIELD {
                    std::thread::yield_now();
                }
            } else {
                self.fruitless_rounds = 0;
            }
        }
        self.progressed = !self.ready.is_empty();
    }

    /// Adopt new connections, then drain every ready connection and start
    /// its requests without waiting for answers.
    fn read_and_dispatch(&mut self) {
        // Adoption pushes the new tokens into `ready`, so a connection that
        // already has bytes buffered is served just below.
        if self.ready.contains(&LISTENER_TOKEN) {
            drain_accepts(&self.listener, &mut self.accepted);
            for stream in self.accepted.drain(..) {
                let adopted = Connection::new(stream).is_ok_and(|conn| {
                    adopt(
                        &mut self.connections,
                        &mut self.reactor,
                        &mut self.ready,
                        ConnState::new(conn),
                        |state| &state.conn,
                    )
                });
                if adopted {
                    self.backend.ctx.metrics.note_connection();
                }
            }
        }

        for &idx in self.ready.iter() {
            let Some(state) = self.connections.get_mut(idx).and_then(Option::as_mut) else {
                continue; // the listener, or a connection retired since
            };
            self.touched.push(idx);
            // One read per wake-up unless it filled the buffer, and none
            // once the window is full: the bytes stay in the socket, the
            // level-triggered reactor reports the connection again once
            // completions free the window, and the worker does not sleep
            // while operations are outstanding.
            while self.backend.client.pending_ops() < self.backend.window {
                let (read, more) = state.conn.read_once();
                self.backend.ctx.metrics.note_io(read, 0);
                while let Some(request) = state.conn.next_request() {
                    self.waiting_responses += 1;
                    let seq = state.replies.enqueue();
                    if let Some(reply) = self.backend.dispatch(idx, seq, request) {
                        state.replies.resolve(seq, reply);
                    }
                }
                if !more {
                    break;
                }
            }
        }
    }

    /// Collect the admin thread's answers and the table's completions, and
    /// resolve them against the connections' ordered reply queues.
    fn resolve(&mut self) {
        let (connections, touched) = (&mut self.connections, &mut self.touched);
        self.backend.admin.retain(|(conn, seq, status)| {
            let reply = match status.try_recv() {
                Ok(status) => admin_reply(status),
                Err(mpsc::TryRecvError::Empty) => return true,
                Err(mpsc::TryRecvError::Disconnected) => admin_unavailable(),
            };
            answer(connections, touched, (*conn, *seq), reply);
            false
        });

        let backend = &mut self.backend;
        backend.completions.clear();
        self.progressed |= backend.client.poll_completions(&mut backend.completions) > 0;
        for Completion { token, kind } in backend.completions.drain(..) {
            let Some(dest) = backend.tokens.take(token) else {
                continue; // its connection retired
            };
            let reply = match kind {
                CompletionKind::LookupHit(value) => {
                    backend.tally.lookups += 1;
                    backend.tally.hits += 1;
                    OutReply::ok(value)
                }
                CompletionKind::LookupMiss => {
                    backend.tally.lookups += 1;
                    OutReply::bare(Status::Miss)
                }
                CompletionKind::Inserted | CompletionKind::Deleted(true) => {
                    OutReply::bare(Status::Ok)
                }
                CompletionKind::Deleted(false) => OutReply::bare(Status::Miss),
                CompletionKind::InsertFailed => {
                    OutReply::err(ErrCode::Capacity, b"ERR table out of capacity")
                }
                CompletionKind::Failed(_) => OutReply::err(ErrCode::Internal, b"ERR internal"),
            };
            answer(connections, touched, dest, reply);
        }
    }

    /// Write out in-order responses on every connection something happened
    /// to this iteration, keep the reactor's write interest in sync with
    /// back-logged output, and retire closed connections.
    fn flush_and_settle(&mut self) {
        self.touched.sort_unstable();
        self.touched.dedup();
        let backend = &mut self.backend;
        backend.ctx.metrics.note_requests(&mut backend.tally);
        for &idx in self.touched.iter() {
            let Some(state) = self.connections[idx].as_mut() else {
                continue;
            };
            self.waiting_responses -= state.flush_ready_responses();
            if settle(
                &mut state.conn,
                &mut self.reactor,
                idx,
                &backend.ctx.metrics,
            ) {
                self.waiting_responses -= state.replies.pending.len();
                self.connections[idx] = None;
                // Nothing may resolve against the slot once a successor
                // connection takes it.
                backend.tokens.retire_connection(idx);
                backend.admin.retain(|(c, _, _)| *c != idx);
            }
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_kvproto::envelope::{encode_envelope, hash_key};
    use cphash_kvproto::ReplyDecoder;
    use cphash_lockhash::LockHashConfig;

    /// A server-side [`ConnState`] and the client's end of its socket.
    fn conn_state_pair() -> (ConnState, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let state = ConnState::new(Connection::new(server_side).unwrap());
        (state, client)
    }

    /// Flush what is ready and read the replies that went out: a hit's
    /// value, or `None` for a miss.
    fn flushed_replies(
        state: &mut ConnState,
        client: &mut TcpStream,
        decoder: &mut ReplyDecoder,
    ) -> Vec<Option<Vec<u8>>> {
        let ready = state.flush_ready_responses();
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
        let hit = |value: &[u8]| OutReply::ok(ValueBytes::from_slice(value));
        // Five requests completing in the order 3, 1, 0, 4, 2.
        let seqs: Vec<u64> = (0..5).map(|_| state.replies.enqueue()).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);

        state.replies.resolve(3, hit(b"r3"));
        state.replies.resolve(1, OutReply::bare(Status::Miss));
        assert!(flushed_replies(&mut state, &mut client, &mut decoder).is_empty());
        state.replies.resolve(0, hit(b"r0"));
        // 0 and 1 leave; 2 is still unanswered, holding 3 back.
        assert_eq!(
            flushed_replies(&mut state, &mut client, &mut decoder),
            [Some(b"r0".to_vec()), None]
        );
        // The head moved: later sequence numbers still find their entries,
        // ones already answered (or never issued) find nothing.
        state.replies.resolve(0, hit(b"stale"));
        state.replies.resolve(99, hit(b"never issued"));
        assert_eq!(state.replies.pending.len(), 3);
        state.replies.resolve(4, hit(b"r4"));
        assert!(flushed_replies(&mut state, &mut client, &mut decoder).is_empty());
        state.replies.resolve(2, hit(b"r2"));
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
        assert_eq!(state.replies.enqueue(), 5);
        state.replies.resolve(5, OutReply::bare(Status::Miss));
        assert_eq!(
            flushed_replies(&mut state, &mut client, &mut decoder),
            [None]
        );
    }

    #[test]
    fn token_ring_detaches_a_retired_slot_before_it_is_reused() {
        let mut tokens = TokenRing::default();
        // Connection slot 0 has two operations in flight, slot 1 one, when
        // slot 0's peer goes away.
        tokens.insert(10, (0, 0));
        tokens.insert(11, (0, 1));
        tokens.insert(12, (1, 0));
        tokens.retire_connection(0);
        // A new connection reuses slot 0 and its sequence numbers start
        // over, so its first request is (0, 0) again.
        tokens.insert(13, (0, 0));

        // The late completions of the old connection resolve nothing.
        assert_eq!(tokens.take(10), None);
        assert_eq!(tokens.take(11), None);
        // Out-of-order completion, then a duplicate and an unknown token.
        assert_eq!(tokens.take(13), Some((0, 0)));
        assert_eq!(tokens.take(13), None);
        assert_eq!(tokens.take(500), None);
        assert_eq!(tokens.take(3), None);
        assert_eq!(tokens.take(12), Some((1, 0)));
        // Everything completed: the ring is empty and restarts wherever
        // the next token says.
        assert!(tokens.slots.is_empty());
        tokens.insert(14, (1, 1));
        assert_eq!((tokens.base, tokens.slots.len()), (14, 1));
    }

    #[test]
    fn sync_client_completes_each_op_on_the_next_poll_in_token_order() {
        let mut client = SyncClient::new(Arc::new(LockHash::new(LockHashConfig::new(4))));
        let hit = |v: &[u8]| CompletionKind::LookupHit(ValueBytes::from_slice(v));
        let mut out = Vec::new();
        let tokens = [
            client.submit(KvOp::Insert(KeyRef::Hash(7), b"seven")),
            client.submit(KvOp::Get(KeyRef::Hash(7))),
            client.submit(KvOp::Delete(KeyRef::Hash(7))),
            client.submit(KvOp::Delete(KeyRef::Hash(7))),
            client.submit(KvOp::Get(KeyRef::Hash(7))),
        ];
        // Dense tokens in submit order: what the worker's TokenRing needs.
        assert_eq!(tokens, [0, 1, 2, 3, 4]);
        assert_eq!(client.pending_ops(), 5);
        assert_eq!(client.poll_completions(&mut out), 5);
        assert_eq!(client.pending_ops(), 0);
        let kinds: Vec<CompletionKind> = out.drain(..).map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [
                CompletionKind::Inserted,
                hit(b"seven"),
                CompletionKind::Deleted(true),
                CompletionKind::Deleted(false),
                CompletionKind::LookupMiss,
            ]
        );
        assert_eq!(client.poll_completions(&mut out), 0);

        // Byte keys ride in the §8.2 envelope.  A different key's envelope
        // stored under the same hash is a collision and reads as a miss.
        client.submit(KvOp::Insert(KeyRef::Bytes(b"alpha"), b"a"));
        client.submit(KvOp::Get(KeyRef::Bytes(b"alpha")));
        let beta = encode_envelope(b"beta", b"b");
        client.submit(KvOp::Insert(KeyRef::Hash(hash_key(b"alpha")), &beta));
        assert_eq!(client.submit(KvOp::Get(KeyRef::Bytes(b"alpha"))), 8);
        assert_eq!(client.poll_completions(&mut out), 4);
        let kinds: Vec<CompletionKind> = out.drain(..).map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [
                CompletionKind::Inserted,
                hit(b"a"),
                CompletionKind::Inserted,
                CompletionKind::LookupMiss,
            ]
        );
    }
}
