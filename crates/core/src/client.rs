//! The client handle: routes operations to the owning server thread and
//! manages the asynchronous request pipeline.
//!
//! "Applications use CPHASH by having client threads that communicate with
//! the server threads and send operations using message passing" (§3).  The
//! key to CPHash's throughput is that this communication is *asynchronous*:
//! a client queues batches of requests to many servers and keeps working
//! while they are served (§3.4), which both hides communication latency and
//! lets several messages share each cache-line transfer.
//!
//! [`ClientHandle`] exposes both styles:
//!
//! * a **pipelined API** — [`ClientHandle::submit_lookup`] /
//!   [`ClientHandle::submit_insert`] / [`ClientHandle::submit_delete`] queue
//!   operations and [`ClientHandle::poll`] collects [`Completion`]s as
//!   servers answer; this is what the benchmarks and CPSERVER use;
//! * a **synchronous API** — [`ClientHandle::get`], [`ClientHandle::insert`],
//!   [`ClientHandle::delete`] — implemented on top of the pipeline, for
//!   straightforward callers (the quickstart example, tests).
//!
//! Per-key order across a routing change is `write_order.rs`'s.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cphash_cacheline::{CacheAligned, CACHE_LINE_SIZE};
use cphash_channel::DuplexClient;
use cphash_hashcore::{InlineValue, INLINE_VALUE_BYTES, MAX_KEY};
use cphash_perfmon::trace::TraceStage;
use cphash_perfmon::StageSpan;
use cphash_sync::atomic::plain::{AtomicBool, Ordering};

use crate::kv::SpinThenYield;
use crate::protocol::{encode, Request, Response};
use crate::router::EpochRouter;
use crate::write_order::WriteOrder;

/// Upper bound on outstanding response-bearing operations per lane, `room`:
/// a quarter of the ring.  `dispatch` keeps it, so a server tracks as many
/// reservations per lane (`LaneReservations`), and it is what lets both
/// directions of a lane send without ever waiting.
///
/// * **A reply always has room.**  Every reply still unread on a lane
///   answers an operation still pending, so at most `room` < ring are.
/// * **A request never stalls.**  A lane's words not yet read by its server
///   — in the ring or still staged — are at most `room` pending operations
///   × 2 words, plus at most `room` `Ready` / `Decref` words: a follow-up
///   word behind the server's read position answers a reply to an
///   operation that was pending when that position was written, and each
///   operation sends at most one.  With the ring at least 64 slots
///   (`CpHashConfig::validate`) that is at most ¾ of it, so a round's
///   words, handed over whole (`ClientHandle::push_outgoing`), fit as soon
///   as the server has read what came before them.
pub(crate) fn outstanding_per_lane(ring_capacity: usize) -> usize {
    (ring_capacity / 4).max(8)
}

/// A client's "asleep" flag: raised while the client is blocked with
/// nothing in flight (see [`ClientHandle::asleep_during`]) and for good once
/// the handle is dropped; every server reads it at its idle yield points.
pub(crate) type SleepFlag = Arc<CacheAligned<AtomicBool>>;

/// Errors surfaced by the client API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The server thread for the key's partition has shut down.
    ServerGone,
    /// The key uses more than 60 bits.
    KeyTooLarge,
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::ServerGone => f.write_str("server thread has shut down"),
            TableError::KeyTooLarge => f.write_str("keys are limited to 60 bits"),
        }
    }
}

impl std::error::Error for TableError {}

/// Value bytes returned by a completed lookup.  Values up to 16 bytes are
/// stored inline (the microbenchmark's 8-byte values never allocate);
/// larger values are heap-allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueBytes {
    /// Small value stored inline.
    Inline {
        /// Number of valid bytes in `data`.
        len: u8,
        /// The bytes (only the first `len` are meaningful).
        data: [u8; 16],
    },
    /// Larger value on the heap.
    Heap(Vec<u8>),
}

impl ValueBytes {
    /// Build from a byte slice.
    #[inline]
    pub fn from_slice(bytes: &[u8]) -> ValueBytes {
        if bytes.len() <= 16 {
            let mut data = [0u8; 16];
            data[..bytes.len()].copy_from_slice(bytes);
            ValueBytes::Inline {
                len: bytes.len() as u8,
                data,
            }
        } else {
            ValueBytes::Heap(bytes.to_vec())
        }
    }

    /// View the bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ValueBytes::Inline { len, data } => &data[..*len as usize],
            ValueBytes::Heap(v) => v.as_slice(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Is the value empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value by value, if it is short enough to ride in a message word
    /// (fixed-size moves only: this is on the submit path of every insert).
    fn as_inline(&self) -> Option<InlineValue> {
        match self {
            ValueBytes::Inline { len, data } if *len as usize <= INLINE_VALUE_BYTES => {
                let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = *data;
                let word = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
                Some(InlineValue::from_word(word, *len as usize))
            }
            _ => None,
        }
    }
}

impl From<InlineValue> for ValueBytes {
    fn from(value: InlineValue) -> ValueBytes {
        let mut data = [0u8; 16];
        data[..INLINE_VALUE_BYTES].copy_from_slice(&value.word().to_le_bytes());
        ValueBytes::Inline {
            len: value.len() as u8,
            data,
        }
    }
}

/// Why an operation failed with [`CompletionKind::Failed`].  Mirrors the
/// wire protocol's `Err{code}` (`cphash_kvproto::ErrCode`) so remote and
/// in-process backends report failures through one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The table could not make room.
    Capacity,
    /// The backend does not support this operation (e.g. RESIZE on a
    /// statically sized table).
    Unsupported,
    /// The admin path rejected or could not complete the request.
    Admin,
    /// Internal backend error.
    Internal,
    /// A wire error code this client does not know.
    Other(u8),
}

impl From<cphash_kvproto::ErrCode> for OpError {
    fn from(code: cphash_kvproto::ErrCode) -> OpError {
        use cphash_kvproto::ErrCode;
        match code {
            ErrCode::Capacity => OpError::Capacity,
            ErrCode::Unsupported => OpError::Unsupported,
            ErrCode::Admin => OpError::Admin,
            ErrCode::None | ErrCode::Internal => OpError::Internal,
            ErrCode::Other(b) => OpError::Other(b),
        }
    }
}

impl core::fmt::Display for OpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OpError::Capacity => f.write_str("out of capacity"),
            OpError::Unsupported => f.write_str("operation unsupported by this backend"),
            OpError::Admin => f.write_str("admin error"),
            OpError::Internal => f.write_str("internal error"),
            OpError::Other(b) => write!(f, "error code {b}"),
        }
    }
}

/// Outcome of one pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionKind {
    /// Lookup found the key; the value bytes were copied out.
    LookupHit(ValueBytes),
    /// Lookup did not find the key.
    LookupMiss,
    /// Insert completed (value copied and published).
    Inserted,
    /// Insert failed (value larger than the partition, or the partition is
    /// full of referenced elements).
    InsertFailed,
    /// Delete completed; the payload says whether the key was present.
    Deleted(bool),
    /// The operation failed outright (remote backends: a typed wire error).
    Failed(OpError),
}

/// A completed pipelined operation: the token returned by the submit call
/// plus its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Token returned by the corresponding `submit_*` call.
    pub token: u64,
    /// What happened.
    pub kind: CompletionKind,
}

/// One queued operation awaiting its response (per lane, FIFO). The key is
/// kept so a *retry* response (the owning partition changed under live
/// re-partitioning) can resubmit the operation to its new owner.
#[derive(Clone)]
pub(crate) struct Pending {
    pub(crate) token: u64,
    pub(crate) key: u64,
    pub(crate) op: Op,
}

/// What a [`Pending`] operation does.
#[derive(Clone)]
pub(crate) enum Op {
    Lookup,
    Insert(ValueBytes),
    Delete,
}

impl Pending {
    /// The key, if this is a write (insert or delete).
    pub(crate) fn write_key(&self) -> Option<u64> {
        (!matches!(self.op, Op::Lookup)).then_some(self.key)
    }
}

/// Cheap fixed hasher for the client's per-key and per-token maps.  They
/// are client-local and keyed by `u64`, so SipHash's DoS resistance buys
/// nothing on this hot path; one splitmix-style mix is plenty.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the map only ever hashes u64 keys.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_u64(&mut self, mut x: u64) {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = x ^ (x >> 31);
    }
}

/// A `u64`-keyed map hashed with [`KeyHasher`].
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Per-server communication lane and its bookkeeping.
struct Lane {
    channel: DuplexClient<u64, Response>,
    /// Request words not yet accepted by the ring; the next pump hands them
    /// over whole, in one batch (`ClientHandle::push_outgoing`).
    outgoing: Vec<u64>,
    /// Response-bearing operations routed here, in request order; the last
    /// `unsent` of them wait for room (see `Lane::send_waiting`).
    pending: VecDeque<Pending>,
    unsent: usize,
}

impl Lane {
    /// Queue the request words of `pending`.
    fn encode_into(outgoing: &mut Vec<u64>, pending: &Pending) {
        let key = pending.key;
        let (w0, w1) = encode(&match &pending.op {
            Op::Lookup => Request::Lookup { key },
            // The length alone decides: a value that fits a message word
            // rides in the request, anything longer is reserved and then
            // copied through the pointer the server answers with.
            Op::Insert(value) => match value.as_inline() {
                Some(value) => Request::InsertInline { key, value },
                None => Request::Insert {
                    key,
                    size: value.len() as u64,
                },
            },
            Op::Delete => Request::Delete { key },
        });
        outgoing.push(w0);
        outgoing.extend(w1);
    }

    /// Send the operations that wait, oldest first, while fewer than `room`
    /// are in flight.  As a `Ready` leaves ahead of every later operation, a
    /// lane never has more reservations awaiting one than `room` either.
    fn send_waiting(&mut self, room: usize) {
        while self.unsent > 0 && self.pending.len() - self.unsent < room {
            let waiting = &self.pending[self.pending.len() - self.unsent];
            Self::encode_into(&mut self.outgoing, waiting);
            self.unsent -= 1;
        }
    }
}

/// A client handle bound to one CPHash table.
///
/// Handles are independent (each owns its own message lanes), `Send`, and
/// intended to be used by exactly one application thread at a time — in the
/// paper's deployment, one per client hardware thread.
pub struct ClientHandle {
    lanes: Vec<Lane>,
    router: Arc<EpochRouter>,
    next_token: u64,
    outstanding: usize,
    room: usize,
    /// Completions produced while waiting inside the synchronous API, kept
    /// for the next `poll`.
    stashed: VecDeque<Completion>,
    /// Scratch buffer for draining responses.
    resp_buf: Vec<Response>,
    /// Operations redirected by retry responses during live
    /// re-partitioning (diagnostic counter).
    retries: u64,
    /// Per-key ordering across a routing change (`write_order.rs`).
    order: WriteOrder,
    /// Byte-string keys of the [`crate::KvClient`] impl's lookups, by
    /// token: their raw completions carry the §8.2 envelope and are
    /// translated (collision check included) by its poll.
    pub(crate) anykey_gets: U64Map<Vec<u8>>,
    /// Raised by [`ClientHandle::asleep_during`] and by `Drop`; shared with
    /// every server this handle has a lane to.
    asleep: SleepFlag,
}

impl ClientHandle {
    pub(crate) fn new(
        lanes: Vec<DuplexClient<u64, Response>>,
        ring_capacity: usize,
        router: Arc<EpochRouter>,
        asleep: SleepFlag,
    ) -> Self {
        let lanes = lanes.into_iter().map(|channel| Lane {
            channel,
            outgoing: Vec::new(),
            pending: VecDeque::new(),
            unsent: 0,
        });
        ClientHandle {
            lanes: lanes.collect(),
            order: WriteOrder::new(router.chunks()),
            router,
            next_token: 1,
            outstanding: 0,
            room: outstanding_per_lane(ring_capacity),
            stashed: VecDeque::new(),
            resp_buf: Vec::with_capacity(256),
            retries: 0,
            anykey_gets: U64Map::default(),
            asleep,
        }
    }

    /// Are all server threads still alive?
    pub fn servers_alive(&self) -> bool {
        self.lanes.iter().all(|l| l.channel.is_server_alive())
    }

    /// Number of *active* partitions in the table (the target count while a
    /// re-partitioning is in flight).
    pub fn partitions(&self) -> usize {
        self.router.active_partitions()
    }

    /// Operations that were redirected to another partition by live
    /// re-partitioning since this handle was created.
    pub fn migration_retries(&self) -> u64 {
        self.retries
    }

    /// Writes that were held back to preserve per-key write ordering since
    /// this handle was created (each deferred write counts once).
    pub fn write_deferrals(&self) -> u64 {
        self.order.deferred
    }

    /// Number of submitted operations whose completion has not yet been
    /// returned by [`ClientHandle::poll`].
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Run `blocking` — a call that puts this thread to sleep, such as a
    /// reactor wait with a timeout — with the handle announced asleep, and
    /// take the announcement down when it returns.
    ///
    /// While every client of a server is announced asleep, nothing can
    /// reach that server until one of them wakes, so it parks after a short
    /// spin instead of its full idle budget (see `server.rs`).  The
    /// announcement is advisory: a server that reads it late parks a little
    /// later or earlier, and a request flushed meanwhile still rings its
    /// doorbell, so nothing is lost.  Call it only with nothing in flight
    /// and only around a blocking call — a raised flag beside a busy loop
    /// sends the servers to sleep under the loop's feet.
    pub fn asleep_during<R>(&self, blocking: impl FnOnce() -> R) -> R {
        debug_assert_eq!(self.outstanding, 0, "asleep with operations in flight");
        // relaxed: advisory flag; a stale read moves a park, never loses a message
        self.asleep.store(true, Ordering::Relaxed);
        let result = blocking();
        // relaxed: advisory flag; a stale read moves a park, never loses a message
        self.asleep.store(false, Ordering::Relaxed);
        result
    }

    /// A soft bound on how many operations should be left outstanding before
    /// calling [`ClientHandle::poll`]; derived from the ring capacity
    /// (the paper uses ~1,000 outstanding requests per client, §6.1).
    pub fn recommended_window(&self) -> usize {
        self.room * self.lanes.len() / 2
    }

    // ------------------------------------------------------------------
    // Pipelined API
    // ------------------------------------------------------------------

    /// Queue a lookup. Returns the token its [`Completion`] will carry.
    pub fn submit_lookup(&mut self, key: u64) -> u64 {
        self.submit_pending(key, Op::Lookup)
    }

    /// Queue an insert of `value` under `key`.
    pub fn submit_insert(&mut self, key: u64, value: &[u8]) -> u64 {
        self.submit_pending(key, Op::Insert(ValueBytes::from_slice(value)))
    }

    /// Queue a delete.
    pub fn submit_delete(&mut self, key: u64) -> u64 {
        self.submit_pending(key, Op::Delete)
    }

    /// Queue an operation on its lane — unless the write order holds it back
    /// across a routing change — and return its token.
    #[inline]
    fn submit_pending(&mut self, key: u64, op: Op) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let pending = Pending {
            token,
            key: key & MAX_KEY,
            op,
        };
        self.outstanding += 1;
        let snap = self.router.snapshot();
        let in_flight = self.lanes.iter().flat_map(|lane| &lane.pending);
        let now = self.order.submit(&snap, pending, in_flight);
        if !self.order.released.is_empty() {
            self.dispatch_released();
        }
        if let Some((lane_idx, pending)) = now {
            Self::dispatch(&mut self.lanes, self.room, lane_idx, pending);
            if self.lanes[lane_idx].pending.len() >= self.room {
                // A full lane: pump it, so operations queued between polls move.
                let mut spill = Vec::new();
                self.pump(lane_idx..lane_idx + 1, &mut spill);
                self.stashed.extend(spill);
            }
        }
        token
    }

    /// Push queued requests towards the servers and collect any completions
    /// into `out`.  Returns the number of completions appended.
    ///
    /// This is non-blocking: if no responses have arrived yet it simply
    /// returns 0.
    pub fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        let before = out.len();
        out.extend(self.stashed.drain(..));
        self.pump(0..self.lanes.len(), out);
        out.len() - before
    }

    /// One round of progress on `lanes` (see `pump_lane`), then settle the
    /// round with the write order: bounced operations go out again, keeping
    /// their token, so callers never observe the redirect.
    fn pump(&mut self, lanes: core::ops::Range<usize>, out: &mut Vec<Completion>) {
        for lane_idx in lanes {
            Self::pump_lane(
                &mut self.lanes[lane_idx],
                self.room,
                &mut self.resp_buf,
                &mut self.outstanding,
                out,
                &mut self.order,
            );
        }
        if !self.order.is_settled() {
            let snap = self.router.snapshot();
            let in_flight = self.lanes.iter().flat_map(|lane| &lane.pending);
            self.retries += self.order.settle(&snap, in_flight) as u64;
            self.dispatch_released();
        }
    }

    /// Queue an operation on lane `dest`: every dispatch funnels through here.
    fn dispatch(lanes: &mut [Lane], room: usize, dest: usize, pending: Pending) {
        let lane = &mut lanes[dest.min(lanes.len() - 1)];
        if lane.unsent == 0 && lane.pending.len() < room {
            Lane::encode_into(&mut lane.outgoing, &pending);
        } else {
            lane.unsent += 1;
        }
        lane.pending.push_back(pending);
    }

    /// Dispatch what the write order released, in order.
    fn dispatch_released(&mut self) {
        for (dest, pending) in self.order.released.drain(..) {
            Self::dispatch(&mut self.lanes, self.room, dest, pending);
        }
    }

    /// Publish every queued request to the servers immediately (partial
    /// cache lines included).  `poll` does this as part of pumping; an
    /// explicit flush is useful right before a quiet period.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            Self::push_outgoing(lane, self.room);
            Self::flush_lane(lane);
        }
    }

    /// Block (spinning) until every outstanding operation has completed,
    /// appending completions to `out` (including any completions stashed by
    /// earlier synchronous calls).
    pub fn drain(&mut self, out: &mut Vec<Completion>) -> Result<(), TableError> {
        let mut wait = SpinThenYield::default();
        loop {
            let produced = self.poll(out);
            if self.outstanding == 0 {
                return Ok(());
            }
            if produced == 0 && !self.servers_alive() {
                return Err(TableError::ServerGone);
            }
            wait.after_poll(produced);
        }
    }

    // ------------------------------------------------------------------
    // Synchronous convenience API (built on the pipeline)
    // ------------------------------------------------------------------

    /// Look up `key`, returning its value bytes if present.
    pub fn get(&mut self, key: u64) -> Result<Option<ValueBytes>, TableError> {
        let token = self.submit_lookup(key);
        match self.wait_for(token)? {
            CompletionKind::LookupHit(v) => Ok(Some(v)),
            CompletionKind::LookupMiss => Ok(None),
            other => unreachable!("lookup completed as {other:?}"),
        }
    }

    /// Look up `key` and copy its value into `out`. Returns `true` on a hit.
    pub fn lookup(&mut self, key: u64, out: &mut Vec<u8>) -> Result<bool, TableError> {
        match self.get(key)? {
            Some(v) => {
                out.clear();
                out.extend_from_slice(v.as_slice());
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Insert `value` under `key`. Returns `false` if the table could not
    /// make room (value larger than a partition, or everything pinned).
    pub fn insert(&mut self, key: u64, value: &[u8]) -> Result<bool, TableError> {
        let token = self.submit_insert(key, value);
        match self.wait_for(token)? {
            CompletionKind::Inserted => Ok(true),
            CompletionKind::InsertFailed => Ok(false),
            other => unreachable!("insert completed as {other:?}"),
        }
    }

    /// Remove `key`. Returns whether it was present.
    pub fn delete(&mut self, key: u64) -> Result<bool, TableError> {
        let token = self.submit_delete(key);
        match self.wait_for(token)? {
            CompletionKind::Deleted(found) => Ok(found),
            other => unreachable!("delete completed as {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Wait (spinning) for a specific token, stashing every other completion
    /// for later `poll` calls.
    fn wait_for(&mut self, token: u64) -> Result<CompletionKind, TableError> {
        // The wanted completion may already have been stashed by an earlier
        // synchronous call.
        if let Some(pos) = self.stashed.iter().position(|c| c.token == token) {
            return Ok(self.stashed.remove(pos).expect("position valid").kind);
        }
        let mut buf = Vec::new();
        let mut wait = SpinThenYield::default();
        loop {
            let produced = self.poll(&mut buf);
            let found = buf.iter().position(|c| c.token == token);
            let found = found.map(|pos| buf.remove(pos).kind);
            self.stashed.extend(buf.drain(..));
            if let Some(kind) = found {
                return Ok(kind);
            }
            if !self.servers_alive() {
                return Err(TableError::ServerGone);
            }
            wait.after_poll(produced);
        }
    }

    /// Hand the outgoing words to the ring whole — one capacity check, one
    /// publish — or, when it lacks room for all of them, none, keeping them
    /// for the next round.  So a request is never visible in part, and a
    /// server that reads its first word reads the rest without waiting;
    /// `outstanding_per_lane` says why the words always fit eventually.
    fn push_outgoing(lane: &mut Lane, room: usize) {
        if lane.outgoing.is_empty() {
            return;
        }
        debug_assert!(lane.outgoing.len() <= 3 * room, "staged past ¾ of the ring");
        let span = StageSpan::begin(TraceStage::RingEnqueue);
        if lane.channel.send_batch(&lane.outgoing) {
            span.finish(lane.outgoing.len() as u32);
            lane.outgoing.clear();
        }
    }

    /// Publish the lane's queued requests, and if that woke a sleeping
    /// server, give it this CPU once.  The scheduler usually queues the
    /// woken thread behind its waker, and a caller that goes straight back
    /// to spinning for the reply (CPSERVER's worker does) would keep it
    /// waiting until the next timer tick: without the yield the open-loop
    /// p99 on a 2-CPU host was 16–59 ms instead of 1–7.
    fn flush_lane(lane: &mut Lane) {
        if lane.channel.flush() {
            std::thread::yield_now();
        }
    }

    /// One round of progress on one lane: send queued requests, drain
    /// responses, process them (which, for values that travel by pointer,
    /// queues follow-up Ready/Decref messages), send those and then what
    /// waited for room, and flush.
    /// Retry responses do not complete their operation: they and the
    /// completed writes are reported to `order`.
    fn pump_lane(
        lane: &mut Lane,
        room: usize,
        resp_buf: &mut Vec<Response>,
        outstanding: &mut usize,
        out: &mut Vec<Completion>,
        order: &mut WriteOrder,
    ) {
        // The batch is published now, so a busy server starts on the
        // requests while the responses below are processed, but rung once
        // per round, at its end: the ring's fence waits for the stores just
        // made to drain, which is a cross-core miss each time.
        Self::push_outgoing(lane, room);

        resp_buf.clear();
        if lane.channel.recv_batch(resp_buf, usize::MAX) == 0 {
            Self::flush_lane(lane);
            return;
        }
        // Batched value prefetch: every hit in this response batch carries
        // a pointer whose lines the loop below will read (lookup value copy)
        // or write (insert value copy).  Hint them all first — every line of
        // the value, not just the first — so the copies' DRAM misses overlap
        // — the client-side mirror of the server's staged bucket prefetch.
        for response in resp_buf.iter().filter(|response| response.has_value()) {
            let start = response.addr as usize;
            let end = start + response.value_size().max(1);
            for line in (start & !(CACHE_LINE_SIZE - 1)..end).step_by(CACHE_LINE_SIZE) {
                cphash_cacheline::prefetch_read(line as *const u8);
            }
        }
        for response in resp_buf.drain(..) {
            let pending = lane
                .pending
                .pop_front()
                .expect("server sent a response with nothing pending");
            let write_key = pending.write_key();
            match Self::complete(lane, pending, response) {
                Ok(completion) => {
                    *outstanding -= 1;
                    out.push(completion);
                    if let Some(key) = write_key {
                        order.finished(key);
                    }
                }
                Err((dest, bounced)) => order.bounced(dest, bounced),
            }
        }
        // Follow-up messages (Ready/Decref) generated above, then, behind
        // them, the operations that waited for room.
        lane.send_waiting(room);
        Self::push_outgoing(lane, room);
        Self::flush_lane(lane);
    }

    /// Apply a response to its pending operation, producing the completion
    /// and queueing any follow-up protocol message — or, if the key's owner
    /// moved, the partition to resubmit the operation to.
    fn complete(
        lane: &mut Lane,
        pending: Pending,
        response: Response,
    ) -> Result<Completion, (usize, Pending)> {
        if response.is_retry() {
            return Err((response.retry_destination(), pending));
        }
        let kind = match pending.op {
            Op::Lookup => match response.inline_value() {
                // The value came in the reply and the server has let go of
                // the element: nothing to read through, no `Decref`.
                Some(value) => CompletionKind::LookupHit(value.into()),
                None if response.has_value() => {
                    // SAFETY: the server incremented the element's reference
                    // count before responding, so reading `value_size` bytes
                    // at `addr` is valid until we send the Decref below, and
                    // nothing writes them meanwhile: READY values are never
                    // written again, and a NOT-READY element is this lane's
                    // own reservation, which this thread filled when it
                    // applied the reservation's reply, earlier on the lane.
                    let bytes = unsafe {
                        core::slice::from_raw_parts(
                            response.addr as *const u8,
                            response.value_size(),
                        )
                    };
                    let value = ValueBytes::from_slice(bytes);
                    let id = response.element_id();
                    lane.outgoing.push(encode(&Request::Decref { id }).0);
                    CompletionKind::LookupHit(value)
                }
                None => CompletionKind::LookupMiss,
            },
            Op::Insert(value) if response.has_value() => {
                // SAFETY: the server allocated `value_size` bytes at `addr`
                // for this reservation and will not read or free them until
                // it processes the Ready message we queue below; we are the
                // only writer.
                unsafe {
                    core::ptr::copy_nonoverlapping(
                        value.as_slice().as_ptr(),
                        response.addr as *mut u8,
                        value.len().min(response.value_size()),
                    );
                }
                let id = response.element_id();
                lane.outgoing.push(encode(&Request::Ready { id }).0);
                CompletionKind::Inserted
            }
            // No pointer: the answer to an insert that carried its value
            // (stored and published already, or not), or a refused
            // reservation.
            Op::Insert(_) if response.is_hit() => CompletionKind::Inserted,
            Op::Insert(_) => CompletionKind::InsertFailed,
            Op::Delete => CompletionKind::Deleted(response.is_hit()),
        };
        Ok(Completion {
            token: pending.token,
            kind,
        })
    }
}

impl Drop for ClientHandle {
    /// A handle that is gone sends nothing: it counts as asleep for good.
    fn drop(&mut self) {
        // relaxed: advisory flag; a stale read moves a park, never loses a message
        self.asleep.store(true, Ordering::Relaxed);
    }
}

impl core::fmt::Debug for ClientHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClientHandle")
            .field("lanes", &self.lanes.len())
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use cphash_channel::RingConfig;

    use super::*;
    use crate::protocol::OpCode;

    #[test]
    fn value_bytes_inline_and_heap() {
        let small = ValueBytes::from_slice(&[1, 2, 3]);
        assert!(matches!(small, ValueBytes::Inline { len: 3, .. }));
        assert_eq!(small.as_slice(), &[1, 2, 3]);
        assert_eq!(small.len(), 3);
        assert!(!small.is_empty());

        let empty = ValueBytes::from_slice(&[]);
        assert!(empty.is_empty());

        let big = ValueBytes::from_slice(&[7u8; 100]);
        assert!(matches!(big, ValueBytes::Heap(_)));
        assert_eq!(big.len(), 100);

        // At most 8 bytes convert to and from the message-word form; bytes
        // a caller left past `len` do not travel.
        for len in 0..=16usize {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let value = ValueBytes::from_slice(&bytes);
            match value.as_inline() {
                Some(inline) => {
                    assert!(len <= 8);
                    assert_eq!(inline.as_slice(), bytes);
                    assert_eq!(ValueBytes::from(inline), value);
                }
                None => assert!(len > 8),
            }
        }
        let dirty = ValueBytes::Inline {
            len: 2,
            data: [0xEE; 16],
        };
        assert_eq!(dirty.as_inline(), InlineValue::new(&[0xEE; 2]));
    }

    #[test]
    fn errors_display() {
        assert!(format!("{}", TableError::ServerGone).contains("shut down"));
        assert!(format!("{}", TableError::KeyTooLarge).contains("60 bits"));
    }

    #[test]
    fn the_asleep_flag_is_up_only_around_the_blocking_call_and_after_drop() {
        let asleep = SleepFlag::default();
        let lanes = vec![cphash_channel::duplex(cphash_channel::RingConfig::with_capacity(64)).0];
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let handle = ClientHandle::new(lanes, 64, router, Arc::clone(&asleep));
        let up = || asleep.load(Ordering::Relaxed); // relaxed: single-threaded test
        assert!(!up(), "a fresh handle is awake");
        assert!(handle.asleep_during(up), "raised inside the call");
        assert!(!up(), "lowered after it");
        drop(handle);
        assert!(up(), "a dropped handle counts as asleep");
    }

    /// A poll round hands its requests to the ring in one publish, and what
    /// a full ring refuses goes out, in order, at a later poll.  No server
    /// thread: the test plays the server end of a bare duplex.
    #[test]
    fn a_poll_round_publishes_its_requests_once() {
        const RING: usize = 512;
        const ROUND: u64 = 64;
        let (lane, mut server) = cphash_channel::duplex::<u64, Response>(
            cphash_channel::RingConfig::with_capacity(RING),
        );
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let mut handle = ClientHandle::new(vec![lane], RING, router, SleepFlag::default());
        let flushes = |h: &ClientHandle| h.lanes[0].channel.request_stats().flushes();
        let lookup = |key: u64| encode(&Request::Lookup { key }).0;
        let mut out = Vec::new();
        let mut next_key = 0u64;
        // Rounds that fit: each is one publish, and the server end sees the
        // round's words at once.  It answers them without consuming the
        // requests, so the ring fills up, round by round.
        for round in 1..=(RING as u64 / ROUND) {
            let before = flushes(&handle);
            for _ in 0..ROUND {
                handle.submit_lookup(next_key);
                next_key += 1;
            }
            assert_eq!(flushes(&handle), before, "submitting publishes nothing");
            handle.poll(&mut out);
            assert_eq!(flushes(&handle), before + 1, "round {round}: one publish");
            assert_eq!(server.pending_requests(), (round * ROUND) as usize);
            let misses = [Response::MISS; ROUND as usize];
            assert_eq!(server.send_batch(&misses), misses.len());
            server.flush();
            out.clear();
            handle.poll(&mut out);
            assert_eq!(out.len(), ROUND as usize);
        }
        // The ring is full: the next round's first push is refused whole and
        // publishes nothing; its words wait in the lane.
        let before = flushes(&handle);
        for _ in 0..ROUND {
            handle.submit_lookup(next_key);
            next_key += 1;
        }
        handle.poll(&mut out);
        assert_eq!(flushes(&handle), before);
        assert_eq!(server.pending_requests(), RING);
        let mut words = Vec::new();
        assert_eq!(server.recv_batch(&mut words, usize::MAX), RING);
        // Room again: the next poll publishes the rest, once, in order.
        handle.poll(&mut out);
        assert_eq!(flushes(&handle), before + 1);
        assert_eq!(server.recv_batch(&mut words, usize::MAX), ROUND as usize);
        assert_eq!(words, (0..next_key).map(lookup).collect::<Vec<u64>>());
    }

    /// A request of two words goes into a ring with one free slot whole or
    /// not at all: the server end never sees its opcode word without its
    /// value word.
    #[test]
    fn a_request_is_never_published_in_part() {
        const RING: usize = 64;
        let (lane, mut server) = cphash_channel::duplex::<u64, Response>(
            cphash_channel::RingConfig::with_capacity(RING),
        );
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let mut handle = ClientHandle::new(vec![lane], RING, router, SleepFlag::default());
        let mut out = Vec::new();
        // Fill the ring to one free slot with lookups, answered without
        // being consumed, a quarter of the ring in flight at a time.
        let room = outstanding_per_lane(RING);
        for key in 0..RING as u64 - 1 {
            handle.submit_lookup(key);
            if handle.outstanding() == room || key == RING as u64 - 2 {
                handle.poll(&mut out);
                let misses = vec![Response::MISS; handle.outstanding()];
                assert_eq!(server.send_batch(&misses), misses.len());
                handle.poll(&mut out);
            }
        }
        assert_eq!(server.pending_requests(), RING - 1);
        let flushes = handle.lanes[0].channel.request_stats().flushes();
        let value = 8u64.to_le_bytes();
        handle.submit_insert(7, &value);
        handle.poll(&mut out);
        assert_eq!(server.pending_requests(), RING - 1, "no word of the insert");
        let mut words = Vec::new();
        assert_eq!(server.recv_batch(&mut words, usize::MAX), RING - 1);
        handle.poll(&mut out);
        let published = handle.lanes[0].channel.request_stats().flushes() - flushes;
        assert_eq!(published, 1, "both words in one publish");
        words.clear();
        assert_eq!(server.recv_batch(&mut words, usize::MAX), 2);
        let (w0, w1) = encode(&Request::InsertInline {
            key: 7,
            value: InlineValue::new(&value).unwrap(),
        });
        assert_eq!(words, [w0, w1.unwrap()]);
    }

    /// The stable path leaves the write order alone: 10 000 mixed operations,
    /// same-key insert pairs among them, over two bare duplexes with a
    /// router that never moves, and no operation is held and its map never
    /// allocates.  The test plays both server ends.
    #[test]
    fn a_stable_router_never_touches_the_write_order() {
        const RING: usize = 512;
        const OPS: usize = 10_000;
        const ROUND: usize = 100;
        let (lanes, mut servers): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| cphash_channel::duplex::<u64, Response>(RingConfig::with_capacity(RING)))
            .unzip();
        let router = Arc::new(EpochRouter::new(2, 64, 2));
        let mut handle = ClientHandle::new(lanes, RING, router, SleepFlag::default());
        let (mut out, mut words, mut replies) = (Vec::new(), Vec::new(), Vec::new());
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut submitted = 0;
        while submitted < OPS {
            for _ in 0..ROUND / 2 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let key = rng % 256;
                match rng >> 60 {
                    0..=5 => {
                        handle.submit_insert(key, &rng.to_le_bytes());
                        handle.submit_insert(key, &key.to_le_bytes());
                    }
                    6..=11 => {
                        handle.submit_insert(key, &rng.to_le_bytes());
                        handle.submit_lookup(key);
                    }
                    _ => {
                        handle.submit_delete(key);
                        handle.submit_lookup(key);
                    }
                }
                submitted += 2;
            }
            handle.poll(&mut out);
            for server in &mut servers {
                words.clear();
                server.recv_batch(&mut words, usize::MAX);
                let mut words = words.iter();
                replies.clear();
                while let Some(&word) = words.next() {
                    let (op, _) = crate::protocol::decode_word(word).expect("a request");
                    replies.push(match op {
                        OpCode::Lookup => Response::MISS,
                        OpCode::Delete => Response::FOUND,
                        OpCode::InsertInline | OpCode::InsertWord => {
                            words.next().expect("the value word");
                            Response::FOUND
                        }
                        other => panic!("unexpected {other:?}"),
                    });
                }
                assert_eq!(server.send_batch(&replies), replies.len());
                server.flush();
            }
            handle.poll(&mut out);
            assert_eq!(handle.outstanding(), 0);
        }
        assert_eq!(out.len(), OPS);
        assert_eq!(handle.write_deferrals(), 0, "nothing was held");
        assert_eq!(handle.order.map_capacity(), 0, "the map never allocated");
    }
}
