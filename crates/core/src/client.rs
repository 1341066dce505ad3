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

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cphash_cacheline::CacheAligned;
use cphash_channel::DuplexClient;
use cphash_hashcore::{InlineValue, INLINE_VALUE_BYTES, MAX_KEY};
use cphash_perfmon::trace::TraceStage;
use cphash_perfmon::StageSpan;
use cphash_sync::atomic::plain::{AtomicBool, Ordering};

use crate::protocol::{encode, Request, Response};
use crate::router::EpochRouter;

/// Upper bound on outstanding response-bearing operations per lane, as a
/// fraction of the ring capacity.  Keeping this below the response-ring
/// capacity guarantees the client/server pair can never deadlock with both
/// rings full.
const OUTSTANDING_FRACTION_OF_RING: usize = 4;

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
enum Pending {
    Lookup {
        token: u64,
        key: u64,
    },
    Insert {
        token: u64,
        key: u64,
        value: ValueBytes,
    },
    Delete {
        token: u64,
        key: u64,
    },
}

/// What applying a response to a pending operation produced.
enum Applied {
    /// The operation finished.
    Done(Completion),
    /// The key's owner moved; resubmit the operation to partition `dest`.
    Resubmit { dest: usize, pending: Pending },
}

/// Cheap fixed hasher for the per-key write-order map.  The map is
/// client-local and keyed by `u64`, so SipHash's DoS resistance buys
/// nothing on this hot path; one splitmix-style mix is plenty.
#[derive(Default)]
struct KeyHasher(u64);

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

type WriteOrderMap = HashMap<u64, VecDeque<Pending>, BuildHasherDefault<KeyHasher>>;

/// Per-server communication lane and its bookkeeping.
struct Lane {
    channel: DuplexClient<u64, Response>,
    /// Request words not yet accepted by the ring.
    outgoing: VecDeque<u64>,
    /// Response-bearing operations in flight, in request order.
    pending: VecDeque<Pending>,
}

impl Lane {
    fn new(channel: DuplexClient<u64, Response>) -> Self {
        Lane {
            channel,
            outgoing: VecDeque::new(),
            pending: VecDeque::new(),
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
    max_outstanding_per_lane: usize,
    /// Completions produced while waiting inside the synchronous API, kept
    /// for the next `poll`.
    stashed: VecDeque<Completion>,
    /// Scratch buffer for draining responses.
    resp_buf: Vec<Response>,
    /// Operations redirected by retry responses during live
    /// re-partitioning (diagnostic counter).
    retries: u64,
    /// Per-key write ordering. A key present in this map has exactly one
    /// response-bearing *write* (insert/delete) in flight; the queue holds
    /// later writes to the same key, dispatched one at a time as their
    /// predecessors complete.  Without this, a write that a mid-migration
    /// server bounces with a retry response could be resubmitted *after* a
    /// later pipelined write to the same key that was routed straight to the
    /// new owner — silently reinstating the older value (see
    /// `tests/pipeline_reorder.rs`).  Lookups are not serialized: the
    /// pipelined API makes no read-after-write promise, and holding reads
    /// back would penalize hot keys.
    write_order: WriteOrderMap,
    /// Writes held back (at least once) to preserve per-key write order
    /// (diagnostic counter).
    deferred_writes: u64,
    /// Byte-string keys of lookups submitted through the [`crate::kv::KvClient`]
    /// trait, by token: their raw completions carry the §8.2 envelope and
    /// are translated (collision check included) by the trait's poll.
    pub(crate) anykey_gets: HashMap<u64, Vec<u8>>,
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
        ClientHandle {
            lanes: lanes.into_iter().map(Lane::new).collect(),
            router,
            next_token: 1,
            outstanding: 0,
            max_outstanding_per_lane: (ring_capacity / OUTSTANDING_FRACTION_OF_RING).max(8),
            stashed: VecDeque::new(),
            resp_buf: Vec::with_capacity(256),
            retries: 0,
            write_order: WriteOrderMap::default(),
            deferred_writes: 0,
            anykey_gets: HashMap::new(),
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

    /// The partition that owns `key` right now — exposed so applications
    /// (CPSERVER) can group work by destination server. During a live
    /// re-partitioning the answer follows the shared epoch router.
    pub fn partition_of(&self, key: u64) -> usize {
        self.router.route(key & MAX_KEY)
    }

    /// Operations that were redirected to another partition by live
    /// re-partitioning since this handle was created.
    pub fn migration_retries(&self) -> u64 {
        self.retries
    }

    /// Writes that were held back to preserve per-key write ordering since
    /// this handle was created (each deferred write counts once).
    pub fn write_deferrals(&self) -> u64 {
        self.deferred_writes
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
        self.max_outstanding_per_lane * self.lanes.len() / 2
    }

    // ------------------------------------------------------------------
    // Pipelined API
    // ------------------------------------------------------------------

    /// Queue a lookup. Returns the token its [`Completion`] will carry.
    pub fn submit_lookup(&mut self, key: u64) -> u64 {
        let key = key & MAX_KEY;
        let token = self.take_token();
        let lane_idx = self.partition_of(key);
        let (w0, _) = encode(&Request::Lookup { key });
        let lane = &mut self.lanes[lane_idx];
        lane.pending.push_back(Pending::Lookup { token, key });
        lane.outgoing.push_back(w0);
        self.outstanding += 1;
        self.make_progress_if_backlogged(lane_idx);
        token
    }

    /// Queue an insert of `value` under `key`.
    pub fn submit_insert(&mut self, key: u64, value: &[u8]) -> u64 {
        let key = key & MAX_KEY;
        let token = self.take_token();
        self.submit_write(
            key,
            Pending::Insert {
                token,
                key,
                value: ValueBytes::from_slice(value),
            },
        );
        token
    }

    /// Queue a delete.
    pub fn submit_delete(&mut self, key: u64) -> u64 {
        let key = key & MAX_KEY;
        let token = self.take_token();
        self.submit_write(key, Pending::Delete { token, key });
        token
    }

    /// Queue a write, holding it back if an earlier write to the same key is
    /// still in flight (see the `write_order` field).
    fn submit_write(&mut self, key: u64, pending: Pending) {
        self.outstanding += 1;
        match self.write_order.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut in_flight) => {
                in_flight.get_mut().push_back(pending);
                self.deferred_writes += 1;
                return;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(VecDeque::new());
            }
        }
        let lane_idx = self.partition_of(key);
        self.dispatch(lane_idx, pending);
        self.make_progress_if_backlogged(lane_idx);
    }

    /// Push queued requests towards the servers and collect any completions
    /// into `out`.  Returns the number of completions appended.
    ///
    /// This is non-blocking: if no responses have arrived yet it simply
    /// returns 0.
    pub fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        let before = out.len();
        while let Some(c) = self.stashed.pop_front() {
            out.push(c);
        }
        let mut resubmissions: Vec<(usize, Pending)> = Vec::new();
        let mut finished_writes: Vec<u64> = Vec::new();
        for lane_idx in 0..self.lanes.len() {
            Self::pump_lane(
                &mut self.lanes[lane_idx],
                &mut self.resp_buf,
                &mut self.outstanding,
                out,
                &mut resubmissions,
                &mut finished_writes,
            );
        }
        // Operations bounced by a mid-migration server: re-encode them onto
        // the owning partition's lane (they keep their token, so callers
        // never observe the redirect).
        for (dest, pending) in resubmissions {
            self.retries += 1;
            self.dispatch(dest, pending);
        }
        self.release_deferred_writes(&finished_writes);
        out.len() - before
    }

    /// Queue an operation on a destination lane (fresh submissions, retry
    /// resubmissions and released deferred writes all funnel through here).
    fn dispatch(&mut self, dest: usize, pending: Pending) {
        let dest = dest.min(self.lanes.len() - 1);
        let lane = &mut self.lanes[dest];
        let (w0, w1) = encode(&match &pending {
            Pending::Lookup { key, .. } => Request::Lookup { key: *key },
            // The length alone decides: a value that fits a message word
            // rides in the request, anything longer is reserved and then
            // copied through the pointer the server answers with.
            Pending::Insert { key, value, .. } => match value.as_inline() {
                Some(value) => Request::InsertInline { key: *key, value },
                None => Request::Insert {
                    key: *key,
                    size: value.len() as u64,
                },
            },
            Pending::Delete { key, .. } => Request::Delete { key: *key },
        });
        lane.pending.push_back(pending);
        lane.outgoing.push_back(w0);
        if let Some(w1) = w1 {
            lane.outgoing.push_back(w1);
        }
    }

    /// For every completed write, either dispatch the next deferred write to
    /// the key's *current* owner or clear the key's in-flight marker.
    fn release_deferred_writes(&mut self, finished: &[u64]) {
        for &key in finished {
            let next = match self.write_order.get_mut(&key) {
                Some(queue) => queue.pop_front(),
                None => continue,
            };
            match next {
                Some(pending) => {
                    let dest = self.partition_of(key);
                    self.dispatch(dest, pending);
                }
                None => {
                    self.write_order.remove(&key);
                }
            }
        }
    }

    /// Publish every queued request to the servers immediately (partial
    /// cache lines included).  `poll` does this as part of pumping; an
    /// explicit flush is useful right before a quiet period.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            Self::push_outgoing(lane);
            Self::flush_lane(lane);
        }
    }

    /// Block (spinning) until every outstanding operation has completed,
    /// appending completions to `out` (including any completions stashed by
    /// earlier synchronous calls).
    pub fn drain(&mut self, out: &mut Vec<Completion>) -> Result<(), TableError> {
        let mut idle: u32 = 0;
        loop {
            let produced = self.poll(out);
            if self.outstanding == 0 {
                return Ok(());
            }
            if produced == 0 {
                if self.lanes.iter().any(|l| !l.channel.is_server_alive()) {
                    return Err(TableError::ServerGone);
                }
                idle = idle.saturating_add(1);
                if idle > 128 {
                    // On oversubscribed hosts the server may need our core.
                    std::thread::yield_now();
                } else {
                    core::hint::spin_loop();
                }
            } else {
                idle = 0;
            }
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

    fn take_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// If a lane has accumulated a deep backlog, push requests and drain
    /// responses so the rings never overflow no matter how many operations
    /// the caller queues between polls.
    fn make_progress_if_backlogged(&mut self, lane_idx: usize) {
        if self.lanes[lane_idx].pending.len() < self.max_outstanding_per_lane {
            return;
        }
        let mut spill = Vec::new();
        let mut resubmissions = Vec::new();
        let mut finished_writes = Vec::new();
        Self::pump_lane(
            &mut self.lanes[lane_idx],
            &mut self.resp_buf,
            &mut self.outstanding,
            &mut spill,
            &mut resubmissions,
            &mut finished_writes,
        );
        self.stashed.extend(spill);
        for (dest, pending) in resubmissions {
            self.retries += 1;
            self.dispatch(dest, pending);
        }
        self.release_deferred_writes(&finished_writes);
    }

    /// Wait (spinning) for a specific token, stashing every other completion
    /// for later `poll` calls.
    fn wait_for(&mut self, token: u64) -> Result<CompletionKind, TableError> {
        // The wanted completion may already have been stashed by an earlier
        // synchronous call.
        if let Some(pos) = self.stashed.iter().position(|c| c.token == token) {
            return Ok(self.stashed.remove(pos).expect("position valid").kind);
        }
        let mut buf = Vec::new();
        let mut idle: u32 = 0;
        loop {
            buf.clear();
            let produced = self.poll(&mut buf);
            let mut found = None;
            for c in buf.drain(..) {
                if c.token == token {
                    found = Some(c.kind);
                } else {
                    self.stashed.push_back(c);
                }
            }
            if let Some(kind) = found {
                return Ok(kind);
            }
            if self.lanes.iter().any(|l| !l.channel.is_server_alive()) {
                return Err(TableError::ServerGone);
            }
            if produced == 0 {
                idle = idle.saturating_add(1);
                if idle > 128 {
                    // On oversubscribed hosts the server may need our core.
                    std::thread::yield_now();
                } else {
                    core::hint::spin_loop();
                }
            } else {
                idle = 0;
            }
        }
    }

    /// Move outgoing words into the ring (stopping when it is full) and
    /// publish them.
    fn push_outgoing(lane: &mut Lane) {
        if lane.outgoing.is_empty() {
            return;
        }
        let span = StageSpan::begin(TraceStage::RingEnqueue);
        let mut pushed = 0u32;
        while let Some(&word) = lane.outgoing.front() {
            match lane.channel.try_send(word) {
                Ok(()) => {
                    lane.outgoing.pop_front();
                    pushed += 1;
                }
                Err(_) => break,
            }
        }
        span.finish(pushed);
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
    /// queues follow-up Ready/Decref messages), send those too, and flush.
    /// Retry responses do not complete their operation; they are collected
    /// into `resubmissions` for the caller to re-route.
    fn pump_lane(
        lane: &mut Lane,
        resp_buf: &mut Vec<Response>,
        outstanding: &mut usize,
        out: &mut Vec<Completion>,
        resubmissions: &mut Vec<(usize, Pending)>,
        finished_writes: &mut Vec<u64>,
    ) {
        // Publish now so a busy server starts on the requests while the
        // responses below are processed, but ring once per round, at its
        // end: the ring's fence waits for the stores just made to drain,
        // which is a cross-core miss each time.
        Self::push_outgoing(lane);
        lane.channel.publish();

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
        for response in resp_buf.iter() {
            if response.has_value() {
                let start = response.addr as usize;
                let end = start + response.value_size().max(1);
                let mut line = start & !(cphash_cacheline::CACHE_LINE_SIZE - 1);
                while line < end {
                    cphash_cacheline::prefetch_read(line as *const u8);
                    line += cphash_cacheline::CACHE_LINE_SIZE;
                }
            }
        }
        for response in resp_buf.drain(..) {
            let pending = lane
                .pending
                .pop_front()
                .expect("server sent a response with nothing pending");
            let write_key = match &pending {
                Pending::Insert { key, .. } | Pending::Delete { key, .. } => Some(*key),
                Pending::Lookup { .. } => None,
            };
            match Self::complete(lane, pending, response) {
                Applied::Done(completion) => {
                    *outstanding -= 1;
                    out.push(completion);
                    if let Some(key) = write_key {
                        finished_writes.push(key);
                    }
                }
                Applied::Resubmit { dest, pending } => {
                    resubmissions.push((dest, pending));
                }
            }
        }
        // Follow-up messages (Ready/Decref) generated above.
        Self::push_outgoing(lane);
        Self::flush_lane(lane);
    }

    /// Apply a response to its pending operation, producing the completion
    /// (or a resubmission) and queueing any follow-up protocol message.
    fn complete(lane: &mut Lane, pending: Pending, response: Response) -> Applied {
        if response.is_retry() {
            return Applied::Resubmit {
                dest: response.retry_destination(),
                pending,
            };
        }
        Applied::Done(match pending {
            Pending::Lookup { token, .. } => {
                if let Some(value) = response.inline_value() {
                    // The value came in the reply and the server has let go
                    // of the element: nothing to read through, no `Decref`.
                    Completion {
                        token,
                        kind: CompletionKind::LookupHit(value.into()),
                    }
                } else if response.has_value() {
                    // SAFETY: the server incremented the element's reference
                    // count before responding, and READY values are never
                    // written again, so reading `value_size` bytes at `addr`
                    // is valid until we send the Decref below.
                    let bytes = unsafe {
                        core::slice::from_raw_parts(
                            response.addr as *const u8,
                            response.value_size(),
                        )
                    };
                    let value = ValueBytes::from_slice(bytes);
                    let (w0, _) = encode(&Request::Decref {
                        id: response.element_id(),
                    });
                    lane.outgoing.push_back(w0);
                    Completion {
                        token,
                        kind: CompletionKind::LookupHit(value),
                    }
                } else {
                    Completion {
                        token,
                        kind: CompletionKind::LookupMiss,
                    }
                }
            }
            Pending::Insert { token, value, .. } => {
                if response.has_value() {
                    // SAFETY: the server allocated `value_size` bytes at
                    // `addr` for this reservation and will not read or free
                    // them until it processes the Ready message we queue
                    // below; we are the only writer.
                    unsafe {
                        core::ptr::copy_nonoverlapping(
                            value.as_slice().as_ptr(),
                            response.addr as *mut u8,
                            value.len().min(response.value_size()),
                        );
                    }
                    let (w0, _) = encode(&Request::Ready {
                        id: response.element_id(),
                    });
                    lane.outgoing.push_back(w0);
                    Completion {
                        token,
                        kind: CompletionKind::Inserted,
                    }
                } else {
                    // No pointer: the answer to an insert that carried its
                    // value (stored and published already, or not), or a
                    // refused reservation.
                    Completion {
                        token,
                        kind: if response.is_hit() {
                            CompletionKind::Inserted
                        } else {
                            CompletionKind::InsertFailed
                        },
                    }
                }
            }
            Pending::Delete { token, .. } => Completion {
                token,
                kind: CompletionKind::Deleted(response.is_hit()),
            },
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
    use super::*;

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
}
