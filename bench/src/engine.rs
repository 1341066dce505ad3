//! The load engines: a closed loop (fixed window per connection) and an
//! open loop (fixed rate steps on 1 ms ticks), both generic over the
//! backend they drive, both verifying every completion.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::time::Duration;

use cphash::{ClientHandle, Completion, CompletionKind, KeyRef, KvClient, KvOp, RemoteClient};
use cphash_kvproto::envelope;
use cphash_perfmon::cycles_now;

use crate::alloc_count::{self, AllocCounts};
use crate::gen::{check_value, fill_value, KeyKind, KeySpace, Op, OpStream};
use crate::host::{self, Usage};
use crate::span::{SpanName, SpanRecorder};
use crate::spec::TICK_US;
use crate::stats::Histogram;

/// Cycle ↔ wall-clock conversion, calibrated once per process.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Timestamp-counter ticks per second.
    pub cycles_per_second: f64,
}

impl Clock {
    /// Calibrate against the monotonic clock over `ms` milliseconds.
    pub fn calibrate(ms: u64) -> Clock {
        Clock {
            cycles_per_second: cphash_perfmon::estimate_cycles_per_second(ms),
        }
    }

    /// Cycles in `seconds`.
    pub fn cycles(&self, seconds: f64) -> u64 {
        (seconds * self.cycles_per_second) as u64
    }

    /// Microseconds in `cycles`.
    pub fn us(&self, cycles: f64) -> f64 {
        cycles / self.cycles_per_second * 1e6
    }

    /// Seconds in `cycles`.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cycles_per_second
    }
}

/// What the engines need from a client of the program under test.
pub trait Backend {
    /// Span recorded around a batch of submit calls.
    const SUBMIT: SpanName;
    /// Span recorded around a poll call.
    const POLL: SpanName;
    /// May a lookup legitimately miss while a write to its key is in
    /// flight?  (In-process inserts are two-phase: the element is
    /// invisible between allocation and `Ready`.)
    const MISS_BEHIND_WRITE_OK: bool;
    /// What the closed-loop generator does when its window is full and
    /// nothing has completed: `false` = spin then yield (in-process: the
    /// client thread *is* half of the system and owns a CPU), `true` = nap
    /// ≤ 20 µs like a blocking socket client (over TCP the generator is a
    /// third thread on two CPUs; spinning would take the servers' CPU and
    /// make throughput a function of the scheduler's mood).
    const NAP_WHEN_IDLE: bool;

    /// Queue a lookup of key `index`.
    fn get(&mut self, keys: &KeySpace, index: u32) -> u64;
    /// Queue a replacing insert of key `index`.
    fn set(&mut self, keys: &KeySpace, index: u32, value: &[u8]) -> u64;
    /// Collect completions (non-blocking).
    fn poll(&mut self, out: &mut Vec<Completion>) -> usize;
    /// Can the backend still make progress?
    fn alive(&self) -> bool;
    /// The user value inside the bytes a hit returned.
    fn unwrap<'a>(keys: &KeySpace, index: u32, stored: &'a [u8]) -> Option<&'a [u8]>;
}

/// The bytes a table stores for a value of key `index`: the value itself
/// for integer keys, the §8.2 envelope (as the servers build it) for byte
/// keys.
pub fn stored_value<'a>(keys: &KeySpace, index: u32, value: &'a [u8]) -> Cow<'a, [u8]> {
    match keys.kind() {
        KeyKind::U64 => Cow::Borrowed(value),
        KeyKind::Bytes => Cow::Owned(envelope::encode_envelope(keys.byte_key(index), value)),
    }
}

/// The user value inside the bytes a table stored for key `index`.
#[inline]
pub fn user_value<'a>(keys: &KeySpace, index: u32, stored: &'a [u8]) -> Option<&'a [u8]> {
    match keys.kind() {
        KeyKind::U64 => Some(stored),
        KeyKind::Bytes => envelope::unwrap_matching(stored, keys.byte_key(index)),
    }
}

/// The in-process client: inherent `ClientHandle` calls.  Byte keys are
/// stored the way the servers store them (hash key + §8.2 envelope).
impl Backend for ClientHandle {
    const SUBMIT: SpanName = SpanName::CoreSubmit;
    const POLL: SpanName = SpanName::CorePoll;
    const MISS_BEHIND_WRITE_OK: bool = true;
    const NAP_WHEN_IDLE: bool = false;

    #[inline]
    fn get(&mut self, keys: &KeySpace, index: u32) -> u64 {
        self.submit_lookup(keys.table_key(index))
    }

    #[inline]
    fn set(&mut self, keys: &KeySpace, index: u32, value: &[u8]) -> u64 {
        self.submit_insert(keys.table_key(index), &stored_value(keys, index, value))
    }

    #[inline]
    fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        ClientHandle::poll(self, out)
    }

    fn alive(&self) -> bool {
        self.servers_alive()
    }

    #[inline]
    fn unwrap<'a>(keys: &KeySpace, index: u32, stored: &'a [u8]) -> Option<&'a [u8]> {
        user_value(keys, index, stored)
    }
}

/// The client library users link against a `CpServer`.
impl Backend for RemoteClient {
    const SUBMIT: SpanName = SpanName::RemoteSubmit;
    const POLL: SpanName = SpanName::RemotePoll;
    const MISS_BEHIND_WRITE_OK: bool = false;
    const NAP_WHEN_IDLE: bool = true;

    #[inline]
    fn get(&mut self, keys: &KeySpace, index: u32) -> u64 {
        match keys.kind() {
            KeyKind::U64 => self.submit(KvOp::Get(KeyRef::Hash(keys.u64_key(index)))),
            KeyKind::Bytes => self.submit(KvOp::Get(KeyRef::Bytes(keys.byte_key(index)))),
        }
    }

    #[inline]
    fn set(&mut self, keys: &KeySpace, index: u32, value: &[u8]) -> u64 {
        match keys.kind() {
            KeyKind::U64 => self.submit(KvOp::Insert(KeyRef::Hash(keys.u64_key(index)), value)),
            KeyKind::Bytes => self.submit(KvOp::Insert(KeyRef::Bytes(keys.byte_key(index)), value)),
        }
    }

    #[inline]
    fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        self.poll_completions(out)
    }

    fn alive(&self) -> bool {
        self.is_alive()
    }

    #[inline]
    fn unwrap<'a>(_keys: &KeySpace, _index: u32, stored: &'a [u8]) -> Option<&'a [u8]> {
        Some(stored)
    }
}

/// Outcome counters of every operation the engines issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations whose completion arrived.
    pub completed: u64,
    /// Lookups completed.
    pub gets: u64,
    /// Lookups that hit.
    pub get_hits: u64,
    /// Inserts completed.
    pub sets: u64,
    /// Misses excused because a write to the key was in flight at submit.
    pub racing_misses: u64,
    /// Hits whose bytes are not a value of their key.
    pub wrong_bytes: u64,
    /// Hits returning a version outside [acked at submit, latest submitted].
    pub stale: u64,
    /// Misses on keys that must be present.
    pub unexpected_miss: u64,
    /// Error completions (failed / refused / wrong completion kind).
    pub errors: u64,
    /// Completions that matched no pending operation.
    pub unmatched: u64,
    /// Operations never completed (disconnect or drain timeout).
    pub lost: u64,
}

impl Counts {
    /// Operations that count against `failed_ops_ratio`.
    pub fn failed(&self) -> u64 {
        self.wrong_bytes
            + self.stale
            + self.unexpected_miss
            + self.errors
            + self.unmatched
            + self.lost
    }

    /// Add another set of counters.
    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.gets += o.gets;
        self.get_hits += o.get_hits;
        self.sets += o.sets;
        self.racing_misses += o.racing_misses;
        self.wrong_bytes += o.wrong_bytes;
        self.stale += o.stale;
        self.unexpected_miss += o.unexpected_miss;
        self.errors += o.errors;
        self.unmatched += o.unmatched;
        self.lost += o.lost;
    }
}

/// Write-version bookkeeping of one key (one cache line touch per op).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Highest version whose insert completed.
    acked: u32,
    /// Highest version handed to an insert.
    submitted: u32,
}

/// One submitted operation awaiting its completion.
#[derive(Debug, Clone, Copy)]
struct Pending {
    token: u64,
    index: u32,
    /// Write: the version written.  Read: lowest acceptable version.
    version: u32,
    write: bool,
    /// Read only: a write to the key was unacknowledged at submit.
    behind_write: bool,
    /// Cycle the latency clock starts at (submit stamp, or due time).
    stamp: u64,
    /// Open loop: the rate step the operation belongs to.
    step: u32,
}

/// One generator connection: a backend plus its in-flight operations.
pub struct Conn<B> {
    /// The client being driven.
    pub backend: B,
    pending: VecDeque<Pending>,
}

impl<B> Conn<B> {
    /// Wrap a connected backend.
    pub fn new(backend: B) -> Conn<B> {
        Conn {
            backend,
            pending: VecDeque::with_capacity(1024),
        }
    }

    /// Operations in flight.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// Keys, versions, value buffers and counters shared by both engines.
pub struct Verifier {
    slots: Vec<Slot>,
    value_len: usize,
    value_buf: Vec<u8>,
    scratch: Vec<u8>,
    completions: Vec<Completion>,
    /// Outcome counters.
    pub counts: Counts,
}

impl Verifier {
    /// State for `keys` keys with `value_len`-byte values, nothing stored.
    pub fn new(keys: usize, value_len: usize) -> Verifier {
        Verifier {
            slots: vec![Slot::default(); keys],
            value_len,
            value_buf: vec![0; value_len],
            scratch: Vec::with_capacity(value_len),
            completions: Vec::with_capacity(1024),
            counts: Counts::default(),
        }
    }

    /// Hint the version slot of `index` into cache ahead of its use.
    #[inline]
    fn prefetch(&self, index: u32) {
        cphash_cacheline::prefetch_read(&self.slots[index as usize] as *const Slot as *const u8);
    }

    /// Submit `op` on `conn`; `stamp` starts its latency clock.
    #[inline]
    fn submit<B: Backend>(
        &mut self,
        conn: &mut Conn<B>,
        keys: &KeySpace,
        op: Op,
        stamp: u64,
        step: u32,
    ) {
        let slot = &mut self.slots[op.index as usize];
        let pending = if op.write {
            slot.submitted += 1;
            let version = slot.submitted;
            fill_value(op.index, version, &mut self.value_buf);
            let token = conn.backend.set(keys, op.index, &self.value_buf);
            Pending {
                token,
                index: op.index,
                version,
                write: true,
                behind_write: false,
                stamp,
                step,
            }
        } else {
            let (version, behind_write) = (slot.acked, slot.submitted > slot.acked);
            let token = conn.backend.get(keys, op.index);
            Pending {
                token,
                index: op.index,
                version,
                write: false,
                behind_write,
                stamp,
                step,
            }
        };
        conn.pending.push_back(pending);
        self.counts.attempted += 1;
    }

    /// Poll `conn` once and verify what completed; `on_done` sees every
    /// verified operation.  Returns the number of completions.
    fn poll<B: Backend>(
        &mut self,
        conn: &mut Conn<B>,
        keys: &KeySpace,
        rec: &mut SpanRecorder,
        batch: u64,
        mut on_done: impl FnMut(&Pending, u64),
    ) -> usize {
        rec.begin(B::POLL, batch);
        self.completions.clear();
        let n = conn.backend.poll(&mut self.completions);
        if n == 0 {
            rec.cancel();
            return 0;
        }
        rec.end(n as u32);
        let now = cycles_now();
        rec.begin(SpanName::Verify, batch);
        let mut completions = std::mem::take(&mut self.completions);
        for completion in completions.drain(..) {
            // Completions arrive in submit order on one lane / connection;
            // fall back to a search so a reordering backend is still matched.
            let position = match conn.pending.front() {
                Some(p) if p.token == completion.token => Some(0),
                _ => conn
                    .pending
                    .iter()
                    .position(|p| p.token == completion.token),
            };
            let Some(pending) = position.and_then(|i| conn.pending.remove(i)) else {
                self.counts.unmatched += 1;
                continue;
            };
            self.verify::<B>(keys, &pending, &completion.kind);
            on_done(&pending, now);
        }
        self.completions = completions;
        rec.end(n as u32);
        n
    }

    fn verify<B: Backend>(&mut self, keys: &KeySpace, pending: &Pending, kind: &CompletionKind) {
        let c = &mut self.counts;
        c.completed += 1;
        let slot = &mut self.slots[pending.index as usize];
        match (pending.write, kind) {
            (true, CompletionKind::Inserted) => {
                c.sets += 1;
                slot.acked = slot.acked.max(pending.version);
            }
            (false, CompletionKind::LookupHit(bytes)) => {
                c.gets += 1;
                c.get_hits += 1;
                let version = B::unwrap(keys, pending.index, bytes.as_slice()).and_then(|value| {
                    check_value(pending.index, value, self.value_len, &mut self.scratch)
                });
                match version {
                    None => c.wrong_bytes += 1,
                    Some(v) if v < pending.version || v > slot.submitted => c.stale += 1,
                    Some(_) => {}
                }
            }
            (false, CompletionKind::LookupMiss) => {
                c.gets += 1;
                if B::MISS_BEHIND_WRITE_OK && pending.behind_write {
                    c.racing_misses += 1;
                } else {
                    c.unexpected_miss += 1;
                }
            }
            _ => c.errors += 1,
        }
    }

    /// Poll every connection until nothing is in flight (or `timeout`
    /// passes / a backend dies, which counts the remainder as lost).
    pub fn drain<B: Backend>(
        &mut self,
        conns: &mut [Conn<B>],
        keys: &KeySpace,
        rec: &mut SpanRecorder,
        timeout: Duration,
    ) {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let mut outstanding = 0;
            let mut progressed = 0;
            for conn in conns.iter_mut() {
                progressed += self.poll(conn, keys, rec, 0, |_, _| {});
                outstanding += conn.outstanding();
            }
            if outstanding == 0 {
                return;
            }
            if progressed == 0 {
                let dead = conns.iter().any(|c| !c.backend.alive());
                if dead || std::time::Instant::now() > deadline {
                    for conn in conns.iter_mut() {
                        self.counts.lost += conn.pending.len() as u64;
                        conn.pending.clear();
                    }
                    return;
                }
                std::thread::yield_now();
            }
        }
    }

    /// Store version 1 of every key through `conns` (window-limited,
    /// verified).  Call once, on an empty table.
    pub fn prefill<B: Backend>(
        &mut self,
        conns: &mut [Conn<B>],
        keys: &KeySpace,
        window: usize,
        rec: &mut SpanRecorder,
    ) {
        let n = conns.len();
        let mut idle = 0u32;
        for index in 0..keys.len() as u32 {
            let lane = index as usize % n;
            while conns[lane].outstanding() >= window {
                if self.poll(&mut conns[lane], keys, rec, 0, |_, _| {}) > 0 {
                    idle = 0;
                    continue;
                }
                if !conns[lane].backend.alive() {
                    self.counts.lost += 1;
                    return;
                }
                // The server may be waiting for this very CPU.
                idle += 1;
                if idle > SPIN_BEFORE_YIELD {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            let op = Op { write: true, index };
            self.submit(&mut conns[lane], keys, op, 0, 0);
        }
        self.drain(conns, keys, rec, Duration::from_secs(60));
    }
}

/// Connection a key's operations always travel on, so per-key order is the
/// connection's FIFO order.
#[inline]
fn route(index: u32, conns: usize) -> usize {
    index as usize % conns
}

/// Most operations submitted between two polls.
const SUBMIT_BATCH: usize = 64;
/// Empty polls before the generator yields its CPU.
const SPIN_BEFORE_YIELD: u32 = 64;

/// Result of a closed-loop run.
pub struct ClosedReport {
    /// Completed operations per second in each window of the timed phase.
    pub windows: Vec<f64>,
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Length of the timed phase in cycles.
    pub wall_cycles: u64,
    /// Throughput over the second half of the warm-up.
    pub warm_ops_s: f64,
    /// Process CPU over the timed phase.
    pub cpu: Usage,
    /// Process-wide allocations over the timed phase (when armed).
    pub allocs: AllocCounts,
    /// Generator-thread allocations over the timed phase (when armed).
    pub gen_allocs: AllocCounts,
    /// Submit → completion latency of lookups, cycles.
    pub get_latency: Histogram,
    /// Submit → completion latency of inserts, cycles.
    pub set_latency: Histogram,
    /// Latency of every operation, one histogram per window.
    pub window_latency: Vec<Histogram>,
}

/// Closed loop: keep `window` operations in flight on every connection.
///
/// Phases: warm-up (`warm_s`, its second half timed for the tracing
/// overhead ratio), then `windows` equal windows over `timed_s`.
/// `at_timed_start` runs once between the two — the caller switches
/// tracing on there and snapshots the layers' counters.
#[allow(clippy::too_many_arguments)]
pub fn run_closed<B: Backend>(
    conns: &mut [Conn<B>],
    keys: &KeySpace,
    verifier: &mut Verifier,
    stream: &mut OpStream,
    rec: &mut SpanRecorder,
    clock: &Clock,
    window: usize,
    warm_s: f64,
    timed_s: f64,
    windows: usize,
    at_timed_start: &mut dyn FnMut(&mut SpanRecorder),
) -> ClosedReport {
    if B::NAP_WHEN_IDLE {
        host::set_timer_slack_ns(1_000);
    }
    let mut queue: VecDeque<Op> = VecDeque::with_capacity(SUBMIT_BATCH * 2);
    let mut get_latency = Histogram::new();
    let mut set_latency = Histogram::new();
    let mut window_latency = vec![Histogram::new(); windows];
    let start = cycles_now();
    // Boundaries: warm-up midpoint, warm-up end, then each window's end.
    let mut boundaries = vec![
        start + clock.cycles(warm_s / 2.0),
        start + clock.cycles(warm_s),
    ];
    for w in 1..=windows {
        boundaries.push(boundaries[1] + clock.cycles(timed_s * w as f64 / windows as f64));
    }
    let mut crossed: Vec<(u64, u64)> = Vec::with_capacity(boundaries.len());
    let mut completed = 0u64;
    let mut cpu0 = Usage::default();
    let mut allocs0 = AllocCounts::default();
    let mut gen_allocs0 = AllocCounts::default();
    let mut idle = 0u32;
    let mut idle_since: Option<u64> = None;
    let mut batch = 0u64;
    let mut warm_end = (start, 0u64);

    loop {
        let now = cycles_now();
        if now >= boundaries[crossed.len()] {
            crossed.push((now, completed));
            if crossed.len() == boundaries.len() {
                break;
            }
            if crossed.len() == 2 {
                warm_end = (now, completed);
                at_timed_start(rec);
                get_latency = Histogram::new();
                set_latency = Histogram::new();
                window_latency[0] = Histogram::new();
                cpu0 = host::process_usage();
                allocs0 = alloc_count::process_counts();
                gen_allocs0 = alloc_count::thread_counts();
                // The hook's own time belongs to neither phase.
                crossed[1].0 = cycles_now();
            }
        }
        batch += 1;
        rec.begin(SpanName::Batch, batch);

        if queue.len() < SUBMIT_BATCH {
            rec.begin(SpanName::Gen, batch);
            let generated = (SUBMIT_BATCH - queue.len()) as u32;
            for _ in 0..generated {
                let op = stream.next_op();
                verifier.prefetch(op.index);
                queue.push_back(op);
            }
            rec.end(generated);
        }

        let stamp = cycles_now();
        let mut submitted = 0u32;
        let room =
            |conns: &[Conn<B>], op: &Op| conns[route(op.index, conns.len())].outstanding() < window;
        if queue.front().is_some_and(|op| room(conns, op)) {
            rec.begin(B::SUBMIT, batch);
            while let Some(&op) = queue.front() {
                if !room(conns, &op) || submitted as usize >= SUBMIT_BATCH {
                    break;
                }
                queue.pop_front();
                verifier.submit(&mut conns[route(op.index, conns.len())], keys, op, stamp, 0);
                submitted += 1;
            }
            rec.end(submitted);
        }

        let mut polled = 0usize;
        // Warm-up completions land in window 0 and are wiped at its start.
        let window_hist = &mut window_latency[crossed.len().saturating_sub(2)];
        for conn in conns.iter_mut() {
            polled += verifier.poll(conn, keys, rec, batch, |done, at| {
                let latency = at.saturating_sub(done.stamp);
                window_hist.record(latency);
                if done.write {
                    set_latency.record(latency);
                } else {
                    get_latency.record(latency);
                }
            });
        }
        completed += polled as u64;

        if submitted == 0 && polled == 0 {
            // Nothing to do: no span for this iteration.  The idle streak
            // becomes one `bench.wait` span once it is over.
            rec.cancel();
            idle_since.get_or_insert(stamp);
            idle += 1;
            if B::NAP_WHEN_IDLE {
                std::thread::sleep(Duration::from_secs_f64(POLL_NAP_S));
            } else if idle > SPIN_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        } else {
            if let Some(since) = idle_since.take() {
                rec.closed(SpanName::Wait, batch, since, stamp);
            }
            idle = 0;
            rec.end(submitted);
        }
    }

    let cpu = host::process_usage().since(&cpu0);
    let allocs = alloc_count::process_counts().since(allocs0);
    let gen_allocs = alloc_count::thread_counts().since(gen_allocs0);
    verifier.drain(conns, keys, rec, Duration::from_secs(20));
    host::set_timer_slack_ns(host::DEFAULT_TIMER_SLACK_NS);

    let rate = |from: (u64, u64), to: (u64, u64)| {
        (to.1 - from.1) as f64 / clock.seconds(to.0.saturating_sub(from.0).max(1))
    };
    ClosedReport {
        windows: crossed[1..].windows(2).map(|w| rate(w[0], w[1])).collect(),
        ops: crossed[crossed.len() - 1].1 - crossed[1].1,
        wall_cycles: crossed[crossed.len() - 1].0 - crossed[1].0,
        warm_ops_s: rate(crossed[0], warm_end),
        cpu,
        allocs,
        gen_allocs,
        get_latency,
        set_latency,
        window_latency,
    }
}

/// The open-loop schedule of one rate step: operations arrive in bursts on
/// 1 ms ticks, and an operation's latency clock starts at its tick's *due
/// time* — a function of the schedule alone, never of when earlier
/// operations completed or when the generator got round to sending it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Cycle stamp of tick 0.
    pub start: u64,
    /// Cycles per tick.
    pub tick_cycles: u64,
    /// Offered rate, operations per second.
    pub rate: u32,
}

impl Schedule {
    /// Due time of tick `k`.
    pub fn due(&self, k: u64) -> u64 {
        self.start + k * self.tick_cycles
    }

    /// Operations arriving at tick `k` (rates that do not divide the tick
    /// length spread their remainder evenly).
    pub fn count(&self, k: u64) -> u64 {
        let upto = |ticks: u64| ticks * self.rate as u64 * TICK_US / 1_000_000;
        upto(k + 1) - upto(k)
    }
}

/// Longest nap between two polls while operations are in flight.
const POLL_NAP_S: f64 = 20e-6;

/// In-flight operations beyond which an open-loop step stops offering.
/// Past its capacity the server falls behind without bound (and its write
/// path degrades with the backlog), so an overloaded step would otherwise
/// take minutes to drain.  A step that hits the cap has, by construction,
/// failed the ≥ 99 %-completed-in-step limit.
pub const BACKLOG_CAP: usize = 4_096;

/// Result of one rate step.
pub struct StepReport {
    /// Offered rate, ops/s.
    pub rate: u32,
    /// Operations the schedule called for in the step.
    pub scheduled: u64,
    /// Operations actually submitted (less than `scheduled` only when the
    /// backlog cap cut the step short).
    pub offered: u64,
    /// Of those, completed before the step ended.
    pub completed_in_step: u64,
    /// In flight when the step ended.
    pub backlog_at_end: u64,
    /// Due time → completion latency of every operation of the step, cycles.
    pub latency: Histogram,
    /// The same, lookups only.
    pub get_latency: Histogram,
    /// The same, inserts only.
    pub set_latency: Histogram,
    /// Latency of every operation, by the fifth of the step it was due in.
    pub window_latency: Vec<Histogram>,
    /// Step length, cycles.
    pub wall_cycles: u64,
    /// Process CPU over the step.
    pub cpu: Usage,
    /// Generator-thread CPU over the step.
    pub gen_cpu: Usage,
    /// Process-wide allocations over the step (when armed).
    pub allocs: AllocCounts,
    /// Generator-thread allocations over the step (when armed).
    pub gen_allocs: AllocCounts,
}

impl StepReport {
    /// Share of the scheduled operations completed within the step.
    pub fn achieved_ratio(&self) -> f64 {
        self.completed_in_step as f64 / self.scheduled.max(1) as f64
    }
}

/// Result of an open-loop run.
pub struct PacedReport {
    /// One report per rate step, in order.
    pub steps: Vec<StepReport>,
    /// Due time → hand-off to the client library, cycles, every operation.
    pub lateness: Histogram,
}

/// Open loop: offer each rate of `rates` for `step_s` seconds, after a
/// warm-up at `warm_rate`.  `at_timed_start` runs once after the warm-up.
#[allow(clippy::too_many_arguments)]
pub fn run_paced<B: Backend>(
    conns: &mut [Conn<B>],
    keys: &KeySpace,
    verifier: &mut Verifier,
    stream: &mut OpStream,
    rec: &mut SpanRecorder,
    clock: &Clock,
    warm_s: f64,
    warm_rate: u32,
    step_s: f64,
    rates: &[u32],
    at_timed_start: &mut dyn FnMut(&mut SpanRecorder),
) -> PacedReport {
    let mut lateness = Histogram::new();
    let mut batch = 0u64;
    host::set_timer_slack_ns(1_000);
    if warm_s > 0.0 {
        let mut scratch = Histogram::new();
        paced_step(
            conns,
            keys,
            verifier,
            stream,
            rec,
            clock,
            warm_s,
            warm_rate,
            0,
            &mut batch,
            &mut scratch,
        );
    }
    at_timed_start(rec);
    let steps = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            paced_step(
                conns,
                keys,
                verifier,
                stream,
                rec,
                clock,
                step_s,
                rate,
                i as u32 + 1,
                &mut batch,
                &mut lateness,
            )
        })
        .collect();
    host::set_timer_slack_ns(host::DEFAULT_TIMER_SLACK_NS);
    PacedReport { steps, lateness }
}

#[allow(clippy::too_many_arguments)]
fn paced_step<B: Backend>(
    conns: &mut [Conn<B>],
    keys: &KeySpace,
    verifier: &mut Verifier,
    stream: &mut OpStream,
    rec: &mut SpanRecorder,
    clock: &Clock,
    seconds: f64,
    rate: u32,
    step: u32,
    batch: &mut u64,
    lateness: &mut Histogram,
) -> StepReport {
    let tick_cycles = clock.cycles(TICK_US as f64 / 1e6);
    let ticks = (seconds * 1e6 / TICK_US as f64).round().max(1.0) as u64;
    let cpu0 = host::process_usage();
    let gen_cpu0 = host::thread_usage();
    let allocs0 = alloc_count::process_counts();
    let gen_allocs0 = alloc_count::thread_counts();
    let schedule = Schedule {
        start: cycles_now() + tick_cycles / 8,
        tick_cycles,
        rate,
    };
    let step_end = schedule.due(ticks);
    let mut report = StepReport {
        rate,
        scheduled: 0,
        offered: 0,
        completed_in_step: 0,
        backlog_at_end: 0,
        latency: Histogram::new(),
        get_latency: Histogram::new(),
        set_latency: Histogram::new(),
        window_latency: vec![Histogram::new(); crate::spec::WINDOWS],
        wall_cycles: step_end - schedule.start,
        cpu: Usage::default(),
        gen_cpu: Usage::default(),
        allocs: AllocCounts::default(),
        gen_allocs: AllocCounts::default(),
    };
    let mut ops: Vec<Op> = Vec::with_capacity(256);
    let mut overloaded = false;

    // Poll every connection once, crediting this step's completions.
    let poll_all = |verifier: &mut Verifier,
                    conns: &mut [Conn<B>],
                    rec: &mut SpanRecorder,
                    report: &mut StepReport,
                    batch: u64| {
        let mut polled = 0;
        for conn in conns.iter_mut() {
            polled += verifier.poll(conn, keys, rec, batch, |done, at| {
                if done.step != step {
                    return;
                }
                let latency = at.saturating_sub(done.stamp);
                report.latency.record(latency);
                let fifth = (done.stamp - schedule.start) as u128 * crate::spec::WINDOWS as u128
                    / (step_end - schedule.start) as u128;
                report.window_latency[(fifth as usize).min(crate::spec::WINDOWS - 1)]
                    .record(latency);
                if done.write {
                    report.set_latency.record(latency);
                } else {
                    report.get_latency.record(latency);
                }
                if at <= step_end {
                    report.completed_in_step += 1;
                }
            });
        }
        polled
    };

    for k in 0..=ticks {
        let due = schedule.due(k);
        // Wait for the tick, collecting completions meanwhile.  The
        // generator naps between polls instead of spinning: users of an
        // open system do not compete with the server for its CPUs.
        rec.begin(SpanName::Wait, *batch);
        loop {
            let left = clock.seconds(due.saturating_sub(cycles_now()));
            if left <= 0.0 {
                break;
            }
            if poll_all(verifier, conns, rec, &mut report, *batch) > 0 {
                continue;
            }
            let idle = conns.iter().all(|c| c.outstanding() == 0);
            let nap = if idle { left } else { left.min(POLL_NAP_S) };
            std::thread::sleep(Duration::from_secs_f64(nap));
        }
        rec.end(0);
        if k == ticks {
            break; // the last tick only closes the step
        }

        let count = schedule.count(k);
        report.scheduled += count;
        if overloaded || conns.iter().map(Conn::outstanding).sum::<usize>() > BACKLOG_CAP {
            overloaded = true;
            continue;
        }
        *batch += 1;
        rec.begin(SpanName::Batch, *batch);
        rec.begin(SpanName::Gen, *batch);
        ops.clear();
        for _ in 0..count {
            let op = stream.next_op();
            verifier.prefetch(op.index);
            ops.push(op);
        }
        rec.end(count as u32);
        rec.begin(B::SUBMIT, *batch);
        for &op in &ops {
            lateness.record(cycles_now().saturating_sub(due));
            let conn = &mut conns[route(op.index, conns.len())];
            verifier.submit(conn, keys, op, due, step);
        }
        rec.end(count as u32);
        report.offered += count;
        poll_all(verifier, conns, rec, &mut report, *batch);
        rec.end(count as u32);
    }

    report.backlog_at_end = conns.iter().map(|c| c.outstanding() as u64).sum();
    report.cpu = host::process_usage().since(&cpu0);
    report.gen_cpu = host::thread_usage().since(&gen_cpu0);
    report.allocs = alloc_count::process_counts().since(allocs0);
    report.gen_allocs = alloc_count::thread_counts().since(gen_allocs0);

    // Late completions still get their latency recorded (from due time).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while conns.iter().any(|c| c.outstanding() > 0) {
        if poll_all(verifier, conns, rec, &mut report, *batch) == 0 {
            if conns.iter().any(|c| !c.backend.alive()) || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(POLL_NAP_S));
        }
    }
    verifier.drain(conns, keys, rec, Duration::from_millis(1));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Popularity;
    use cphash::ValueBytes;

    /// A backend that stores values in memory and releases completions only
    /// after `delay_polls` further polls (or never, when stalled).
    struct Fake {
        store: std::collections::HashMap<u64, Vec<u8>>,
        queue: VecDeque<(u64, CompletionKind, u64)>,
        polls: u64,
        delay_polls: u64,
        stalled_until: Option<std::time::Instant>,
        next_token: u64,
    }

    impl Fake {
        fn new(delay_polls: u64) -> Fake {
            Fake {
                store: Default::default(),
                queue: VecDeque::new(),
                polls: 0,
                delay_polls,
                stalled_until: None,
                next_token: 1,
            }
        }

        fn push(&mut self, kind: CompletionKind) -> u64 {
            let token = self.next_token;
            self.next_token += 1;
            self.queue
                .push_back((token, kind, self.polls + self.delay_polls));
            token
        }
    }

    impl Backend for Fake {
        const SUBMIT: SpanName = SpanName::CoreSubmit;
        const POLL: SpanName = SpanName::CorePoll;
        const MISS_BEHIND_WRITE_OK: bool = false;
        const NAP_WHEN_IDLE: bool = false;

        fn get(&mut self, keys: &KeySpace, index: u32) -> u64 {
            let kind = match self.store.get(&keys.u64_key(index)) {
                Some(v) => CompletionKind::LookupHit(ValueBytes::from_slice(v)),
                None => CompletionKind::LookupMiss,
            };
            self.push(kind)
        }

        fn set(&mut self, keys: &KeySpace, index: u32, value: &[u8]) -> u64 {
            self.store.insert(keys.u64_key(index), value.to_vec());
            self.push(CompletionKind::Inserted)
        }

        fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
            self.polls += 1;
            if self
                .stalled_until
                .is_some_and(|t| std::time::Instant::now() < t)
            {
                return 0;
            }
            let mut n = 0;
            while self.queue.front().is_some_and(|q| q.2 <= self.polls) {
                let (token, kind, _) = self.queue.pop_front().unwrap();
                out.push(Completion { token, kind });
                n += 1;
            }
            n
        }

        fn alive(&self) -> bool {
            true
        }

        fn unwrap<'a>(_: &KeySpace, _: u32, stored: &'a [u8]) -> Option<&'a [u8]> {
            Some(stored)
        }
    }

    fn fixture(keys: usize) -> (KeySpace, Verifier, OpStream, SpanRecorder, Clock) {
        (
            KeySpace::new(KeyKind::U64, keys, 1),
            Verifier::new(keys, 8),
            OpStream::new(1, 0, keys, 300, Popularity::Uniform),
            SpanRecorder::new(false),
            Clock::calibrate(20),
        )
    }

    #[test]
    fn schedule_due_times_depend_only_on_the_schedule() {
        let s = Schedule {
            start: 1_000,
            tick_cycles: 2_000,
            rate: 12_500,
        };
        assert_eq!(s.due(0), 1_000);
        assert_eq!(s.due(7), 15_000);
        // 12.5 ops per 1 ms tick: alternating 12 and 13, exact over a second.
        assert_eq!(s.count(0) + s.count(1), 25);
        assert_eq!((0..1000).map(|k| s.count(k)).sum::<u64>(), 12_500);
    }

    #[test]
    fn open_loop_keeps_offering_while_completions_stall() {
        let (keys, mut verifier, mut stream, mut rec, clock) = fixture(64);
        let mut conns = vec![Conn::new(Fake::new(0))];
        verifier.prefill(&mut conns, &keys, 16, &mut rec);
        assert_eq!(verifier.counts.failed(), 0);
        // 30 ticks at 5k ops/s against a backend that completes nothing
        // until after the step: a closed loop would stop at its window, the
        // open loop must offer the whole schedule regardless.
        let step_s = 0.030;
        conns[0].backend.stalled_until =
            Some(std::time::Instant::now() + Duration::from_secs_f64(step_s + 0.03));
        let scheduled: u64 = {
            let s = Schedule {
                start: 0,
                tick_cycles: 1,
                rate: 5_000,
            };
            (0..30).map(|k| s.count(k)).sum()
        };
        let mut lateness = Histogram::new();
        let mut batch = 0;
        let report = paced_step(
            &mut conns,
            &keys,
            &mut verifier,
            &mut stream,
            &mut rec,
            &clock,
            step_s,
            5_000,
            1,
            &mut batch,
            &mut lateness,
        );
        assert_eq!(report.offered, scheduled);
        assert_eq!(report.completed_in_step, 0);
        assert_eq!(report.backlog_at_end, scheduled);
        assert_eq!(
            report.latency.count(),
            scheduled,
            "late completions are still timed"
        );
        assert_eq!(verifier.counts.failed(), 0);
        // Latency counts from the due time: the operations due at tick 0
        // were released only after the step, so the maximum spans it.
        let step_cycles = clock.cycles(step_s) as f64;
        assert!(report.latency.percentile(100.0).unwrap() >= step_cycles * 0.95);
    }

    #[test]
    fn closed_loop_respects_the_window_and_verifies() {
        let (keys, mut verifier, mut stream, mut rec, clock) = fixture(256);
        let mut conns = vec![Conn::new(Fake::new(3)), Conn::new(Fake::new(3))];
        verifier.prefill(&mut conns, &keys, 8, &mut rec);
        let mut hooks = 0;
        let report = run_closed(
            &mut conns,
            &keys,
            &mut verifier,
            &mut stream,
            &mut rec,
            &clock,
            8,
            0.02,
            0.05,
            5,
            &mut |_| hooks += 1,
        );
        assert_eq!(hooks, 1);
        assert_eq!(report.windows.len(), 5);
        // Tests share two noisy CPUs: a 10 ms window may see no completion.
        assert!(report.ops > 0 && report.windows.iter().any(|&w| w > 0.0));
        assert_eq!(verifier.counts.failed(), 0);
        assert_eq!(verifier.counts.attempted, verifier.counts.completed);
        assert!(verifier.counts.get_hits == verifier.counts.gets && verifier.counts.gets > 0);
        assert!(conns.iter().all(|c| c.outstanding() == 0));
    }

    #[test]
    fn verifier_flags_wrong_bytes_stale_versions_and_misses() {
        let (keys, mut verifier, _, mut rec, _) = fixture(4);
        let mut conns = vec![Conn::new(Fake::new(0))];
        verifier.prefill(&mut conns, &keys, 4, &mut rec);
        let get = |verifier: &mut Verifier, conns: &mut Vec<Conn<Fake>>, index| {
            verifier.submit(
                &mut conns[0],
                &keys,
                Op {
                    write: false,
                    index,
                },
                0,
                0,
            );
            verifier.poll(
                &mut conns[0],
                &keys,
                &mut SpanRecorder::new(false),
                0,
                |_, _| {},
            );
        };
        get(&mut verifier, &mut conns, 0);
        assert_eq!(verifier.counts.failed(), 0);
        // Corrupt a stored byte: wrong bytes.
        conns[0].backend.store.get_mut(&keys.u64_key(0)).unwrap()[7] ^= 0x40;
        get(&mut verifier, &mut conns, 0);
        assert_eq!(verifier.counts.wrong_bytes, 1);
        // A well-formed value of a version never written: stale/out of range.
        let mut future = vec![0u8; 8];
        fill_value(1, 9, &mut future);
        conns[0].backend.store.insert(keys.u64_key(1), future);
        get(&mut verifier, &mut conns, 1);
        assert_eq!(verifier.counts.stale, 1);
        // A vanished key: unexpected miss.
        conns[0].backend.store.remove(&keys.u64_key(2));
        get(&mut verifier, &mut conns, 2);
        assert_eq!(verifier.counts.unexpected_miss, 1);
        assert_eq!(verifier.counts.failed(), 3);
    }
}
