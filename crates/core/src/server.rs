//! The server thread: owns one partition and serves requests from every
//! client's message lane.
//!
//! "Each server thread performs the operations for its partition. The server
//! thread continuously loops over the message queues of each client checking
//! for new requests. When a request arrives, the server thread performs the
//! requested operation and sends its result back to the client." (§3.2)
//!
//! On top of the paper's loop, each server participates in **online
//! repartitioning**: migration messages (see [`crate::protocol`]) arrive on
//! a dedicated control lane, and ordinary requests for keys this server no
//! longer (or does not yet) own are answered with *retry* responses that
//! redirect the client to the owning partition.  The invariant is that at
//! every instant exactly one server will actually execute an operation on a
//! given key, so no key is ever lost or duplicated while keys move.
//!
//! The other departure from §3.2 is that the loop is not continuous: the
//! paper's server owns a core and accepts the idle polling (41 % of its
//! time, §6.2); this one may share its CPU with the very client it serves,
//! so after a spin over empty lanes it sleeps behind a
//! [`cphash_channel::Doorbell`] that every client's flush rings.  How long
//! it spins depends on what its clients are doing: while every client
//! handle is blocked with nothing in flight (CPSERVER's workers announce
//! their reactor sleeps, a dropped handle counts as asleep) no request can
//! come until one of them wakes, so the spin is one wake-up's worth
//! ([`CLIENTS_ASLEEP_SPIN_BEFORE_PARK`]); otherwise it covers the gaps of a
//! closed-loop client ([`IDLE_SPIN_BEFORE_PARK`]).

// cphash-lint: hot-path
use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cphash_affinity::{pin_to_hw_thread, HwThreadId};
use cphash_channel::{Doorbell, DuplexServer};
use cphash_hashcore::{partition_for_key, ElementId, ExportOutcome, Partition, PartitionStats};
use cphash_perfmon::trace::TraceStage;
use cphash_perfmon::StageSpan;
use parking_lot::Mutex;

use crate::client::SleepFlag;
use crate::pipeline::{step_is_current, DataOp, MigrationState, OpCtx, StagedExecutor};
use crate::protocol::{
    decode_word, inline_from_word, MigrationBatch, MigrationStep, OpCode, Response,
};
use crate::router::EpochRouter;
use crate::stats::ServerStats;

/// Maximum request words a server drains from one lane before moving on to
/// the next lane, so a single busy client cannot starve the others.
const LANE_BATCH: usize = 256;

/// Empty polls of the lanes an idle server makes between two yields of its
/// CPU — a few microseconds.  A client thread that shares the server's CPU
/// spins for replies the server cannot run to produce, so the hand-off has
/// to be prompt: CPSERVER's worker and partition thread pinned to one CPU
/// serve 30 k ops/s when the server yields only after a millisecond-scale
/// idle streak and about as many as on separate CPUs with this.  Which
/// placement a run gets is the scheduler's choice, so the gap between them
/// is run-to-run spread.
const IDLE_POLLS_PER_YIELD: u32 = 32;

/// How long the lanes stay empty before an idle server stops spinning and
/// sleeps until a client's flush rings its doorbell, while every client is
/// announced asleep (see [`crate::ClientHandle::asleep_during`]).  Nothing
/// can arrive before one of them wakes, so spinning only pays when a
/// client is about to be woken by the very round trip it is waiting on.
/// Sized from a log₂ histogram of "idle stretch in which every client was
/// asleep → next request" on the 2-CPU reference host, in a build whose
/// budget here was 300 µs so that no gap was cut short by a park:
/// `tcp_pipelined_read`'s prefill (window-8 round trips, ~1 030 such gaps
/// per set-up) sits at 16–32 µs (10–54 %) and 32–64 µs (44–88 %) with at
/// most 3 gaps of 128 µs or more; its timed phase has 100 k in 12 s —
/// 11 % under 32 µs, 56 % at 32–64, 31 % at 64–128; `tcp_paced_values`
/// has one per 1 ms tick, 98 % of them at 0.5–2 ms.  The closed loop's
/// gaps are better slept through than spun: while the CPSERVER worker
/// sleeps, the CPU this loop spins on is the one the load generator needs.
/// Three untraced 15 s runs per budget, median throughput / CPU per op /
/// `setup_s`: 300 µs 1.64 M / 1.15 µs / 39 ms, 128 µs 1.64 M / 1.16 / 39,
/// 64 µs 1.64 M / 1.14 / 40, **30 µs** 1.82 M / 0.93 / 35, 15 µs 1.92 M /
/// 0.81 / 49, 0 1.89 M / 0.84 / 45.  Below 30 µs more and more of the
/// prefill's round trips pay a futex wake (with 30 µs only 21–59 of ~1 030
/// gaps end in a park: 88–95 % come in under 32 µs once nothing spins
/// beside the generator), so this is the shortest budget that keeps
/// `setup_s`; the open loop's tick now costs 30 µs of spin instead of 300
/// (`tcp_paced_values` `cpu_us_per_op` 22.7 → 9.7 µs over ten pairs).
const CLIENTS_ASLEEP_SPIN_BEFORE_PARK: Duration = Duration::from_micros(30);

/// How long the lanes stay empty before an idle server stops spinning and
/// sleeps, while some client may still send without announcing — which
/// means an in-process handle that is alive: CPSERVER's workers announce
/// every blocking wait, so since PR 25 the reasoning below binds only
/// in-process clients (a closed loop of them leaves the same kind of gaps).
/// It was sized on the workload that must *not* sleep, when the worker
/// did not announce: a saturated pipelined client
/// (`tcp_pipelined_read`) leaves gaps of ~100 µs between bursts typically
/// and up to 256 µs at its slowest, and a sleep that short is all cost — a
/// cross-vCPU wake-up (16 µs at best on the reference guest, milliseconds
/// when the hypervisor is busy) and a CPU gone idle for the scheduler to
/// reshuffle the closed loop's threads onto (a PR 16 prototype that parked
/// after 1 024 empty polls took that workload from ~650 k to ~410 k ops/s).
/// So the spin phase covers them with a margin: in a build that never
/// parks that workload shows 31–58 gaps per second of 200 µs or more but
/// 17–24 of 300 µs or more — the stalls of a descheduled client, which no
/// budget short of milliseconds rides out.  An open-loop client on 1 ms
/// ticks leaves ~800 µs of silence per tick, which is what parking
/// reclaims (`tcp_paced_values`: 59.9 → 27.9 µs of CPU per operation at
/// 20 k ops/s; every further 100 µs of spin costs ~5 µs of that).  A
/// constant with its measurement, not a knob: on dedicated cores the cost
/// of sleeping is one futex wake after ≥ 300 µs of silence.
const IDLE_SPIN_BEFORE_PARK: Duration = Duration::from_micros(300);

/// The same budget for a server that has not served a request yet, while
/// some client does not announce its sleeps.  A thread that has just been
/// spawned is usually waiting for a client that is still connecting
/// (CPSERVER's first request arrives 0.2–0.8 ms after the thread starts),
/// so its first sleep would last a few hundred microseconds and buy
/// nothing; spare `max_partitions` servers, which may never get one, are
/// asleep 2 ms after start-up instead of 0.3.  CPSERVER's workers wait for
/// their first connection announced, so its servers take the short budget
/// from the start.
const FIRST_REQUEST_SPIN_BEFORE_PARK: Duration = Duration::from_millis(2);

/// Everything one server thread needs.
pub(crate) struct ServerThread {
    /// Index of this server / partition.
    pub index: usize,
    /// The partition this server owns.
    pub partition: Partition,
    /// One lane per client, in client order; the last lane is the control
    /// plane.
    pub lanes: Vec<DuplexServer<u64, Response>>,
    /// Hardware thread to pin to, if any.
    pub pin: Option<HwThreadId>,
    /// Set by the table handle to stop the loop.
    pub stop: Arc<AtomicBool>,
    /// What this server sleeps behind when idle: rung by the explicit flush
    /// of every lane's client end (the control plane's included) and by
    /// shutdown after it raises `stop`.
    pub doorbell: Arc<Doorbell>,
    /// One "asleep" flag per client lane, in lane order; the control lane
    /// has none — coordinator flushes ring the doorbell, and a drain in
    /// progress never parks anyway.
    pub clients_asleep: Vec<SleepFlag>,
    /// Shared runtime counters.
    pub stats: Arc<ServerStats>,
    /// Where the final (and periodically refreshed) partition statistics are
    /// published for the table handle.
    pub partition_stats: Arc<Mutex<PartitionStats>>,
    /// The shared routing table.
    pub router: Arc<EpochRouter>,
    /// The table's *global* byte budget.  During a re-partitioning each
    /// participating server re-splits this over the post-transition
    /// partition count, so the table-wide budget stays fixed as the
    /// partition count changes.
    pub capacity_total: Option<usize>,
    /// The staged batch + prefetch pipeline data operations run through.
    pub executor: StagedExecutor,
    /// Pipeline depth: data operations staged per execution round.
    pub batch_size: usize,
}

/// Reusable per-loop scratch buffers (allocated once per server thread).
#[derive(Default)]
struct Scratch {
    /// The current run of decoded data operations.
    ops: Vec<DataOp>,
    /// One response per operation of the current run.
    replies: Vec<Response>,
}

impl ServerThread {
    /// Run the server loop until the stop flag is raised.
    pub(crate) fn run(mut self) {
        if let Some(hw) = self.pin {
            self.stats.record_pin(pin_to_hw_thread(hw));
        }
        let mut migration = MigrationState::default();
        let mut scratch = Scratch::default();
        let mut words: Vec<u64> = Vec::with_capacity(LANE_BATCH); // lint: allow(hot-path) one-time setup before the loop
        let mut idle_streak: u32 = 0;
        // When the current idle stretch was first timed (at a yield point),
        // by the clock and by the cycle counter.
        let mut idle_since: Option<(Instant, u64)> = None;
        let mut iterations: u64 = 0;

        // relaxed: stop flag; shutdown needs no ordering
        while !self.stop.load(Ordering::Relaxed) {
            let mut did_work = false;
            let mut drained_total = 0usize;
            for lane_idx in 0..self.lanes.len() {
                let drained = {
                    let lane = &mut self.lanes[lane_idx];
                    words.clear();
                    // The drain span only covers the ring read; an empty
                    // drain is dropped unrecorded so idle polling does not
                    // flood the trace ring.
                    let span = StageSpan::begin(TraceStage::Drain);
                    let n = lane.recv_batch(&mut words, LANE_BATCH);
                    if n > 0 {
                        span.finish(n as u32);
                    }
                    n
                };
                if drained == 0 {
                    continue;
                }
                drained_total += drained;
                did_work = true;
                self.process_lane_batch(lane_idx, &words, &mut migration, &mut scratch);
                self.lanes[lane_idx].flush();
            }
            // Publish the inbound queue-depth sample for the migration
            // pacer's feedback mode (one relaxed store per iteration).
            self.stats
                .queue_depth
                .store(drained_total as u64, Ordering::Relaxed); // relaxed: queue-depth gauge for the pacer; staleness is benign

            iterations += 1;
            if migration.draining.is_some() {
                self.try_finish_drain(&mut migration);
            }
            if did_work {
                self.stats.busy_iterations.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                idle_streak = 0;
                idle_since = None;
            } else {
                // An idle server keeps polling for a while, as the paper's
                // does, but politely: a PAUSE between empty polls leaves
                // the core to a hyperthread sibling, and a yield every few
                // microseconds hands the CPU to whoever waits on this run
                // queue — with fewer CPUs than busy threads that is the
                // very client whose requests this loop is waiting for.  The
                // clock is read at the yield points only, never on the busy
                // path.  A drain in progress must not sleep: the export is
                // retried every iteration and nothing rings when the last
                // client endpoint disappears.
                self.stats.idle_iterations.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                idle_streak = idle_streak.wrapping_add(1);
                if !idle_streak.is_multiple_of(IDLE_POLLS_PER_YIELD) {
                    core::hint::spin_loop();
                } else {
                    let now = Instant::now();
                    let (since, since_cycles) =
                        *idle_since.get_or_insert_with(|| (now, cphash_perfmon::cycles_now()));
                    // relaxed: this thread's own counter
                    let served = self.stats.busy_iterations.load(Ordering::Relaxed) > 0;
                    let clients_asleep = self.clients_asleep();
                    let budget = if clients_asleep {
                        CLIENTS_ASLEEP_SPIN_BEFORE_PARK
                    } else if served {
                        IDLE_SPIN_BEFORE_PARK
                    } else {
                        FIRST_REQUEST_SPIN_BEFORE_PARK
                    };
                    if now.duration_since(since) < budget || migration.draining.is_some() {
                        std::thread::yield_now();
                    } else {
                        self.park_until_rung(since_cycles, clients_asleep);
                        // Whatever ended the sleep starts a fresh spin phase.
                        idle_since = None;
                    }
                }
            }
            // Refresh the shared partition statistics occasionally so the
            // table handle can report hit rates mid-run.
            if iterations.is_multiple_of(4096) {
                *self.partition_stats.lock() = self.partition.stats();
            }
        }

        *self.partition_stats.lock() = self.partition.stats();
        self.stats.stopped.store(true, Ordering::Release);
    }

    /// Whether every client that can send this server a request is blocked
    /// right now (or gone) — read at idle yield points only.
    fn clients_asleep(&self) -> bool {
        self.clients_asleep
            .iter()
            // relaxed: advisory flag; a stale read moves a park, never loses a message
            .all(|asleep| asleep.load(Ordering::Relaxed))
    }

    /// Sleep until a client flush (or shutdown) rings the doorbell — unless
    /// the re-check behind the raised flag finds a request or the stop flag
    /// first (see [`Doorbell::park_unless`] for why in that order).  No
    /// timeout: a parked server makes no iterations at all.  `spin_began`
    /// is the cycle count at which the spin this sleep ends began, and
    /// `clients_asleep` says whether it ran on the clients-asleep budget.
    #[cold]
    #[inline(never)] // keeps the sleep path out of the hot loop's body
    fn park_until_rung(&mut self, spin_began: u64, clients_asleep: bool) {
        // A sleeping server republishes nothing, and readers expect the
        // statistics of a quiet table to be exact: publish before sleeping.
        // (`queue_depth` already reads 0 from this empty iteration.)
        *self.partition_stats.lock() = self.partition.stats();
        let (stop, lanes, stats) = (&self.stop, &mut self.lanes, &self.stats);
        let parked_at = cphash_perfmon::cycles_now();
        let slept = self.doorbell.park_unless(|| {
            // relaxed: ordered after the announce by the doorbell's fence
            let stopping = stop.load(Ordering::Relaxed);
            let pending = stopping || lanes.iter_mut().any(|l| l.pending_requests() > 0);
            if !pending {
                // Counted on the way in, so a scrape of a sleeping server
                // already shows this sleep and the spin that preceded it.
                let spun = parked_at.saturating_sub(spin_began);
                stats.idle_spin_cycles.fetch_add(spun, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                stats.parks.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                if clients_asleep {
                    stats.clients_asleep_parks.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                }
            }
            pending
        });
        if slept {
            let cycles = cphash_perfmon::cycles_now().wrapping_sub(parked_at);
            self.stats
                .parked_cycles
                .fetch_add(cycles, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        }
    }

    /// Process one batch of request words from one client lane.
    ///
    /// Words are consumed as alternating *runs* of data operations
    /// (lookup/insert/delete) and individual control messages.  Each run —
    /// up to `batch_size` operations — goes through the
    /// [`StagedExecutor`] as one staged round: hash + prefetch everything,
    /// then execute everything, then publish all the replies with one ring
    /// synchronization.  Control messages are executed scalar, exactly
    /// where they appeared, so the request order every client observes is
    /// identical to the pre-pipeline server's.  Every `Ready` and `Decref`
    /// therefore cuts a run short (`ServerStats::run_cuts`); operations on
    /// values short enough to travel in the messages send neither.
    fn process_lane_batch(
        &mut self,
        lane_idx: usize,
        words: &[u64],
        migration: &mut MigrationState,
        scratch: &mut Scratch,
    ) {
        let mut i = 0usize;
        while i < words.len() {
            // Collect a run of data operations, bounded by the pipeline
            // depth; stop (without consuming) at the first control message.
            scratch.ops.clear();
            while i < words.len() && scratch.ops.len() < self.batch_size {
                let Some((op, key)) = decode_word(words[i]) else {
                    // Corrupt word: skip it. This cannot happen with the
                    // provided client, but a malformed word must not take
                    // the whole server down.
                    i += 1;
                    continue;
                };
                if !op.is_data() {
                    if !scratch.ops.is_empty() {
                        self.stats.run_cuts.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                    }
                    break;
                }
                i += 1;
                self.stats.messages.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                scratch.ops.push(match op {
                    OpCode::Lookup => DataOp::Lookup { key },
                    OpCode::Delete => DataOp::Delete { key },
                    OpCode::Insert => DataOp::Insert {
                        key,
                        size: self.extra_word(lane_idx, words, &mut i),
                    },
                    // The two opcodes of an insert that carries its value.
                    _ => DataOp::InsertInline {
                        key,
                        value: inline_from_word(op, self.extra_word(lane_idx, words, &mut i)),
                    },
                });
            }
            if !scratch.ops.is_empty() {
                self.execute_run(lane_idx, migration, scratch);
            }
            // A control message at the run boundary (the inner loop only
            // breaks before one, at the depth bound, or at the end).
            if i < words.len() {
                if let Some((op, payload)) = decode_word(words[i]) {
                    if !op.is_data() {
                        i += 1;
                        self.stats.messages.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                        self.process_control(op, payload, lane_idx, words, &mut i, migration);
                    }
                }
            }
        }
    }

    /// Run one collected batch of data operations through the executor and
    /// publish the replies.
    fn execute_run(
        &mut self,
        lane_idx: usize,
        migration: &mut MigrationState,
        scratch: &mut Scratch,
    ) {
        scratch.replies.clear();
        {
            let mut ctx = OpCtx {
                partition: &mut self.partition,
                router: &self.router,
                index: self.index,
                migration,
            };
            self.executor.execute(
                &mut ctx,
                &scratch.ops,
                &mut scratch.replies,
                &self.stats.batch,
            );
        }
        debug_assert_eq!(scratch.replies.len(), scratch.ops.len());
        self.stats
            .operations
            .fetch_add(scratch.ops.len() as u64, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        let span = StageSpan::begin(TraceStage::ReplyPublish);
        self.respond_batch(lane_idx, &scratch.replies);
        span.finish(scratch.replies.len() as u32);
    }

    /// Process one control message (`Ready`/`Decref`/migration plumbing).
    fn process_control(
        &mut self,
        op: OpCode,
        payload: u64,
        lane_idx: usize,
        words: &[u64],
        i: &mut usize,
        migration: &mut MigrationState,
    ) {
        match op {
            OpCode::Lookup
            | OpCode::Insert
            | OpCode::InsertInline
            | OpCode::InsertWord
            | OpCode::Delete => {
                // lint: allow(hot-path) dispatch invariant, not a data path
                unreachable!("data operations go through the pipeline")
            }
            OpCode::Ready => {
                self.partition.mark_ready(ElementId(payload as u32));
                if migration.draining.is_some() {
                    self.try_finish_drain(migration);
                }
            }
            OpCode::Decref => {
                self.partition.decref(ElementId(payload as u32));
            }
            OpCode::MigratePrepare => {
                let step = MigrationStep::from_payload(payload);
                self.purge_stale(migration);
                // Live capacity re-split: every server active after the
                // transition is a receiver, so the first prepare it sees
                // re-budgets its partition to its share of the global
                // budget at the *new* partition count (idempotent
                // afterwards).
                if self.capacity_total.is_some() {
                    self.partition
                        .set_capacity_bytes(crate::config::split_capacity(
                            self.capacity_total,
                            step.new_partitions,
                        ));
                }
                migration.incoming.insert(step.chunk, step);
                self.respond(lane_idx, Response::FOUND);
            }
            OpCode::MigrateOut => {
                let step = MigrationStep::from_payload(payload);
                self.purge_stale(migration);
                match self.export_step(step) {
                    Some(response) => {
                        migration.outgoing.insert(step.chunk, step);
                        self.respond(lane_idx, response);
                    }
                    None => {
                        // In-flight inserts block the extraction; the
                        // response is deferred until they publish.
                        migration.draining = Some((lane_idx, step));
                    }
                }
            }
            OpCode::MigrateIn => {
                let addr = self.extra_word(lane_idx, words, i);
                let step = MigrationStep::from_payload(payload);
                let mut absorbed = 0usize;
                // The sentinel address 1 is an empty (and final)
                // delivery; real batches say themselves whether more
                // deliveries of this chunk follow.
                let mut is_final = true;
                if addr > 1 {
                    // SAFETY: the coordinator leaked exactly this batch
                    // with `into_addr` and transfers ownership with this
                    // message.
                    let batch = unsafe { MigrationBatch::from_addr(addr) };
                    is_final = batch.last;
                    for (key, value) in batch.entries {
                        // A failed absorb (value larger than this
                        // partition's budget) drops the entry, exactly
                        // like an eviction at the moment of migration.
                        if self.partition.absorb(key, &value).is_ok() {
                            absorbed += 1;
                        }
                    }
                }
                if is_final {
                    // Only the final delivery completes the chunk: keys
                    // still travelling in a later split batch must keep
                    // getting "retry here" answers until they land.
                    migration.incoming.remove(&step.chunk);
                }
                self.stats
                    .keys_migrated_in
                    .fetch_add(absorbed as u64, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                self.respond(
                    lane_idx,
                    Response {
                        addr: 1,
                        meta: absorbed as u64,
                    },
                );
            }
        }
    }

    /// Attempt the extraction for `step`. `Some(response)` when the chunk
    /// was exported (or empty), `None` while NOT-READY inserts block it.
    ///
    /// Uses the partition's per-chunk membership index, so the extraction
    /// cost is proportional to the chunk's population — not the table size.
    fn export_step(&mut self, step: MigrationStep) -> Option<Response> {
        let me = self.index;
        let outcome = self.partition.export_chunk(step.chunk, |key| {
            partition_for_key(key, step.new_partitions) != me
        });
        match outcome {
            ExportOutcome::Extracted(entries) => {
                self.stats
                    .keys_migrated_out
                    .fetch_add(entries.len() as u64, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                if entries.is_empty() {
                    Some(Response::FOUND)
                } else {
                    let count = entries.len();
                    Some(Response::with_batch(
                        MigrationBatch::new(entries).into_addr(),
                        count,
                    ))
                }
            }
            ExportOutcome::Pending { .. } => None,
        }
    }

    /// Retry a drain-blocked extraction (called after `Ready` messages and
    /// once per loop iteration while draining).
    fn try_finish_drain(&mut self, migration: &mut MigrationState) {
        if let Some((lane_idx, step)) = migration.draining {
            let response = match self.export_step(step) {
                Some(response) => response,
                // Blocked on NOT-READY reservations: if every client
                // endpoint is gone (shutdown with a resize in flight), the
                // pending `Ready` messages can never arrive — abandon the
                // dead reservations rather than stalling the coordinator
                // forever.
                None if !self.any_client_alive() => {
                    let me = self.index;
                    let entries = self
                        .partition
                        .export_chunk_abandoning_reservations(step.chunk, |key| {
                            partition_for_key(key, step.new_partitions) != me
                        });
                    self.stats
                        .keys_migrated_out
                        .fetch_add(entries.len() as u64, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                    if entries.is_empty() {
                        Response::FOUND
                    } else {
                        let count = entries.len();
                        Response::with_batch(MigrationBatch::new(entries).into_addr(), count)
                    }
                }
                None => return,
            };
            migration.draining = None;
            migration.outgoing.insert(step.chunk, step);
            self.respond(lane_idx, response);
            self.lanes[lane_idx].flush();
        }
    }

    /// Whether any *client* lane (every lane but the control plane's, which
    /// is last) still has a live peer.
    fn any_client_alive(&self) -> bool {
        let clients = self.lanes.len().saturating_sub(1);
        self.lanes[..clients].iter().any(|l| l.is_client_alive())
    }

    /// Drop migration entries that no longer describe the live transition.
    fn purge_stale(&self, migration: &mut MigrationState) {
        let snap = self.router.snapshot();
        migration
            .incoming
            .retain(|chunk, step| step_is_current(step, *chunk, &snap));
        migration
            .outgoing
            .retain(|chunk, step| step_is_current(step, *chunk, &snap));
    }

    /// The next trailing word of a multi-word request: the next drained
    /// word, or — when the message crossed a cache-line flush boundary and
    /// the rest is still in flight — the next one the lane delivers.
    fn extra_word(&mut self, lane_idx: usize, words: &[u64], i: &mut usize) -> u64 {
        match words.get(*i) {
            Some(&word) => {
                *i += 1;
                word
            }
            None => self.wait_for_extra_word(lane_idx),
        }
    }

    /// Spin until the next word of a multi-word request becomes visible.
    /// The sender always flushes after queueing a batch, so this terminates
    /// unless the sender vanishes — in which case we bail out with a zero
    /// word (the insert degenerates to an empty value).
    fn wait_for_extra_word(&mut self, lane_idx: usize) -> u64 {
        loop {
            if let Some(w) = self.lanes[lane_idx].try_recv() {
                self.stats.messages.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
                return w;
            }
            if !self.lanes[lane_idx].is_client_alive() {
                return 0;
            }
            core::hint::spin_loop();
        }
    }

    /// Publish a whole run's responses with one ring synchronization,
    /// spinning only if the response ring is momentarily full (the client
    /// bounds its outstanding requests below the ring capacity, so the
    /// common case is exactly one capacity check and one index publish).
    fn respond_batch(&mut self, lane_idx: usize, replies: &[Response]) {
        let lane = &mut self.lanes[lane_idx];
        let mut sent = 0usize;
        while sent < replies.len() {
            sent += lane.send_batch(&replies[sent..]);
            if sent < replies.len() {
                if !lane.is_client_alive() {
                    return;
                }
                core::hint::spin_loop();
            }
        }
    }

    /// Queue a response on a lane, spinning if the response ring is
    /// momentarily full (the client bounds its outstanding requests below
    /// the ring capacity, so this never spins in practice).
    fn respond(&mut self, lane_idx: usize, response: Response) {
        let lane = &mut self.lanes[lane_idx];
        let mut r = response;
        loop {
            match lane.try_send(r) {
                Ok(()) => return,
                Err(full) => {
                    r = full.message;
                    lane.flush();
                    if !lane.is_client_alive() {
                        return;
                    }
                    core::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode, Request};
    use cphash_channel::{duplex, DuplexClient, RingConfig};
    use cphash_hashcore::{InlineValue, PartitionConfig};

    /// Raises the stop flag and rings the doorbell, as `CpHash::shutdown`
    /// does: a server that went to sleep would never see the flag alone.
    struct Stopper {
        stop: Arc<AtomicBool>,
        doorbell: Arc<Doorbell>,
    }

    impl Stopper {
        fn stop(&self) {
            self.stop.store(true, Ordering::Release);
            self.doorbell.ring();
        }
    }

    fn test_server(
        index: usize,
        router: Arc<EpochRouter>,
    ) -> (DuplexClient<u64, Response>, ServerThread, Stopper) {
        let (client, server_end) = duplex::<u64, Response>(RingConfig::with_capacity(1024));
        let doorbell = Arc::new(Doorbell::new());
        let client = client.with_doorbell(Arc::clone(&doorbell));
        let stop = Arc::new(AtomicBool::new(false));
        let server = ServerThread {
            index,
            partition: Partition::new(PartitionConfig::new(64, None)),
            lanes: vec![server_end],
            pin: None,
            stop: Arc::clone(&stop),
            doorbell: Arc::clone(&doorbell),
            clients_asleep: vec![SleepFlag::default()],
            stats: Arc::new(ServerStats::new()),
            partition_stats: Arc::new(Mutex::new(PartitionStats::default())),
            router,
            capacity_total: None,
            executor: StagedExecutor::new(),
            batch_size: crate::config::DEFAULT_BATCH_SIZE,
        };
        (client, server, Stopper { stop, doorbell })
    }

    /// Drive a server thread object synchronously on the current thread by
    /// feeding it requests and then raising the stop flag.
    fn run_one_exchange(requests: Vec<Request>) -> Vec<Response> {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);

        for r in &requests {
            send(&mut client, r);
        }
        client.flush();

        let expected_responses = requests
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Request::Lookup { .. }
                        | Request::Insert { .. }
                        | Request::InsertInline { .. }
                        | Request::Delete { .. }
                        | Request::MigratePrepare { .. }
                        | Request::MigrateOut { .. }
                        | Request::MigrateIn { .. }
                )
            })
            .count();

        let handle = std::thread::spawn(move || server.run());
        let responses = (0..expected_responses)
            .map(|_| recv_one(&mut client))
            .collect();
        stop.stop();
        handle.join().unwrap();
        responses
    }

    fn send(client: &mut DuplexClient<u64, Response>, request: &Request) {
        let (w0, w1) = encode(request);
        client.send_blocking(w0);
        if let Some(w1) = w1 {
            client.send_blocking(w1);
        }
    }

    fn recv_one(client: &mut DuplexClient<u64, Response>) -> Response {
        loop {
            if let Some(r) = client.try_recv() {
                return r;
            }
            std::thread::yield_now();
        }
    }

    fn inline(key: u64, bytes: &[u8]) -> Request {
        Request::InsertInline {
            key,
            value: InlineValue::new(bytes).unwrap(),
        }
    }

    #[test]
    fn lookup_on_empty_table_misses() {
        let responses = run_one_exchange(vec![Request::Lookup { key: 7 }]);
        assert_eq!(responses, vec![Response::MISS]);
    }

    #[test]
    fn insert_reserves_space_and_returns_location() {
        let responses = run_one_exchange(vec![Request::Insert { key: 9, size: 64 }]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].has_value());
        assert_eq!(responses[0].value_size(), 64);
    }

    #[test]
    fn a_short_value_goes_in_with_its_request_and_comes_back_in_the_reply() {
        // The awkward words first: bytes that read as the MISS, FOUND and
        // RETRY sentinels anywhere else.
        let values: [&[u8]; 6] = [
            &0u64.to_le_bytes(),
            &1u64.to_le_bytes(),
            &u64::MAX.to_le_bytes(),
            &[],
            &[0xFF; 7],
            &[0; 1],
        ];
        let mut requests = Vec::new();
        for (key, bytes) in values.iter().enumerate() {
            requests.push(inline(key as u64, bytes));
            requests.push(Request::Lookup { key: key as u64 });
        }
        let responses = run_one_exchange(requests);
        for (pair, bytes) in responses.chunks(2).zip(values) {
            assert_eq!(pair[0], Response::FOUND, "stored and published at once");
            let got = pair[1].inline_value().expect("the reply carries the value");
            assert_eq!(got.as_slice(), bytes);
            assert!(pair[1].is_hit() && !pair[1].is_retry() && !pair[1].has_value());
        }
    }

    #[test]
    fn inline_hits_leave_nothing_pinned_and_cut_no_run() {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let stats = Arc::clone(&server.stats);
        let partition_stats = Arc::clone(&server.partition_stats);
        // 8 bytes, then 64 over it, then 8 again: the element changes
        // representation both ways under one key.  No reply is awaited in
        // between, so one drain sees the whole script.
        let mut script = vec![inline(3, &[8; 8]), Request::Lookup { key: 3 }];
        script.push(Request::Insert { key: 3, size: 64 });
        script.push(Request::Lookup { key: 3 }); // NOT-READY: a miss
        script.push(inline(3, &[9; 8]));
        script.extend([Request::Lookup { key: 3 }, Request::Delete { key: 3 }]);
        script.push(Request::Lookup { key: 3 });
        for request in &script {
            send(&mut client, request);
        }
        client.flush();
        let handle = std::thread::spawn(move || server.run());
        let replies: Vec<Response> = script.iter().map(|_| recv_one(&mut client)).collect();
        assert_eq!(replies[0], Response::FOUND);
        assert_eq!(replies[1].inline_value().unwrap().as_slice(), [8; 8]);
        assert!(replies[2].has_value() && replies[2].value_size() == 64);
        assert_eq!(replies[3], Response::MISS);
        assert_eq!(replies[4], Response::FOUND);
        assert_eq!(replies[5].inline_value().unwrap().as_slice(), [9; 8]);
        assert_eq!(replies[6], Response::FOUND);
        assert_eq!(replies[7], Response::MISS);
        // The abandoned 64-byte reservation still holds its insertion
        // reference; `Ready` releases it, and that control message is the
        // only thing in this exchange that could have cut a run — it comes
        // after an awaited reply, so it does not.
        send(
            &mut client,
            &Request::Ready {
                id: replies[2].element_id(),
            },
        );
        client.flush();
        stop.stop();
        handle.join().unwrap();
        assert_eq!(stats.run_cuts(), 0);
        assert_eq!(stats.operations(), script.len() as u64);
        let table = *partition_stats.lock();
        assert_eq!((table.hits, table.replacements, table.deletes), (2, 2, 1));
    }

    #[test]
    fn a_run_cut_is_counted_where_a_control_message_ends_it() {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let stats = Arc::clone(&server.stats);
        send(&mut client, &Request::Insert { key: 1, size: 64 });
        client.flush();
        let handle = std::thread::spawn(move || server.run());
        let reserved = recv_one(&mut client);
        // Five words inside one ring line, published by one flush, so one
        // drain: three lookups, the `Ready` that cuts their run, a lookup.
        let ready = Request::Ready {
            id: reserved.element_id(),
        };
        let script = [
            Request::Lookup { key: 2 },
            Request::Lookup { key: 2 },
            Request::Lookup { key: 2 },
            ready,
            Request::Lookup { key: 1 },
        ];
        for request in &script {
            send(&mut client, request);
        }
        client.flush();
        for _ in 0..3 {
            assert_eq!(recv_one(&mut client), Response::MISS);
        }
        assert!(
            recv_one(&mut client).has_value(),
            "published by the Ready ahead of it"
        );
        stop.stop();
        handle.join().unwrap();
        assert_eq!(stats.run_cuts(), 1);
    }

    #[test]
    fn a_reservation_for_a_short_value_is_refused_untouched() {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let partition_stats = Arc::clone(&server.partition_stats);
        let mut script = vec![inline(5, &[5; 8])];
        script.extend((0..=8).map(|size| Request::Insert { key: 5, size }));
        script.push(Request::Lookup { key: 5 });
        for request in &script {
            send(&mut client, request);
        }
        client.flush();
        let handle = std::thread::spawn(move || server.run());
        let replies: Vec<Response> = script.iter().map(|_| recv_one(&mut client)).collect();
        stop.stop();
        handle.join().unwrap();
        assert_eq!(replies[0], Response::FOUND);
        assert!(replies[1..10].iter().all(|r| *r == Response::MISS));
        assert_eq!(
            replies[10].inline_value().unwrap().as_slice(),
            [5; 8],
            "the key's value survives the refusals"
        );
        let table = *partition_stats.lock();
        assert_eq!(
            (table.inserts, table.replacements, table.failed_inserts),
            (1, 0, 0),
            "the refusals never reached the partition"
        );
    }

    #[test]
    fn trailing_words_may_arrive_a_flush_later() {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let (w0, w1) = encode(&inline(6, &[6; 8]));
        let handle = std::thread::spawn(move || server.run());
        // One word per flush: the server drains the opcode word alone and
        // must wait for the value word.
        for word in [w0, w1.unwrap()] {
            client.send_blocking(word);
            client.flush();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(recv_one(&mut client), Response::FOUND);
        send(&mut client, &Request::Lookup { key: 6 });
        client.flush();
        assert_eq!(
            recv_one(&mut client).inline_value().unwrap().as_slice(),
            [6; 8]
        );
        stop.stop();
        handle.join().unwrap();
    }

    #[test]
    fn a_client_gone_mid_message_does_not_hang_the_server() {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let stats = Arc::clone(&server.stats);
        let (opcode_word, _) = encode(&inline(7, &[7; 8]));
        client.send_blocking(opcode_word);
        client.flush();
        drop(client);
        let handle = std::thread::spawn(move || server.run());
        // The missing word reads as zero (a zeroed value) and the operation
        // still completes; the reply goes nowhere.
        while stats.operations() == 0 {
            std::thread::yield_now();
        }
        stop.stop();
        handle.join().unwrap();
    }

    #[test]
    fn delete_reports_absence() {
        let responses = run_one_exchange(vec![Request::Delete { key: 3 }]);
        assert_eq!(responses, vec![Response::MISS]);
    }

    #[test]
    fn requests_for_keys_owned_elsewhere_are_redirected() {
        // Router says two partitions; this server is index 0, so any key
        // owned by partition 1 must bounce with a retry response.
        let router = Arc::new(EpochRouter::new(2, 64, 2));
        let foreign_key = (0..).find(|k| partition_for_key(*k, 2) == 1).unwrap();
        let (mut client, server, stop) = test_server(0, Arc::clone(&router));
        send(&mut client, &Request::Lookup { key: foreign_key });
        client.flush();
        let handle = std::thread::spawn(move || server.run());
        let resp = loop {
            if let Some(r) = client.try_recv() {
                break r;
            }
            core::hint::spin_loop();
        };
        assert!(resp.is_retry());
        assert_eq!(resp.retry_destination(), 1);
        stop.stop();
        handle.join().unwrap();
    }

    /// Serve `rounds` lookups with the server's one client announced asleep
    /// throughout or never, leaving the server alone after each until it
    /// parks.  Returns the server's counters and prints the spin before
    /// each park (a reading of the host, not an assertion).
    fn park_after_each_of(announce: bool, rounds: u64) -> Arc<ServerStats> {
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let stats = Arc::clone(&server.stats);
        // relaxed: advisory flag, as in the client
        server.clients_asleep[0].store(announce, Ordering::Relaxed);
        let handle = std::thread::spawn(move || server.run());
        let cycles_per_us = cphash_perfmon::estimate_cycles_per_second(10) / 1e6;
        let mut spins = Vec::new();
        for key in 0..rounds {
            // Read before the request: on the short budget the server may
            // park before this thread is back from the reply.
            let (parks, spun) = (stats.parks(), stats.idle_spin_cycles());
            send(&mut client, &Request::Lookup { key });
            client.flush();
            assert_eq!(recv_one(&mut client), Response::MISS);
            while stats.parks() == parks || stats.idle_spin_cycles() == spun {
                std::thread::sleep(Duration::from_micros(100));
            }
            spins.push((stats.idle_spin_cycles() - spun) as f64 / cycles_per_us);
        }
        stop.stop();
        handle.join().unwrap();
        eprintln!("announce {announce}: spin before each park {spins:.0?} µs");
        stats
    }

    #[test]
    fn a_server_whose_clients_all_sleep_parks_after_a_short_spin() {
        // Which budget ran, not how long it took: the time depends on the
        // host (30–50 µs each on a quiet 2-CPU host, more beside a busy
        // neighbour), the budget does not.
        let stats = park_after_each_of(true, 16);
        assert!(stats.parks() >= 16);
        assert_eq!(stats.clients_asleep_parks(), stats.parks());
    }

    #[test]
    fn a_client_that_never_announces_keeps_the_full_spin() {
        // The in-process path is unchanged: no park takes the short budget.
        let stats = park_after_each_of(false, 4);
        assert!(stats.parks() >= 4);
        assert_eq!(stats.clients_asleep_parks(), 0);
    }

    #[test]
    fn raise_submit_lower_alternations_lose_no_request() {
        // The flag is advisory: a server that parks because it read "asleep"
        // a moment before the request was flushed is still rung awake.
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        let stats = Arc::clone(&server.stats);
        let asleep = Arc::clone(&server.clients_asleep[0]);
        let handle = std::thread::spawn(move || server.run());
        for round in 0..2_000u64 {
            asleep.store(true, Ordering::Relaxed); // relaxed: advisory flag, as in the client
            if round % 4 == 0 {
                // Long enough for the short spin to run out.
                std::thread::sleep(Duration::from_micros(200));
            }
            send(&mut client, &inline(round % 16, &round.to_le_bytes()));
            client.flush();
            asleep.store(false, Ordering::Relaxed); // relaxed: advisory flag, as in the client
            let deadline = Instant::now() + Duration::from_secs(10);
            let reply = loop {
                if let Some(r) = client.try_recv() {
                    break r;
                }
                assert!(Instant::now() < deadline, "round {round}: request lost");
                std::thread::yield_now();
            };
            assert_eq!(reply, Response::FOUND);
        }
        stop.stop();
        handle.join().unwrap();
        assert_eq!(stats.operations(), 2_000);
        assert!(stats.parks() > 0, "the server never parked");
    }

    #[test]
    fn corrupt_words_are_skipped() {
        // A zero word has no valid opcode; the following lookup must still
        // be processed.
        let router = Arc::new(EpochRouter::new(1, 64, 1));
        let (mut client, server, stop) = test_server(0, router);
        client.send_blocking(0);
        send(&mut client, &Request::Lookup { key: 1 });
        client.flush();
        let handle = std::thread::spawn(move || server.run());
        let resp = loop {
            if let Some(r) = client.try_recv() {
                break r;
            }
            core::hint::spin_loop();
        };
        assert_eq!(resp, Response::MISS);
        stop.stop();
        handle.join().unwrap();
    }
}
