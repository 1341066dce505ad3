//! Zero-cost-when-off, cycle-stamped stage tracing for the operation hot
//! path.
//!
//! The paper's profiling library (§5) attributed cycles to the phases of
//! the server loop with `rdtsc`; this module is the runtime equivalent.
//! Each traced thread owns a fixed-size ring buffer of [`TraceEvent`]s plus
//! one [`LatencyHistogram`] per [`TraceStage`], covering the lifecycle of a
//! batch of operations:
//!
//! ```text
//! ring-enqueue → drain → prepare → prefetch → execute → reply-publish
//! ```
//!
//! `ring-enqueue` is stamped on the client side (publishing request words
//! into the message ring); the rest on the server side (pulling a lane
//! batch, the staged pipeline's two passes, and pushing responses).
//!
//! **Cost model.**  Tracing is off until [`set_trace_enabled`] turns it on
//! (`cpserverd --trace` does).  When off, a [`StageSpan`] is one relaxed atomic load and a branch
//! per *batch* (not per operation) — the `ablate_prefetch --strict` gate
//! holds this to ≤ 2 % of hot-loop throughput.  When on, each span costs
//! two timestamp reads plus one uncontended mutex'd ring push.
//!
//! Stamps are raw [`cycles_now`] cycles; convert with
//! [`crate::estimate_cycles_per_second`] when wall-clock units are needed.

use cphash_sync::atomic::plain::{AtomicBool, AtomicUsize, Ordering};
use std::cell::OnceCell;
use std::sync::{Arc, Mutex};

use crate::cycles::cycles_now;
use crate::histogram::LatencyHistogram;

/// Pipeline stages an operation batch moves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceStage {
    /// Client side: publishing request words into a server's message ring.
    RingEnqueue = 0,
    /// Server side: pulling a batch of requests off a client lane.
    Drain = 1,
    /// Server side: hashing and staging a batch (no table memory touched).
    Prepare = 2,
    /// Server side: issuing software prefetches for the staged buckets.
    Prefetch = 3,
    /// Server side: executing the staged operations against the partition.
    Execute = 4,
    /// Server side: publishing the batch's responses to the reply ring.
    ReplyPublish = 5,
}

/// Number of [`TraceStage`] variants.
pub const STAGE_COUNT: usize = 6;

/// Every stage, in pipeline order.
pub const ALL_STAGES: [TraceStage; STAGE_COUNT] = [
    TraceStage::RingEnqueue,
    TraceStage::Drain,
    TraceStage::Prepare,
    TraceStage::Prefetch,
    TraceStage::Execute,
    TraceStage::ReplyPublish,
];

impl TraceStage {
    /// Stable lowercase name (used as the Prometheus `stage` label).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::RingEnqueue => "ring_enqueue",
            TraceStage::Drain => "drain",
            TraceStage::Prepare => "prepare",
            TraceStage::Prefetch => "prefetch",
            TraceStage::Execute => "execute",
            TraceStage::ReplyPublish => "reply_publish",
        }
    }
}

/// One cycle-stamped ring entry: a stage executed over `ops` operations.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Which stage.
    pub stage: TraceStage,
    /// [`cycles_now`] stamp when the stage began.
    pub start: u64,
    /// Cycles the stage took.
    pub cycles: u64,
    /// Operations the stage covered (batch size).
    pub ops: u32,
}

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static THREADS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// Is stage tracing currently on?
#[inline]
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
}

/// Turn tracing on or off at runtime (`cpserverd --trace`, tests).
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed); // relaxed: diagnostic gauge; guards no data
}

/// Set the ring capacity (in events) used by threads that start tracing
/// *after* this call; existing rings keep their size.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed); // relaxed: diagnostic gauge; guards no data
}

/// An in-flight stage measurement.
///
/// [`StageSpan::begin`] stamps the cycle counter only when tracing is on;
/// [`StageSpan::finish`] records the event into the calling thread's ring.
/// Dropping a span without finishing records nothing.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span only records when finished"]
pub struct StageSpan {
    stage: TraceStage,
    start: u64,
}

/// Sentinel start value meaning "tracing was off at begin".
const DISABLED: u64 = u64::MAX;

impl StageSpan {
    /// Start measuring a stage (a no-op stamp when tracing is off).
    #[inline]
    pub fn begin(stage: TraceStage) -> StageSpan {
        StageSpan {
            stage,
            start: if trace_enabled() {
                cycles_now()
            } else {
                DISABLED
            },
        }
    }

    /// Finish the stage, attributing it to `ops` operations.
    #[inline]
    pub fn finish(self, ops: u32) {
        if self.start != DISABLED {
            let cycles = cycles_now().saturating_sub(self.start);
            record(TraceEvent {
                stage: self.stage,
                start: self.start,
                cycles,
                ops,
            });
        }
    }
}

/// One thread's trace state.
struct ThreadRing {
    name: String,
    inner: Mutex<RingInner>,
}

struct RingInner {
    /// Fixed-capacity event ring (grows to capacity, then wraps).
    events: Vec<TraceEvent>,
    /// Next write slot once the ring is full.
    next: usize,
    /// Events ever recorded (so wrap-around is observable).
    total: u64,
    /// Per-stage cycle histograms.
    stages: Vec<LatencyHistogram>,
    capacity: usize,
}

impl ThreadRing {
    fn record(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        if inner.events.len() < inner.capacity {
            inner.events.push(event);
        } else {
            let slot = inner.next;
            inner.events[slot] = event;
        }
        inner.next = (inner.next + 1) % inner.capacity;
        inner.total += 1;
        inner.stages[event.stage as usize].record(event.cycles);
    }
}

/// Register the calling thread's ring on first use.
fn register_current_thread() -> Arc<ThreadRing> {
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| {
            static ANON: AtomicUsize = AtomicUsize::new(0);
            format!("thread-{}", ANON.fetch_add(1, Ordering::Relaxed)) // relaxed: monotonic diagnostic counter; guards no data
        });
    let capacity = RING_CAPACITY.load(Ordering::Relaxed); // relaxed: diagnostic snapshot; tearing across counters is fine
    let ring = Arc::new(ThreadRing {
        name,
        inner: Mutex::new(RingInner {
            events: Vec::with_capacity(capacity.min(4096)),
            next: 0,
            total: 0,
            stages: vec![LatencyHistogram::new(); STAGE_COUNT],
            capacity,
        }),
    });
    THREADS
        .lock()
        .expect("trace thread registry poisoned")
        .push(Arc::clone(&ring));
    ring
}

#[inline]
fn record(event: TraceEvent) {
    RING.with(|cell| {
        cell.get_or_init(register_current_thread).record(event);
    });
}

/// Per-thread trace state flattened for reporting.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// The traced thread's name.
    pub name: String,
    /// Events ever recorded by this thread (≥ `events.len()` after wrap).
    pub total: u64,
    /// The retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time view of every traced thread — the dumpable event log
/// plus per-stage latency histograms merged across threads.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-stage cycle histograms (pipeline order, one per
    /// [`ALL_STAGES`] entry).
    pub stages: Vec<(TraceStage, LatencyHistogram)>,
    /// Per-thread retained events.
    pub threads: Vec<ThreadTrace>,
}

impl TraceReport {
    /// Events ever recorded across all threads.
    pub fn total_events(&self) -> u64 {
        self.threads.iter().map(|t| t.total).sum()
    }

    /// The merged histogram for one stage.
    pub fn stage(&self, stage: TraceStage) -> &LatencyHistogram {
        &self.stages[stage as usize].1
    }

    /// Render a per-stage summary table (cycles per batch).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events across {} threads\n",
            self.total_events(),
            self.threads.len()
        ));
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>12} {:>12}\n",
            "stage", "batches", "mean cy", "p50 cy", "p99 cy"
        ));
        for (stage, hist) in &self.stages {
            if hist.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>10} {:>12.0} {:>12} {:>12}\n",
                stage.name(),
                hist.count(),
                hist.mean(),
                hist.percentile(50.0),
                hist.percentile(99.0)
            ));
        }
        out
    }
}

/// Snapshot every traced thread: merged per-stage histograms plus up to
/// `max_events_per_thread` most recent events per thread, oldest first.
pub fn snapshot(max_events_per_thread: usize) -> TraceReport {
    let threads = THREADS.lock().expect("trace thread registry poisoned");
    let mut stages = ALL_STAGES
        .iter()
        .map(|&s| (s, LatencyHistogram::new()))
        .collect::<Vec<_>>();
    let mut out_threads = Vec::with_capacity(threads.len());
    for ring in threads.iter() {
        let inner = ring.inner.lock().expect("trace ring poisoned");
        for (slot, hist) in inner.stages.iter().enumerate() {
            stages[slot].1.merge(hist);
        }
        // Reconstruct oldest→newest order: once wrapped, `next` points at
        // the oldest retained event.
        let mut events = Vec::with_capacity(inner.events.len().min(max_events_per_thread));
        let wrapped = inner.events.len() == inner.capacity && inner.total > inner.capacity as u64;
        let ordered = if wrapped {
            inner.events[inner.next..]
                .iter()
                .chain(inner.events[..inner.next].iter())
                .copied()
                .collect::<Vec<_>>()
        } else {
            inner.events.clone()
        };
        let skip = ordered.len().saturating_sub(max_events_per_thread);
        events.extend(ordered.into_iter().skip(skip));
        out_threads.push(ThreadTrace {
            name: ring.name.clone(),
            total: inner.total,
            events,
        });
    }
    TraceReport {
        stages,
        threads: out_threads,
    }
}

/// The merged cycle histogram for one stage across all traced threads —
/// the non-destructive sampler the metrics registry exposes per stage.
pub fn stage_histogram(stage: TraceStage) -> LatencyHistogram {
    let threads = THREADS.lock().expect("trace thread registry poisoned");
    let mut merged = LatencyHistogram::new();
    for ring in threads.iter() {
        let inner = ring.inner.lock().expect("trace ring poisoned");
        merged.merge(&inner.stages[stage as usize]);
    }
    merged
}

/// Clear every thread's ring and histograms (benchmarks, tests).  Threads
/// keep their registration; capacity is unchanged.
pub fn reset() {
    let threads = THREADS.lock().expect("trace thread registry poisoned");
    for ring in threads.iter() {
        let mut inner = ring.inner.lock().expect("trace ring poisoned");
        inner.events.clear();
        inner.next = 0;
        inner.total = 0;
        for hist in inner.stages.iter_mut() {
            *hist = LatencyHistogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state (enable flag, ring capacity, thread registry) is
    /// process-global; serialize the tests that mutate it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `body` on a fresh named thread with tracing on, returning that
    /// thread's [`ThreadTrace`].  Global trace state is shared across the
    /// test binary, so each test filters by its own unique thread name.
    fn traced_thread(name: &str, body: impl FnOnce() + Send + 'static) -> ThreadTrace {
        set_trace_enabled(true);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(body)
            .unwrap()
            .join()
            .unwrap();
        let report = snapshot(usize::MAX);
        report
            .threads
            .into_iter()
            .find(|t| t.name == name)
            .expect("traced thread registered")
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_guard();
        set_trace_enabled(false);
        let span = StageSpan::begin(TraceStage::Execute);
        span.finish(64);
        // The current thread never traced, so it must not appear.
        let report = snapshot(16);
        assert!(report
            .threads
            .iter()
            .all(|t| t.name != "perfmon-trace-disabled"));
        set_trace_enabled(true);
        assert!(trace_enabled());
        set_trace_enabled(false);
    }

    #[test]
    fn spans_feed_the_ring_and_stage_histograms() {
        let _guard = test_guard();
        let trace = traced_thread("trace-feeds-ring", || {
            for round in 0..10u32 {
                let span = StageSpan::begin(TraceStage::Prepare);
                std::hint::black_box(round * 7);
                span.finish(8);
            }
        });
        set_trace_enabled(false);
        assert_eq!(trace.total, 10);
        assert_eq!(trace.events.len(), 10);
        assert!(trace
            .events
            .iter()
            .all(|e| e.stage == TraceStage::Prepare && e.ops == 8));
        // Start stamps are non-decreasing within a thread.
        for pair in trace.events.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        assert!(stage_histogram(TraceStage::Prepare).count() >= 10);
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_events() {
        let _guard = test_guard();
        set_ring_capacity(8);
        let trace = traced_thread("trace-wraps", || {
            for i in 0..20u32 {
                let span = StageSpan::begin(TraceStage::Drain);
                span.finish(i);
            }
        });
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_trace_enabled(false);
        assert_eq!(trace.total, 20, "every event was counted");
        assert_eq!(trace.events.len(), 8, "the ring kept its capacity");
        // The retained window is the last 8 events, oldest first.
        let ops: Vec<u32> = trace.events.iter().map(|e| e.ops).collect();
        assert_eq!(ops, (12..20).collect::<Vec<u32>>());
        // The histograms saw all 20 even though the ring wrapped.
        assert!(stage_histogram(TraceStage::Drain).count() >= 20);
    }

    #[test]
    fn snapshot_truncates_to_the_most_recent_events() {
        let _guard = test_guard();
        let _ = traced_thread("trace-truncates", || {
            for i in 0..6u32 {
                let span = StageSpan::begin(TraceStage::ReplyPublish);
                span.finish(100 + i);
            }
        });
        set_trace_enabled(false);
        let report = snapshot(3);
        let t = report
            .threads
            .iter()
            .find(|t| t.name == "trace-truncates")
            .unwrap();
        let ops: Vec<u32> = t.events.iter().map(|e| e.ops).collect();
        assert_eq!(ops, vec![103, 104, 105]);
        assert!(report.render().contains("reply_publish"));
    }

    #[test]
    fn stage_names_are_unique_and_stable() {
        let names: Vec<_> = ALL_STAGES.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), STAGE_COUNT);
        assert_eq!(TraceStage::RingEnqueue.name(), "ring_enqueue");
    }
}
