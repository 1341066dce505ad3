//! Multi-threaded benchmark drivers for CPHash and LockHash.
//!
//! Both drivers run the *same* [`WorkloadSpec`] through the *same*
//! per-thread operation streams; the only difference is how operations reach
//! the partitions — pipelined messages to pinned server threads for CPHash,
//! lock-acquire-then-execute on the issuing thread for LockHash.  That keeps
//! every figure an apples-to-apples comparison, as in the paper.

use cphash_sync::atomic::plain::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cphash::{CompletionKind, CpHash, CpHashConfig};
use cphash_affinity::{pin_to_hw_thread, HwThreadId};
use cphash_hashcore::{EvictionPolicy, PartitionStats};
use cphash_lockhash::{LockHash, LockHashConfig, LockKind};
use cphash_perfmon::{trace, DataSeries, Stopwatch};

use crate::ops::{working_set_keys, Op, OpStream};
use crate::workload::WorkloadSpec;

/// Thread-placement and table-shape options for one run.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Client threads issuing operations.
    pub client_threads: usize,
    /// CPHash partitions / server threads, or LockHash partitions.
    pub partitions: usize,
    /// Eviction policy for the table under test.
    pub eviction: EvictionPolicy,
    /// Hardware threads to pin client threads to (empty = unpinned).
    pub client_pins: Vec<HwThreadId>,
    /// Hardware threads to pin CPHash server threads to (empty = unpinned).
    pub server_pins: Vec<HwThreadId>,
    /// Lock algorithm for LockHash.
    pub lock_kind: LockKind,
    /// Message-ring capacity for CPHash lanes.
    pub ring_capacity: usize,
    /// Pipeline depth for CPHash servers (operations staged per batch).
    pub server_batch_size: usize,
    /// Throughput-timeline sampling interval in milliseconds (0 disables
    /// the sampler; the result's [`RunResult::timeline`] stays empty).
    pub timeline_sample_ms: u64,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            client_threads: 4,
            partitions: 4,
            eviction: EvictionPolicy::Clock,
            client_pins: Vec::new(),
            server_pins: Vec::new(),
            lock_kind: LockKind::Spin,
            ring_capacity: 4096,
            server_batch_size: cphash::DEFAULT_BATCH_SIZE,
            timeline_sample_ms: 100,
        }
    }
}

impl DriverOptions {
    /// Options with the given thread and partition counts.
    pub fn new(client_threads: usize, partitions: usize) -> Self {
        DriverOptions {
            client_threads,
            partitions,
            ..Default::default()
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which table produced it ("cphash" / "lockhash").
    pub label: String,
    /// Operations completed.
    pub operations: u64,
    /// Wall-clock seconds for the timed phase.
    pub elapsed_secs: f64,
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups that hit.
    pub lookup_hits: u64,
    /// Inserts issued.
    pub inserts: u64,
    /// Aggregated partition statistics at the end of the run.
    pub table_stats: PartitionStats,
    /// Mean server utilization (CPHash only).
    pub mean_server_utilization: Option<f64>,
    /// Batch-pipeline counters merged across server threads (CPHash only).
    pub batch: cphash::BatchStats,
    /// Lock contention ratio (LockHash only).
    pub lock_contention: Option<f64>,
    /// How many client threads were successfully pinned.
    pub pinned_client_threads: usize,
    /// Throughput over time: one point per sampling interval (x = seconds
    /// since the timed phase began, y = ops/sec over that interval).  Empty
    /// when [`DriverOptions::timeline_sample_ms`] is 0.
    pub timeline: DataSeries,
}

impl RunResult {
    /// Queries per second over the timed phase.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / self.elapsed_secs
        }
    }

    /// Observed lookup hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookup_hits as f64 / self.lookups as f64
        }
    }
}

/// Per-thread tallies returned by worker threads.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadTally {
    operations: u64,
    lookups: u64,
    hits: u64,
    inserts: u64,
    pinned: bool,
}

/// Background throughput sampler: while the timed phase runs, workers bump
/// a shared cumulative-operations counter (amortised — once per completion
/// batch, not per op) and this thread turns it into an ops/sec-over-time
/// [`DataSeries`].  The sampler pushes a final catch-up point on `finish`,
/// so even runs shorter than one interval produce a non-empty timeline.
struct TimelineSampler {
    progress: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<DataSeries>>,
    label: String,
}

impl TimelineSampler {
    fn start(label: &str, interval_ms: u64) -> TimelineSampler {
        let progress = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = (interval_ms > 0).then(|| {
            let progress = Arc::clone(&progress);
            let stop = Arc::clone(&stop);
            let label = label.to_string();
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut series = DataSeries::new(label);
                let mut last_ops = 0u64;
                let mut last_at = 0.0f64;
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    if !stopping {
                        std::thread::sleep(Duration::from_millis(interval_ms));
                    }
                    let now = started.elapsed().as_secs_f64();
                    let ops = progress.load(Ordering::Relaxed); // relaxed: progress counter read by the live reporter
                    let dt = now - last_at;
                    if ops > last_ops && dt > 0.0 {
                        series.push(now, (ops - last_ops) as f64 / dt);
                    }
                    last_ops = ops;
                    last_at = now;
                    if stopping {
                        return series;
                    }
                }
            })
        });
        TimelineSampler {
            progress,
            stop,
            handle,
            label: label.to_string(),
        }
    }

    /// The shared counter worker threads advance.
    fn progress(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.progress)
    }

    fn finish(mut self) -> DataSeries {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(handle) => handle.join().expect("timeline sampler panicked"),
            None => DataSeries::new(self.label),
        }
    }
}

fn ops_per_client(spec: &WorkloadSpec, clients: usize, index: usize) -> u64 {
    let base = spec.operations / clients as u64;
    let extra = spec.operations % clients as u64;
    base + if (index as u64) < extra { 1 } else { 0 }
}

/// Run the workload against CPHash (pipelined clients + server threads).
pub fn run_cphash(spec: &WorkloadSpec, opts: &DriverOptions) -> RunResult {
    spec.validate();
    let config = CpHashConfig {
        partitions: opts.partitions,
        clients: opts.client_threads,
        ring_capacity: opts.ring_capacity,
        server_pins: opts.server_pins.clone(),
        eviction: opts.eviction,
        batch_size: opts.server_batch_size,
        ..CpHashConfig::new(opts.partitions, opts.client_threads)
            .with_capacity(spec.capacity_bytes, spec.value_bytes)
    };
    let (mut table, mut clients) = CpHash::new(config);

    // Prefill the table so lookups have realistic hit rates from the start.
    if spec.prefill {
        let client = &mut clients[0];
        let mut completions = Vec::new();
        for key in working_set_keys(spec) {
            client.submit_insert(key, &key.to_le_bytes());
            if client.outstanding() >= spec.batch {
                completions.clear();
                while client.poll(&mut completions) == 0 {
                    core::hint::spin_loop();
                }
            }
        }
        completions.clear();
        client.drain(&mut completions).expect("prefill completes");
        // A traced run (`figures breakdown`) divides the stage cycles by the
        // timed phase's operations, so the prefill's spans must not count.
        if trace::trace_enabled() {
            trace::reset();
        }
    }

    let barrier = Arc::new(Barrier::new(opts.client_threads + 1));
    let sampler = TimelineSampler::start("cphash", opts.timeline_sample_ms);
    let mut workers = Vec::with_capacity(opts.client_threads);
    for (index, mut client) in clients.into_iter().enumerate() {
        let barrier = Arc::clone(&barrier);
        let spec = *spec;
        let pin = opts.client_pins.get(index).copied();
        let window = spec.batch;
        let ops = ops_per_client(&spec, opts.client_threads, index);
        let progress = sampler.progress();
        workers.push(std::thread::spawn(move || {
            let pinned = pin
                .map(|hw| pin_to_hw_thread(hw).is_pinned())
                .unwrap_or(false);
            let mut stream = OpStream::for_client(&spec, index, ops);
            let mut tally = ThreadTally {
                pinned,
                ..Default::default()
            };
            let mut completions: Vec<cphash::Completion> = Vec::with_capacity(window);
            barrier.wait();
            loop {
                // Keep the pipeline full: queue requests until the window is
                // reached or the stream runs dry.
                while client.outstanding() < window {
                    match stream.next() {
                        Some(Op::Lookup(key)) => {
                            client.submit_lookup(key);
                            tally.lookups += 1;
                        }
                        Some(Op::Insert(key)) => {
                            client.submit_insert(key, &key.to_le_bytes());
                            tally.inserts += 1;
                        }
                        None => break,
                    }
                }
                if stream.remaining() == 0 && client.outstanding() == 0 {
                    break;
                }
                completions.clear();
                if client.poll(&mut completions) == 0 {
                    client.flush();
                    core::hint::spin_loop();
                }
                for c in &completions {
                    tally.operations += 1;
                    if matches!(c.kind, CompletionKind::LookupHit(_)) {
                        tally.hits += 1;
                    }
                }
                // One relaxed add per completion batch keeps the sampler fed
                // without perturbing the per-op hot path.
                if !completions.is_empty() {
                    // relaxed: progress counter read by the live reporter
                    progress.fetch_add(completions.len() as u64, Ordering::Relaxed);
                }
            }
            tally
        }));
    }

    barrier.wait();
    let watch = Stopwatch::start();
    let tallies: Vec<ThreadTally> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread panicked"))
        .collect();
    let elapsed = watch.elapsed_secs();
    let timeline = sampler.finish();

    let snapshot = table.snapshot();
    table.shutdown();
    let table_stats = table.partition_stats();

    let mut result = RunResult {
        label: "cphash".to_string(),
        operations: 0,
        elapsed_secs: elapsed,
        lookups: 0,
        lookup_hits: 0,
        inserts: 0,
        table_stats,
        mean_server_utilization: Some(snapshot.mean_utilization),
        batch: snapshot.batch,
        lock_contention: None,
        pinned_client_threads: 0,
        timeline,
    };
    for t in tallies {
        result.operations += t.operations;
        result.lookups += t.lookups;
        result.lookup_hits += t.hits;
        result.inserts += t.inserts;
        result.pinned_client_threads += usize::from(t.pinned);
    }
    result
}

/// Run the workload against LockHash (one worker per client thread).
pub fn run_lockhash(spec: &WorkloadSpec, opts: &DriverOptions) -> RunResult {
    spec.validate();
    let config = LockHashConfig::new(opts.partitions)
        .with_capacity(spec.capacity_bytes, spec.value_bytes)
        .with_eviction(opts.eviction)
        .with_lock_kind(opts.lock_kind);
    let table = Arc::new(LockHash::new(config));

    if spec.prefill {
        // Parallel prefill: split the working set across the client threads.
        let keys: Vec<u64> = working_set_keys(spec).collect();
        let chunk = keys.len().div_ceil(opts.client_threads.max(1));
        std::thread::scope(|scope| {
            for slice in keys.chunks(chunk.max(1)) {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    for &key in slice {
                        table.insert(key, &key.to_le_bytes());
                    }
                });
            }
        });
    }

    let barrier = Arc::new(Barrier::new(opts.client_threads + 1));
    let sampler = TimelineSampler::start("lockhash", opts.timeline_sample_ms);
    let mut workers = Vec::with_capacity(opts.client_threads);
    for index in 0..opts.client_threads {
        let table = Arc::clone(&table);
        let barrier = Arc::clone(&barrier);
        let spec = *spec;
        let pin = opts.client_pins.get(index).copied();
        let ops = ops_per_client(&spec, opts.client_threads, index);
        let progress = sampler.progress();
        workers.push(std::thread::spawn(move || {
            let pinned = pin
                .map(|hw| pin_to_hw_thread(hw).is_pinned())
                .unwrap_or(false);
            let mut tally = ThreadTally {
                pinned,
                ..Default::default()
            };
            let mut value_buf = Vec::with_capacity(spec.value_bytes);
            let stream = OpStream::for_client(&spec, index, ops);
            // Flush the shared progress counter in chunks so the timeline
            // sampler never becomes a contended per-op atomic.
            const FLUSH_EVERY: u64 = 4096;
            let mut unflushed = 0u64;
            barrier.wait();
            for op in stream {
                match op {
                    Op::Lookup(key) => {
                        tally.lookups += 1;
                        if table.lookup(key, &mut value_buf) {
                            tally.hits += 1;
                        }
                    }
                    Op::Insert(key) => {
                        tally.inserts += 1;
                        table.insert(key, &key.to_le_bytes());
                    }
                }
                tally.operations += 1;
                unflushed += 1;
                if unflushed == FLUSH_EVERY {
                    progress.fetch_add(unflushed, Ordering::Relaxed); // relaxed: progress counter read by the live reporter
                    unflushed = 0;
                }
            }
            if unflushed > 0 {
                progress.fetch_add(unflushed, Ordering::Relaxed); // relaxed: progress counter read by the live reporter
            }
            tally
        }));
    }

    barrier.wait();
    let watch = Stopwatch::start();
    let tallies: Vec<ThreadTally> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread panicked"))
        .collect();
    let elapsed = watch.elapsed_secs();
    let timeline = sampler.finish();

    let mut result = RunResult {
        label: "lockhash".to_string(),
        operations: 0,
        elapsed_secs: elapsed,
        lookups: 0,
        lookup_hits: 0,
        inserts: 0,
        table_stats: table.stats(),
        mean_server_utilization: None,
        batch: cphash::BatchStats::default(),
        lock_contention: Some(table.lock_stats().contention_ratio()),
        pinned_client_threads: 0,
        timeline,
    };
    for t in tallies {
        result.operations += t.operations;
        result.lookups += t.lookups;
        result.lookup_hits += t.hits;
        result.inserts += t.inserts;
        result.pinned_client_threads += usize::from(t.pinned);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            working_set_bytes: 64 * 1024,
            capacity_bytes: 64 * 1024,
            operations: 40_000,
            batch: 256,
            ..Default::default()
        }
    }

    #[test]
    fn cphash_driver_completes_every_operation() {
        let spec = small_spec();
        let result = run_cphash(&spec, &DriverOptions::new(2, 2));
        assert_eq!(result.operations, spec.operations);
        assert_eq!(result.lookups + result.inserts, spec.operations);
        assert!(result.throughput() > 0.0);
        // With prefill and capacity == working set, most lookups hit.
        assert!(result.hit_rate() > 0.8, "hit rate {}", result.hit_rate());
        assert!(result.mean_server_utilization.is_some());
        assert_eq!(result.label, "cphash");
        // The sampler's final catch-up point guarantees a non-empty
        // timeline even for runs shorter than one sampling interval.
        assert!(!result.timeline.points.is_empty());
        assert!(result.timeline.points.iter().all(|p| p.y > 0.0));
    }

    #[test]
    fn timeline_sampling_can_be_disabled() {
        let spec = small_spec();
        let mut opts = DriverOptions::new(2, 2);
        opts.timeline_sample_ms = 0;
        let result = run_cphash(&spec, &opts);
        assert_eq!(result.operations, spec.operations);
        assert!(result.timeline.points.is_empty());
    }

    #[test]
    fn lockhash_driver_completes_every_operation() {
        let spec = small_spec();
        let result = run_lockhash(&spec, &DriverOptions::new(2, 64));
        assert_eq!(result.operations, spec.operations);
        assert!(result.throughput() > 0.0);
        assert!(result.hit_rate() > 0.8, "hit rate {}", result.hit_rate());
        assert!(result.lock_contention.is_some());
        assert_eq!(result.label, "lockhash");
        assert!(!result.timeline.points.is_empty());
    }

    #[test]
    fn both_drivers_respect_the_insert_ratio() {
        let mut spec = small_spec();
        spec.operations = 20_000;
        spec.insert_ratio = 0.5;
        for result in [
            run_cphash(&spec, &DriverOptions::new(2, 2)),
            run_lockhash(&spec, &DriverOptions::new(2, 16)),
        ] {
            let ratio = result.inserts as f64 / result.operations as f64;
            assert!(
                (ratio - 0.5).abs() < 0.05,
                "{}: insert ratio {ratio}",
                result.label
            );
        }
    }

    #[test]
    fn no_prefill_means_cold_misses() {
        let mut spec = small_spec();
        spec.prefill = false;
        spec.insert_ratio = 0.0;
        spec.operations = 5_000;
        let result = run_cphash(&spec, &DriverOptions::new(1, 2));
        assert_eq!(result.lookup_hits, 0, "nothing was ever inserted");
        let result = run_lockhash(&spec, &DriverOptions::new(1, 16));
        assert_eq!(result.lookup_hits, 0);
    }

    #[test]
    fn throughput_helpers() {
        let r = RunResult {
            label: "x".into(),
            operations: 1000,
            elapsed_secs: 2.0,
            lookups: 700,
            lookup_hits: 350,
            inserts: 300,
            table_stats: PartitionStats::default(),
            mean_server_utilization: None,
            batch: cphash::BatchStats::default(),
            lock_contention: None,
            pinned_client_threads: 0,
            timeline: DataSeries::new("x"),
        };
        assert_eq!(r.throughput(), 500.0);
        assert_eq!(r.hit_rate(), 0.5);
    }
}
