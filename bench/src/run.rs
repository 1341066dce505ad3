//! One run of one workload: set-up, the untraced or traced measured phase,
//! tear-down with cross-checks, and (traced) the single-layer rungs.

use std::path::PathBuf;
use std::time::Instant;

use cphash::{ClientHandle, CpHash, CpHashConfig, RemoteClient};
use cphash_alloc::SlabAllocator;
use cphash_kvproto::envelope;
use cphash_kvserver::{CpServer, CpServerConfig};
use cphash_perfmon::trace::{self, ALL_STAGES};

use crate::alloc_count::{self, AllocCounts};
use crate::engine::{
    run_closed, run_paced, Backend, Clock, ClosedReport, Conn, Counts, PacedReport, StepReport,
    Verifier,
};
use crate::gen::{KeySpace, OpStream};
use crate::host::{self, Usage};
use crate::json::Json;
use crate::rungs;
use crate::span::{SpanName, SpanRecorder};
use crate::spec::{
    rate_label, Metrics, Path, Workload, END_TO_END, LIMIT_ACHIEVED, LIMIT_P99_US, REFERENCE_RATE,
    WARMUP_SECONDS, WINDOWS,
};
use crate::stats::{median, spread, Histogram};

/// What to run.
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Generator seed.
    pub seed: u64,
    /// Timed-phase length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Where `<workload>.trace.jsonl` goes.
    pub out_dir: PathBuf,
    /// Commit id for the fingerprint.
    pub commit: String,
}

/// What a run produced.
pub struct RunResult {
    /// Every metric of the run's mode, in `spec.rs` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted (engines + rungs).
    pub attempted: u64,
    /// Operations failed, plus cross-check mismatches.
    pub failed: u64,
    /// Everything else worth keeping (windows, fingerprint, counters).
    pub detail: Json,
}

/// Counters the layers export, read live from outside.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounters {
    busy_iterations: u64,
    idle_iterations: u64,
    batches: u64,
    batch_ops: u64,
    prefetches: u64,
    bytes_in: u64,
    bytes_out: u64,
    wakeups: u64,
    events: u64,
    idle_sleeps: u64,
    syscalls: u64,
    retries_emitted: u64,
}

impl LayerCounters {
    fn since(&self, e: &LayerCounters) -> LayerCounters {
        LayerCounters {
            busy_iterations: self.busy_iterations - e.busy_iterations,
            idle_iterations: self.idle_iterations - e.idle_iterations,
            batches: self.batches - e.batches,
            batch_ops: self.batch_ops - e.batch_ops,
            prefetches: self.prefetches - e.prefetches,
            bytes_in: self.bytes_in - e.bytes_in,
            bytes_out: self.bytes_out - e.bytes_out,
            wakeups: self.wakeups - e.wakeups,
            events: self.events - e.events,
            idle_sleeps: self.idle_sleeps - e.idle_sleeps,
            syscalls: self.syscalls - e.syscalls,
            retries_emitted: self.retries_emitted - e.retries_emitted,
        }
    }
}

/// A started program under test plus the generator's connections to it.
trait Instance: Sized {
    type B: Backend;
    fn start(w: &Workload, keys: &KeySpace) -> Result<Self, String>;
    /// Split borrow: the connections, and a live counter reader.
    fn parts(&mut self) -> (&mut [Conn<Self::B>], &dyn CounterSource);
    /// (migration retries, write deferrals) the client library counted.
    fn client_counters(&self) -> (u64, u64);
    /// Stop everything; returns how many cross-checks against the
    /// program's own statistics failed.
    fn finish(self, counts: &Counts, notes: &mut Vec<String>) -> u64;
}

trait CounterSource {
    fn read(&self) -> LayerCounters;
}

struct Inproc {
    table: CpHash,
    conns: Vec<Conn<ClientHandle>>,
}

impl CounterSource for CpHash {
    fn read(&self) -> LayerCounters {
        use std::sync::atomic::Ordering::Relaxed;
        let server = &self.server_stats()[0];
        let batch = self.snapshot().batch;
        LayerCounters {
            // relaxed: diagnostic counters, as the crate's own readers use.
            busy_iterations: server.busy_iterations.load(Relaxed),
            idle_iterations: server.idle_iterations.load(Relaxed),
            batches: batch.batches,
            batch_ops: batch.ops,
            prefetches: batch.prefetches,
            ..Default::default()
        }
    }
}

impl Instance for Inproc {
    type B = ClientHandle;

    fn start(w: &Workload, _keys: &KeySpace) -> Result<Inproc, String> {
        let (table, handles) = CpHash::new(CpHashConfig {
            partitions: 1,
            clients: 1,
            buckets_per_partition: w.buckets,
            ..Default::default()
        });
        Ok(Inproc {
            table,
            conns: handles.into_iter().map(Conn::new).collect(),
        })
    }

    fn parts(&mut self) -> (&mut [Conn<ClientHandle>], &dyn CounterSource) {
        (&mut self.conns, &self.table)
    }

    fn client_counters(&self) -> (u64, u64) {
        let handle = &self.conns[0].backend;
        (handle.migration_retries(), handle.write_deferrals())
    }

    fn finish(mut self, counts: &Counts, notes: &mut Vec<String>) -> u64 {
        drop(std::mem::take(&mut self.conns));
        self.table.shutdown();
        // Published at the latest on shutdown, so exact from here on.
        let stats = self.table.partition_stats();
        cross_check(
            notes,
            "PartitionStats",
            counts,
            stats.lookups,
            stats.hits,
            stats.inserts,
            stats.evictions,
        )
    }
}

struct Tcp {
    server: CpServer,
    conns: Vec<Conn<RemoteClient>>,
}

impl CounterSource for CpServer {
    fn read(&self) -> LayerCounters {
        let s = self.metrics().snapshot();
        LayerCounters {
            batches: s.batch.batches,
            batch_ops: s.batch.ops,
            prefetches: s.batch.prefetches,
            bytes_in: s.bytes_in,
            bytes_out: s.bytes_out,
            wakeups: s.frontend_wakeups,
            events: s.frontend_events,
            idle_sleeps: s.frontend_idle_sleeps,
            syscalls: s.frontend_syscalls,
            retries_emitted: s.retries_emitted,
            ..Default::default()
        }
    }
}

impl Instance for Tcp {
    type B = RemoteClient;

    fn start(w: &Workload, keys: &KeySpace) -> Result<Tcp, String> {
        // Uncapped in effect: the byte budget is 4x what every key's block
        // needs, and it doubles as the bucket-count knob (budget / typical
        // value size = buckets), so the table has `w.buckets` buckets.
        let block = SlabAllocator::block_bytes_for(rungs::stored_len(w, keys));
        let typical = (4 * w.keys * block / w.buckets).max(1);
        let server = CpServer::start(CpServerConfig {
            client_threads: 1,
            partitions: 1,
            capacity_bytes: Some(w.buckets * typical),
            typical_value_bytes: typical,
            ..Default::default()
        })
        .map_err(|e| format!("starting CpServer: {e}"))?;
        let conns = (0..w.connections)
            .map(|_| {
                RemoteClient::connect(server.addr())
                    .map(Conn::new)
                    .map_err(|e| format!("connecting to {}: {e}", server.addr()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if conns
            .iter()
            .any(|c| c.backend.protocol_version() != cphash_kvproto::VERSION_2)
        {
            return Err("server did not negotiate kvproto v2".to_string());
        }
        Ok(Tcp { server, conns })
    }

    fn parts(&mut self) -> (&mut [Conn<RemoteClient>], &dyn CounterSource) {
        (&mut self.conns, &self.server)
    }

    fn client_counters(&self) -> (u64, u64) {
        (self.conns.iter().map(|c| c.backend.retries()).sum(), 0)
    }

    fn finish(mut self, counts: &Counts, notes: &mut Vec<String>) -> u64 {
        let retries = self.client_counters().0;
        if retries > 0 {
            notes.push(format!(
                "client resubmitted {retries} operations after Retry replies"
            ));
        }
        let s = self.server.metrics().snapshot();
        let mut bad = cross_check(
            notes,
            "ServerMetrics",
            counts,
            s.lookups,
            s.hits,
            s.inserts,
            0,
        );
        // The partition server republishes its statistics every 4096 loop
        // iterations; idle iterations take well under a microsecond.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let p = self.server.table_stats();
        bad += cross_check(
            notes,
            "PartitionStats",
            counts,
            p.lookups,
            p.hits,
            p.inserts,
            p.evictions,
        );
        drop(std::mem::take(&mut self.conns));
        self.server.shutdown();
        bad
    }
}

/// Client-observed counts against the program's own statistics.
fn cross_check(
    notes: &mut Vec<String>,
    source: &str,
    counts: &Counts,
    lookups: u64,
    hits: u64,
    inserts: u64,
    evictions: u64,
) -> u64 {
    let mut bad = 0;
    for (what, theirs, ours) in [
        ("lookups", lookups, counts.gets),
        ("hits", hits, counts.get_hits),
        ("inserts", inserts, counts.sets),
        ("evictions", evictions, 0),
    ] {
        if theirs != ours {
            bad += 1;
            notes.push(format!(
                "{source}.{what} = {theirs} but the client observed {ours}"
            ));
        }
    }
    bad
}

/// The load shape of a measured phase.
#[derive(Clone, Copy)]
enum Load {
    Closed { window: usize },
    Paced { rates: &'static [u32] },
}

/// A measured phase, whichever engine produced it.  The headline fields
/// describe the part of the run per-operation figures refer to: the whole
/// timed phase of a closed loop, the reference rate step of an open loop.
struct Phase {
    ops: u64,
    wall_cycles: u64,
    cpu: Usage,
    allocs: AllocCounts,
    gen_allocs: AllocCounts,
    get_latency: Histogram,
    set_latency: Histogram,
    window_latency: Vec<Histogram>,
    /// Closed loop: completed operations per second in each window.
    windows_ops_s: Vec<f64>,
    /// Closed loop: throughput over the second half of the warm-up.
    warm_ops_s: Option<f64>,
    /// Open loop: every rate step, and the generator's lateness.
    steps: Vec<StepReport>,
    lateness: Histogram,
}

impl Phase {
    fn from_closed(r: ClosedReport) -> Phase {
        Phase {
            ops: r.ops,
            wall_cycles: r.wall_cycles,
            cpu: r.cpu,
            allocs: r.allocs,
            gen_allocs: r.gen_allocs,
            get_latency: r.get_latency,
            set_latency: r.set_latency,
            window_latency: r.window_latency,
            windows_ops_s: r.windows,
            warm_ops_s: Some(r.warm_ops_s),
            steps: Vec::new(),
            lateness: Histogram::new(),
        }
    }

    fn from_paced(r: PacedReport) -> Phase {
        let reference = r
            .steps
            .iter()
            .find(|s| s.rate == REFERENCE_RATE)
            .or(r.steps.first())
            .expect("an open-loop run has at least one rate step");
        Phase {
            ops: reference.offered,
            wall_cycles: reference.wall_cycles,
            cpu: reference.cpu,
            allocs: reference.allocs,
            gen_allocs: reference.gen_allocs,
            get_latency: reference.get_latency.clone(),
            set_latency: reference.set_latency.clone(),
            window_latency: reference.window_latency.clone(),
            windows_ops_s: Vec::new(),
            warm_ops_s: None,
            steps: r.steps,
            lateness: r.lateness,
        }
    }

    fn is_paced(&self) -> bool {
        !self.steps.is_empty()
    }

    /// Operations and seconds of the whole timed phase (every rate step).
    fn whole(&self, clock: &Clock) -> (u64, f64) {
        if self.is_paced() {
            (
                self.steps.iter().map(|s| s.offered).sum(),
                clock.seconds(self.steps.iter().map(|s| s.wall_cycles).sum()),
            )
        } else {
            (self.ops, clock.seconds(self.wall_cycles))
        }
    }

    /// Cycles per completed operation where the path is busiest.  Closed
    /// loop: wall cycles of the timed phase (the path is saturated).  Open
    /// loop: wall time per operation is just the schedule, so this is the
    /// CPU the process burnt outside the generator thread — servers' idle
    /// polling included — at the highest rate step within the limit.
    fn busiest_cycles_per_op(&self, clock: &Clock) -> f64 {
        let step = self
            .steps
            .iter()
            .rev()
            .find(|s| in_limit(s, clock))
            .or(self.steps.first());
        match step {
            None => self.wall_cycles as f64 / self.ops.max(1) as f64,
            Some(s) => {
                let server_cpu_us = s.cpu.cpu_us() - s.gen_cpu.cpu_us();
                server_cpu_us * clock.cycles_per_second / 1e6 / s.completed_in_step.max(1) as f64
            }
        }
    }

    /// Median over the windows of each window's `pct`-th latency
    /// percentile, µs: like throughput, one disturbed window does not set
    /// the figure.
    fn latency_us(&self, pct: f64, clock: &Clock) -> f64 {
        median(&self.window_percentiles(pct)).map_or(0.0, |c| clock.us(c))
    }

    fn window_percentiles(&self, pct: f64) -> Vec<f64> {
        self.window_latency
            .iter()
            .filter_map(|h| h.percentile(pct))
            .collect()
    }

    /// Completed operations per second: median window (closed loop), or
    /// in-step completions of the reference step (open loop: the rate
    /// delivered, which equals the rate offered while the server keeps up).
    fn throughput(&self, clock: &Clock) -> f64 {
        match self.steps.iter().find(|s| s.rate == REFERENCE_RATE) {
            Some(s) => s.completed_in_step as f64 / clock.seconds(s.wall_cycles.max(1)),
            None => median(&self.windows_ops_s).unwrap_or(0.0),
        }
    }

    /// Highest rate step within the latency limit (0 when none, or closed).
    fn max_rate_in_limit(&self, clock: &Clock) -> f64 {
        self.steps
            .iter()
            .filter(|s| in_limit(s, clock))
            .map(|s| s.rate as f64)
            .fold(0.0, f64::max)
    }
}

/// Did a rate step meet the latency limit with (almost) all of its
/// scheduled operations completed inside it?
fn in_limit(step: &StepReport, clock: &Clock) -> bool {
    let p99 = step
        .latency
        .percentile(99.0)
        .map_or(f64::MAX, |c| clock.us(c));
    p99 <= LIMIT_P99_US && step.achieved_ratio() >= LIMIT_ACHIEVED
}

/// Drive `instance` through warm-up and the timed phase.
#[allow(clippy::too_many_arguments)]
fn drive<I: Instance>(
    instance: &mut I,
    load: Load,
    w: &Workload,
    keys: &KeySpace,
    verifier: &mut Verifier,
    seed: u64,
    rec: &mut SpanRecorder,
    clock: &Clock,
    warm_s: f64,
    timed_s: f64,
    traced: bool,
) -> (Phase, LayerCounters) {
    let mut stream = OpStream::new(seed, 0, w.keys, w.write_permille, w.popularity);
    let (conns, source) = instance.parts();
    let mut at_start = LayerCounters::default();
    let mut hook = |rec: &mut SpanRecorder| {
        if traced {
            trace::set_trace_enabled(true);
            trace::reset();
            alloc_count::arm(true);
            rec.set_enabled(true);
        }
        at_start = source.read();
    };
    let phase = match load {
        Load::Closed { window } => Phase::from_closed(run_closed(
            conns,
            keys,
            verifier,
            &mut stream,
            rec,
            clock,
            window,
            warm_s,
            timed_s,
            WINDOWS,
            &mut hook,
        )),
        Load::Paced { rates } => Phase::from_paced(run_paced(
            conns,
            keys,
            verifier,
            &mut stream,
            rec,
            clock,
            warm_s,
            REFERENCE_RATE,
            timed_s / rates.len() as f64,
            rates,
            &mut hook,
        )),
    };
    let delta = source.read().since(&at_start);
    if traced {
        trace::set_trace_enabled(false);
        alloc_count::arm(false);
        rec.set_enabled(false);
    }
    (phase, delta)
}

/// Start an instance and prefill it; returns it with the set-up time.
fn set_up<I: Instance>(
    w: &Workload,
    keys: &KeySpace,
    verifier: &mut Verifier,
    rec: &mut SpanRecorder,
) -> Result<(I, f64), String> {
    let started = Instant::now();
    rec.begin(SpanName::Setup, 0);
    let mut instance = I::start(w, keys)?;
    rec.begin(SpanName::Prefill, 0);
    let window = if w.window == 0 { 64 } else { w.window };
    // Only the two enclosing spans: the prefill's own polls would flood
    // the trace before the timed phase starts.
    verifier.prefill(
        instance.parts().0,
        keys,
        window,
        &mut SpanRecorder::new(false),
    );
    rec.end(keys.len() as u32);
    rec.end(keys.len() as u32);
    Ok((instance, started.elapsed().as_secs_f64()))
}

fn load_of(w: &Workload) -> Load {
    match w.path {
        Path::TcpPaced => Load::Paced {
            rates: w.rate_steps,
        },
        _ => Load::Closed { window: w.window },
    }
}

/// The untraced run: every gated end-to-end metric.
fn untraced<I: Instance>(
    cfg: &RunConfig,
    keys: &KeySpace,
    clock: &Clock,
) -> Result<RunResult, String> {
    let w = cfg.workload;
    let mut rec = SpanRecorder::new(false);
    let mut notes = Vec::new();
    let mut counts = Counts::default();
    let mut mismatches = 0u64;

    // The first instance, in a fresh process, is the one measured: memory
    // per key, the timed phase and peak RSS describe one server lifetime.
    let mut verifier = Verifier::new(w.keys, w.value_bytes);
    let rss0 = host::rss_bytes();
    let (mut instance, seconds) = set_up::<I>(w, keys, &mut verifier, &mut rec)?;
    let mem_bytes_per_key = host::rss_bytes().saturating_sub(rss0) as f64 / w.keys as f64;
    let mut setup_times = vec![seconds];
    let (phase, _) = drive(
        &mut instance,
        load_of(w),
        w,
        keys,
        &mut verifier,
        cfg.seed,
        &mut rec,
        clock,
        WARMUP_SECONDS,
        cfg.seconds,
        false,
    );
    let peak_rss_mib = host::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    mismatches += instance.finish(&verifier.counts, &mut notes);
    counts.add(&verifier.counts);

    // Set up again for `setup_s`, the median.  Peak RSS was read before:
    // later instances land in whatever allocator arenas the earlier ones
    // left behind, which made it wander by 30 % on the small workloads.
    while setup_times.len() < w.setups {
        let mut verifier = Verifier::new(w.keys, w.value_bytes);
        let (instance, seconds) = set_up::<I>(w, keys, &mut verifier, &mut rec)?;
        setup_times.push(seconds);
        mismatches += instance.finish(&verifier.counts, &mut notes);
        counts.add(&verifier.counts);
    }

    let failed = counts.failed() + mismatches;
    let values = [
        phase.throughput(clock),
        phase.cpu.cpu_us() / phase.ops.max(1) as f64,
        mem_bytes_per_key,
        peak_rss_mib,
        median(&setup_times).unwrap_or(0.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name, v, def.unit))
        .collect();

    let detail = Json::object([
        (
            "windows_ops_s",
            Json::Arr(phase.windows_ops_s.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("window_spread", Json::from(spread(&phase.windows_ops_s))),
        (
            "latency_p50_window_spread",
            Json::from(spread(&phase.window_percentiles(50.0))),
        ),
        ("latency_p50_us", Json::from(phase.latency_us(50.0, clock))),
        ("latency_p99_us", Json::from(phase.latency_us(99.0, clock))),
        (
            "latency_samples",
            Json::from((phase.get_latency.count() + phase.set_latency.count()) as f64),
        ),
        (
            "setup_times_s",
            Json::Arr(setup_times.iter().map(|&v| Json::from(v)).collect()),
        ),
        (
            "failed_ops_ratio",
            Json::from(failed as f64 / counts.attempted.max(1) as f64),
        ),
        (
            "max_rate_in_limit_ops_s",
            Json::from(phase.max_rate_in_limit(clock)),
        ),
        ("steps", steps_json(&phase, clock)),
        ("counts", counts_json(&counts, mismatches)),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::from).collect()),
        ),
    ]);
    Ok(RunResult {
        metrics,
        attempted: counts.attempted,
        failed,
        detail,
    })
}

fn steps_json(phase: &Phase, clock: &Clock) -> Json {
    let us = |h: &Histogram, p: f64| Json::from(h.percentile(p).map(|c| clock.us(c)));
    Json::Arr(
        phase
            .steps
            .iter()
            .map(|s| {
                Json::object([
                    ("rate_ops_s", Json::from(s.rate as f64)),
                    ("scheduled", Json::from(s.scheduled as f64)),
                    ("offered", Json::from(s.offered as f64)),
                    ("achieved_ratio", Json::from(s.achieved_ratio())),
                    ("backlog_at_end", Json::from(s.backlog_at_end as f64)),
                    ("p50_us", us(&s.latency, 50.0)),
                    ("p99_us", us(&s.latency, 99.0)),
                    ("samples", Json::from(s.latency.count() as f64)),
                ])
            })
            .collect(),
    )
}

fn counts_json(c: &Counts, mismatches: u64) -> Json {
    Json::object([
        ("attempted", Json::from(c.attempted as f64)),
        ("completed", Json::from(c.completed as f64)),
        ("gets", Json::from(c.gets as f64)),
        ("get_hits", Json::from(c.get_hits as f64)),
        ("sets", Json::from(c.sets as f64)),
        ("racing_misses", Json::from(c.racing_misses as f64)),
        ("wrong_bytes", Json::from(c.wrong_bytes as f64)),
        ("stale", Json::from(c.stale as f64)),
        ("unexpected_miss", Json::from(c.unexpected_miss as f64)),
        ("errors", Json::from(c.errors as f64)),
        ("unmatched", Json::from(c.unmatched as f64)),
        ("lost", Json::from(c.lost as f64)),
        ("crosscheck_mismatches", Json::from(mismatches as f64)),
    ])
}

/// Put the `core.*` rows an in-process run supplies: the main traced phase
/// on `inproc_*` workloads, a short extra run of the same op stream on
/// `tcp_*` ones.
fn put_core_rows(
    out: &mut Metrics,
    phase: &Phase,
    delta: &LayerCounters,
    rec: &SpanRecorder,
    (migration_retries, write_deferrals): (u64, u64),
    clock: &Clock,
) {
    let ops = phase.ops.max(1) as f64;
    let loops = (delta.busy_iterations + delta.idle_iterations).max(1) as f64;
    out.put("core.cycles_per_op", phase.busiest_cycles_per_op(clock));
    out.put(
        "core.submit_cycles_per_op",
        rec.cycles_per_op(SpanName::CoreSubmit).unwrap_or(0.0),
    );
    out.put(
        "core.poll_cycles_per_op",
        rec.totals(SpanName::CorePoll).cycles as f64 / ops,
    );
    out.put(
        "core.server_utilization",
        delta.busy_iterations as f64 / loops,
    );
    out.put("core.migration_retries", migration_retries as f64);
    out.put("core.write_deferrals", write_deferrals as f64);
}

/// The traced run: every per-layer metric.
fn traced<I: Instance>(
    cfg: &RunConfig,
    keys: &KeySpace,
    clock: &Clock,
) -> Result<RunResult, String> {
    let w = cfg.workload;
    let mut rec = SpanRecorder::new(true);
    let mut notes = Vec::new();
    let mut out = Metrics::default();

    // Spans are recorded for set-up, then paused until the timed phase.
    let mut verifier = Verifier::new(w.keys, w.value_bytes);
    let (mut instance, _) = set_up::<I>(w, keys, &mut verifier, &mut rec)?;
    rec.set_enabled(false);
    let (phase, delta) = drive(
        &mut instance,
        load_of(w),
        w,
        keys,
        &mut verifier,
        cfg.seed,
        &mut rec,
        clock,
        WARMUP_SECONDS,
        cfg.seconds * 0.5,
        true,
    );
    let stage_cycles: Vec<u128> = ALL_STAGES
        .iter()
        .map(|&s| trace::stage_histogram(s).sum())
        .collect();
    if w.path == Path::Inproc {
        put_core_rows(
            &mut out,
            &phase,
            &delta,
            &rec,
            instance.client_counters(),
            clock,
        );
    }
    let mut counts = verifier.counts;
    let mut mismatches = instance.finish(&verifier.counts, &mut notes);
    drop(verifier);

    // ---- rungs -------------------------------------------------------
    let mut rung_rec = SpanRecorder::new(true);
    let mut rungs_run = vec![rungs::hashcore(
        w,
        keys,
        cfg.seed,
        clock,
        &mut rung_rec,
        &mut out,
    )];
    rungs::alloc(w, keys, cfg.seed, &mut rung_rec, &mut out);
    rungs::channel(&mut rung_rec, &mut out);
    let mut kvproto_allocs = 0;
    if w.path == Path::Inproc {
        let seconds = (cfg.seconds * 0.4).min(5.0);
        rungs_run.push(rungs::lockhash(
            w,
            keys,
            cfg.seed,
            seconds,
            &mut rung_rec,
            &mut out,
        ));
    } else {
        let (outcome, allocs) = rungs::kvproto(w, keys, cfg.seed, &mut rung_rec, &mut out);
        rungs_run.push(outcome);
        kvproto_allocs = allocs;
        // The same op stream through the in-process table: the `core` row
        // the TCP path's residual is computed against.
        let mut core_rec = SpanRecorder::new(false);
        let mut verifier = Verifier::new(w.keys, w.value_bytes);
        let (mut inproc, _) = set_up::<Inproc>(w, keys, &mut verifier, &mut core_rec)?;
        let window = if w.window == 0 {
            512
        } else {
            w.window * w.connections
        };
        let (core_phase, core_delta) = drive(
            &mut inproc,
            Load::Closed { window },
            w,
            keys,
            &mut verifier,
            cfg.seed,
            &mut core_rec,
            clock,
            0.5,
            (cfg.seconds * 0.15).max(1.0),
            true,
        );
        put_core_rows(
            &mut out,
            &core_phase,
            &core_delta,
            &core_rec,
            inproc.client_counters(),
            clock,
        );
        mismatches += inproc.finish(&verifier.counts, &mut notes);
        counts.add(&verifier.counts);
        rung_rec.absorb(core_rec);
    }
    let rung_failed: u64 = rungs_run.iter().map(|r| r.failed).sum();
    let failed = counts.failed() + mismatches + rung_failed;
    let attempted = counts.attempted + rungs_run.iter().map(|r| r.ops).sum::<u64>();

    // ---- the workload's own traced phase -------------------------------
    let ops = phase.ops.max(1) as f64;
    let (whole_ops, whole_seconds) = phase.whole(clock);
    let whole_ops = whole_ops.max(1) as f64;
    out.put("latency_p50_us", phase.latency_us(50.0, clock));
    out.put("latency_p99_us", phase.latency_us(99.0, clock));
    out.put("failed_ops_ratio", failed as f64 / attempted.max(1) as f64);
    out.put("max_rate_in_limit_ops_s", phase.max_rate_in_limit(clock));
    // Batch counters and stage histograms come from the workload's traced
    // phase on every workload: the table's server threads export them
    // whichever front-end feeds them.
    out.put(
        "core.batch_occupancy",
        delta.batch_ops as f64 / delta.batches.max(1) as f64,
    );
    out.put(
        "core.prefetches_per_op",
        delta.prefetches as f64 / delta.batch_ops.max(1) as f64,
    );
    for (stage, cycles) in ALL_STAGES.iter().zip(&stage_cycles) {
        out.put(
            &format!("core.stage.{}_cycles_per_op", stage.name()),
            *cycles as f64 / whole_ops,
        );
    }
    out.put("proc.user_cpu_us_per_op", phase.cpu.user_us / ops);
    out.put("proc.sys_cpu_us_per_op", phase.cpu.sys_us / ops);
    let core_cycles = out.get("core.cycles_per_op");
    if w.path != Path::Inproc {
        let kvserver_cycles = phase.busiest_cycles_per_op(clock);
        let per_op = |v: u64| v as f64 / whole_ops;
        out.put("kvserver.cycles_per_op", kvserver_cycles);
        out.put("kvserver.syscalls_per_op", per_op(delta.syscalls));
        out.put("kvserver.wakeups_per_kop", per_op(delta.wakeups) * 1e3);
        out.put(
            "kvserver.events_per_wakeup",
            delta.events as f64 / delta.wakeups.max(1) as f64,
        );
        out.put(
            "kvserver.idle_sleeps_per_s",
            delta.idle_sleeps as f64 / whole_seconds.max(1e-9),
        );
        out.put("kvserver.bytes_in_per_op", per_op(delta.bytes_in));
        out.put("kvserver.bytes_out_per_op", per_op(delta.bytes_out));
        out.put("kvserver.retries_emitted", delta.retries_emitted as f64);
        out.put(
            "kvserver.batch_occupancy",
            delta.batch_ops as f64 / delta.batches.max(1) as f64,
        );
        let server_side = phase.allocs.since(phase.gen_allocs);
        out.put("kvserver.allocs_per_op", server_side.allocs as f64 / ops);
        out.put(
            "kvserver.alloc_bytes_per_op",
            server_side.bytes as f64 / ops,
        );
        let remote_submit = rec.cycles_per_op(SpanName::RemoteSubmit).unwrap_or(0.0);
        let remote_poll = rec.totals(SpanName::RemotePoll).cycles as f64 / whole_ops;
        out.put("remote.submit_cycles_per_op", remote_submit);
        out.put("remote.poll_cycles_per_op", remote_poll);
        let attributed: f64 = [
            "kvproto.encode_op_cycles",
            "kvproto.decode_op_cycles",
            "kvproto.encode_reply_cycles",
            "kvproto.decode_reply_cycles",
        ]
        .iter()
        .map(|name| out.get(name))
        .sum::<f64>()
            + core_cycles
            + remote_submit
            + remote_poll;
        out.put(
            "kvserver.residual_cycles_per_op",
            kvserver_cycles - attributed,
        );
        out.put(
            "kvserver.residual_share",
            (kvserver_cycles - attributed) / kvserver_cycles,
        );
        out.put(
            "delta.kvserver_over_core_cycles",
            kvserver_cycles - core_cycles,
        );
    }
    out.put(
        "delta.core_over_hashcore_cycles",
        core_cycles - out.get("hashcore.cycles_per_op"),
    );

    let us = |h: &Histogram, p: f64| h.percentile(p).map_or(0.0, |c| clock.us(c));
    out.put("latency.get_p50_us", us(&phase.get_latency, 50.0));
    out.put("latency.get_p99_us", us(&phase.get_latency, 99.0));
    out.put("latency.set_p50_us", us(&phase.set_latency, 50.0));
    out.put("latency.set_p99_us", us(&phase.set_latency, 99.0));
    let mut all = phase.get_latency.clone();
    all.merge(&phase.set_latency);
    out.put("latency.p999_us", us(&all, 99.9));
    for step in &phase.steps {
        let label = rate_label(step.rate);
        out.put(&format!("paced.{label}.p99_us"), us(&step.latency, 99.0));
        out.put(
            &format!("paced.{label}.achieved_ratio"),
            step.achieved_ratio(),
        );
    }
    out.put("gen.lateness_p99_us", us(&phase.lateness, 99.0));
    // Tracing overhead: the untraced second half of the warm-up against
    // the traced phase, same process, same table (closed loop only — an
    // open loop delivers its schedule either way).
    let traced_ops_s = phase.ops as f64 / clock.seconds(phase.wall_cycles.max(1));
    let untraced_ops_s = phase.warm_ops_s.unwrap_or(traced_ops_s);
    out.put(
        "trace.overhead_ratio",
        untraced_ops_s / traced_ops_s.max(1e-9),
    );
    let lockhash_ops_s = out.get("baseline.lockhash_ops_s");
    if lockhash_ops_s > 0.0 {
        out.put(
            "baseline.speedup_vs_lockhash",
            untraced_ops_s / lockhash_ops_s,
        );
    }

    // ---- trace file --------------------------------------------------
    rec.absorb(rung_rec);
    let trace_path = cfg.out_dir.join(format!("{}.trace.jsonl", w.name));
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&trace_path, rec.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let span_rows = SpanName::ALL
        .iter()
        .filter(|&&n| rec.totals(n).count > 0)
        .map(|&n| {
            let t = rec.totals(n);
            Json::object([
                ("name", Json::from(n.as_str())),
                ("count", Json::from(t.count as f64)),
                ("ops", Json::from(t.ops as f64)),
                ("cycles", Json::from(t.cycles as f64)),
                ("self_cycles", Json::from(t.self_cycles as f64)),
            ])
        })
        .collect();
    let detail = Json::object([
        ("traced_ops_s", Json::from(traced_ops_s)),
        ("untraced_warmup_ops_s", Json::from(untraced_ops_s)),
        (
            "kvproto_rung_allocs_total",
            Json::from(kvproto_allocs as f64),
        ),
        ("spans_recorded", Json::from(rec.recorded() as f64)),
        ("spans_kept", Json::from(rec.raw().len() as f64)),
        ("span_totals", Json::Arr(span_rows)),
        ("trace_file", Json::from(trace_path.display().to_string())),
        ("steps", steps_json(&phase, clock)),
        ("counts", counts_json(&counts, mismatches)),
        ("rung_failed", Json::from(rung_failed as f64)),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::from).collect()),
        ),
    ]);
    Ok(RunResult {
        metrics: out.rows(),
        attempted,
        failed,
        detail,
    })
}

/// Run one workload once, in the mode `cfg.traced` selects.
pub fn run(cfg: &RunConfig) -> Result<(RunResult, Json), String> {
    // Shipped defaults are what is measured: no CPHASH_* override survives.
    let overrides: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CPHASH_"))
        .collect();
    for key in overrides {
        std::env::remove_var(key);
    }
    let clock = Clock::calibrate(100);
    let steal0 = host::cpu_ticks();
    let w = cfg.workload;
    let keys = KeySpace::new(w.key_kind, w.keys, cfg.seed).hashed_by(envelope::hash_key);
    let result = match (w.path, cfg.traced) {
        (Path::Inproc, false) => untraced::<Inproc>(cfg, &keys, &clock),
        (Path::Inproc, true) => traced::<Inproc>(cfg, &keys, &clock),
        (_, false) => untraced::<Tcp>(cfg, &keys, &clock),
        (_, true) => traced::<Tcp>(cfg, &keys, &clock),
    }?;
    let nproc = host::nproc();
    let mut header = vec![
        ("workload".to_string(), Json::from(w.name)),
        ("traced".to_string(), Json::from(cfg.traced)),
        ("seconds".to_string(), Json::from(cfg.seconds)),
        (
            "busy_threads".to_string(),
            Json::from(w.busy_threads as f64),
        ),
        (
            "oversubscribed".to_string(),
            Json::from(w.busy_threads > nproc),
        ),
        (
            "op_stream_digest".to_string(),
            Json::from(format!(
                "{:016x}",
                OpStream::new(cfg.seed, 0, w.keys, w.write_permille, w.popularity).digest(100_000)
            )),
        ),
        (
            "stored_value_bytes".to_string(),
            Json::from(rungs::stored_len(w, &keys) as f64),
        ),
        (
            "host".to_string(),
            host::fingerprint(&cfg.commit, cfg.seed, clock.cycles_per_second),
        ),
        // Share of this run's CPU time the hypervisor gave to someone else:
        // a run with a large share measured the neighbours, not the code.
        (
            "steal_share".to_string(),
            Json::from(host::cpu_ticks().steal_share_since(&steal0)),
        ),
    ];
    if let Json::Obj(pairs) = result.detail.clone() {
        header.extend(pairs);
    }
    Ok((result, Json::Obj(header)))
}
