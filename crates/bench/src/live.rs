//! Live-repartitioning ablation: what does an online grow/shrink cost
//! while traffic keeps flowing?
//!
//! [`live_repartition_ablation`] measures throughput before, during and
//! after a live 2→4 grow, against a statically 4-partitioned table as the
//! baseline (`figures live-repartition`).

use cphash_sync::atomic::plain::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cphash::{ClientHandle, CpHash, CpHashConfig, MigrationPacing};
use cphash_migrate::{MigrationPacer, MigrationReport, RepartitionCoordinator};
use cphash_perfmon::FigureReport;

use crate::scale::MachineScale;

/// Pipelined-window size per worker; modest so single-CPU hosts interleave
/// client and server work smoothly.
const WINDOW: usize = 64;

/// Throughput-sampling window for the dip measurement.
const SAMPLE_WINDOW: Duration = Duration::from_millis(10);

/// A window counts towards the dip duration while its throughput is below
/// this fraction of the pre-migration baseline.
const DIP_THRESHOLD: f64 = 0.9;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One worker's share of a mixed 90/10 lookup/insert phase.  Every polled
/// completion bumps `progress`, so a sampler can watch throughput live.
fn mixed_load_worker(
    client: &mut ClientHandle,
    keys: u64,
    ops: u64,
    seed: u64,
    progress: &AtomicU64,
) {
    let mut completions = Vec::with_capacity(WINDOW * 2);
    let mut state = seed | 1;
    for _ in 0..ops {
        let r = xorshift(&mut state);
        let key = (r >> 8) % keys;
        if r.is_multiple_of(10) {
            client.submit_insert(key, &key.to_le_bytes());
        } else {
            client.submit_lookup(key);
        }
        while client.outstanding() >= WINDOW {
            completions.clear();
            if client.poll(&mut completions) == 0 {
                std::thread::yield_now();
            } else {
                // relaxed: progress counter read by the live reporter
                progress.fetch_add(completions.len() as u64, Ordering::Relaxed);
            }
        }
    }
    completions.clear();
    if client.drain(&mut completions).is_ok() {
        progress.fetch_add(completions.len() as u64, Ordering::Relaxed); // relaxed: progress counter read by the live reporter
    }
}

/// Run one timed phase across all clients; returns the clients and the
/// aggregate throughput in operations/second.
fn timed_phase(
    clients: Vec<ClientHandle>,
    keys: u64,
    total_ops: u64,
    phase_seed: u64,
) -> (Vec<ClientHandle>, f64) {
    let (clients, qps, _, _) = timed_phase_sampled(clients, keys, total_ops, phase_seed);
    (clients, qps)
}

/// Like [`timed_phase`], but additionally samples throughput in
/// [`SAMPLE_WINDOW`]-sized windows.  Returns the clients, the aggregate
/// throughput, the phase start instant and `(window_end_offset_secs, qps)`
/// samples.
fn timed_phase_sampled(
    clients: Vec<ClientHandle>,
    keys: u64,
    total_ops: u64,
    phase_seed: u64,
) -> (Vec<ClientHandle>, f64, Instant, Vec<(f64, f64)>) {
    let workers = clients.len().max(1) as u64;
    let ops_each = total_ops / workers;
    let barrier = Arc::new(Barrier::new(clients.len() + 1));
    let progress = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let barrier = Arc::clone(&barrier);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                barrier.wait();
                mixed_load_worker(
                    &mut client,
                    keys,
                    ops_each,
                    phase_seed ^ ((i as u64) << 32),
                    &progress,
                );
                client
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let sampler = {
        let progress = Arc::clone(&progress);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut windows = Vec::new();
            let mut last_count = 0u64;
            let mut last_t = Instant::now();
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(SAMPLE_WINDOW);
                let now = Instant::now();
                let count = progress.load(Ordering::Relaxed); // relaxed: progress counter read by the live reporter
                let secs = now.duration_since(last_t).as_secs_f64().max(1e-9);
                windows.push((
                    now.duration_since(start).as_secs_f64(),
                    (count - last_count) as f64 / secs,
                ));
                last_count = count;
                last_t = now;
            }
            windows
        })
    };
    let clients: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("worker"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    done.store(true, Ordering::Release);
    let windows = sampler.join().expect("sampler");
    (
        clients,
        (ops_each * workers) as f64 / elapsed,
        start,
        windows,
    )
}

/// Fill the table with the working set.
fn preload(client: &mut ClientHandle, keys: u64) {
    let mut completions = Vec::with_capacity(WINDOW * 2);
    for key in 0..keys {
        client.submit_insert(key, &key.to_le_bytes());
        while client.outstanding() >= WINDOW {
            completions.clear();
            if client.poll(&mut completions) == 0 {
                std::thread::yield_now();
            }
        }
    }
    completions.clear();
    client.drain(&mut completions).expect("preload");
}

/// Everything one live 2→4 grow under load measured.
#[derive(Debug, Clone)]
pub struct DipMeasurement {
    /// Aggregate throughput before the migration (the baseline).
    pub before_qps: f64,
    /// Aggregate throughput of the phase the migration overlapped.
    pub during_qps: f64,
    /// Aggregate throughput after the migration.
    pub after_qps: f64,
    /// Slowest [`SAMPLE_WINDOW`] that overlapped the migration.
    pub min_window_qps: f64,
    /// Dip depth: `1 - mean(overlapping windows) / before_qps`, clamped at
    /// 0 — the average foreground deficit while the migration was actually
    /// running.  (The worst single window is reported separately via
    /// `min_window_qps`; on oversubscribed hosts a single window is
    /// dominated by scheduler noise.)
    pub dip_depth: f64,
    /// Total time of migration-overlapping windows whose throughput fell
    /// below [`DIP_THRESHOLD`] of the baseline.
    pub dip_duration: Duration,
    /// Operations redirected by retry responses during the run.
    pub redirected: u64,
    /// The coordinator's own account of the transition.
    pub migration: MigrationReport,
}

impl DipMeasurement {
    fn describe(&self, label: &str) -> String {
        format!(
            "{label}: before {:>11.0} op/s  during {:>11.0} op/s  after {:>11.0} op/s  \
             dip depth {:>5.1}%  dip duration {:>8.1?}  ({} redirected)",
            self.before_qps,
            self.during_qps,
            self.after_qps,
            self.dip_depth * 100.0,
            self.dip_duration,
            self.redirected
        )
    }
}

/// Measure the foreground cost of a live 2→4 grow under mixed load, with
/// the chunk hand-offs paced according to `pacing`.
pub fn migration_dip(
    scale: &MachineScale,
    ops_per_phase: u64,
    pacing: MigrationPacing,
) -> DipMeasurement {
    let clients = scale.pairs.clamp(1, 4);
    let keys: u64 = 10_000;
    let (table, mut handles) = CpHash::new(CpHashConfig::new(2, clients).with_max_partitions(4));
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let mut pacer = MigrationPacer::for_table(&table, pacing);
    preload(&mut handles[0], keys);

    let (handles, before_qps) = timed_phase(handles, keys, ops_per_phase, 0xA11CE);

    // The coordinator migrates concurrently with the sampled load phase.
    let resizer = std::thread::spawn(move || {
        let started = Instant::now();
        let report = coordinator
            .resize_to_paced(4, &mut pacer)
            .expect("live grow");
        (started, Instant::now(), report)
    });
    let (handles, during_qps, phase_start, windows) =
        timed_phase_sampled(handles, keys, ops_per_phase, 0xB0B);
    let (migration_start, migration_end, migration) = resizer.join().expect("resizer thread");

    let (handles, after_qps) = timed_phase(handles, keys, ops_per_phase, 0xC0FFEE);
    let redirected: u64 = handles.iter().map(|h| h.migration_retries()).sum();
    drop(handles);

    // Intersect the sampled windows with the migration interval.
    let window_secs = SAMPLE_WINDOW.as_secs_f64();
    let from = migration_start.duration_since(phase_start).as_secs_f64();
    let to = migration_end.duration_since(phase_start).as_secs_f64() + window_secs;
    let overlapping: Vec<f64> = windows
        .iter()
        .filter(|(end, _)| *end >= from && *end - window_secs <= to)
        .map(|(_, qps)| *qps)
        .collect();
    let (min_window_qps, mean_window_qps) = if overlapping.is_empty() {
        // Migration finished inside a single sampling window; fall back to
        // the phase aggregate.
        (during_qps, during_qps)
    } else {
        (
            overlapping.iter().copied().fold(f64::INFINITY, f64::min),
            overlapping.iter().sum::<f64>() / overlapping.len() as f64,
        )
    };
    let dip_windows = overlapping
        .iter()
        .filter(|&&q| q < DIP_THRESHOLD * before_qps)
        .count();
    DipMeasurement {
        before_qps,
        during_qps,
        after_qps,
        min_window_qps,
        dip_depth: (1.0 - mean_window_qps / before_qps.max(1e-9)).max(0.0),
        dip_duration: SAMPLE_WINDOW * dip_windows as u32,
        redirected,
        migration,
    }
}

/// Ablation: throughput before / during / after a live 2→4 repartition —
/// unpaced (PR 1 behaviour) vs a finite pacing budget — with a statically
/// 4-partitioned table as the reference.  Reports dip *depth* (mean
/// throughput of the migration-overlapping sampling windows vs baseline;
/// the worst single window is in `DipMeasurement::min_window_qps`) and dip
/// *duration* (time spent below 90% of baseline while the migration ran)
/// for both runs.
pub fn live_repartition_ablation(scale: &MachineScale, ops_per_phase: u64) -> FigureReport {
    let clients = scale.pairs.clamp(1, 4);
    let keys: u64 = 10_000;
    let mut report = FigureReport::new(
        "live 2→4 repartition under load, unpaced vs paced vs a static 4-partition table, \
         by phase (0 = before, 1 = during migration, 2 = after; dip columns: 0 = unpaced, 1 = paced)",
        "phase",
        "operations/second",
    );

    let unpaced = migration_dip(scale, ops_per_phase, MigrationPacing::Unpaced);
    // A finite budget: 64 chunks at 400/s spreads the hand-offs over at
    // least 160 ms instead of firing them back-to-back.
    let paced = migration_dip(
        scale,
        ops_per_phase,
        MigrationPacing::Rate {
            chunks_per_sec: 400.0,
        },
    );

    // Reference: the same load on a table that was born with 4 partitions.
    let (_static_table, mut static_handles) = CpHash::new(CpHashConfig::new(4, clients));
    preload(&mut static_handles[0], keys);
    let (static_handles, static_qps) = timed_phase(static_handles, keys, ops_per_phase, 0xA11CE);
    drop(static_handles);

    eprintln!("  unpaced: {}", unpaced.migration);
    eprintln!("  paced:   {}", paced.migration);
    eprintln!("  {}", unpaced.describe("unpaced"));
    eprintln!("  {}", paced.describe("paced  "));
    eprintln!(
        "  static 4-partition table {static_qps:>12.0} op/s — post-migration table at {:.1}% of static",
        unpaced.after_qps / static_qps.max(1e-9) * 100.0
    );

    let s = report.add_series("elastic (2→4 mid-run)");
    s.push(0.0, unpaced.before_qps);
    s.push(1.0, unpaced.during_qps);
    s.push(2.0, unpaced.after_qps);
    let s = report.add_series("elastic paced (2→4 mid-run)");
    s.push(0.0, paced.before_qps);
    s.push(1.0, paced.during_qps);
    s.push(2.0, paced.after_qps);
    let s = report.add_series("static 4 partitions");
    s.push(0.0, static_qps);
    s.push(2.0, static_qps);
    // Dip metrics as their own series so the CSV carries them: x encodes
    // the run (0 = unpaced, 1 = paced).
    let s = report.add_series("dip depth (fraction of baseline)");
    s.push(0.0, unpaced.dip_depth);
    s.push(1.0, paced.dip_depth);
    let s = report.add_series("dip duration (ms)");
    s.push(0.0, unpaced.dip_duration.as_secs_f64() * 1e3);
    s.push(1.0, paced.dip_duration.as_secs_f64() * 1e3);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_affinity::Topology;

    fn tiny_scale() -> MachineScale {
        MachineScale::for_hw_threads(Topology::single_socket(2, 2), Some(2))
    }

    #[test]
    fn live_repartition_ablation_produces_both_series() {
        let report = live_repartition_ablation(&tiny_scale(), 4_000);
        let elastic = report
            .series_named("elastic (2→4 mid-run)")
            .expect("series");
        assert_eq!(elastic.points.len(), 3);
        assert!(elastic.points.iter().all(|p| p.y > 0.0));
        assert!(report.series_named("static 4 partitions").is_some());
        // The dip metrics cover both the unpaced and the paced run.
        let depth = report
            .series_named("dip depth (fraction of baseline)")
            .expect("dip depth series");
        assert_eq!(depth.points.len(), 2);
        assert!(depth.points.iter().all(|p| (0.0..=1.0).contains(&p.y)));
        let duration = report.series_named("dip duration (ms)").expect("series");
        assert_eq!(duration.points.len(), 2);
        assert!(duration.points.iter().all(|p| p.y >= 0.0));
    }

    #[test]
    fn paced_migration_dip_waits_on_the_bucket() {
        // A deliberately tight budget must produce paced waits; the table
        // must still finish the transition and keep serving.
        let dip = migration_dip(
            &tiny_scale(),
            2_000,
            cphash::MigrationPacing::Rate {
                chunks_per_sec: 300.0,
            },
        );
        assert_eq!(dip.migration.to_partitions, 4);
        assert!(
            dip.migration.paced_waits > 0,
            "finite budget produced no waits: {:?}",
            dip.migration
        );
        assert!(dip.after_qps > 0.0 && dip.before_qps > 0.0);
    }
}
