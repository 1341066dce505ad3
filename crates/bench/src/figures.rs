//! The figure table and the experiments behind it.
//!
//! [`FIGURES`] has one entry per experiment of the paper's evaluation (plus
//! the two extensions this repository added); each entry runs its experiment
//! at this host's scale and returns a [`FigureReport`].  The `cphash-bench`
//! binary is a loop over that table.

use std::net::SocketAddr;

use cphash::{CpHash, CpHashConfig, EvictionPolicy, PartitionedClient, RemoteClient};
use cphash_affinity::HwThreadId;
use cphash_kvserver::{
    CpServer, CpServerConfig, LockServer, LockServerConfig, MemcacheCluster, MemcacheConfig,
};
use cphash_loadgen::tcp::{run_tcp_load, TcpLoadOptions};
use cphash_loadgen::{
    run_anykey_mixed, run_cphash, run_lockhash, AnyKeyMixOptions, DriverOptions, RunResult,
    WorkloadSpec,
};
use cphash_perfmon::trace::{self, TraceStage};
use cphash_perfmon::{estimate_cycles_per_second, FigureReport};

use crate::args::HarnessArgs;
use crate::scale::MachineScale;
use crate::{live, paper};

/// One runnable experiment.
pub struct Figure {
    /// The name `figures <name>` selects it by.
    pub name: &'static str,
    /// The paper figures it regenerates (empty for this repository's own
    /// extensions).
    pub paper_figures: &'static [u8],
    /// What the paper says the figure shows ([`crate::paper`]).
    pub claim: &'static str,
    /// Run it at this host's scale.
    pub run: fn(&MachineScale, &HarnessArgs) -> FigureReport,
}

/// Every experiment, in the paper's order.
pub const FIGURES: [Figure; 11] = [
    Figure {
        name: "working-set",
        paper_figures: &[5],
        claim: paper::FIG5,
        run: |scale, args| working_set_sweep(scale, args, EvictionPolicy::Clock),
    },
    Figure {
        name: "breakdown",
        paper_figures: &[6, 7],
        claim: paper::FIG6_7,
        run: breakdown,
    },
    Figure {
        name: "random-eviction",
        paper_figures: &[8],
        claim: paper::FIG8,
        run: |scale, args| working_set_sweep(scale, args, EvictionPolicy::Random),
    },
    Figure {
        name: "capacity",
        paper_figures: &[9],
        claim: paper::FIG9,
        run: capacity_sweep,
    },
    Figure {
        name: "insert-ratio",
        paper_figures: &[10],
        claim: paper::FIG10,
        run: insert_ratio_sweep,
    },
    Figure {
        name: "scaling",
        paper_figures: &[11],
        claim: paper::FIG11,
        run: thread_scaling_sweep,
    },
    Figure {
        name: "smt",
        paper_figures: &[12],
        claim: paper::FIG12,
        run: smt_configurations,
    },
    Figure {
        name: "server-working-set",
        paper_figures: &[13],
        claim: paper::FIG13,
        run: server_working_set_sweep,
    },
    Figure {
        name: "memcached",
        paper_figures: &[14],
        claim: paper::FIG14,
        run: memcached_comparison,
    },
    Figure {
        name: "anykey",
        paper_figures: &[],
        claim: paper::ANYKEY,
        run: anykey_parity,
    },
    Figure {
        name: "live-repartition",
        paper_figures: &[],
        claim: paper::LIVE_REPARTITION,
        run: |scale, args| live::live_repartition_ablation(scale, args.ops_or(400_000)),
    },
];

impl Figure {
    /// "Figure 6–7", or "Extension" for an entry the paper has no figure for.
    pub fn paper_label(&self) -> String {
        match self.paper_figures {
            [] => "Extension".to_string(),
            [one] => format!("Figure {one}"),
            [first, .., last] => format!("Figure {first}–{last}"),
        }
    }

    /// The Markdown section for a finished run: the paper's claim, then this
    /// host's table.
    pub fn section(&self, report: &FigureReport) -> String {
        let mut out = format!(
            "## {} — `{}`\n\n**Paper.** {}\n\n**This host.**\n\n```text\n{}```\n",
            self.paper_label(),
            self.name,
            self.claim,
            report.to_table()
        );
        if let Some(ratios) = speedup_line(report) {
            out.push_str(&format!("\n{ratios}\n"));
        }
        out
    }
}

/// Look an entry up by name; the error lists the valid names.
pub fn find(name: &str) -> Result<&'static Figure, String> {
    FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!(
            "unknown figure {name:?}; valid names: all, {}",
            names.join(", ")
        )
    })
}

/// "CPHash / LockHash: 1.31× at 65536, …" for a report that has both series.
fn speedup_line(report: &FigureReport) -> Option<String> {
    let cp = report.series_named("CPHash")?;
    let lh = report.series_named("LockHash")?;
    let ratios: Vec<String> = cp
        .points
        .iter()
        .filter_map(|p| Some(format!("{:.2}× at {}", p.y / lh.y_at(p.x)?.max(1.0), p.x)))
        .collect();
    Some(format!("CPHash / LockHash: {}.", ratios.join(", ")))
}

/// Driver options for the CPHash side of a comparison at this scale.
pub fn cphash_options(scale: &MachineScale) -> DriverOptions {
    let mut opts = DriverOptions::new(scale.pairs, scale.pairs);
    if scale.hw_threads >= scale.pairs * 2 {
        // The §6.1 placement: clients on the first hardware thread of each
        // "core slot", servers on the second.
        opts.client_pins = (0..scale.pairs).map(HwThreadId).collect();
        opts.server_pins = (scale.pairs..scale.pairs * 2).map(HwThreadId).collect();
    }
    opts
}

/// Driver options for the LockHash side of a comparison at this scale.
pub fn lockhash_options(scale: &MachineScale) -> DriverOptions {
    let mut opts = DriverOptions::new(scale.lockhash_threads, scale.lockhash_partitions);
    if scale.hw_threads >= scale.lockhash_threads {
        opts.client_pins = (0..scale.lockhash_threads).map(HwThreadId).collect();
    }
    opts
}

/// The loop every in-process comparison is: for each x in `points`, `point`
/// names the workload and the two tables' options; both tables run it and
/// their throughputs become the "CPHash" and "LockHash" series.
pub fn compare_sweep(
    title: impl Into<String>,
    x_label: &str,
    y_label: &str,
    points: &[f64],
    mut point: impl FnMut(f64) -> (WorkloadSpec, DriverOptions, DriverOptions),
) -> FigureReport {
    let mut report = FigureReport::new(title, x_label, y_label);
    report.add_series("CPHash");
    report.add_series("LockHash");
    for &x in points {
        let (spec, cp_opts, lh_opts) = point(x);
        let cp = run_cphash(&spec, &cp_opts).throughput();
        let lh = run_lockhash(&spec, &lh_opts).throughput();
        eprintln!(
            "  {x_label}={x:>10}  cphash {cp:>12.0} q/s   lockhash {lh:>12.0} q/s   ratio {:.2}x",
            cp / lh.max(1.0)
        );
        report.series[0].push(x, cp);
        report.series[1].push(x, lh);
    }
    report
}

/// Figures 5 and 8: throughput of both tables over a range of working-set
/// sizes (CLOCK for Figure 5, random eviction for Figure 8).
fn working_set_sweep(
    scale: &MachineScale,
    args: &HarnessArgs,
    eviction: EvictionPolicy,
) -> FigureReport {
    let ops = args.ops_or(scale.default_ops());
    let points: Vec<f64> = scale
        .working_set_sweep(args.quick)
        .into_iter()
        .map(|ws| ws as f64)
        .collect();
    compare_sweep(
        format!(
            "throughput vs working set size ({} eviction)",
            match eviction {
                EvictionPolicy::Clock => "CLOCK",
                EvictionPolicy::Random => "random",
            }
        ),
        "working_set_bytes",
        "queries/second",
        &points,
        |ws| {
            let with_eviction = |mut opts: DriverOptions| {
                opts.eviction = eviction;
                opts
            };
            (
                WorkloadSpec::working_set_point(ws as usize, ops),
                with_eviction(cphash_options(scale)),
                with_eviction(lockhash_options(scale)),
            )
        },
    )
}

/// Figure 9: throughput over a range of hash-table capacities at a fixed
/// working set.
fn capacity_sweep(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(scale.default_ops());
    let ws = scale.large_working_set();
    let fractions: &[f64] = if args.quick {
        &[0.25, 1.0]
    } else {
        &[0.125, 0.25, 0.5, 0.75, 1.0]
    };
    let points: Vec<f64> = fractions
        .iter()
        .map(|f| (ws as f64 * f).max(65_536.0))
        .collect();
    compare_sweep(
        format!(
            "throughput vs hash table capacity ({} MB working set)",
            ws >> 20
        ),
        "capacity_bytes",
        "queries/second",
        &points,
        |capacity| {
            (
                WorkloadSpec::capacity_point(ws, capacity as usize, ops),
                cphash_options(scale),
                lockhash_options(scale),
            )
        },
    )
}

/// Figure 10: throughput over a range of INSERT fractions.
fn insert_ratio_sweep(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(scale.default_ops());
    let ws = scale.large_working_set();
    let ratios: &[f64] = if args.quick {
        &[0.0, 0.3, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    compare_sweep(
        format!(
            "throughput vs INSERT fraction ({} MB working set)",
            ws >> 20
        ),
        "insert_fraction",
        "queries/second",
        ratios,
        |ratio| {
            (
                WorkloadSpec::insert_ratio_point(ws, ratio, ops),
                cphash_options(scale),
                lockhash_options(scale),
            )
        },
    )
}

/// Figure 11: per-hardware-thread throughput as the number of hardware
/// threads grows (socket granularity in the paper; pair granularity here).
fn thread_scaling_sweep(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(scale.default_ops());
    let mut pair_counts: Vec<usize> = vec![1, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|p| *p <= scale.pairs)
        .collect();
    if !pair_counts.contains(&scale.pairs) {
        pair_counts.push(scale.pairs);
    }
    if args.quick && pair_counts.len() > 3 {
        pair_counts = vec![
            pair_counts[0],
            pair_counts[pair_counts.len() / 2],
            *pair_counts.last().expect("non-empty"),
        ];
    }
    let hw_threads: Vec<f64> = pair_counts.iter().map(|p| (p * 2) as f64).collect();
    let mut report = compare_sweep(
        "per-hardware-thread throughput vs hardware threads used",
        "hardware_threads",
        "queries/second/hw_thread",
        &hw_threads,
        |hw_used| {
            let pairs = hw_used as usize / 2;
            let sub_scale = MachineScale {
                pairs,
                lockhash_threads: pairs * 2,
                ..scale.clone()
            };
            (
                WorkloadSpec::working_set_point(1 << 20, ops),
                cphash_options(&sub_scale),
                lockhash_options(&sub_scale),
            )
        },
    );
    for point in report.series.iter_mut().flat_map(|s| s.points.iter_mut()) {
        point.y /= point.x;
    }
    report
}

/// Figure 12: the three hardware-thread placements.
fn smt_configurations(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(scale.default_ops());
    let full_pairs = scale.pairs;
    let half_pairs = (scale.pairs / 2).max(1);
    let half = || {
        (
            DriverOptions::new(half_pairs, half_pairs),
            DriverOptions::new(half_pairs * 2, scale.lockhash_partitions),
        )
    };

    // Config 0: both "SMT siblings" of every core slot (the default).
    let config0 = (cphash_options(scale), lockhash_options(scale));
    // Config 1: one hardware thread per core slot — half the threads, spread
    // out over the same range of CPUs (even CPU ids).
    let (mut cp1, mut lh1) = half();
    if scale.hw_threads >= full_pairs * 2 {
        cp1.client_pins = (0..half_pairs).map(|i| HwThreadId(i * 2)).collect();
        cp1.server_pins = (0..half_pairs)
            .map(|i| HwThreadId(i * 2 + full_pairs))
            .collect();
        lh1.client_pins = (0..half_pairs * 2).map(|i| HwThreadId(i * 2)).collect();
    }
    // Config 2: the same number of threads as config 1 but packed onto a
    // contiguous block of CPUs ("both hardware threads on half the cores").
    let (mut cp2, mut lh2) = half();
    if scale.hw_threads >= full_pairs {
        cp2.client_pins = (0..half_pairs).map(HwThreadId).collect();
        cp2.server_pins = (half_pairs..half_pairs * 2).map(HwThreadId).collect();
        lh2.client_pins = (0..half_pairs * 2).map(HwThreadId).collect();
    }
    let configs = [config0, (cp1, lh1), (cp2, lh2)];

    compare_sweep(
        "throughput under three hardware-thread configurations \
         (0 = all threads, 1 = one per core, 2 = all threads on half the cores)",
        "configuration",
        "queries/second",
        &[0.0, 1.0, 2.0],
        |config| {
            let (cp, lh) = configs[config as usize].clone();
            (WorkloadSpec::working_set_point(1 << 20, ops), cp, lh)
        },
    )
}

/// Figures 6 and 7: cycles per operation on each kind of thread, and where
/// the CPHash ones go, from the stage counters production already keeps.
pub fn breakdown(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let spec = WorkloadSpec::figure6(args.ops_or(200_000));
    let cycles_per_second = estimate_cycles_per_second(50);

    trace::reset();
    trace::set_trace_enabled(true);
    let cp = run_cphash(&spec, &cphash_options(scale));
    trace::set_trace_enabled(false);
    let stage =
        |s: TraceStage| trace::stage_histogram(s).sum() as f64 / cp.operations.max(1) as f64;
    // (column, value on the client thread, value on the server thread)
    let stages = [
        ("send messages", Some(stage(TraceStage::RingEnqueue)), None),
        ("receive", None, Some(stage(TraceStage::Drain))),
        (
            "execute",
            None,
            Some(
                stage(TraceStage::Prepare)
                    + stage(TraceStage::Prefetch)
                    + stage(TraceStage::Execute),
            ),
        ),
        (
            "send responses",
            None,
            Some(stage(TraceStage::ReplyPublish)),
        ),
    ];
    trace::reset();
    let lh = run_lockhash(&spec, &lockhash_options(scale));

    // Wall cycles one thread spends per operation it takes part in: every
    // thread of a kind handles an equal share of the operations.
    let thread_cycles = |run: &RunResult, threads: usize| {
        run.elapsed_secs * cycles_per_second * threads as f64 / run.operations.max(1) as f64
    };
    let totals = [
        thread_cycles(&cp, scale.pairs),
        thread_cycles(&cp, scale.pairs),
        thread_cycles(&lh, scale.lockhash_threads),
    ];
    let attributed = [
        stages.iter().filter_map(|s| s.1).sum::<f64>(),
        stages.iter().filter_map(|s| s.2).sum::<f64>(),
        0.0,
    ];
    eprintln!(
        "  cphash {:.0} q/s   lockhash {:.0} q/s",
        cp.throughput(),
        lh.throughput()
    );

    let mut report = FigureReport::new(
        "cycles per operation by thread (0 = CPHash client, 1 = CPHash server, 2 = LockHash) \
         and function, 1 MB working set, 30 % INSERT",
        "thread",
        "cycles/operation on that thread; last column: table throughput relative to LockHash",
    );
    for (column, client, server) in stages {
        let series = report.add_series(column);
        for (x, cycles) in [(0.0, client), (1.0, server)] {
            if let Some(cycles) = cycles {
                series.push(x, cycles);
            }
        }
    }
    let speedup = cp.throughput() / lh.throughput().max(1.0);
    let columns = [
        ("unattributed", [0, 1, 2].map(|i| totals[i] - attributed[i])),
        ("total", totals),
        (
            "paper total",
            [
                paper::fig6::CPHASH_CLIENT_CYCLES,
                paper::fig6::CPHASH_SERVER_CYCLES,
                paper::fig6::LOCKHASH_CYCLES,
            ],
        ),
        ("q/s vs LockHash", [speedup, speedup, 1.0]),
    ];
    for (column, values) in columns {
        let series = report.add_series(column);
        for (x, value) in values.into_iter().enumerate() {
            series.push(x as f64, value);
        }
    }
    report
}

/// One TCP point: start a server, drive `spec` at each of its addresses
/// concurrently over loopback, and stop it (its `Drop`).  Returns total
/// queries per second.
fn tcp_point<S>(
    server: std::io::Result<S>,
    addrs: impl FnOnce(&S) -> Vec<SocketAddr>,
    spec: &WorkloadSpec,
    load: &TcpLoadOptions,
) -> f64 {
    let server = server.expect("starting the server");
    let runs: Vec<_> = std::thread::scope(|scope| {
        let drivers: Vec<_> = addrs(&server)
            .into_iter()
            .map(|addr| {
                let load = TcpLoadOptions {
                    addr,
                    ..load.clone()
                };
                scope.spawn(move || run_tcp_load(spec, &load).expect("TCP load run"))
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("TCP load thread"))
            .collect()
    });
    let operations: u64 = runs.iter().map(|r| r.operations).sum();
    let elapsed = runs.iter().map(|r| r.elapsed_secs).fold(1e-9, f64::max);
    operations as f64 / elapsed
}

/// CPSERVER and LOCKSERVER under the same TCP load; returns (CPSERVER,
/// LOCKSERVER) queries per second.
fn server_pair(
    cp_threads: usize,
    lock_threads: usize,
    lock_partitions: usize,
    spec: &WorkloadSpec,
    load: &TcpLoadOptions,
) -> (f64, f64) {
    let cpserver = CpServer::start(CpServerConfig {
        client_threads: cp_threads,
        partitions: cp_threads,
        capacity_bytes: Some(spec.capacity_bytes),
        typical_value_bytes: spec.value_bytes,
        ..Default::default()
    });
    let cp = tcp_point(cpserver, |s| vec![s.addr()], spec, load);
    let lockserver = LockServer::start(LockServerConfig {
        worker_threads: lock_threads,
        partitions: lock_partitions,
        capacity_bytes: Some(spec.capacity_bytes),
        typical_value_bytes: spec.value_bytes,
        ..Default::default()
    });
    let lh = tcp_point(lockserver, |s| vec![s.addr()], spec, load);
    (cp, lh)
}

/// Figure 13: CPSERVER vs LOCKSERVER throughput over working-set sizes,
/// driven over loopback TCP.
fn server_working_set_sweep(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(400_000);
    let mut report = FigureReport::new(
        "key/value server throughput vs working set size (TCP)",
        "working_set_bytes",
        "queries/second",
    );
    report.add_series("CPServer");
    report.add_series("LockServer");
    let sweep: &[usize] = if args.quick {
        &[256 << 10, 4 << 20]
    } else {
        &[256 << 10, 1 << 20, 4 << 20, 16 << 20]
    };
    let load = TcpLoadOptions {
        threads: scale.pairs.clamp(1, 4),
        ..Default::default()
    };
    for &ws in sweep {
        let spec = WorkloadSpec {
            prefill: false,
            ..WorkloadSpec::working_set_point(ws, ops)
        };
        // LOCKSERVER gets one worker per hardware thread, as LockHash does.
        let (cp, lh) = server_pair(
            scale.pairs,
            scale.lockhash_threads,
            scale.lockhash_partitions,
            &spec,
            &load,
        );
        eprintln!("  ws={ws:>10}  cpserver {cp:>12.0} q/s   lockserver {lh:>12.0} q/s");
        report.series[0].push(ws as f64, cp);
        report.series[1].push(ws as f64, lh);
    }
    report
}

/// Figure 14: per-core throughput of CPSERVER, LOCKSERVER and the
/// memcached-style cluster as the number of cores grows.
fn memcached_comparison(scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let ops = args.ops_or(300_000);
    let mut report = FigureReport::new(
        "per-core server throughput vs number of cores",
        "cores",
        "queries/second/core",
    );
    for label in ["CPServer", "LockServer", "Memcached-style"] {
        report.add_series(label);
    }
    let mut core_counts: Vec<usize> = [1, 2, 4, 8, 16]
        .into_iter()
        .filter(|c| *c <= scale.pairs.max(1))
        .collect();
    if args.quick {
        core_counts.truncate(2);
    }
    let ws = 4 << 20;
    for cores in core_counts {
        let spec = WorkloadSpec {
            prefill: false,
            ..WorkloadSpec::working_set_point(ws, ops)
        };
        let load = TcpLoadOptions {
            threads: cores.clamp(1, 4),
            ..Default::default()
        };
        let (cp, lh) = server_pair(cores, cores, scale.lockhash_partitions, &spec, &load);

        // Memcached-style: one single-lock instance per core with client-side
        // key partitioning — each instance gets its share of the keyspace
        // and of the request volume, all driven concurrently.
        let share = (ws / cores).max(4096);
        let mc = tcp_point(
            MemcacheCluster::start(MemcacheConfig {
                instances: cores,
                capacity_bytes_per_instance: Some(ws / cores),
                ..Default::default()
            }),
            MemcacheCluster::addrs,
            &WorkloadSpec {
                working_set_bytes: share,
                capacity_bytes: share,
                operations: ops / cores as u64,
                ..spec
            },
            &TcpLoadOptions {
                threads: 1,
                pipeline: 32,
                ..Default::default()
            },
        );
        let per_core = [cp, lh, mc].map(|qps| qps / cores as f64);
        eprintln!(
            "  cores={cores:>2}  cpserver {:>10.0}  lockserver {:>10.0}  memcached-style {:>10.0}  (q/s/core)",
            per_core[0], per_core[1], per_core[2]
        );
        for (series, y) in report.series.iter_mut().zip(per_core) {
            series.push(cores as f64, y);
        }
    }
    report
}

/// The `anykey` scenario: memcached-style byte-string keys with a 70/25/5
/// get/set/delete mix, run through the unified `KvClient` trait against
/// every backend.  All three drive the same deterministic operation stream,
/// so their observable outcomes must agree — asserted here — and the
/// interesting output is the throughput spread.
fn anykey_parity(_scale: &MachineScale, args: &HarnessArgs) -> FigureReport {
    let operations = args.ops_or(200_000);
    let opts = AnyKeyMixOptions {
        operations,
        distinct_keys: operations / 10,
        ..Default::default()
    };
    opts.validate();

    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let in_process = run_anykey_mixed(&mut clients[0], &opts).expect("in-process run");
    drop(clients);
    table.shutdown();

    let server = CpServer::start(CpServerConfig {
        client_threads: 2,
        partitions: 2,
        ..Default::default()
    })
    .expect("start CPSERVER");
    let mut remote = RemoteClient::connect(server.addr()).expect("connect to CPSERVER");
    let cpserver = run_anykey_mixed(&mut remote, &opts).expect("CPSERVER run");
    drop((remote, server));

    let cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 2,
        ..Default::default()
    })
    .expect("start the memcached-style cluster");
    let mut partitioned = PartitionedClient::connect(&cluster.addrs()).expect("connect cluster");
    let memcache = run_anykey_mixed(&mut partitioned, &opts).expect("memcached-style run");
    drop((partitioned, cluster));

    let mut report = FigureReport::new(
        format!(
            "{operations} get/set/delete operations over {} byte-string keys, by backend \
             (0 = in-process, 1 = CPSERVER over TCP, 2 = memcached-style cluster)",
            opts.distinct_keys
        ),
        "backend",
        "operations/second, then the outcome counts that must agree",
    );
    for label in ["ops/s", "get hits", "delete hits", "failures"] {
        report.add_series(label);
    }
    for (x, run) in [in_process, cpserver, memcache].iter().enumerate() {
        eprintln!("  backend {x}: {:>10.0} ops/s  {run:?}", run.throughput());
        assert_eq!(
            in_process.observation(),
            run.observation(),
            "backend {x} disagrees with the in-process table on observable results"
        );
        let row = [
            run.throughput(),
            run.get_hits as f64,
            run.delete_hits as f64,
            run.failures as f64,
        ];
        for (series, y) in report.series.iter_mut().zip(row) {
            series.push(x as f64, y);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_affinity::Topology;

    fn tiny_scale() -> MachineScale {
        MachineScale::for_hw_threads(Topology::single_socket(2, 2), Some(2))
    }

    /// `breakdown` switches the process-wide stage tracing on, and a traced
    /// `run_cphash` clears the stage histograms after its prefill: the two
    /// tests that could meet there take turns.
    static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny_args(ops: u64) -> HarnessArgs {
        HarnessArgs {
            quick: true,
            ops: Some(ops),
            ..Default::default()
        }
    }

    #[test]
    fn driver_options_pin_when_there_is_room() {
        let scale = MachineScale::for_hw_threads(Topology::single_socket(8, 2), Some(4));
        let cp = cphash_options(&scale);
        assert_eq!(cp.client_pins.len(), 4);
        assert_eq!(cp.server_pins.len(), 4);
        let lh = lockhash_options(&scale);
        assert_eq!(lh.client_threads, 8);
    }

    #[test]
    fn the_table_covers_every_paper_figure_exactly_once() {
        for figure in 5..=14u8 {
            let entries = FIGURES
                .iter()
                .filter(|f| f.paper_figures.contains(&figure))
                .count();
            assert_eq!(entries, 1, "Figure {figure}");
        }
        for name in ["anykey", "live-repartition"] {
            assert!(find(name).expect(name).paper_figures.is_empty());
        }
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|f| f.name != figure.name),
                "duplicate name {}",
                figure.name
            );
            assert!(!figure.claim.is_empty());
        }
        assert_eq!(find("breakdown").unwrap().paper_label(), "Figure 6–7");
        let error = find("fig99").err().expect("unknown name");
        assert!(FIGURES.iter().all(|f| error.contains(f.name)), "{error}");
    }

    #[test]
    fn compare_sweep_runs_both_tables_at_every_point_in_order() {
        let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let scale = tiny_scale();
        let mut asked = Vec::new();
        let report = compare_sweep("t", "x", "y", &[65_536.0, 262_144.0], |ws| {
            asked.push(ws);
            (
                WorkloadSpec::working_set_point(ws as usize, 20_000),
                cphash_options(&scale),
                lockhash_options(&scale),
            )
        });
        assert_eq!(asked, [65_536.0, 262_144.0]);
        assert_eq!(report.series.len(), 2);
        for label in ["CPHash", "LockHash"] {
            let series = report.series_named(label).expect(label);
            let xs: Vec<f64> = series.points.iter().map(|p| p.x).collect();
            assert_eq!(xs, asked, "{label}");
            assert!(series.points.iter().all(|p| p.y > 0.0), "{label}");
        }
        let section = find("working-set").unwrap().section(&report);
        assert!(section.starts_with("## Figure 5 — `working-set`"));
        assert!(section.contains("CPHash / LockHash: "), "{section}");
    }

    #[test]
    fn breakdown_rows_are_measured_and_add_up() {
        let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let report = breakdown(&tiny_scale(), &tiny_args(20_000));
        assert!(
            !trace::trace_enabled(),
            "tracing must be off for the next entry"
        );
        let at = |column: &str, x: f64| report.series_named(column).expect(column).y_at(x);
        let mapped = [
            ("send messages", 0.0),
            ("receive", 1.0),
            ("execute", 1.0),
            ("send responses", 1.0),
        ];
        for (column, x) in mapped {
            assert!(at(column, x).expect(column) > 0.0, "{column}");
        }
        for x in [0.0, 1.0, 2.0] {
            let rows: f64 = mapped
                .iter()
                .filter_map(|(column, _)| at(column, x))
                .sum::<f64>()
                + at("unattributed", x).unwrap();
            let total = at("total", x).unwrap();
            assert!(total > 0.0);
            assert!(
                (rows - total).abs() <= total * 1e-9,
                "{x}: {rows} vs {total}"
            );
        }
        assert_eq!(at("q/s vs LockHash", 2.0), Some(1.0));
    }

    #[test]
    fn anykey_backends_agree() {
        // `anykey_parity` itself asserts hit / delete-hit / failure parity;
        // the report must carry the same counts for all three backends.
        let report = anykey_parity(&tiny_scale(), &tiny_args(10_000));
        for label in ["get hits", "delete hits", "failures"] {
            let series = report.series_named(label).expect(label);
            assert_eq!(series.points.len(), 3);
            assert!(
                series.points.iter().all(|p| p.y == series.points[0].y),
                "{label}"
            );
        }
        assert!(report.series_named("get hits").unwrap().points[0].y > 0.0);
    }
}
