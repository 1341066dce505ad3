//! Sweep implementations behind the figure binaries.
//!
//! Each function runs one of the paper's experiments at this host's scale
//! and returns a [`FigureReport`] (or a preformatted text block for the
//! Figure 6/7 tables).  The binaries in `src/bin/` are thin wrappers that
//! parse arguments, call one of these, and print the result.

use cphash::EvictionPolicy;
use cphash_affinity::HwThreadId;
use cphash_cachesim::opmodel::{simulate_cphash, simulate_lockhash, OpModelParams};
use cphash_cachesim::{AccessTag, CostModel};
use cphash_kvserver::{
    CpServer, CpServerConfig, LockServer, LockServerConfig, MemcacheCluster, MemcacheConfig,
};
use cphash_loadgen::tcp::{run_tcp_load, TcpLoadOptions};
use cphash_loadgen::{run_cphash, run_lockhash, DriverOptions, WorkloadSpec};
use cphash_perfmon::{FigureReport, Stopwatch};

use crate::paper;
use crate::scale::MachineScale;

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

/// Figures 5 and 8: throughput of both tables over a range of working-set
/// sizes (LRU for Figure 5, random eviction for Figure 8).
pub fn working_set_sweep(
    scale: &MachineScale,
    eviction: EvictionPolicy,
    ops_per_point: u64,
    quick: bool,
) -> FigureReport {
    let title = match eviction {
        EvictionPolicy::Lru => "Figure 5: throughput vs working set size (LRU)",
        EvictionPolicy::Random => "Figure 8: throughput vs working set size (random eviction)",
    };
    let mut report = FigureReport::new(title, "working_set_bytes", "queries/second");
    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for ws in scale.working_set_sweep(quick) {
        let spec = WorkloadSpec {
            operations: ops_per_point,
            ..WorkloadSpec::working_set_point(ws, ops_per_point)
        };
        let mut cp_opts = cphash_options(scale);
        cp_opts.eviction = eviction;
        let mut lh_opts = lockhash_options(scale);
        lh_opts.eviction = eviction;
        let cp = run_cphash(&spec, &cp_opts);
        let lh = run_lockhash(&spec, &lh_opts);
        eprintln!(
            "  ws={:>10}  cphash {:>12.0} q/s   lockhash {:>12.0} q/s   ratio {:.2}x",
            ws,
            cp.throughput(),
            lh.throughput(),
            cp.throughput() / lh.throughput().max(1.0)
        );
        cp_series.push((ws as f64, cp.throughput()));
        lh_series.push((ws as f64, lh.throughput()));
    }
    let s = report.add_series("CPHash");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockHash");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figure 9: throughput over a range of hash-table capacities at a fixed
/// working set.
pub fn capacity_sweep(scale: &MachineScale, ops_per_point: u64, quick: bool) -> FigureReport {
    let ws = scale.large_working_set();
    let fractions: &[f64] = if quick {
        &[0.25, 1.0]
    } else {
        &[0.125, 0.25, 0.5, 0.75, 1.0]
    };
    let mut report = FigureReport::new(
        format!(
            "Figure 9: throughput vs hash table capacity ({} MB working set)",
            ws >> 20
        ),
        "capacity_bytes",
        "queries/second",
    );
    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for &fraction in fractions {
        let capacity = ((ws as f64 * fraction) as usize).max(1 << 16);
        let spec = WorkloadSpec::capacity_point(ws, capacity, ops_per_point);
        let cp = run_cphash(&spec, &cphash_options(scale));
        let lh = run_lockhash(&spec, &lockhash_options(scale));
        eprintln!(
            "  capacity={:>10}  cphash {:>12.0} q/s   lockhash {:>12.0} q/s",
            capacity,
            cp.throughput(),
            lh.throughput()
        );
        cp_series.push((capacity as f64, cp.throughput()));
        lh_series.push((capacity as f64, lh.throughput()));
    }
    let s = report.add_series("CPHash");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockHash");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figure 10: throughput over a range of INSERT fractions.
pub fn insert_ratio_sweep(scale: &MachineScale, ops_per_point: u64, quick: bool) -> FigureReport {
    let ws = scale.large_working_set();
    let ratios: &[f64] = if quick {
        &[0.0, 0.3, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let mut report = FigureReport::new(
        format!(
            "Figure 10: throughput vs INSERT fraction ({} MB working set)",
            ws >> 20
        ),
        "insert_fraction",
        "queries/second",
    );
    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for &ratio in ratios {
        let spec = WorkloadSpec::insert_ratio_point(ws, ratio, ops_per_point);
        let cp = run_cphash(&spec, &cphash_options(scale));
        let lh = run_lockhash(&spec, &lockhash_options(scale));
        eprintln!(
            "  insert_ratio={ratio:>4.2}  cphash {:>12.0} q/s   lockhash {:>12.0} q/s",
            cp.throughput(),
            lh.throughput()
        );
        cp_series.push((ratio, cp.throughput()));
        lh_series.push((ratio, lh.throughput()));
    }
    let s = report.add_series("CPHash");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockHash");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figure 11: per-hardware-thread throughput as the number of hardware
/// threads grows (socket granularity in the paper; pair granularity here).
pub fn thread_scaling_sweep(scale: &MachineScale, ops_per_point: u64, quick: bool) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure 11: per-hardware-thread throughput vs hardware threads used",
        "hardware_threads",
        "queries/second/hw_thread",
    );
    let mut pair_counts: Vec<usize> = vec![1, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|p| *p <= scale.pairs)
        .collect();
    if !pair_counts.contains(&scale.pairs) {
        pair_counts.push(scale.pairs);
    }
    if quick && pair_counts.len() > 3 {
        pair_counts = vec![
            pair_counts[0],
            pair_counts[pair_counts.len() / 2],
            *pair_counts.last().expect("non-empty"),
        ];
    }
    let spec_template = WorkloadSpec::working_set_point(1 << 20, ops_per_point);
    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for pairs in pair_counts {
        let sub_scale = MachineScale {
            pairs,
            lockhash_threads: pairs * 2,
            lockhash_partitions: scale.lockhash_partitions,
            hw_threads: scale.hw_threads,
            topology: scale.topology,
        };
        let hw_used = pairs * 2;
        let cp = run_cphash(&spec_template, &cphash_options(&sub_scale));
        let lh = run_lockhash(&spec_template, &lockhash_options(&sub_scale));
        eprintln!(
            "  hw_threads={hw_used:>3}  cphash {:>12.0} q/s/thread   lockhash {:>12.0} q/s/thread",
            cp.throughput_per(hw_used),
            lh.throughput_per(hw_used)
        );
        cp_series.push((hw_used as f64, cp.throughput_per(hw_used)));
        lh_series.push((hw_used as f64, lh.throughput_per(hw_used)));
    }
    let s = report.add_series("CPHash");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockHash");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figure 12: the three hardware-thread placements.  On hosts where pinning
/// is unavailable the three configurations differ only in thread count,
/// which the report notes.
pub fn smt_configurations(scale: &MachineScale, ops_per_point: u64) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure 12: throughput under three hardware-thread configurations",
        "configuration (0 = all threads, 1 = one per core, 2 = all threads on half the cores)",
        "queries/second",
    );
    let spec = WorkloadSpec::working_set_point(1 << 20, ops_per_point);
    let full_pairs = scale.pairs;
    let half_pairs = (scale.pairs / 2).max(1);

    // Config 0: both "SMT siblings" of every core slot (the default).
    let config0 = (
        cphash_options(scale),
        lockhash_options(scale),
        full_pairs * 2,
    );
    // Config 1: one hardware thread per core slot — half the threads, spread
    // out over the same range of CPUs (even CPU ids).
    let mut cp1 = DriverOptions::new(half_pairs, half_pairs);
    let mut lh1 = DriverOptions::new(half_pairs * 2, scale.lockhash_partitions);
    if scale.hw_threads >= full_pairs * 2 {
        cp1.client_pins = (0..half_pairs).map(|i| HwThreadId(i * 2)).collect();
        cp1.server_pins = (0..half_pairs)
            .map(|i| HwThreadId(i * 2 + full_pairs))
            .collect();
        lh1.client_pins = (0..half_pairs * 2).map(|i| HwThreadId(i * 2)).collect();
    }
    let config1 = (cp1, lh1, full_pairs);
    // Config 2: the same number of threads as config 1 but packed onto a
    // contiguous block of CPUs ("both hardware threads on half the cores").
    let mut cp2 = DriverOptions::new(half_pairs, half_pairs);
    let mut lh2 = DriverOptions::new(half_pairs * 2, scale.lockhash_partitions);
    if scale.hw_threads >= full_pairs {
        cp2.client_pins = (0..half_pairs).map(HwThreadId).collect();
        cp2.server_pins = (half_pairs..half_pairs * 2).map(HwThreadId).collect();
        lh2.client_pins = (0..half_pairs * 2).map(HwThreadId).collect();
    }
    let config2 = (cp2, lh2, full_pairs);

    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for (x, (cp_opts, lh_opts, _hw)) in [config0, config1, config2].into_iter().enumerate() {
        let cp = run_cphash(&spec, &cp_opts);
        let lh = run_lockhash(&spec, &lh_opts);
        eprintln!(
            "  config {x}: cphash {:>12.0} q/s   lockhash {:>12.0} q/s",
            cp.throughput(),
            lh.throughput()
        );
        cp_series.push((x as f64, cp.throughput()));
        lh_series.push((x as f64, lh.throughput()));
    }
    let s = report.add_series("CPHash");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockHash");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figures 6 and 7: the per-operation cycle and cache-miss breakdown tables,
/// produced by the software cache model plus a measured throughput run.
pub fn breakdown_tables(scale: &MachineScale, operations: u64) -> String {
    let mut out = String::new();

    // The cache model replays the paper-machine configuration (Figure 6/7
    // are specifically about the 80-core machine at a 1 MB working set).
    let params = OpModelParams {
        operations,
        ..OpModelParams::default()
    };
    let lockhash = simulate_lockhash(&params);
    let cphash = simulate_cphash(&params);
    let cost = CostModel::default();

    let lh_est = cost.estimate(&lockhash.total(), lockhash.operations, 160);
    let cp_client_est = cost.estimate(&cphash.client.total(), cphash.client.operations, 80);
    let cp_server_est = cost.estimate(&cphash.server.total(), cphash.server.operations, 80);

    out.push_str("Figure 6: per-operation cost (model vs paper)\n");
    out.push_str(&format!(
        "{:<22} {:>14} {:>14} {:>14}\n",
        "", "CPHash client", "CPHash server", "LockHash"
    ));
    out.push_str(&format!(
        "{:<22} {:>14.0} {:>14.0} {:>14.0}\n",
        "cycles/op (model)",
        cp_client_est.cycles_per_op,
        cp_server_est.cycles_per_op,
        lh_est.cycles_per_op
    ));
    out.push_str(&format!(
        "{:<22} {:>14.0} {:>14.0} {:>14.0}\n",
        "cycles/op (paper)",
        paper::fig6::CPHASH_CLIENT_CYCLES,
        paper::fig6::CPHASH_SERVER_CYCLES,
        paper::fig6::LOCKHASH_CYCLES
    ));
    out.push_str(&format!(
        "{:<22} {:>14.2} {:>14.2} {:>14.2}\n",
        "L2 misses/op (model)",
        cphash.client.total_l2_per_op(),
        cphash.server.total_l2_per_op(),
        lockhash.total_l2_per_op()
    ));
    out.push_str(&format!(
        "{:<22} {:>14.2} {:>14.2} {:>14.2}\n",
        "L2 misses/op (paper)",
        paper::fig6::L2_MISSES.0,
        paper::fig6::L2_MISSES.1,
        paper::fig6::L2_MISSES.2
    ));
    out.push_str(&format!(
        "{:<22} {:>14.2} {:>14.2} {:>14.2}\n",
        "L3 misses/op (model)",
        cphash.client.total_l3_per_op(),
        cphash.server.total_l3_per_op(),
        lockhash.total_l3_per_op()
    ));
    out.push_str(&format!(
        "{:<22} {:>14.2} {:>14.2} {:>14.2}\n",
        "L3 misses/op (paper)",
        paper::fig6::L3_MISSES.0,
        paper::fig6::L3_MISSES.1,
        paper::fig6::L3_MISSES.2
    ));
    out.push_str(&format!(
        "{:<22} {:>14.0} {:>29.0}\n",
        "L3 miss cost (model)", cp_client_est.l3_miss_cost, lh_est.l3_miss_cost
    ));
    out.push_str(&format!(
        "{:<22} {:>14.0} {:>29.0}\n\n",
        "L3 miss cost (paper)",
        paper::fig6::L3_COST.0,
        paper::fig6::L3_COST.1
    ));

    out.push_str("Figure 7: per-function cache-miss breakdown (model)\n\n");
    out.push_str(&lockhash.to_table("LOCKHASH"));
    out.push('\n');
    out.push_str(&cphash.client.to_table("CPHASH client thread"));
    out.push('\n');
    out.push_str(&cphash.server.to_table("CPHASH server thread"));
    out.push('\n');
    out.push_str(&format!(
        "paper totals:  LockHash {:.1}/{:.1}   client {:.1}/{:.1}   server {:.1}/{:.1}  (L2/L3 per op)\n",
        paper::fig7::LOCKHASH_TOTAL.0,
        paper::fig7::LOCKHASH_TOTAL.1,
        paper::fig7::CPHASH_CLIENT_TOTAL.0,
        paper::fig7::CPHASH_CLIENT_TOTAL.1,
        paper::fig7::CPHASH_SERVER_TOTAL.0,
        paper::fig7::CPHASH_SERVER_TOTAL.1
    ));

    // A small *measured* run on this host, for the wall-clock counterpart of
    // the model's cycle estimates.
    let spec = WorkloadSpec::figure6(200_000.min(operations));
    let cp = run_cphash(&spec, &cphash_options(scale));
    let lh = run_lockhash(&spec, &lockhash_options(scale));
    out.push_str(&format!(
        "\nmeasured on this host (1 MB working set): cphash {:.0} q/s, lockhash {:.0} q/s, ratio {:.2}x\n",
        cp.throughput(),
        lh.throughput(),
        cp.throughput() / lh.throughput().max(1.0)
    ));
    out.push_str(&format!(
        "message packing check: {} lookups per line, {} inserts per line (paper: 8 and 4)\n",
        cphash_cacheline::packing::messages_per_line(8),
        cphash_cacheline::packing::messages_per_line(16)
    ));
    let send_row = cphash.client.row(AccessTag::SendMessage);
    out.push_str(&format!(
        "model send-message misses/op: {:.2} (batching amortizes the line transfers)\n",
        (send_row.l2_misses + send_row.l3_misses) as f64 / cphash.client.operations.max(1) as f64
    ));
    out
}

/// Figure 13: CPSERVER vs LOCKSERVER throughput over working-set sizes,
/// driven over loopback TCP.
pub fn server_working_set_sweep(
    scale: &MachineScale,
    ops_per_point: u64,
    quick: bool,
) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure 13: key/value server throughput vs working set size (TCP)",
        "working_set_bytes",
        "queries/second",
    );
    let sweep = if quick {
        vec![256 << 10, 4 << 20]
    } else {
        vec![256 << 10, 1 << 20, 4 << 20, 16 << 20]
    };
    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    for ws in sweep {
        let spec = WorkloadSpec {
            prefill: false,
            ..WorkloadSpec::working_set_point(ws, ops_per_point)
        };
        let load = TcpLoadOptions {
            threads: scale.pairs.clamp(1, 4),
            connections_per_thread: 2,
            pipeline: 64,
            ..Default::default()
        };

        let mut cpserver = CpServer::start(CpServerConfig {
            client_threads: scale.pairs,
            partitions: scale.pairs,
            capacity_bytes: Some(ws),
            typical_value_bytes: spec.value_bytes,
            ..Default::default()
        })
        .expect("starting CPSERVER");
        let cp_result = run_tcp_load(
            &spec,
            &TcpLoadOptions {
                addr: cpserver.addr(),
                ..load.clone()
            },
        )
        .expect("CPSERVER load run");
        cpserver.shutdown();

        let mut lockserver = LockServer::start(LockServerConfig {
            worker_threads: scale.lockhash_threads,
            partitions: scale.lockhash_partitions,
            capacity_bytes: Some(ws),
            typical_value_bytes: spec.value_bytes,
            ..Default::default()
        })
        .expect("starting LOCKSERVER");
        let lh_result = run_tcp_load(
            &spec,
            &TcpLoadOptions {
                addr: lockserver.addr(),
                ..load
            },
        )
        .expect("LOCKSERVER load run");
        lockserver.shutdown();

        eprintln!(
            "  ws={:>10}  cpserver {:>12.0} q/s   lockserver {:>12.0} q/s",
            ws,
            cp_result.throughput(),
            lh_result.throughput()
        );
        cp_series.push((ws as f64, cp_result.throughput()));
        lh_series.push((ws as f64, lh_result.throughput()));
    }
    let s = report.add_series("CPServer");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockServer");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    report
}

/// Figure 14: per-core throughput of CPSERVER, LOCKSERVER and the
/// memcached-style cluster as the number of cores grows.
pub fn memcached_comparison(scale: &MachineScale, ops_per_point: u64, quick: bool) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure 14: per-core server throughput vs number of cores",
        "cores",
        "queries/second/core",
    );
    let max_cores = scale.pairs.max(1);
    let mut core_counts: Vec<usize> = [1, 2, 4, 8, 16]
        .into_iter()
        .filter(|c| *c <= max_cores)
        .collect();
    if quick {
        core_counts.truncate(2);
    }
    let ws = 4 << 20;

    let mut cp_series = Vec::new();
    let mut lh_series = Vec::new();
    let mut mc_series = Vec::new();
    for cores in core_counts {
        let spec = WorkloadSpec {
            prefill: false,
            ..WorkloadSpec::working_set_point(ws, ops_per_point)
        };
        let load_threads = cores.clamp(1, 4);

        // CPSERVER with `cores` client threads and partitions.
        let mut cpserver = CpServer::start(CpServerConfig {
            client_threads: cores,
            partitions: cores,
            capacity_bytes: Some(ws),
            typical_value_bytes: spec.value_bytes,
            ..Default::default()
        })
        .expect("starting CPSERVER");
        let cp = run_tcp_load(
            &spec,
            &TcpLoadOptions {
                addr: cpserver.addr(),
                threads: load_threads,
                connections_per_thread: 2,
                pipeline: 64,
            },
        )
        .expect("CPSERVER load");
        cpserver.shutdown();

        // LOCKSERVER with `cores` worker threads.
        let mut lockserver = LockServer::start(LockServerConfig {
            worker_threads: cores,
            partitions: scale.lockhash_partitions,
            capacity_bytes: Some(ws),
            typical_value_bytes: spec.value_bytes,
            ..Default::default()
        })
        .expect("starting LOCKSERVER");
        let lh = run_tcp_load(
            &spec,
            &TcpLoadOptions {
                addr: lockserver.addr(),
                threads: load_threads,
                connections_per_thread: 2,
                pipeline: 64,
            },
        )
        .expect("LOCKSERVER load");
        lockserver.shutdown();

        // Memcached-style: one single-lock instance per core with
        // client-side key partitioning (each instance gets its share of the
        // keyspace and of the request volume, driven concurrently).
        let mut cluster = MemcacheCluster::start(MemcacheConfig {
            instances: cores,
            capacity_bytes_per_instance: Some(ws / cores),
            ..Default::default()
        })
        .expect("starting the memcached-style cluster");
        let per_instance_spec = WorkloadSpec {
            working_set_bytes: (ws / cores).max(4096),
            capacity_bytes: (ws / cores).max(4096),
            operations: ops_per_point / cores as u64,
            prefill: false,
            ..spec
        };
        let addrs = cluster.addrs();
        let watch = Stopwatch::start();
        let total_ops: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = addrs
                .iter()
                .map(|addr| {
                    let spec = per_instance_spec;
                    let addr = *addr;
                    scope.spawn(move || {
                        run_tcp_load(
                            &spec,
                            &TcpLoadOptions {
                                addr,
                                threads: 1,
                                connections_per_thread: 2,
                                pipeline: 32,
                            },
                        )
                        .map(|r| r.operations)
                        .unwrap_or(0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
        });
        let mc_throughput = total_ops as f64 / watch.elapsed_secs().max(1e-9);
        cluster.shutdown();

        eprintln!(
            "  cores={cores:>2}  cpserver {:>10.0}  lockserver {:>10.0}  memcached-style {:>10.0}  (q/s/core)",
            cp.throughput_per(cores),
            lh.throughput_per(cores),
            mc_throughput / cores as f64
        );
        cp_series.push((cores as f64, cp.throughput_per(cores)));
        lh_series.push((cores as f64, lh.throughput_per(cores)));
        mc_series.push((cores as f64, mc_throughput / cores as f64));
    }
    let s = report.add_series("CPServer");
    for (x, y) in cp_series {
        s.push(x, y);
    }
    let s = report.add_series("LockServer");
    for (x, y) in lh_series {
        s.push(x, y);
    }
    let s = report.add_series("Memcached-style");
    for (x, y) in mc_series {
        s.push(x, y);
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
    fn breakdown_tables_mention_all_sections() {
        let scale = tiny_scale();
        let text = breakdown_tables(&scale, 20_000);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("Figure 7"));
        assert!(text.contains("LOCKHASH"));
        assert!(text.contains("CPHASH server thread"));
        assert!(text.contains("measured on this host"));
    }

    #[test]
    fn working_set_sweep_produces_both_series() {
        let scale = tiny_scale();
        let report = working_set_sweep(&scale, EvictionPolicy::Lru, 30_000, true);
        let cp = report.series_named("CPHash").expect("CPHash series");
        let lh = report.series_named("LockHash").expect("LockHash series");
        assert_eq!(cp.points.len(), lh.points.len());
        assert!(cp.points.iter().all(|p| p.y > 0.0));
        assert!(lh.points.iter().all(|p| p.y > 0.0));
    }
}
