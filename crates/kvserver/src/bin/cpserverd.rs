//! Standalone CPSERVER daemon: runs the CPHash-backed key/value cache
//! server on a TCP port until interrupted, printing periodic statistics.
//!
//! ```text
//! cargo run --release -p cphash-kvserver --bin cpserverd -- \
//!     --port 7700 --partitions 4 --client-threads 4 --capacity-mb 64
//! ```

use std::time::Duration;

use cphash::{CpHashConfig, MigrationPacing};
use cphash_affinity::Topology;
use cphash_kvserver::{CpServer, CpServerConfig};

struct Args {
    port: u16,
    partitions: usize,
    max_partitions: usize,
    client_threads: usize,
    capacity_mb: usize,
    stats_secs: u64,
    /// Default chunk hand-offs per second for live resizes (0 = unpaced).
    migrate_rate: f64,
    /// Queue-depth feedback: back off the migration rate while servers
    /// fall behind.
    migrate_feedback: bool,
    /// Latency feedback: back off the migration rate while the
    /// client-observed request p99 is elevated (alternative to the
    /// queue-depth signal).
    migrate_feedback_p99: bool,
    /// Pipeline depth (data operations staged per batch).
    batch_size: usize,
    /// Overload shedding threshold (0 = never shed): in-flight operations
    /// per worker beyond which lookups get wire-level Retry replies.
    overload_retry: usize,
    /// NUMA-aware server placement: pin every spawnable server thread
    /// (including ones only activated by a later grow) per the detected
    /// topology.
    numa: bool,
    /// Bind address for the Prometheus stats HTTP endpoint (None = off).
    stats_addr: Option<std::net::SocketAddr>,
    /// Enable hot-path stage tracing.
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7700,
        partitions: 2,
        max_partitions: 0,
        client_threads: 2,
        capacity_mb: 64,
        stats_secs: 5,
        migrate_rate: 0.0,
        migrate_feedback: false,
        migrate_feedback_p99: false,
        batch_size: cphash::DEFAULT_BATCH_SIZE,
        overload_retry: 0,
        numa: false,
        stats_addr: None,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| -> Result<String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => args.port = value("--port")?.parse().map_err(|e| format!("bad port: {e}"))?,
            "--partitions" => {
                args.partitions = value("--partitions")?.parse().map_err(|e| format!("bad partitions: {e}"))?
            }
            "--max-partitions" => {
                args.max_partitions = value("--max-partitions")?
                    .parse()
                    .map_err(|e| format!("bad max-partitions: {e}"))?
            }
            "--client-threads" => {
                args.client_threads =
                    value("--client-threads")?.parse().map_err(|e| format!("bad client-threads: {e}"))?
            }
            "--capacity-mb" => {
                args.capacity_mb = value("--capacity-mb")?.parse().map_err(|e| format!("bad capacity: {e}"))?
            }
            "--stats-secs" => {
                args.stats_secs = value("--stats-secs")?.parse().map_err(|e| format!("bad stats-secs: {e}"))?
            }
            "--migrate-rate" => {
                args.migrate_rate = value("--migrate-rate")?
                    .parse()
                    .map_err(|e| format!("bad migrate-rate: {e}"))?
            }
            "--migrate-feedback" => args.migrate_feedback = true,
            "--migrate-feedback-p99" => args.migrate_feedback_p99 = true,
            "--batch-size" => {
                args.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| format!("bad batch-size: {e}"))?;
                if args.batch_size == 0 {
                    return Err("batch-size must be at least 1".into());
                }
            }
            "--overload-retry" => {
                args.overload_retry = value("--overload-retry")?
                    .parse()
                    .map_err(|e| format!("bad overload-retry: {e}"))?
            }
            "--stats-addr" => {
                args.stats_addr = Some(
                    value("--stats-addr")?
                        .parse()
                        .map_err(|e| format!("bad stats-addr: {e}"))?,
                )
            }
            "--trace" => args.trace = true,
            "--numa" => args.numa = true,
            "--help" | "-h" => {
                return Err("usage: cpserverd [--port N] [--partitions N] [--max-partitions N] [--client-threads N] [--capacity-mb N] [--stats-secs N] [--migrate-rate CHUNKS_PER_SEC] [--migrate-feedback] [--migrate-feedback-p99] [--batch-size N] [--overload-retry N] [--stats-addr HOST:PORT] [--trace] [--numa]".into())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let migration_pacing = if args.migrate_feedback_p99 {
        // Latency feedback: client-observed p99 drives the back-off.
        let rate = if args.migrate_rate > 0.0 {
            args.migrate_rate
        } else {
            1_000.0
        };
        MigrationPacing::latency_feedback(rate)
    } else {
        match (args.migrate_rate, args.migrate_feedback) {
            (rate, true) if rate > 0.0 => MigrationPacing::feedback(rate),
            (_, true) => MigrationPacing::feedback(1_000.0),
            (rate, false) if rate > 0.0 => MigrationPacing::Rate {
                chunks_per_sec: rate,
            },
            _ => MigrationPacing::Unpaced,
        }
    };
    // NUMA-aware placement: derive pins for *every* spawnable server
    // thread (the grown ones included) from the detected topology, so a
    // live resize lands new partitions on the cores nearest the memory
    // they will allocate from.
    let server_pins = if args.numa {
        let topo = Topology::detect();
        CpHashConfig::new(args.partitions, args.client_threads)
            .with_max_partitions(args.max_partitions)
            .with_numa_placement(&topo)
            .server_pins
    } else {
        Vec::new()
    };
    let config = CpServerConfig {
        bind: format!("0.0.0.0:{}", args.port)
            .parse()
            .expect("valid bind address"),
        client_threads: args.client_threads,
        partitions: args.partitions,
        max_partitions: args.max_partitions,
        capacity_bytes: Some(args.capacity_mb * 1024 * 1024),
        typical_value_bytes: 64,
        migration_pacing,
        server_pins,
        batch_size: args.batch_size,
        overload_retry: (args.overload_retry > 0).then_some(args.overload_retry),
        stats_addr: args.stats_addr,
        ..Default::default()
    };
    // Flip tracing on before any hot-path thread takes its first timestamp.
    if args.trace {
        cphash_perfmon::trace::set_trace_enabled(true);
    }
    let server = match CpServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start CPSERVER: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "CPSERVER listening on {} ({} partitions, {} client threads, {} MiB cache, pipeline depth {}{})",
        server.addr(),
        args.partitions,
        args.client_threads,
        args.capacity_mb,
        args.batch_size,
        if args.numa { ", NUMA pinning" } else { "" }
    );
    if args.overload_retry > 0 {
        println!(
            "overload shedding: lookups get wire-level Retry past {} in-flight ops per worker",
            args.overload_retry
        );
    }
    if args.max_partitions > args.partitions {
        println!(
            "live resize enabled up to {} partitions (send a RESIZE frame, opcode 4; key bits 0..16 = new count, bits 16..48 = optional chunks/sec budget)",
            args.max_partitions
        );
        println!("default migration pacing: {migration_pacing:?}");
    }
    if let Some(addr) = server.stats_addr() {
        println!("Prometheus stats endpoint: http://{addr}/metrics");
    }
    if cphash_perfmon::trace::trace_enabled() {
        println!("hot-path stage tracing enabled (per-stage cycles appear in the periodic stats and at /metrics)");
    }
    println!("press Ctrl-C to stop");

    let mut last_requests = 0u64;
    let mut last_wakeups = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(args.stats_secs.max(1)));
        let requests = server.metrics().requests();
        let stats = server.table_stats();
        let frontend = &server.metrics().frontend;
        let wakeups = frontend.wakeups();
        let batch = server.metrics().batch_stats();
        println!(
            "requests: {:>12} (+{:>10} / {}s)   hit rate {:>5.1}%   elements in cache: lookups={} inserts={} evictions={}   frontend: wakeups={} (+{}) ev/wakeup={:.1} idle_sleeps={} syscalls={}   hotpath: batches={} occupancy={:.1} prefetches={} retries_emitted={}",
            requests,
            requests - last_requests,
            args.stats_secs,
            server.metrics().hit_rate() * 100.0,
            stats.lookups,
            stats.inserts,
            stats.evictions,
            wakeups,
            wakeups - last_wakeups,
            frontend.events_per_wakeup(),
            frontend.idle_sleeps(),
            frontend.syscalls(),
            batch.batches,
            batch.avg_occupancy(),
            batch.prefetches,
            server.metrics().retries_emitted()
        );
        if cphash_perfmon::trace::trace_enabled() {
            let report = cphash_perfmon::trace::snapshot(0);
            if report.total_events() > 0 {
                print!("{}", report.render());
            }
        }
        last_requests = requests;
        last_wakeups = wakeups;
    }
}
