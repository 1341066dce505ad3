//! Standalone CPSERVER daemon: runs the CPHash-backed key/value cache
//! server on a TCP port until interrupted, printing periodic statistics.
//!
//! ```text
//! cargo run --release -p cphash-kvserver --bin cpserverd -- \
//!     --port 7700 --partitions 4 --client-threads 4 --capacity-mb 64
//! ```

use std::time::Duration;

use cphash::CpHashConfig;
use cphash_affinity::Topology;
use cphash_kvserver::{CpServer, CpServerConfig};
use cphash_migrate::MigrationPacing;

struct Args {
    port: u16,
    partitions: usize,
    max_partitions: usize,
    client_threads: usize,
    capacity_mb: usize,
    stats_secs: u64,
    /// Default pacing for live resizes (`--migrate-rate`, 0 = unpaced).
    migration_pacing: MigrationPacing,
    /// Pipeline depth (data operations staged per batch).
    batch_size: usize,
    /// NUMA-aware server placement: pin every spawnable server thread
    /// (including ones only activated by a later grow) per the detected
    /// topology.
    numa: bool,
    /// Bind address for the Prometheus stats HTTP endpoint (None = off).
    stats_addr: Option<std::net::SocketAddr>,
    /// Enable hot-path stage tracing.
    trace: bool,
}

fn parse_args(cli: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        port: 7700,
        partitions: 2,
        max_partitions: 0,
        client_threads: 2,
        capacity_mb: 64,
        stats_secs: 5,
        migration_pacing: MigrationPacing::Unpaced,
        batch_size: cphash::DEFAULT_BATCH_SIZE,
        numa: false,
        stats_addr: None,
        trace: false,
    };
    let mut iter = cli.into_iter();
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
                let rate: f64 = value("--migrate-rate")?
                    .parse()
                    .map_err(|e| format!("bad migrate-rate: {e}"))?;
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(format!(
                        "--migrate-rate must be a finite number >= 0 (0 = unpaced), not {rate}"
                    ));
                }
                args.migration_pacing = if rate > 0.0 {
                    MigrationPacing::Rate {
                        chunks_per_sec: rate,
                    }
                } else {
                    MigrationPacing::Unpaced
                };
            }
            "--batch-size" => {
                args.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| format!("bad batch-size: {e}"))?;
                if args.batch_size == 0 {
                    return Err("batch-size must be at least 1".into());
                }
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
                return Err("usage: cpserverd [--port N] [--partitions N] [--max-partitions N] [--client-threads N] [--capacity-mb N] [--stats-secs N] [--migrate-rate CHUNKS_PER_SEC] [--batch-size N] [--stats-addr HOST:PORT] [--trace] [--numa]".into())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.partitions == 0 {
        return Err("--partitions must be at least 1".into());
    }
    if args.client_threads == 0 {
        return Err("--client-threads must be at least 1".into());
    }
    if args.max_partitions != 0 && args.max_partitions < args.partitions {
        return Err(format!(
            "--max-partitions must be 0 (static) or at least --partitions ({})",
            args.partitions
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
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
        migration_pacing: args.migration_pacing,
        server_pins,
        batch_size: args.batch_size,
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
    if args.max_partitions > args.partitions {
        println!(
            "live resize enabled up to {} partitions (send a RESIZE frame, opcode 4; key bits 0..16 = new count, bits 16..48 = optional chunks/sec budget)",
            args.max_partitions
        );
        println!("default migration pacing: {:?}", args.migration_pacing);
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
        let s = server.metrics().snapshot();
        let stats = server.table_stats();
        println!(
            "requests: {:>12} (+{:>10} / {}s)   hit rate {:>5.1}%   elements in cache: lookups={} inserts={} evictions={}   frontend: wakeups={} (+{}) ev/wakeup={:.1} idle_sleeps={} syscalls={}   hotpath: batches={} occupancy={:.1} prefetches={}",
            s.requests,
            s.requests - last_requests,
            args.stats_secs,
            s.hit_rate() * 100.0,
            stats.lookups,
            stats.inserts,
            stats.evictions,
            s.frontend_wakeups,
            s.frontend_wakeups - last_wakeups,
            s.frontend_events as f64 / s.frontend_wakeups.max(1) as f64,
            s.frontend_idle_sleeps,
            s.frontend_syscalls,
            s.batch.batches,
            s.batch.avg_occupancy(),
            s.batch.prefetches,
        );
        if cphash_perfmon::trace::trace_enabled() {
            let report = cphash_perfmon::trace::snapshot(0);
            if report.total_events() > 0 {
                print!("{}", report.render());
            }
        }
        last_requests = s.requests;
        last_wakeups = s.frontend_wakeups;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn out_of_range_flags_are_usage_errors_naming_the_flag() {
        for (flags, named) in [
            (&["--migrate-rate", "inf"][..], "--migrate-rate"),
            (&["--migrate-rate", "NaN"], "--migrate-rate"),
            (&["--migrate-rate", "-5"], "--migrate-rate"),
            (
                &["--partitions", "2", "--max-partitions", "1"],
                "--max-partitions",
            ),
            (&["--client-threads", "0"], "--client-threads"),
            (&["--partitions", "0"], "--partitions"),
            (&["--migrate-feedback"], "--migrate-feedback"),
            (&["--migrate-feedback-p99"], "--migrate-feedback-p99"),
            (&["--overload-retry", "1"], "--overload-retry"),
        ] {
            match parse(flags) {
                Ok(_) => panic!("{flags:?} was accepted"),
                Err(message) => assert!(message.contains(named), "{flags:?}: {message}"),
            }
        }
    }

    #[test]
    fn migrate_rate_zero_is_unpaced_and_positive_is_a_rate() {
        let pacing = |rate| parse(&["--migrate-rate", rate]).unwrap().migration_pacing;
        assert_eq!(pacing("0"), MigrationPacing::Unpaced);
        assert_eq!(
            pacing("400"),
            MigrationPacing::Rate {
                chunks_per_sec: 400.0
            }
        );
        let args = parse(&["--partitions", "2", "--max-partitions", "4"]).unwrap();
        assert_eq!((args.partitions, args.max_partitions), (2, 4));
        assert_eq!(args.migration_pacing, MigrationPacing::Unpaced);
    }
}
