//! Standalone LOCKSERVER daemon: runs the lock-based key/value cache server
//! on a TCP port until interrupted, printing periodic statistics.
//!
//! ```text
//! cargo run --release -p cphash-kvserver --bin lockserverd -- \
//!     --port 7701 --partitions 1024 --worker-threads 8 --capacity-mb 64
//! ```

use std::time::Duration;

use cphash_kvserver::{LockServer, LockServerConfig};

struct Args {
    port: u16,
    partitions: usize,
    worker_threads: usize,
    capacity_mb: usize,
    stats_secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7701,
        partitions: 1024,
        worker_threads: 4,
        capacity_mb: 64,
        stats_secs: 5,
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
            "--worker-threads" => {
                args.worker_threads =
                    value("--worker-threads")?.parse().map_err(|e| format!("bad worker-threads: {e}"))?
            }
            "--capacity-mb" => {
                args.capacity_mb = value("--capacity-mb")?.parse().map_err(|e| format!("bad capacity: {e}"))?
            }
            "--stats-secs" => {
                args.stats_secs = value("--stats-secs")?.parse().map_err(|e| format!("bad stats-secs: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: lockserverd [--port N] [--partitions N] [--worker-threads N] [--capacity-mb N] [--stats-secs N]".into())
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

    let config = LockServerConfig {
        bind: format!("0.0.0.0:{}", args.port)
            .parse()
            .expect("valid bind address"),
        worker_threads: args.worker_threads,
        partitions: args.partitions,
        capacity_bytes: Some(args.capacity_mb * 1024 * 1024),
        typical_value_bytes: 64,
        ..Default::default()
    };
    let server = match LockServer::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start LOCKSERVER: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "LOCKSERVER listening on {} ({} partitions, {} worker threads, {} MiB cache)",
        server.addr(),
        args.partitions,
        args.worker_threads,
        args.capacity_mb
    );
    println!("press Ctrl-C to stop");

    let mut last_requests = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(args.stats_secs.max(1)));
        let requests = server.metrics().requests();
        let stats = server.table_stats();
        println!(
            "requests: {:>12} (+{:>10} / {}s)   hit rate {:>5.1}%   lookups={} inserts={} evictions={}",
            requests,
            requests - last_requests,
            args.stats_secs,
            server.metrics().hit_rate() * 100.0,
            stats.lookups,
            stats.inserts,
            stats.evictions
        );
        last_requests = requests;
    }
}
