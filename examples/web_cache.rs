//! The paper's motivating workload: an in-process page-render cache
//! (the memcached use case) with skewed, Zipf-distributed popularity,
//! comparing CPHash and LockHash side by side on identical request streams.
//!
//! Run with `cargo run --release --example web_cache`.

use cphash_suite::loadgen::{
    run_cphash, run_lockhash, DriverOptions, KeyDistribution, WorkloadSpec,
};
use cphash_suite::EvictionPolicy;

fn main() {
    // 4 MB of cached page fragments, but only 1 MB of cache budget: CLOCK
    // eviction has to keep the popular fragments resident.
    let spec = WorkloadSpec {
        working_set_bytes: 4 << 20,
        capacity_bytes: 1 << 20,
        value_bytes: 8,
        insert_ratio: 0.1, // mostly reads, occasional re-renders
        operations: 1_000_000,
        batch: 512,
        distribution: KeyDistribution::Zipf(0.99),
        prefill: true,
        seed: 42,
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let pairs = (threads / 2).clamp(1, 8);

    println!(
        "web-cache workload: 4 MB of fragments, 1 MB cache, Zipf(0.99) popularity, 10% re-render"
    );
    println!("running {} client threads against each design\n", pairs);

    let cp_opts = DriverOptions {
        client_threads: pairs,
        partitions: pairs,
        eviction: EvictionPolicy::Clock,
        ..Default::default()
    };
    let lh_opts = DriverOptions {
        client_threads: pairs * 2,
        partitions: 1024,
        eviction: EvictionPolicy::Clock,
        ..Default::default()
    };

    let cp = run_cphash(&spec, &cp_opts);
    let lh = run_lockhash(&spec, &lh_opts);

    println!(
        "CPHash   : {:>12.0} requests/s, hit rate {:>5.1}%",
        cp.throughput(),
        cp.hit_rate() * 100.0
    );
    println!(
        "LockHash : {:>12.0} requests/s, hit rate {:>5.1}%",
        lh.throughput(),
        lh.hit_rate() * 100.0
    );
    println!(
        "speedup  : {:.2}x (the skewed, cache-resident hot set is exactly where partition locality pays off)",
        cp.throughput() / lh.throughput().max(1.0)
    );
    println!(
        "evictions: cphash {} / lockhash {} (both caches stay within the 1 MB budget)",
        cp.table_stats.evictions, lh.table_stats.evictions
    );
}
