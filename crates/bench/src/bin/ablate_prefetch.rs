//! Ablation: the batched, prefetch-pipelined server hot loop vs the scalar
//! baseline.
//!
//! The scalar and batched-without-prefetch loops do not exist in the
//! server any more; they live here, written against the partition's public
//! two-phase API, as the baselines the paper's §6.2 claim is measured
//! against.  Paper-style read-heavy mix (95 % lookups / 5 %
//! value-replacing inserts, uniform keys):
//!
//! 1. **Hot loop (gated)** — one thread drives one real `Partition`, at one
//!    bucket per key, through exactly the stages the server executor runs:
//!    * `scalar`   — hash, touch memory, finish, one op at a time;
//!    * `batched`  — prepare (hash) a whole batch, then execute it: even
//!      without prefetches, back-to-back independent bucket probes let the
//!      CPU overlap their misses (memory-level parallelism the scalar
//!      loop's interleaved bookkeeping never exposes);
//!    * `prefetch` — prepare + software-prefetch every bucket line, then
//!      read each line and prefetch the element slot behind every matching
//!      tag, then execute (what the server's staged executor ships, both
//!      staging passes).
//!
//!    `--strict` exits nonzero unless `prefetch ≥ 1.1 × scalar` here —
//!    this isolates the server mechanism, so the gate holds even on hosts
//!    with fewer cores than benchmark threads.
//!
//! 1b. **Tracing overhead (gated)** — the prefetch arm re-run with the
//!    production [`StageSpan`] hooks compiled in.  With tracing disabled
//!    the hooks must cost `<= 2%` (`--strict` gates `hooks-off >= 0.98 ×
//!    hook-free`); with tracing enabled the slowdown is reported as the
//!    documented cost of `--trace`.
//!
//! 2. **End-to-end (context, ungated)** — the full table (client threads,
//!    rings, server threads).  On machines with enough cores that the
//!    server thread is the bottleneck this tracks the hot-loop rate; on
//!    oversubscribed hosts it mostly measures timesharing, which is why the
//!    gate lives on the hot loop.
//!
//! ```text
//! cargo run --release -p cphash-bench --bin ablate_prefetch -- \
//!     [--keys N] [--ops N] [--batch N] [--insert-pct P] [--repeats N] \
//!     [--e2e-ops N] [--e2e-working-set-mb N] [--skip-e2e] [--quick] \
//!     [--strict]
//! ```

use cphash_bench::xorshift64;
use cphash_hashcore::{BucketRef, Partition, PartitionConfig};
use cphash_loadgen::{run_cphash, DriverOptions, RunResult, WorkloadSpec};
use cphash_perfmon::trace::{self, TraceStage};
use cphash_perfmon::{StageSpan, Stopwatch};

struct Args {
    keys: u64,
    ops: u64,
    batch: usize,
    insert_pct: u64,
    repeats: usize,
    e2e_ops: u64,
    e2e_working_set_mb: usize,
    skip_e2e: bool,
    strict: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        keys: 4_000_000,
        ops: 3_000_000,
        batch: 64,
        insert_pct: 5,
        repeats: 3,
        e2e_ops: 1_000_000,
        e2e_working_set_mb: 32,
        skip_e2e: false,
        strict: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--keys" => args.keys = value("--keys").parse().expect("bad --keys"),
            "--ops" => args.ops = value("--ops").parse().expect("bad --ops"),
            "--batch" => args.batch = value("--batch").parse().expect("bad --batch"),
            "--insert-pct" => {
                args.insert_pct = value("--insert-pct").parse().expect("bad --insert-pct")
            }
            "--repeats" => {
                args.repeats = value("--repeats")
                    .parse::<usize>()
                    .expect("bad --repeats")
                    .max(1)
            }
            "--e2e-ops" => args.e2e_ops = value("--e2e-ops").parse().expect("bad --e2e-ops"),
            "--e2e-working-set-mb" => {
                args.e2e_working_set_mb = value("--e2e-working-set-mb")
                    .parse()
                    .expect("bad --e2e-working-set-mb")
            }
            "--skip-e2e" => args.skip_e2e = true,
            "--quick" => {
                args.keys = 1_500_000;
                args.ops = 1_000_000;
                args.repeats = 2;
                args.e2e_ops = 400_000;
                args.e2e_working_set_mb = 16;
            }
            "--strict" => args.strict = true,
            other => panic!(
                "unknown flag {other:?} (--keys N --ops N --batch N --insert-pct P --repeats N --e2e-ops N --e2e-working-set-mb N --skip-e2e --quick --strict)"
            ),
        }
    }
    args
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum HotArm {
    Scalar,
    Batched,
    Prefetch,
}

const HOT_ARMS: [(HotArm, &str); 3] = [
    (HotArm::Scalar, "scalar"),
    (HotArm::Batched, "batched"),
    (HotArm::Prefetch, "prefetch"),
];

/// One hot-loop run: `ops` operations against a prefilled partition,
/// returning operations per second.
fn run_hot(partition: &mut Partition, arm: HotArm, args: &Args) -> f64 {
    let mut rng = 0x0DD0_BA11_5EED_0001u64;
    let mut value_buf: Vec<u8> = Vec::with_capacity(16);
    let mut preps: Vec<BucketRef> = Vec::with_capacity(args.batch);
    let mut kinds: Vec<bool> = Vec::with_capacity(args.batch); // true = insert
    let watch = Stopwatch::start();
    let mut done = 0u64;
    while done < args.ops {
        let n = args.batch.min((args.ops - done) as usize);
        if arm == HotArm::Scalar {
            for _ in 0..n {
                let r = xorshift64(&mut rng);
                let key = r % args.keys;
                if r % 100 < args.insert_pct {
                    partition
                        .insert_copy(key, &r.to_le_bytes())
                        .expect("unbounded");
                } else if let Some(hit) = partition.lookup(key) {
                    partition.read_value(&hit, &mut value_buf);
                    partition.decref(hit.id);
                }
            }
        } else {
            // Stage 1: prepare (and under the prefetch arm, hint) the
            // whole batch without touching table memory.
            preps.clear();
            kinds.clear();
            for _ in 0..n {
                let r = xorshift64(&mut rng);
                let key = r % args.keys;
                let prep = partition.prepare(key);
                if arm == HotArm::Prefetch {
                    partition.prefetch_prepared(&prep);
                }
                preps.push(prep);
                kinds.push(r % 100 < args.insert_pct);
            }
            // Stage 2 (prefetch arm): the element pass over the arriving
            // lines.
            if arm == HotArm::Prefetch {
                for prep in &preps {
                    partition.prefetch_element(prep);
                }
            }
            // Stage 3: execute the batch in order.
            for (prep, is_insert) in preps.iter().zip(kinds.iter()) {
                if *is_insert {
                    partition
                        .insert_prepared(*prep, 8)
                        .map(|r| partition.fill_and_ready(r.id, &prep.key().to_le_bytes()))
                        .expect("unbounded");
                } else if let Some(hit) = partition.lookup_prepared(*prep) {
                    partition.read_value(&hit, &mut value_buf);
                    partition.decref(hit.id);
                }
            }
        }
        done += n as u64;
    }
    args.ops as f64 / watch.elapsed_secs()
}

/// The prefetch hot loop with the production trace hooks compiled in: one
/// [`StageSpan`] per pipeline stage per batch, exactly like the server's
/// staged executor.  With tracing disabled this measures the hooks' fixed
/// cost (a relaxed load and branch per span); enabled, the cost of
/// `--trace`.
fn run_hot_hooked(partition: &mut Partition, args: &Args) -> f64 {
    let mut rng = 0x0DD0_BA11_5EED_0001u64;
    let mut value_buf: Vec<u8> = Vec::with_capacity(16);
    let mut preps: Vec<BucketRef> = Vec::with_capacity(args.batch);
    let mut kinds: Vec<bool> = Vec::with_capacity(args.batch);
    let watch = Stopwatch::start();
    let mut done = 0u64;
    while done < args.ops {
        let n = args.batch.min((args.ops - done) as usize);
        preps.clear();
        kinds.clear();
        let span = StageSpan::begin(TraceStage::Prepare);
        for _ in 0..n {
            let r = xorshift64(&mut rng);
            let key = r % args.keys;
            let prep = partition.prepare(key);
            partition.prefetch_prepared(&prep);
            preps.push(prep);
            kinds.push(r % 100 < args.insert_pct);
        }
        span.finish(n as u32);
        let span = StageSpan::begin(TraceStage::Prefetch);
        for prep in &preps {
            partition.prefetch_element(prep);
        }
        span.finish(n as u32);
        let span = StageSpan::begin(TraceStage::Execute);
        for (prep, is_insert) in preps.iter().zip(kinds.iter()) {
            if *is_insert {
                partition
                    .insert_prepared(*prep, 8)
                    .map(|r| partition.fill_and_ready(r.id, &prep.key().to_le_bytes()))
                    .expect("unbounded");
            } else if let Some(hit) = partition.lookup_prepared(*prep) {
                partition.read_value(&hit, &mut value_buf);
                partition.decref(hit.id);
            }
        }
        span.finish(n as u32);
        done += n as u64;
    }
    args.ops as f64 / watch.elapsed_secs()
}

fn run_e2e(args: &Args) -> RunResult {
    let spec = WorkloadSpec {
        working_set_bytes: args.e2e_working_set_mb << 20,
        capacity_bytes: args.e2e_working_set_mb << 20,
        value_bytes: 8,
        insert_ratio: args.insert_pct as f64 / 100.0,
        operations: args.e2e_ops,
        batch: 1_000,
        ..Default::default()
    };
    let opts = DriverOptions {
        server_batch_size: args.batch,
        ..DriverOptions::new(1, 1)
    };
    run_cphash(&spec, &opts)
}

fn main() {
    let args = parse_args();
    println!(
        "hot-path ablation: {} keys, {} ops, depth {}, {}% inserts, best of {}",
        args.keys, args.ops, args.batch, args.insert_pct, args.repeats
    );
    if !cphash_cacheline::prefetch_supported() {
        println!(
            "note: no prefetch instruction on this target; the prefetch arms measure batching only"
        );
    }

    let mut partition = Partition::new(PartitionConfig::new(args.keys as usize, None));
    for key in 0..args.keys {
        partition
            .insert_copy(key, &key.to_le_bytes())
            .expect("prefill");
    }
    println!(
        "partition prefilled: {} elements over {} buckets\n",
        partition.len(),
        partition.bucket_count()
    );

    // Interleave the arms across repeat rounds so machine noise hits every
    // arm evenly; keep each arm's best (noise only subtracts throughput).
    let mut best = [0f64; HOT_ARMS.len()];
    for _ in 0..args.repeats {
        for (slot, (arm, _)) in HOT_ARMS.into_iter().enumerate() {
            best[slot] = best[slot].max(run_hot(&mut partition, arm, &args));
        }
    }

    println!("hot loop (single thread, one partition):");
    println!("{:<14} {:>14} {:>12}", "arm", "ops/sec", "vs scalar");
    let scalar = best[0];
    for ((_, name), rate) in HOT_ARMS.into_iter().zip(best.iter()) {
        println!("{:<14} {:>14.0} {:>11.2}x", name, rate, rate / scalar);
    }
    let gate = best[2] / best[0];

    // Tracing overhead: the same prefetch loop with the production stage
    // hooks compiled in, measured with tracing off (must be free) and on
    // (the advertised cost of --trace; reported, not gated).  The
    // hook-free baseline is re-measured interleaved with the hooked arms
    // so frequency/cache drift between report sections cannot masquerade
    // as hook cost.
    // A 2% gate needs tighter best-of estimates than the 10%
    // pipeline-vs-scalar one: floor the repeat count for this section
    // (best-of-6 of quarter-second runs still spread 0.96–1.02 on the
    // 2-CPU reference host; best-of-12 stayed within 0.98–1.01).
    let trace_repeats = args.repeats.max(12);
    let mut best_plain = 0f64;
    let mut best_hooks_off = 0f64;
    let mut best_hooks_on = 0f64;
    for _ in 0..trace_repeats {
        best_plain = best_plain.max(run_hot(&mut partition, HotArm::Prefetch, &args));
        trace::set_trace_enabled(false);
        best_hooks_off = best_hooks_off.max(run_hot_hooked(&mut partition, &args));
        trace::set_trace_enabled(true);
        best_hooks_on = best_hooks_on.max(run_hot_hooked(&mut partition, &args));
    }
    trace::set_trace_enabled(false);
    let traced = trace::snapshot(0);
    println!("\ntracing overhead (prefetch hot loop with stage hooks):");
    println!("{:<14} {:>14} {:>14}", "arm", "ops/sec", "vs hook-free");
    println!("{:<14} {:>14.0} {:>13.2}x", "hook-free", best_plain, 1.0);
    for (name, rate) in [("hooks-off", best_hooks_off), ("tracing-on", best_hooks_on)] {
        println!("{:<14} {:>14.0} {:>13.3}x", name, rate, rate / best_plain);
    }
    println!(
        "tracing-on recorded {} stage events (execute p50 {} cycles)",
        traced.total_events(),
        traced.stage(TraceStage::Execute).percentile(50.0)
    );
    trace::reset();
    let trace_gate = best_hooks_off / best_plain;

    if !args.skip_e2e {
        println!(
            "\nend-to-end (1 client thread + 1 server thread, {} MiB working set, {} ops; context only — on hosts with fewer free cores than threads this measures timesharing, not the server loop):",
            args.e2e_working_set_mb, args.e2e_ops
        );
        println!(
            "{:>14} {:>9} {:>12} {:>11} {:>12}",
            "ops/sec", "hit-rate", "batches", "occupancy", "prefetches"
        );
        let result = run_e2e(&args);
        println!(
            "{:>14.0} {:>8.1}% {:>12} {:>11.1} {:>12}",
            result.throughput(),
            result.hit_rate() * 100.0,
            result.batch.batches,
            result.batch.avg_occupancy(),
            result.batch.prefetches,
        );
    }

    println!(
        "\nhot loop: batched+prefetch = {:.2}x scalar (gate: >= 1.1x)",
        gate
    );
    let mut failed = false;
    if gate >= 1.1 {
        println!("PASS: the staged pipeline pays for itself in the partition hot loop");
    } else {
        println!("FAIL: batched+prefetch only {gate:.2}x scalar (expected >= 1.1x)");
        failed = true;
    }
    println!(
        "tracing hooks, disabled: {:.3}x hook-free (gate: >= 0.98x)",
        trace_gate
    );
    if trace_gate >= 0.98 {
        println!("PASS: compiled-in-but-off tracing costs <= 2% in the hot loop");
    } else {
        println!(
            "FAIL: disabled trace hooks cost {:.1}% (expected <= 2%)",
            (1.0 - trace_gate) * 100.0
        );
        failed = true;
    }

    if failed && args.strict {
        std::process::exit(1);
    }
}
