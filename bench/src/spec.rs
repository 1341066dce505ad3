//! The four workloads and the metric vocabulary.  `BENCHMARK.json` at the
//! repository root names the same workloads and metrics; a unit test in
//! this file keeps the two in step.

use crate::gen::{KeyKind, Popularity};

/// Which request path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// In-process `CpHash`: one client thread, one partition/server thread.
    Inproc,
    /// `CpServer` over loopback, closed loop.
    TcpClosed,
    /// `CpServer` over loopback, open loop at fixed rate steps.
    TcpPaced,
}

/// One workload, fully specified.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Request path.
    pub path: Path,
    /// Distinct keys (all prefilled; tables are uncapped, so all must hit).
    pub keys: usize,
    /// Key spelling.
    pub key_kind: KeyKind,
    /// Value size in bytes.
    pub value_bytes: usize,
    /// Key popularity.
    pub popularity: Popularity,
    /// Writes per 1000 operations.
    pub write_permille: u32,
    /// Outstanding operations per connection (closed loop).
    pub window: usize,
    /// Generator connections (1 in-process client handle, or TCP sockets).
    pub connections: usize,
    /// Buckets of the one partition (paper sizing: about one key each).
    pub buckets: usize,
    /// Open-loop rate steps, ops/s (empty for closed-loop workloads).
    pub rate_steps: &'static [u32],
    /// Default timed-phase length, seconds.
    pub default_seconds: u64,
    /// Set-ups per untraced run (`setup_s` is their median): the measured
    /// instance first, the rest after its timed phase.
    pub setups: usize,
    /// Busy threads while the workload runs (generator + servers).
    pub busy_threads: usize,
    /// Why the workload exists.
    pub why: &'static str,
}

/// Open-loop tick length.
pub const TICK_US: u64 = 1_000;
/// Reference rate step for latency / CPU metrics on the paced workload.
pub const REFERENCE_RATE: u32 = 20_000;
/// Latency limit on p99 at a rate step.  (The issue started from 2 ms; on
/// the 2-CPU reference host p99 carries 1–3 ms of scheduler noise at every
/// rate, so 2 ms flipped steps from run to run.  5 ms separates "keeps up"
/// from "falls behind" cleanly.  See README.md, rate-step calibration.)
pub const LIMIT_P99_US: f64 = 5_000.0;
/// Share of a step's offered operations that must complete within it.
pub const LIMIT_ACHIEVED: f64 = 0.99;
/// Windows the timed phase of a closed-loop workload is cut into.
pub const WINDOWS: usize = 5;
/// Warm-up before the timed phase, seconds.
pub const WARMUP_SECONDS: f64 = 2.0;
/// Staged-batch size of the single-threaded rungs (the server's default).
pub const RUNG_BATCH: usize = 64;

/// The frozen workload set.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_dram_read",
        path: Path::Inproc,
        keys: 4_000_000,
        key_kind: KeyKind::U64,
        value_bytes: 8,
        popularity: Popularity::Uniform,
        write_permille: 50,
        window: 512,
        connections: 1,
        buckets: 1 << 22,
        rate_steps: &[],
        default_seconds: 15,
        setups: 3,
        busy_threads: 2,
        why: "table far larger than the 4 MiB L2: hashcore DRAM misses dominate, kvproto/kvserver idle",
    },
    Workload {
        name: "inproc_cache_write",
        path: Path::Inproc,
        keys: 16_384,
        key_kind: KeyKind::U64,
        value_bytes: 8,
        popularity: Popularity::Uniform,
        write_permille: 500,
        window: 512,
        connections: 1,
        buckets: 1 << 14,
        rate_steps: &[],
        default_seconds: 15,
        setups: 15,
        busy_threads: 2,
        why: "cache-resident table, half writes: channel + core message cost and the alloc write path dominate",
    },
    Workload {
        name: "tcp_pipelined_read",
        path: Path::TcpClosed,
        keys: 65_536,
        key_kind: KeyKind::U64,
        value_bytes: 8,
        popularity: Popularity::Uniform,
        write_permille: 50,
        window: 64,
        connections: 2,
        buckets: 1 << 16,
        rate_steps: &[],
        default_seconds: 15,
        setups: 7,
        busy_threads: 3,
        why: "smallest messages over loopback, table cost negligible: kvproto + kvserver + syscalls dominate",
    },
    Workload {
        name: "tcp_paced_values",
        path: Path::TcpPaced,
        keys: 262_144,
        key_kind: KeyKind::Bytes,
        value_bytes: 1024,
        popularity: Popularity::Zipf(0.99),
        write_permille: 200,
        window: 0,
        connections: 2,
        buckets: 1 << 18,
        rate_steps: &[5_000, 10_000, 15_000, 20_000],
        default_seconds: 24,
        setups: 3,
        busy_threads: 3,
        why: "open loop, byte keys, 1 KiB values, 20% sets: bytes/s, envelope path and a reactor that sleeps and wakes",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// Spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics gated by `BENCHMARK.json` (defined and non-zero on
/// every workload).  Four more are end-to-end but cannot be gated by a
/// relative bound of at most 25 % that same-commit spread stays inside:
/// `failed_ops_ratio` is always 0, `max_rate_in_limit_ops_s` moves in whole
/// rate steps, and on `tcp_paced_values` (three threads, two CPUs)
/// `latency_p50_us` spreads 13–25 % and `latency_p99_us` 25–60 % between
/// same-commit runs; see [`END_TO_END_UNGATED`].
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_ops_s", "1/s", Higher),
    m("cpu_us_per_op", "us", Lower),
    m("mem_bytes_per_key", "B", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("setup_s", "s", Lower),
];

/// End-to-end metrics reported by every run but not gated by a bound.
pub const END_TO_END_UNGATED: &[MetricDef] = &[
    m("latency_p50_us", "us", Lower),
    m("latency_p99_us", "us", Lower),
    m("failed_ops_ratio", "ratio", Lower),
    m("max_rate_in_limit_ops_s", "1/s", Higher),
];

/// Per-layer metrics, from the traced run and the single-threaded rungs.
/// A metric of a layer the workload does not cross reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("latency_p50_us", "us", Lower),
    m("latency_p99_us", "us", Lower),
    m("failed_ops_ratio", "ratio", Lower),
    m("max_rate_in_limit_ops_s", "1/s", Higher),
    m("hashcore.cycles_per_op", "cycles", Lower),
    m("hashcore.ops_s", "1/s", Higher),
    m("hashcore.hit_ratio", "ratio", Higher),
    m("hashcore.inline_hit_ratio", "ratio", Higher),
    m("hashcore.overflow_probes_per_op", "count", Lower),
    m("hashcore.tag_false_positives_per_mop", "count", Lower),
    m("hashcore.evictions_per_insert", "count", Lower),
    m("hashcore.bytes_per_key", "B", Lower),
    m("alloc.cycles_per_alloc_free", "cycles", Lower),
    m("alloc.block_bytes_per_value_byte", "ratio", Lower),
    m("channel.push_pop_cycles_per_msg", "cycles", Lower),
    m("channel.roundtrip_cycles_per_msg", "cycles", Lower),
    m("channel.msgs_per_flush", "count", Higher),
    m("channel.full_events_per_mop", "count", Lower),
    m("core.cycles_per_op", "cycles", Lower),
    m("core.submit_cycles_per_op", "cycles", Lower),
    m("core.poll_cycles_per_op", "cycles", Lower),
    m("core.server_utilization", "ratio", Higher),
    m("core.batch_occupancy", "count", Higher),
    m("core.prefetches_per_op", "count", Higher),
    m("core.migration_retries", "count", Lower),
    m("core.write_deferrals", "count", Lower),
    m("core.stage.ring_enqueue_cycles_per_op", "cycles", Lower),
    m("core.stage.drain_cycles_per_op", "cycles", Lower),
    m("core.stage.prepare_cycles_per_op", "cycles", Lower),
    m("core.stage.prefetch_cycles_per_op", "cycles", Lower),
    m("core.stage.execute_cycles_per_op", "cycles", Lower),
    m("core.stage.reply_publish_cycles_per_op", "cycles", Lower),
    m("kvproto.encode_op_cycles", "cycles", Lower),
    m("kvproto.decode_op_cycles", "cycles", Lower),
    m("kvproto.encode_reply_cycles", "cycles", Lower),
    m("kvproto.decode_reply_cycles", "cycles", Lower),
    m("kvproto.wire_bytes_per_op", "B", Lower),
    m("kvproto.allocs_per_op", "count", Lower),
    m("kvproto.alloc_bytes_per_op", "B", Lower),
    m("kvserver.cycles_per_op", "cycles", Lower),
    m("kvserver.syscalls_per_op", "count", Lower),
    m("kvserver.wakeups_per_kop", "count", Lower),
    m("kvserver.events_per_wakeup", "count", Higher),
    m("kvserver.idle_sleeps_per_s", "1/s", Lower),
    m("kvserver.bytes_in_per_op", "B", Lower),
    m("kvserver.bytes_out_per_op", "B", Lower),
    m("kvserver.retries_emitted", "count", Lower),
    m("kvserver.batch_occupancy", "count", Higher),
    m("kvserver.allocs_per_op", "count", Lower),
    m("kvserver.alloc_bytes_per_op", "B", Lower),
    m("kvserver.residual_cycles_per_op", "cycles", Lower),
    m("kvserver.residual_share", "ratio", Lower),
    m("proc.user_cpu_us_per_op", "us", Lower),
    m("proc.sys_cpu_us_per_op", "us", Lower),
    m("remote.submit_cycles_per_op", "cycles", Lower),
    m("remote.poll_cycles_per_op", "cycles", Lower),
    m("delta.core_over_hashcore_cycles", "cycles", Lower),
    m("delta.kvserver_over_core_cycles", "cycles", Lower),
    m("latency.get_p50_us", "us", Lower),
    m("latency.get_p99_us", "us", Lower),
    m("latency.set_p50_us", "us", Lower),
    m("latency.set_p99_us", "us", Lower),
    m("latency.p999_us", "us", Lower),
    m("paced.r5k.p99_us", "us", Lower),
    m("paced.r5k.achieved_ratio", "ratio", Higher),
    m("paced.r10k.p99_us", "us", Lower),
    m("paced.r10k.achieved_ratio", "ratio", Higher),
    m("paced.r15k.p99_us", "us", Lower),
    m("paced.r15k.achieved_ratio", "ratio", Higher),
    m("paced.r20k.p99_us", "us", Lower),
    m("paced.r20k.achieved_ratio", "ratio", Higher),
    m("gen.lateness_p99_us", "us", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
    m("baseline.lockhash_ops_s", "1/s", Higher),
    m("baseline.speedup_vs_lockhash", "ratio", Higher),
];

/// Per-layer metric values of one traced run, by name.  Anything not put
/// reads 0 — the value of a layer the workload does not cross.
#[derive(Debug, Default)]
pub struct Metrics(std::collections::BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set a metric of [`PER_LAYER`] (non-finite values read 0).
    pub fn put(&mut self, name: &str, value: f64) {
        let def = PER_LAYER.iter().find(|d| d.name == name);
        debug_assert!(def.is_some(), "{name} is not a per-layer metric");
        if let Some(def) = def {
            self.0
                .insert(def.name, if value.is_finite() { value } else { 0.0 });
        }
    }

    /// A metric's value (0 when never put).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric as (name, value, unit), in [`PER_LAYER`] order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|d| (d.name, self.get(d.name), d.unit))
            .collect()
    }
}

/// Label of a rate step in metric names (`10000` → `r10k`).
pub fn rate_label(rate: u32) -> String {
    format!("r{}k", rate / 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check(section: &str, defs: &[MetricDef], doc: &Json) {
        let listed = doc.get(section).expect(section).items();
        let names: Vec<&str> = listed
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, ours, "{section} names differ from spec.rs");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let doc = manifest();
        let names: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        check("end_to_end", END_TO_END, &doc);
        check("per_layer", PER_LAYER, &doc);
        for entry in doc.get("end_to_end").unwrap().items() {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for def in END_TO_END_UNGATED {
            assert!(PER_LAYER.iter().any(|p| p.name == def.name));
        }
        for w in &WORKLOADS {
            for &rate in w.rate_steps {
                let name = format!("paced.{}.p99_us", rate_label(rate));
                assert!(PER_LAYER.iter().any(|p| p.name == name), "{name}");
            }
        }
    }
}
