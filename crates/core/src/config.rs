//! CPHash table configuration.

use cphash_affinity::{HwThreadId, PlacementPlan, Role, ThreadAssignment, Topology};
use cphash_hashcore::EvictionPolicy;

/// How the repartition coordinator paces chunk hand-offs during a live
/// resize (see `cphash-migrate`'s `MigrationPacer`).
///
/// Lives here (not in `cphash-migrate`) so that table-level configuration —
/// `CpHashConfig`, CPSERVER's config, benchmark harnesses — can carry the
/// knob without depending on the migration crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MigrationPacing {
    /// Hand chunks off back-to-back (PR 1 behaviour): fastest transition,
    /// deepest foreground-throughput dip.
    #[default]
    Unpaced,
    /// Token bucket: at most `chunks_per_sec` chunk hand-offs per second,
    /// spreading the migration cost over time at an operator-chosen rate.
    Rate {
        /// Chunk hand-offs per second (must be positive).
        chunks_per_sec: f64,
    },
    /// Feedback mode: start at `chunks_per_sec` and sample the
    /// per-partition inbound queue depth between hand-offs — halving the
    /// rate while servers are falling behind (`depth > high_depth`) and
    /// recovering it while they are keeping up (`depth < low_depth`).
    Feedback {
        /// Initial (and maximum) chunk hand-offs per second.
        chunks_per_sec: f64,
        /// Queue depth (words drained per server loop iteration) above
        /// which the pacer backs off.
        high_depth: f64,
        /// Queue depth below which the pacer speeds back up.
        low_depth: f64,
    },
    /// Feedback on *client-observed latency*: the same
    /// halve-on-pressure / recover-when-clear controller as
    /// [`MigrationPacing::Feedback`], but the signal sampled between
    /// hand-offs is a request-latency p99 (microseconds) from a
    /// `cphash_perfmon::SharedLatencyWindow` instead of the server queue
    /// depth — tracking what applications actually feel rather than how
    /// deep the inbound rings run.
    FeedbackLatency {
        /// Initial (and maximum) chunk hand-offs per second.
        chunks_per_sec: f64,
        /// Windowed request p99, in microseconds, above which the pacer
        /// backs off.
        high_p99_us: f64,
        /// Windowed request p99 below which the pacer speeds back up.
        low_p99_us: f64,
    },
}

impl MigrationPacing {
    /// A sensible feedback configuration: back off when servers drain more
    /// than half a lane batch per iteration, recover below an eighth.
    pub fn feedback(chunks_per_sec: f64) -> Self {
        MigrationPacing::Feedback {
            chunks_per_sec,
            high_depth: 128.0,
            low_depth: 32.0,
        }
    }

    /// A sensible latency-feedback configuration: back off while the
    /// windowed request p99 exceeds 2 ms, recover below 500 µs.
    pub fn latency_feedback(chunks_per_sec: f64) -> Self {
        MigrationPacing::FeedbackLatency {
            chunks_per_sec,
            high_p99_us: 2_000.0,
            low_p99_us: 500.0,
        }
    }

    /// Validate the pacing parameters, panicking on nonsense.
    pub fn validate(&self) {
        match *self {
            MigrationPacing::Unpaced => {}
            MigrationPacing::Rate { chunks_per_sec } => {
                assert!(
                    chunks_per_sec > 0.0 && chunks_per_sec.is_finite(),
                    "chunks_per_sec must be positive and finite"
                );
            }
            MigrationPacing::Feedback {
                chunks_per_sec,
                high_depth,
                low_depth,
            } => {
                assert!(
                    chunks_per_sec > 0.0 && chunks_per_sec.is_finite(),
                    "chunks_per_sec must be positive and finite"
                );
                assert!(
                    low_depth >= 0.0 && high_depth >= low_depth,
                    "feedback thresholds must satisfy 0 <= low_depth <= high_depth"
                );
            }
            MigrationPacing::FeedbackLatency {
                chunks_per_sec,
                high_p99_us,
                low_p99_us,
            } => {
                assert!(
                    chunks_per_sec > 0.0 && chunks_per_sec.is_finite(),
                    "chunks_per_sec must be positive and finite"
                );
                assert!(
                    low_p99_us >= 0.0 && high_p99_us >= low_p99_us,
                    "feedback thresholds must satisfy 0 <= low_p99_us <= high_p99_us"
                );
            }
        }
    }
}

/// The default pipeline depth (operations staged per batch).
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// One partition's share of a global byte budget split over `partitions`
/// partitions (with a small floor so a share is never useless).  Both the
/// table constructor and the live capacity re-split during re-partitioning
/// use this rule, so resizing never changes the table-wide budget.
pub fn split_capacity(total: Option<usize>, partitions: usize) -> Option<usize> {
    total.map(|bytes| (bytes / partitions.max(1)).max(64))
}

/// Configuration for a [`crate::CpHash`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct CpHashConfig {
    /// Number of partitions = number of server threads (§3.1: "one partition
    /// for each hardware thread that runs a server thread").
    pub partitions: usize,
    /// Number of client handles the table creates.
    pub clients: usize,
    /// Total byte budget across all partitions (`None` = unbounded). Each
    /// partition gets an equal share — "In CPHASH all partitions are of
    /// equal size for simplicity" (§3.1).
    pub capacity_bytes: Option<usize>,
    /// Buckets per partition. Default sizes the table for roughly one
    /// element per bucket given 8-byte values and the byte budget.
    pub buckets_per_partition: usize,
    /// Eviction policy (CLOCK by default, Random for the §6.3 variant).
    pub eviction: EvictionPolicy,
    /// Message-ring capacity per client/server lane, in 8-byte words.
    pub ring_capacity: usize,
    /// Hardware threads to pin server threads to, one per partition.
    /// Empty = do not pin (tests, small machines).
    pub server_pins: Vec<HwThreadId>,
    /// Seed used for partition-local randomness (random eviction).
    pub seed: u64,
    /// Upper bound on the partition count the table can be re-partitioned
    /// to at runtime. The table spawns this many server threads up front
    /// (threads beyond the active count idle-poll their empty lanes); `0`
    /// means "equal to `partitions`", i.e. a statically-sized table.
    pub max_partitions: usize,
    /// Number of migration chunks the key space is cut into for live
    /// re-partitioning (a power of two). More chunks mean smaller, more
    /// frequent migration steps.
    pub migration_chunks: usize,
    /// Default pacing for live re-partitioning (the coordinator may be
    /// given a different pacer per resize; this is what table-level tooling
    /// such as CPSERVER starts from).
    pub migration_pacing: MigrationPacing,
    /// Pipeline depth: how many data operations a server stages
    /// (hash + prefetch) before executing them.  1 degenerates to
    /// per-operation processing.
    pub batch_size: usize,
}

impl Default for CpHashConfig {
    fn default() -> Self {
        CpHashConfig {
            partitions: 4,
            clients: 1,
            capacity_bytes: None,
            buckets_per_partition: 1024,
            eviction: EvictionPolicy::Clock,
            ring_capacity: 4096,
            server_pins: Vec::new(),
            seed: 0xC0FF_EE00,
            max_partitions: 0,
            migration_chunks: 64,
            migration_pacing: MigrationPacing::Unpaced,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

impl CpHashConfig {
    /// A config with `partitions` server threads and `clients` client
    /// handles, unbounded capacity.
    pub fn new(partitions: usize, clients: usize) -> Self {
        CpHashConfig {
            partitions,
            clients,
            ..Default::default()
        }
    }

    /// Set the total capacity budget (split evenly across partitions) and
    /// derive a bucket count targeting ~1 element per bucket for 8-byte
    /// values, as the paper's benchmark does.
    pub fn with_capacity(mut self, capacity_bytes: usize, typical_value_bytes: usize) -> Self {
        self.capacity_bytes = Some(capacity_bytes);
        let elements = capacity_bytes / typical_value_bytes.max(1);
        self.buckets_per_partition = (elements / self.partitions.max(1))
            .next_power_of_two()
            .max(8);
        self
    }

    /// Set the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Pin server threads to the second hardware thread of each core, as in
    /// the paper's §6.1 placement, using the given topology.
    pub fn with_paper_placement(mut self, topo: &Topology) -> Self {
        self.server_pins = (0..self.partitions)
            .map(|i| {
                let core = cphash_affinity::CoreId(i % topo.total_cores());
                topo.hw_thread(core, (topo.threads_per_core - 1).min(1))
            })
            .collect();
        self
    }

    /// Allow live re-partitioning up to `max_partitions` server threads.
    pub fn with_max_partitions(mut self, max_partitions: usize) -> Self {
        self.max_partitions = max_partitions;
        self
    }

    /// Apply the server assignments of a [`PlacementPlan`] as
    /// `server_pins`, in server-index order.  The plan must provide at
    /// least one server assignment per spawnable server thread
    /// ([`CpHashConfig::spawned_partitions`]), so that partitions activated
    /// by a later live grow are pinned too — not just the initial set.
    pub fn with_placement_plan(mut self, plan: &PlacementPlan) -> Self {
        let mut pins: Vec<(usize, HwThreadId)> = plan
            .assignments
            .iter()
            .filter(|a| a.role == Role::Server)
            .map(|a| (a.index, a.hw_thread))
            .collect();
        pins.sort_by_key(|(index, _)| *index);
        assert!(
            pins.len() >= self.spawned_partitions(),
            "placement plan covers {} servers but the table can grow to {}",
            pins.len(),
            self.spawned_partitions()
        );
        self.server_pins = pins.into_iter().map(|(_, hw)| hw).collect();
        self
    }

    /// NUMA-aware placement for elastic tables: build a plan with one
    /// server assignment per *spawnable* thread — grown partitions included
    /// — walking the topology's cores in socket order (second SMT sibling,
    /// as in §6.1), and wire it into `server_pins`.  Partition memory is
    /// first-touch allocated by its own server thread, so pinning the
    /// thread that a grow will activate is what keeps the new partition's
    /// memory local to its socket.
    pub fn with_numa_placement(self, topo: &Topology) -> Self {
        let spawned = self.spawned_partitions();
        let assignments = (0..spawned)
            .map(|index| {
                let core = cphash_affinity::CoreId(index % topo.total_cores());
                ThreadAssignment {
                    role: Role::Server,
                    index,
                    hw_thread: topo.hw_thread(core, (topo.threads_per_core - 1).min(1)),
                }
            })
            .collect();
        let plan = PlacementPlan {
            label: format!("numa-elastic-{spawned}-servers"),
            assignments,
        };
        self.with_placement_plan(&plan)
    }

    /// The number of server threads the table spawns: `max_partitions`,
    /// defaulting to the initial `partitions` when unset.
    pub fn spawned_partitions(&self) -> usize {
        self.max_partitions.max(self.partitions)
    }

    /// Per-partition byte budget at the initial partition count.
    pub fn partition_capacity(&self) -> Option<usize> {
        self.partition_capacity_for(self.partitions)
    }

    /// Per-partition share of the global byte budget when `partitions`
    /// server threads are active.  Live re-partitioning re-splits the
    /// budget with this same rule (see [`split_capacity`]), so the
    /// table-wide budget stays fixed as the partition count changes.
    pub fn partition_capacity_for(&self, partitions: usize) -> Option<usize> {
        split_capacity(self.capacity_bytes, partitions)
    }

    /// Set the default migration pacing.
    pub fn with_migration_pacing(mut self, pacing: MigrationPacing) -> Self {
        self.migration_pacing = pacing;
        self
    }

    /// Set the pipeline depth (operations staged per batch; must be ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Validate the configuration, panicking with a clear message on
    /// nonsensical values.
    pub fn validate(&self) {
        assert!(self.partitions > 0, "CPHash needs at least one partition");
        assert!(self.clients > 0, "CPHash needs at least one client");
        assert!(self.ring_capacity >= 64, "ring capacity unreasonably small");
        assert!(
            self.server_pins.is_empty() || self.server_pins.len() >= self.partitions,
            "server_pins must be empty or provide one hardware thread per partition"
        );
        assert!(
            self.migration_chunks.is_power_of_two()
                && self.migration_chunks <= cphash_hashcore::MAX_MIGRATION_CHUNKS,
            "migration_chunks must be a power of two, at most {}",
            cphash_hashcore::MAX_MIGRATION_CHUNKS
        );
        assert!(
            self.max_partitions == 0 || self.max_partitions >= self.partitions,
            "max_partitions must be 0 (static) or at least the initial partition count"
        );
        assert!(self.batch_size >= 1, "batch_size must be at least 1");
        self.migration_pacing.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        CpHashConfig::default().validate();
    }

    #[test]
    fn capacity_splits_evenly() {
        let c = CpHashConfig::new(8, 2).with_capacity(1 << 20, 8);
        assert_eq!(c.partition_capacity(), Some(131_072));
        // 1 MiB / 8 B = 131072 elements over 8 partitions → 16384 buckets.
        assert_eq!(c.buckets_per_partition, 16_384);
        c.validate();
    }

    #[test]
    fn numa_placement_pins_grown_servers_too() {
        let topo = Topology::paper_machine();
        // Table starts at 4 partitions but can grow to 16: all 16 spawnable
        // server threads must get a pin, so a live grow lands new
        // partitions on pre-placed threads.
        let c = CpHashConfig::new(4, 4)
            .with_max_partitions(16)
            .with_numa_placement(&topo);
        assert_eq!(c.server_pins.len(), 16);
        c.validate();
        // Server i sits on the SMT sibling of core i (paper §6.1 shape).
        for (i, pin) in c.server_pins.iter().enumerate() {
            assert_eq!(topo.core_of_hw_thread(*pin), cphash_affinity::CoreId(i));
        }
        // The grown servers (indices 4..16) spread across sockets rather
        // than piling onto socket 0.
        let sockets: std::collections::HashSet<usize> = c.server_pins[4..]
            .iter()
            .map(|hw| topo.socket_of_hw_thread(*hw).0)
            .collect();
        assert!(sockets.len() > 1, "grown pins span sockets: {sockets:?}");
    }

    #[test]
    fn placement_plan_wires_server_assignments_in_index_order() {
        let topo = Topology::paper_machine();
        let cores: Vec<usize> = (0..8).collect();
        let plan = PlacementPlan::cphash_paired(&topo, &cores);
        let c = CpHashConfig::new(8, 8).with_placement_plan(&plan);
        assert_eq!(c.server_pins.len(), 8);
        for (i, pin) in c.server_pins.iter().enumerate() {
            let expected = plan
                .assignments
                .iter()
                .find(|a| a.role == Role::Server && a.index == i)
                .unwrap()
                .hw_thread;
            assert_eq!(*pin, expected);
        }
        c.validate();
    }

    #[test]
    #[should_panic(expected = "placement plan covers")]
    fn short_placement_plan_is_rejected() {
        let topo = Topology::paper_machine();
        let cores: Vec<usize> = (0..4).collect();
        let plan = PlacementPlan::cphash_paired(&topo, &cores);
        // 4 server assignments cannot cover a table that grows to 8.
        let _ = CpHashConfig::new(4, 1)
            .with_max_partitions(8)
            .with_placement_plan(&plan);
    }

    #[test]
    fn paper_placement_pins_one_server_per_core_sibling() {
        let topo = Topology::paper_machine();
        let c = CpHashConfig::new(80, 80).with_paper_placement(&topo);
        assert_eq!(c.server_pins.len(), 80);
        // Server i is pinned to the SMT sibling of core i (CPU 80+i).
        assert_eq!(c.server_pins[0], HwThreadId(80));
        assert_eq!(c.server_pins[79], HwThreadId(159));
        c.validate();
    }

    #[test]
    fn capacity_resplits_for_any_partition_count() {
        let c = CpHashConfig::new(2, 1).with_capacity(1 << 20, 8);
        assert_eq!(c.partition_capacity(), Some(1 << 19));
        assert_eq!(c.partition_capacity_for(4), Some(1 << 18));
        assert_eq!(c.partition_capacity_for(8), Some(1 << 17));
        // The share never collapses below the 64-byte floor.
        assert_eq!(
            CpHashConfig::new(1, 1)
                .with_capacity(128, 8)
                .partition_capacity_for(1024),
            Some(64)
        );
    }

    #[test]
    fn pacing_validation_accepts_sane_configs() {
        MigrationPacing::Unpaced.validate();
        MigrationPacing::Rate {
            chunks_per_sec: 100.0,
        }
        .validate();
        MigrationPacing::feedback(500.0).validate();
        CpHashConfig::new(2, 1)
            .with_migration_pacing(MigrationPacing::feedback(250.0))
            .validate();
    }

    #[test]
    #[should_panic(expected = "batch_size must be at least 1")]
    fn zero_batch_size_rejected() {
        CpHashConfig::new(2, 1).with_batch_size(0).validate();
    }

    #[test]
    fn latency_feedback_pacing_validates() {
        MigrationPacing::latency_feedback(500.0).validate();
        CpHashConfig::new(2, 1)
            .with_migration_pacing(MigrationPacing::FeedbackLatency {
                chunks_per_sec: 100.0,
                high_p99_us: 1_000.0,
                low_p99_us: 100.0,
            })
            .validate();
    }

    #[test]
    #[should_panic(expected = "low_p99_us <= high_p99_us")]
    fn inverted_latency_thresholds_rejected() {
        MigrationPacing::FeedbackLatency {
            chunks_per_sec: 10.0,
            high_p99_us: 1.0,
            low_p99_us: 2.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_pacing_rejected() {
        MigrationPacing::Rate {
            chunks_per_sec: 0.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "low_depth <= high_depth")]
    fn inverted_feedback_thresholds_rejected() {
        MigrationPacing::Feedback {
            chunks_per_sec: 10.0,
            high_depth: 1.0,
            low_depth: 2.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "power of two, at most")]
    fn oversized_chunk_counts_rejected() {
        CpHashConfig {
            migration_chunks: 1 << 17,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        CpHashConfig {
            partitions: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "one hardware thread per partition")]
    fn wrong_pin_count_rejected() {
        CpHashConfig {
            partitions: 4,
            server_pins: vec![HwThreadId(0)],
            ..Default::default()
        }
        .validate();
    }
}
