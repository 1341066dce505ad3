//! CPHash table configuration.

use cphash_affinity::{CoreId, HwThreadId, Topology};
use cphash_hashcore::EvictionPolicy;

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
    /// Expected elements per partition, from which each partition sizes
    /// its bucket lines and element slots (see
    /// [`cphash_hashcore::PartitionConfig::buckets`]).
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
    /// derive the expected elements per partition from it: the budget over
    /// `typical_value_bytes`.  Each partition then allocates one bucket
    /// line per [`cphash_hashcore::KEYS_PER_LINE`] of them.
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

    /// Allow live re-partitioning up to `max_partitions` server threads.
    pub fn with_max_partitions(mut self, max_partitions: usize) -> Self {
        self.max_partitions = max_partitions;
        self
    }

    /// NUMA-aware placement for elastic tables: one pin per *spawnable*
    /// server thread — grown partitions included — with server `i` on core
    /// `i % total_cores` (cores are numbered socket by socket), on that
    /// core's second SMT sibling as in §6.1, or on its only hardware thread
    /// without SMT.  Partition memory is first-touch allocated by its own server
    /// thread, so pinning the thread that a grow will activate is what
    /// keeps the new partition's memory local to its socket.
    pub fn with_numa_placement(mut self, topo: &Topology) -> Self {
        let smt = (topo.threads_per_core - 1).min(1);
        self.server_pins = (0..self.spawned_partitions())
            .map(|i| topo.hw_thread(CoreId(i % topo.total_cores()), smt))
            .collect();
        self
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
            assert_eq!(topo.core_of_hw_thread(*pin), CoreId(i));
            assert_eq!(topo.smt_index(*pin), 1);
        }
        // The grown servers (indices 4..16) spread across sockets rather
        // than piling onto socket 0.
        let sockets: std::collections::HashSet<usize> = c.server_pins[4..]
            .iter()
            .map(|hw| topo.socket_of_hw_thread(*hw).0)
            .collect();
        assert!(sockets.len() > 1, "grown pins span sockets: {sockets:?}");

        // A full paper-machine table: server i on CPU 80 + i.
        let full = CpHashConfig::new(80, 80).with_numa_placement(&topo);
        assert_eq!(full.server_pins.len(), 80);
        assert_eq!(full.server_pins[0], HwThreadId(80));
        assert_eq!(full.server_pins[79], HwThreadId(159));
        full.validate();
    }

    #[test]
    fn numa_placement_holds_on_every_topology() {
        // Every shape of 1-8 sockets x 1-12 cores x 1-2 SMT threads, and
        // every spawned count from one server to past three per core.
        for sockets in 1..=8 {
            for cores_per_socket in 1..=12 {
                for threads_per_core in 1..=2 {
                    let topo = Topology {
                        sockets,
                        cores_per_socket,
                        threads_per_core,
                    };
                    let cores = topo.total_cores();
                    for max_partitions in 0..=3 * cores + 1 {
                        let c = CpHashConfig::new(1, 1)
                            .with_max_partitions(max_partitions)
                            .with_numa_placement(&topo);
                        let spawned = c.spawned_partitions();
                        assert_eq!(c.server_pins.len(), spawned, "{topo:?}");
                        for (i, pin) in c.server_pins.iter().enumerate() {
                            assert!(pin.0 < topo.total_hw_threads(), "{topo:?}");
                            assert_eq!(topo.core_of_hw_thread(*pin), CoreId(i % cores));
                        }
                        if spawned <= cores {
                            let distinct: std::collections::HashSet<_> =
                                c.server_pins.iter().collect();
                            assert_eq!(distinct.len(), spawned, "{topo:?}");
                        }
                        c.validate();
                    }
                }
            }
        }
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
    #[should_panic(expected = "batch_size must be at least 1")]
    fn zero_batch_size_rejected() {
        CpHashConfig {
            batch_size: 0,
            ..CpHashConfig::new(2, 1)
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
