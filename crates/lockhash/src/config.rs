//! LockHash configuration.

use cphash_hashcore::EvictionPolicy;
use cphash_sync::LockKind;

/// Configuration for a [`crate::LockHash`] table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockHashConfig {
    /// Number of partitions, each with its own lock and eviction state.  The
    /// paper uses 4,096, "which we experimentally determined to be optimal".
    pub partitions: usize,
    /// Total byte budget across all partitions (`None` = unbounded).
    pub capacity_bytes: Option<usize>,
    /// Buckets per partition.
    pub buckets_per_partition: usize,
    /// Eviction policy.  [`EvictionPolicy::Random`] mirrors §6.3, which
    /// maintains no LRU lists (the paper additionally switches to
    /// per-bucket locks in that mode; configure more, smaller partitions to
    /// model that granularity).
    pub eviction: EvictionPolicy,
    /// Lock algorithm protecting each partition (spinlock in the paper;
    /// ticket / Anderson for the lock ablation).
    pub lock_kind: LockKind,
    /// Seed for partition-local randomness.
    pub seed: u64,
}

impl Default for LockHashConfig {
    fn default() -> Self {
        LockHashConfig {
            partitions: 4096,
            capacity_bytes: None,
            buckets_per_partition: 64,
            eviction: EvictionPolicy::Clock,
            lock_kind: LockKind::Spin,
            seed: 0xBA5E_BA11,
        }
    }
}

impl LockHashConfig {
    /// A config with the given number of partitions, unbounded capacity.
    pub fn new(partitions: usize) -> Self {
        LockHashConfig {
            partitions,
            ..Default::default()
        }
    }

    /// Set the total capacity and derive a bucket count targeting ~1 element
    /// per bucket for values of `typical_value_bytes`.
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

    /// Set the lock algorithm.
    pub fn with_lock_kind(mut self, lock_kind: LockKind) -> Self {
        self.lock_kind = lock_kind;
        self
    }

    /// Per-partition byte budget.
    pub fn partition_capacity(&self) -> Option<usize> {
        self.capacity_bytes
            .map(|total| (total / self.partitions.max(1)).max(64))
    }

    /// Validate, panicking on nonsense.
    pub fn validate(&self) {
        assert!(self.partitions > 0, "LockHash needs at least one partition");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = LockHashConfig::default();
        assert_eq!(c.partitions, 4096);
        assert_eq!(c.lock_kind, LockKind::Spin);
        assert_eq!(c.eviction, EvictionPolicy::Clock);
        c.validate();
    }

    #[test]
    fn capacity_and_bucket_derivation() {
        let c = LockHashConfig::new(16).with_capacity(1 << 20, 8);
        assert_eq!(c.partition_capacity(), Some(65_536));
        assert_eq!(c.buckets_per_partition, 8192);
    }

    #[test]
    fn builders_compose() {
        let c = LockHashConfig::new(8)
            .with_eviction(EvictionPolicy::Random)
            .with_lock_kind(LockKind::Anderson);
        assert_eq!(c.eviction, EvictionPolicy::Random);
        assert_eq!(c.lock_kind, LockKind::Anderson);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        LockHashConfig::new(0).validate();
    }
}
