//! The §6 benchmark parameter set.

use serde::{Deserialize, Serialize};

use crate::ops::KeyDistribution;

/// Parameters of one benchmark run — the exact knobs §6 enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// "Working set size of queries issued by clients, in bytes (i.e.,
    /// amount of memory required to store all values inserted by clients)."
    pub working_set_bytes: usize,
    /// Size of each value in bytes ("the value is the same as the key
    /// (8 bytes)" in the microbenchmark).
    pub value_bytes: usize,
    /// "Maximum hash table size in bytes (meaningful values range from 0×
    /// to 1× the working set size)."
    pub capacity_bytes: usize,
    /// "Ratio of INSERT queries" (the rest are LOOKUPs).
    pub insert_ratio: f64,
    /// Total operations to issue across all client threads.
    pub operations: u64,
    /// Outstanding-request window per client ("Each client maintains a
    /// pipeline of 1,000 outstanding requests across all servers", §6.1).
    pub batch: usize,
    /// Key popularity distribution (uniform in the paper's microbenchmark).
    pub distribution: KeyDistribution,
    /// Whether to pre-populate the table with the working set before the
    /// timed run (the paper's 10⁹-query runs reach steady state on their
    /// own; short runs need the head start for realistic hit rates).
    pub prefill: bool,
    /// Seed for deterministic key streams.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            working_set_bytes: 1 << 20,
            value_bytes: 8,
            capacity_bytes: 1 << 20,
            insert_ratio: 0.3,
            operations: 1_000_000,
            batch: 1_000,
            distribution: KeyDistribution::Uniform,
            prefill: true,
            seed: 0xFEED_F00D,
        }
    }
}

impl WorkloadSpec {
    /// The Figure 5/8 sweep point at a given working-set size: capacity
    /// equal to the working set, 30 % inserts, CLOCK eviction.
    pub fn working_set_point(working_set_bytes: usize, operations: u64) -> Self {
        WorkloadSpec {
            working_set_bytes,
            capacity_bytes: working_set_bytes,
            operations,
            ..Default::default()
        }
    }

    /// The Figure 6/7 configuration: 1 MB working set and capacity.
    pub fn figure6(operations: u64) -> Self {
        Self::working_set_point(1 << 20, operations)
    }

    /// A Figure 9 sweep point: 128 MB working set (scaled by the caller),
    /// variable capacity.
    pub fn capacity_point(
        working_set_bytes: usize,
        capacity_bytes: usize,
        operations: u64,
    ) -> Self {
        WorkloadSpec {
            working_set_bytes,
            capacity_bytes,
            operations,
            ..Default::default()
        }
    }

    /// A Figure 10 sweep point: fixed working set and capacity, variable
    /// insert ratio.
    pub fn insert_ratio_point(
        working_set_bytes: usize,
        insert_ratio: f64,
        operations: u64,
    ) -> Self {
        WorkloadSpec {
            working_set_bytes,
            capacity_bytes: working_set_bytes,
            insert_ratio,
            operations,
            ..Default::default()
        }
    }

    /// Number of distinct keys in the working set.
    pub fn distinct_keys(&self) -> u64 {
        (self.working_set_bytes / self.value_bytes.max(1)).max(1) as u64
    }

    /// Capacity as a fraction of the working set (0.0 – 1.0+).
    pub fn capacity_fraction(&self) -> f64 {
        if self.working_set_bytes == 0 {
            0.0
        } else {
            self.capacity_bytes as f64 / self.working_set_bytes as f64
        }
    }

    /// Sanity-check the parameters.
    pub fn validate(&self) {
        assert!(self.value_bytes > 0, "values need at least one byte");
        assert!(
            self.working_set_bytes >= self.value_bytes,
            "working set smaller than one value"
        );
        assert!(
            (0.0..=1.0).contains(&self.insert_ratio),
            "insert ratio must be in [0, 1]"
        );
        assert!(self.operations > 0, "need at least one operation");
        assert!(self.batch > 0, "batch must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_figure6_point() {
        let w = WorkloadSpec::default();
        assert_eq!(w.working_set_bytes, 1 << 20);
        assert_eq!(w.value_bytes, 8);
        assert!((w.insert_ratio - 0.3).abs() < 1e-12);
        assert_eq!(w.distinct_keys(), 131_072);
        assert!((w.capacity_fraction() - 1.0).abs() < 1e-12);
        w.validate();
    }

    #[test]
    fn presets_produce_consistent_specs() {
        let f5 = WorkloadSpec::working_set_point(1 << 22, 100);
        assert_eq!(f5.capacity_bytes, 1 << 22);
        let f9 = WorkloadSpec::capacity_point(1 << 22, 1 << 20, 100);
        assert!((f9.capacity_fraction() - 0.25).abs() < 1e-12);
        let f10 = WorkloadSpec::insert_ratio_point(1 << 20, 0.8, 100);
        assert!((f10.insert_ratio - 0.8).abs() < 1e-12);
        let f6 = WorkloadSpec::figure6(100);
        assert_eq!(f6.working_set_bytes, 1 << 20);
        for spec in [f5, f9, f10, f6] {
            spec.validate();
        }
    }

    #[test]
    #[should_panic(expected = "insert ratio")]
    fn bad_insert_ratio_is_rejected() {
        WorkloadSpec {
            insert_ratio: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
