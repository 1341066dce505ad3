//! Allocation accounting.

/// Byte and block accounting for one [`crate::SlabAllocator`].
///
/// `bytes_in_use` is the figure the partition compares against its capacity
/// budget when deciding whether to evict; the remaining counters feed the
/// benchmark reports (allocation churn is part of why INSERT-heavy
/// workloads are slower, Figure 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently handed out (rounded up to class sizes).
    pub bytes_in_use: usize,
    /// Bytes reserved from the global allocator for slab chunks.
    pub bytes_reserved: usize,
    /// Number of live blocks.
    pub blocks_in_use: usize,
    /// Total allocations performed.
    pub total_allocs: u64,
    /// Total frees performed.
    pub total_frees: u64,
    /// Allocations that were satisfied from a free list (no new chunk).
    pub freelist_hits: u64,
    /// Allocations refused because they would exceed the capacity budget.
    pub capacity_refusals: u64,
}

impl AllocStats {
    /// Blocks allocated but not yet freed according to the running totals.
    pub fn outstanding(&self) -> u64 {
        self.total_allocs - self.total_frees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outstanding_is_allocs_minus_frees() {
        let s = AllocStats {
            total_allocs: 10,
            total_frees: 4,
            ..Default::default()
        };
        assert_eq!(s.outstanding(), 6);
    }
}
