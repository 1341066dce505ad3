//! Per-partition operation statistics.

/// Counters describing everything a partition has done since creation (or
/// the last [`PartitionStats::reset`]), plus two gauges of its state when
/// it was read ([`PartitionStats::bucket_lines`] and
/// [`PartitionStats::resident_keys`]).  Single-threaded like the partition
/// itself, so plain integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Lookup operations served.
    pub lookups: u64,
    /// Lookups that found a READY element (or a NOT-READY one the caller
    /// accepted, see [`crate::Partition::lookup_prepared_or_reserved`]).
    pub hits: u64,
    /// Insert operations served (reservations handed out).
    pub inserts: u64,
    /// Inserts that replaced an existing element with the same key.
    pub replacements: u64,
    /// Elements evicted to make room.
    pub evictions: u64,
    /// Explicit deletes.
    pub deletes: u64,
    /// Elements whose memory release was deferred because clients still held
    /// references when they were unlinked.
    pub deferred_frees: u64,
    /// Inserts refused because the value cannot fit even after evicting
    /// everything evictable.
    pub failed_inserts: u64,
    /// Elements exported to another partition by live migration.
    pub exported: u64,
    /// Elements absorbed from another partition by live migration.
    pub absorbed: u64,
    /// Slots / elements visited while selecting export candidates.
    /// Per-chunk exports walk only the chunk's bucket lines, so this stays
    /// proportional to the chunk's population; full-table exports add the
    /// whole slot count per call.
    pub export_elements_visited: u64,
    /// Export calls that scanned every slot (the whole-table path).  Stays
    /// zero when migration exports by chunk.
    pub full_export_scans: u64,
    /// Probes resolved by a bucket line's *inline* tagged slots — the
    /// common case one bucket-line prefetch fully covers.
    pub inline_hits: u64,
    /// Elements visited on bucket *overflow chains* (a bucket held more
    /// keys than its inline slots).
    pub overflow_probes: u64,
    /// Inline tag matches whose full key comparison then failed — the
    /// ~2⁻¹⁶-probability cost of the 16-bit tag filter per occupied slot
    /// (2⁻⁽¹⁶⁻ᵏ⁾ over 2ᵏ partitions, whose routing fixes k low hash bits).
    pub tag_false_positives: u64,
    /// Gauge: bucket lines allocated (one per
    /// [`crate::partition::KEYS_PER_LINE`] expected elements).
    pub bucket_lines: u64,
    /// Gauge: elements linked into the table.
    pub resident_keys: u64,
}

impl PartitionStats {
    /// Hit rate over all lookups, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Merge another partition's counters into this one (used to aggregate
    /// across all partitions of a table); the gauges add up too.
    pub fn merge(&mut self, other: &PartitionStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.inserts += other.inserts;
        self.replacements += other.replacements;
        self.evictions += other.evictions;
        self.deletes += other.deletes;
        self.deferred_frees += other.deferred_frees;
        self.failed_inserts += other.failed_inserts;
        self.exported += other.exported;
        self.absorbed += other.absorbed;
        self.export_elements_visited += other.export_elements_visited;
        self.full_export_scans += other.full_export_scans;
        self.inline_hits += other.inline_hits;
        self.overflow_probes += other.overflow_probes;
        self.tag_false_positives += other.tag_false_positives;
        self.bucket_lines += other.bucket_lines;
        self.resident_keys += other.resident_keys;
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        *self = PartitionStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_merge() {
        let mut a = PartitionStats {
            lookups: 10,
            hits: 7,
            ..Default::default()
        };
        assert!((a.hit_rate() - 0.7).abs() < 1e-12);
        let b = PartitionStats {
            lookups: 10,
            hits: 3,
            evictions: 2,
            inline_hits: 4,
            overflow_probes: 5,
            tag_false_positives: 1,
            bucket_lines: 16,
            resident_keys: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lookups, 20);
        assert_eq!(a.hits, 10);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.inline_hits, 4);
        assert_eq!(a.overflow_probes, 5);
        assert_eq!(a.tag_false_positives, 1);
        assert_eq!((a.bucket_lines, a.resident_keys), (16, 9));
        a.reset();
        assert_eq!(a, PartitionStats::default());
        assert_eq!(a.hit_rate(), 0.0);
    }
}
