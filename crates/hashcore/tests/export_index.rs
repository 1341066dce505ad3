//! Property test for the per-chunk export: for arbitrary
//! insert/remove/export interleavings, exporting one chunk by walking its
//! run of bucket lines must produce exactly what the full-table scan
//! restricted to that chunk produces.
//!
//! Two partitions are fed the same operation stream in lockstep; one
//! exports with [`Partition::export_chunk`] (the chunk's bucket lines and
//! their overflow chains), the other with [`Partition::export_matching`]
//! (slot scan filtered by the chunk).  Any
//! divergence — in extracted sets, deferral decisions, or the surviving
//! table contents — fails the property.

use proptest::prelude::*;

use cphash_hashcore::{migration_chunk, ExportOutcome, Partition, PartitionConfig};

const CHUNKS: usize = 8;

/// One scripted operation, decoded from a generated `(selector, key)` pair.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Delete(u64),
    /// Export one chunk, keeping only even keys (a nontrivial `leaving`
    /// predicate on top of the chunk restriction).
    ExportEven(usize),
    /// Export one chunk entirely.
    ExportAll(usize),
}

fn decode(selector: u8, key: u64) -> Op {
    match selector % 8 {
        // Weight the stream towards inserts so the table has content.
        0..=3 => Op::Insert(key),
        4..=5 => Op::Delete(key),
        6 => Op::ExportEven((key % CHUNKS as u64) as usize),
        _ => Op::ExportAll((key % CHUNKS as u64) as usize),
    }
}

/// What one export did: its outcome and the entries its sink received,
/// sorted by key.
type Exported = (ExportOutcome, Vec<(u64, Vec<u8>)>);

/// Run `export` with a sink that collects every entry it hands over.
fn collect(export: impl FnOnce(&mut dyn FnMut(u64, &[u8])) -> ExportOutcome) -> Exported {
    let mut entries = Vec::new();
    let outcome = export(&mut |k, v| entries.push((k, v.to_vec())));
    entries.sort_unstable_by_key(|(k, _)| *k);
    (outcome, entries)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn chunk_export_equals_filtered_scan_export(
        script in prop::collection::vec((any::<u8>(), 0u64..512), 0..120),
    ) {
        let indexed_cfg = PartitionConfig::new(64, None).with_migration_chunks(CHUNKS);
        let mut indexed = Partition::new(indexed_cfg);
        let mut scanned = Partition::new(indexed_cfg);

        for (selector, key) in script {
            match decode(selector, key) {
                Op::Insert(key) => {
                    indexed.insert_copy(key, &key.to_le_bytes()).unwrap();
                    scanned.insert_copy(key, &key.to_le_bytes()).unwrap();
                }
                Op::Delete(key) => {
                    prop_assert_eq!(indexed.delete(key), scanned.delete(key));
                }
                Op::ExportEven(chunk) => {
                    let via_index =
                        collect(|sink| indexed.export_chunk(chunk, false, |k| k % 2 == 0, sink));
                    let via_scan = collect(|sink| {
                        scanned.export_matching(
                            |k| migration_chunk(k, CHUNKS) == chunk && k % 2 == 0,
                            sink,
                        )
                    });
                    compare(via_index, via_scan);
                }
                Op::ExportAll(chunk) => {
                    let via_index = collect(|sink| indexed.export_chunk(chunk, false, |_| true, sink));
                    let via_scan = collect(|sink| {
                        scanned.export_matching(|k| migration_chunk(k, CHUNKS) == chunk, sink)
                    });
                    compare(via_index, via_scan);
                }
            }
            indexed.check_invariants();
            scanned.check_invariants();
        }

        // The surviving contents agree key for key.
        let mut left = indexed.keys();
        let mut right = scanned.keys();
        left.sort_unstable();
        right.sort_unstable();
        prop_assert_eq!(left, right);
        // And the indexed side never fell back to scanning.
        prop_assert_eq!(indexed.stats().full_export_scans, 0);
    }
}

/// Both export paths must agree on the outcome, entry for entry.
fn compare(via_index: Exported, via_scan: Exported) {
    assert_eq!(via_index.0, via_scan.0, "outcomes diverged");
    assert_eq!(via_index.1, via_scan.1, "export sets diverged");
}
