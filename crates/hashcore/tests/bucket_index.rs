//! The bucket index of a partition: a key's migration chunk is the top of
//! its bucket's index, so one chunk is a run of bucket lines (or, with
//! fewer lines than chunks, shares a line with other chunks), and the
//! bits under the chunk still spread keys over lines and tags within one.

use std::collections::HashSet;

use cphash_hashcore::{
    key_tag, migration_chunk, partition_for_key, ExportOutcome, Partition, PartitionConfig,
    KEYS_PER_LINE,
};

#[test]
fn a_chunk_is_a_run_of_bucket_lines() {
    // More lines than chunks: the chunk is the bucket's top bits (a chunk
    // of 2¹⁶ expected elements over 16 chunks spans 256 lines).  As many:
    // the chunk is the bucket.  Fewer: a line holds several chunks, and
    // the walk of one filters out the others.
    for (expected, chunks) in [
        (1usize << 16, 16usize),
        (1024, 16),
        (256, 64),
        (64, 64),
        (8, 64),
        (1, 64),
    ] {
        let mut p =
            Partition::new(PartitionConfig::new(expected, None).with_migration_chunks(chunks));
        let buckets = p.bucket_count();
        assert_eq!(buckets, (expected / KEYS_PER_LINE).max(1));
        for key in 0..2_000u64 {
            let bucket = p.prepare(key).bucket();
            let chunk = migration_chunk(key, chunks);
            if buckets >= chunks {
                assert_eq!(bucket / (buckets / chunks), chunk, "key {key}");
            } else {
                assert_eq!(bucket, chunk / (chunks / buckets), "key {key}");
            }
            p.insert_copy(key, &[0; 8]).unwrap();
        }
        p.check_invariants();
        let target = 5;
        let expected = (0..2_000)
            .filter(|&k| migration_chunk(k, chunks) == target)
            .count();
        assert_eq!(
            p.export_chunk(target, false, |_| true, |_, _| {}),
            ExportOutcome::Extracted(expected)
        );
        p.check_invariants();
    }
}

#[test]
fn buckets_spread_within_a_partition_and_tags_within_a_bucket() {
    // Keys sharing a partition still spread over buckets...
    let p = Partition::new(PartitionConfig::new(1024, None));
    assert_eq!(p.bucket_count(), 256);
    let mut buckets = HashSet::new();
    for key in (0..100_000u64).filter(|&k| partition_for_key(k, 80) == 0) {
        buckets.insert(p.prepare(key).bucket());
    }
    assert!(buckets.len() > 200, "only {} buckets", buckets.len());
    // ...and keys sharing a bucket over (almost) all values of each tag
    // byte, or half the tag would reject nothing...
    let p = Partition::new(PartitionConfig::new(64, None));
    let (mut low, mut high, mut tags) = (HashSet::new(), HashSet::new(), HashSet::new());
    for key in (0..200_000u64).filter(|&k| p.prepare(k).bucket() == 0) {
        let tag = key_tag(key);
        assert_eq!(p.prepare(key).tag(), tag);
        low.insert(tag as u8);
        high.insert((tag >> 8) as u8);
        tags.insert(tag);
    }
    assert!(low.len() > 250, "only {} distinct low bytes", low.len());
    assert!(high.len() > 250, "only {} distinct high bytes", high.len());
    // ...and the ~12 500 keys of that line rarely share a whole tag.
    assert!(tags.len() > 10_000, "only {} distinct tags", tags.len());
}
