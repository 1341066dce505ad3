//! The bucket index of a partition: a key's migration chunk is the top of
//! its bucket's index, so one chunk is a run of bucket lines (or, with
//! fewer buckets than chunks, shares a line with other chunks), and the
//! bits under the chunk still spread keys over lines and tags within one.

use std::collections::HashSet;

use cphash_hashcore::{
    key_tag, migration_chunk, partition_for_key, ExportOutcome, Partition, PartitionConfig,
};

#[test]
fn a_chunk_is_a_run_of_bucket_lines() {
    // More buckets than chunks: the chunk is the bucket's top bits.  As
    // many: the chunk is the bucket.  Fewer: a line holds several
    // chunks, and the walk of one filters out the others.
    for (buckets, chunks) in [(1024usize, 16usize), (64, 64), (8, 64), (1, 64)] {
        let mut p =
            Partition::new(PartitionConfig::new(buckets, None).with_migration_chunks(chunks));
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
        let expected = p.count_matching(|k| migration_chunk(k, chunks) == target);
        match p.export_chunk(target, |_| true) {
            ExportOutcome::Extracted(entries) => assert_eq!(entries.len(), expected),
            other => panic!("expected extraction, got {other:?}"),
        }
        p.check_invariants();
    }
}

#[test]
fn buckets_spread_within_a_partition_and_tags_within_a_bucket() {
    // Keys sharing a partition still spread over buckets...
    let p = Partition::new(PartitionConfig::new(256, None));
    let mut buckets = HashSet::new();
    for key in (0..100_000u64).filter(|&k| partition_for_key(k, 80) == 0) {
        buckets.insert(p.prepare(key).bucket());
    }
    assert!(buckets.len() > 200, "only {} buckets", buckets.len());
    // ...and keys sharing a bucket over (almost) all 256 tags, or the
    // tag would reject nothing.
    let p = Partition::new(PartitionConfig::new(64, None));
    let mut tags = HashSet::new();
    for key in (0..200_000u64).filter(|&k| p.prepare(k).bucket() == 0) {
        tags.insert(key_tag(key));
    }
    assert!(tags.len() > 240, "only {} distinct tags", tags.len());
}
