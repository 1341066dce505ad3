//! Key hashing and key → partition assignment.
//!
//! "CPHASH uses a simple hash function to assign each possible key to a
//! partition" (§3).  Keys are 60-bit integers (§3.1); the top four bits are
//! reserved so a key never collides with the protocol's message tags.

/// Largest legal key: keys are 60-bit integers in the paper's design.
pub const MAX_KEY: u64 = (1 << 60) - 1;

/// A fast 64-bit mixing function (splitmix64 finalizer).  Used both to
/// spread keys over buckets and to assign keys to partitions; it is "simple"
/// in the paper's sense — stateless and a handful of arithmetic ops — while
/// still spreading adjacent keys to unrelated buckets.
#[inline]
pub fn hash64(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The partition responsible for `key`, out of `partitions` total.
///
/// Both tables use this same assignment so a given key lands in the same
/// partition under CPHash and LockHash, which keeps comparisons fair.
#[inline]
pub fn partition_for_key(key: u64, partitions: usize) -> usize {
    debug_assert!(partitions > 0);
    (hash64(key) % partitions as u64) as usize
}

/// The migration chunk `key` belongs to, out of `chunks` chunks (a power of
/// two).
///
/// Online repartitioning moves the key space between server threads one
/// chunk at a time: a chunk is a 1/`chunks` slice of the hash space, chosen
/// by the *top* hash bits so it is decorrelated from partition selection
/// (modulo over the full hash) and from the key tag (the low byte).
/// Clients and servers agree on this pure function, so a single shared
/// watermark ("chunks below `w` are migrated") describes migration progress
/// exactly.  Inside a partition the chunk is the top of the bucket index
/// (see `PartitionConfig::migration_chunks`), so a chunk is a run of bucket
/// lines.
///
/// At most [`MAX_MIGRATION_CHUNKS`] chunks are supported — the chunk index
/// is drawn from hash bits 48..64, so larger counts would leave the upper
/// chunk indices permanently empty.
#[inline]
pub fn migration_chunk(key: u64, chunks: usize) -> usize {
    chunk_from_hash(hash64(key), chunks)
}

/// [`migration_chunk`] with the hash already computed — one `hash64`
/// evaluation gives a key's bucket, tag and chunk.
#[inline]
pub fn chunk_from_hash(hash: u64, chunks: usize) -> usize {
    debug_assert!(chunks.is_power_of_two() && chunks <= MAX_MIGRATION_CHUNKS);
    ((hash >> 48) & (chunks as u64 - 1)) as usize
}

/// Largest supported migration-chunk count (the chunk index is 16 hash
/// bits).
pub const MAX_MIGRATION_CHUNKS: usize = 1 << 16;

/// The 8-bit key tag stored in a bucket's inline cache line.
///
/// Drawn from the hash's *low* byte so it is decorrelated from bucket
/// selection (bits 17+ under the chunk bits), partition selection (modulo
/// over the full hash) and migration chunks (bits 48..64): two keys in the
/// same bucket still collide on the tag only with probability ~2⁻⁸.
#[inline]
pub fn key_tag(key: u64) -> u8 {
    key_tag_from_hash(hash64(key))
}

/// [`key_tag`] with the hash already computed.
#[inline]
pub fn key_tag_from_hash(hash: u64) -> u8 {
    hash as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash64(42), hash64(42));
        let distinct: HashSet<u64> = (0..10_000u64).map(hash64).collect();
        assert_eq!(
            distinct.len(),
            10_000,
            "no collisions on small sequential keys"
        );
    }

    #[test]
    fn partition_assignment_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let p = partition_for_key(key, 80);
            assert!(p < 80);
            assert_eq!(p, partition_for_key(key, 80));
        }
    }

    #[test]
    fn partition_assignment_is_roughly_balanced() {
        let partitions = 16;
        let mut counts = vec![0usize; partitions];
        let n = 100_000u64;
        for key in 0..n {
            counts[partition_for_key(key, partitions)] += 1;
        }
        let expected = n as usize / partitions;
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                c > expected * 8 / 10 && c < expected * 12 / 10,
                "partition {p} got {c} of ~{expected}"
            );
        }
    }

    #[test]
    fn key_tags_are_stable() {
        assert_eq!(key_tag(42), key_tag(42));
        assert_eq!(key_tag(7), key_tag_from_hash(hash64(7)));
    }

    #[test]
    fn max_key_is_60_bits() {
        assert_eq!(MAX_KEY, 0x0FFF_FFFF_FFFF_FFFF);
    }

    #[test]
    fn migration_chunks_are_stable_and_balanced() {
        let chunks = 64;
        let mut counts = vec![0usize; chunks];
        for key in 0..100_000u64 {
            let c = migration_chunk(key, chunks);
            assert!(c < chunks);
            assert_eq!(c, migration_chunk(key, chunks));
            counts[c] += 1;
        }
        let expected = 100_000 / chunks;
        for (c, &n) in counts.iter().enumerate() {
            assert!(
                n > expected * 7 / 10 && n < expected * 13 / 10,
                "chunk {c} got {n} of ~{expected}"
            );
        }
    }

    #[test]
    fn migration_chunk_decorrelated_from_partition() {
        // Keys of one partition must spread over (almost) all chunks.
        let mut seen = HashSet::new();
        for key in 0..100_000u64 {
            if partition_for_key(key, 4) == 0 {
                seen.insert(migration_chunk(key, 64));
            }
        }
        assert_eq!(
            seen.len(),
            64,
            "partition 0 keys hit only {} chunks",
            seen.len()
        );
    }
}
