//! The LockHash table: an array of spinlock-protected partitions.

use core::cell::UnsafeCell;

use cphash_hashcore::{partition_for_key, Partition, PartitionConfig, PartitionStats, MAX_KEY};
use cphash_sync::{LockStats, LockTable};

use crate::config::LockHashConfig;

/// A thread-safe, fixed-capacity hash table built from `n` independently
/// locked partitions (see the crate docs).
///
/// All methods take `&self`; each operation acquires exactly one partition
/// lock, performs the operation with the same partition code CPHash uses,
/// updates that partition's eviction state, and releases the lock — the sequence
/// §4.2 describes for LOCKSERVER's client threads.
pub struct LockHash {
    locks: LockTable,
    partitions: Vec<UnsafeCell<Partition>>,
    config: LockHashConfig,
}

// SAFETY: every access to a partition goes through `with_partition`, which
// holds that partition's lock in the `LockTable` for the duration of the
// access, so no two threads ever touch the same `Partition` concurrently.
unsafe impl Sync for LockHash {}
unsafe impl Send for LockHash {}

impl LockHash {
    /// Build a table from a configuration.
    pub fn new(config: LockHashConfig) -> Self {
        config.validate();
        let locks = LockTable::new(config.partitions);
        let partitions = (0..config.partitions)
            .map(|i| {
                UnsafeCell::new(Partition::new(PartitionConfig {
                    buckets: config.buckets_per_partition,
                    capacity_bytes: config.partition_capacity(),
                    eviction: config.eviction,
                    seed: config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                    // LockHash never migrates, so the partition is one chunk:
                    // a single run of bucket lines.
                    migration_chunks: 1,
                }))
            })
            .collect();
        LockHash {
            locks,
            partitions,
            config,
        }
    }

    /// Build with the paper's defaults (4,096 partitions, spinlocks, CLOCK eviction).
    pub fn with_partitions(partitions: usize) -> Self {
        Self::new(LockHashConfig::new(partitions))
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> &LockHashConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Run `f` on the partition owning `key`, holding its lock.
    #[inline]
    fn with_partition<R>(&self, key: u64, f: impl FnOnce(&mut Partition) -> R) -> R {
        let index = partition_for_key(key, self.partitions.len());
        let _guard = self.locks.lock(index);
        // SAFETY: the guard gives us exclusive access to partition `index`
        // (see the Sync impl comment).
        let partition = unsafe { &mut *self.partitions[index].get() };
        f(partition)
    }

    /// Look up `key`, copying its value into `out`.  Returns `true` on a
    /// hit.  The copy happens while holding the partition lock, so the
    /// reference-count round trip stays inside one critical section.
    pub fn lookup(&self, key: u64, out: &mut Vec<u8>) -> bool {
        let key = key & MAX_KEY;
        self.with_partition(key, |p| p.lookup_copy(key, out))
    }

    /// Look up `key`, returning the value as a fresh vector.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        if self.lookup(key, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Insert `value` under `key`.  Returns `false` if the partition could
    /// not make room.
    pub fn insert(&self, key: u64, value: &[u8]) -> bool {
        let key = key & MAX_KEY;
        self.with_partition(key, |p| p.insert_copy(key, value).is_ok())
    }

    /// Remove `key`. Returns whether it was present.
    pub fn delete(&self, key: u64) -> bool {
        let key = key & MAX_KEY;
        self.with_partition(key, |p| p.delete(key))
    }

    /// Does the table currently hold `key`?
    pub fn contains(&self, key: u64) -> bool {
        let key = key & MAX_KEY;
        self.with_partition(key, |p| p.contains(key))
    }

    /// Total number of elements across all partitions.
    ///
    /// Takes every partition lock in turn, so the result is only a snapshot
    /// under concurrent mutation.
    pub fn len(&self) -> usize {
        self.fold_partitions(0usize, |acc, p| acc + p.len())
    }

    /// Returns `true` when no partition holds any element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of value storage in use across all partitions.
    pub fn bytes_in_use(&self) -> usize {
        self.fold_partitions(0usize, |acc, p| acc + p.bytes_in_use())
    }

    /// Aggregate partition statistics across the table.
    pub fn stats(&self) -> PartitionStats {
        self.fold_partitions(PartitionStats::default(), |mut acc, p| {
            acc.merge(&p.stats());
            acc
        })
    }

    /// Lock-acquisition statistics (contention ratio etc.).
    pub fn lock_stats(&self) -> &LockStats {
        self.locks.stats()
    }

    fn fold_partitions<A>(&self, init: A, mut f: impl FnMut(A, &Partition) -> A) -> A {
        let mut acc = init;
        for index in 0..self.partitions.len() {
            let _guard = self.locks.lock(index);
            // SAFETY: as in `with_partition`.
            let partition = unsafe { &*self.partitions[index].get() };
            acc = f(acc, partition);
        }
        acc
    }
}

impl core::fmt::Debug for LockHash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LockHash")
            .field("partitions", &self.partitions.len())
            .field("eviction", &self.config.eviction)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_hashcore::EvictionPolicy;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn single_threaded_basic_operations() {
        let table = LockHash::with_partitions(8);
        assert!(table.insert(1, b"one"));
        assert!(table.insert(2, b"two"));
        assert_eq!(table.get(1).as_deref(), Some(&b"one"[..]));
        assert_eq!(table.get(2).as_deref(), Some(&b"two"[..]));
        assert_eq!(table.get(3), None);
        assert!(table.contains(1));
        assert!(table.delete(1));
        assert!(!table.delete(1));
        assert!(!table.contains(1));
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        assert!(table.bytes_in_use() > 0);
    }

    #[test]
    fn matches_a_reference_hashmap_single_threaded() {
        let table = LockHash::with_partitions(16);
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        // Deterministic pseudo-random operation mix.
        let mut state = 0x1357_9BDFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let r = next();
            let key = r % 512;
            match r % 10 {
                0..=4 => {
                    let value = (r % 1000).to_le_bytes().to_vec();
                    assert!(table.insert(key, &value));
                    reference.insert(key, value);
                }
                5..=8 => {
                    assert_eq!(table.get(key), reference.get(&key).cloned(), "key {key}");
                }
                _ => {
                    assert_eq!(table.delete(key), reference.remove(&key).is_some());
                }
            }
        }
        assert_eq!(table.len(), reference.len());
    }

    #[test]
    fn concurrent_disjoint_keys_are_all_preserved() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let table = Arc::new(LockHash::with_partitions(64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let base = t * 1_000_000;
                    for k in base..base + PER_THREAD {
                        assert!(table.insert(k, &k.to_le_bytes()));
                    }
                    for k in base..base + PER_THREAD {
                        assert_eq!(table.get(k).unwrap(), k.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.len() as u64, THREADS * PER_THREAD);
        assert!(table.lock_stats().acquisitions() > 0);
    }

    #[test]
    fn concurrent_same_keys_never_corrupt_values() {
        // All threads fight over the same small key range with full-value
        // writes; every read must observe one of the values some thread
        // wrote for that key (8 bytes, equal to the key or its negation).
        const THREADS: u64 = 8;
        let table = Arc::new(LockHash::with_partitions(4));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        let key = i % 16;
                        if t % 2 == 0 {
                            table.insert(key, &key.to_le_bytes());
                        } else {
                            table.insert(key, &(!key).to_le_bytes());
                        }
                        if let Some(v) = table.get(key) {
                            let got = u64::from_le_bytes(v.try_into().unwrap());
                            assert!(
                                got == key || got == !key,
                                "torn value for key {key}: {got:#x}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn capacity_is_enforced_across_partitions() {
        let table = LockHash::new(LockHashConfig::new(4).with_capacity(4096, 8));
        for key in 0..10_000u64 {
            table.insert(key, &key.to_le_bytes());
        }
        assert!(table.bytes_in_use() <= 4096);
        assert!(table.stats().evictions > 0);
        assert!(table.len() <= 512);
    }

    #[test]
    fn random_eviction_respects_the_budget() {
        let table = LockHash::new(
            LockHashConfig::new(8)
                .with_capacity(1024, 8)
                .with_eviction(EvictionPolicy::Random),
        );
        for key in 0..1_000u64 {
            table.insert(key, &key.to_le_bytes());
        }
        assert!(table.len() <= 128);
        assert!(table.stats().evictions > 0);
    }

    #[test]
    fn lock_contention_is_visible_in_stats() {
        let table = Arc::new(LockHash::with_partitions(1)); // force contention
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        // Two CPUs can run four short loops one after the other, so the
        // writers keep going in rounds until a collision has been counted.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut issued = 0u64;
                    while table.lock_stats().contended() == 0
                        && std::time::Instant::now() < deadline
                    {
                        for k in 0..1_000u64 {
                            table.insert(k % 100, &k.to_le_bytes());
                        }
                        issued += 1_000;
                    }
                    issued
                })
            })
            .collect();
        let issued: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let stats = table.lock_stats();
        assert_eq!(stats.acquisitions(), issued);
        assert!(
            stats.contended() > 0,
            "one partition, four writers, {issued} inserts and no contended acquisition"
        );
    }
}
