//! Model-based tests of the partition's CLOCK eviction: the partition must
//! evict exactly the keys a reference CLOCK would, for arbitrary operation
//! sequences, and CLOCK must keep the hit ratio of the LRU list it replaces
//! (§3.1's policy, which the paper's Figure 5 ran with).

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use cphash_hashcore::{EvictionPolicy, LookupHit, Partition, PartitionConfig};

/// A reference CLOCK over a slot array: a LIFO free list, a hand and one
/// reference bit per slot, holding `capacity` fixed-size entries (8-byte
/// values, so capacity_bytes / 8 entries).
struct ModelClock {
    capacity: usize,
    /// `(key, referenced)` per slot; `None` is a free slot.
    slots: Vec<Option<(u64, bool)>>,
    /// Free slot indices, the most recently freed last.
    free: Vec<usize>,
    hand: usize,
    live: usize,
}

impl ModelClock {
    fn new(capacity: usize) -> Self {
        ModelClock {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            live: 0,
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| matches!(s, Some((k, _)) if *k == key))
    }

    fn remove(&mut self, idx: usize) {
        self.slots[idx] = None;
        self.free.push(idx);
        self.live -= 1;
    }

    fn evict(&mut self) {
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let idx = self.hand;
            self.hand += 1;
            match &mut self.slots[idx] {
                Some((_, referenced)) if *referenced => *referenced = false,
                Some(_) => return self.remove(idx),
                None => {}
            }
        }
    }

    fn insert(&mut self, key: u64) {
        if let Some(idx) = self.find(key) {
            self.remove(idx);
        }
        while self.live == self.capacity {
            self.evict();
        }
        let entry = Some((key, false));
        match self.free.pop() {
            Some(idx) => self.slots[idx] = entry,
            None => self.slots.push(entry),
        }
        self.live += 1;
    }

    fn lookup(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some(idx) => {
                self.slots[idx] = Some((key, true));
                true
            }
            None => false,
        }
    }

    fn delete(&mut self, key: u64) -> bool {
        self.find(key).map(|idx| self.remove(idx)).is_some()
    }

    /// Resident keys in slot order, as `Partition::keys` lists them.
    fn keys(&self) -> Vec<u64> {
        self.slots.iter().flatten().map(|(k, _)| *k).collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Lookup(u64),
    Delete(u64),
}

fn op(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keys).prop_map(Op::Insert),
        (0..keys).prop_map(Op::Insert),
        (0..keys).prop_map(Op::Lookup),
        (0..keys).prop_map(Op::Lookup),
        (0..keys).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The partition evicts exactly the model's victims into exactly the
    /// model's slots: the same keys in the same slot order after every
    /// operation.
    #[test]
    fn partition_clock_matches_reference_model(
        ops in prop::collection::vec(op(32), 1..400),
        capacity_entries in 2usize..12,
    ) {
        let mut partition = Partition::new(PartitionConfig::new(
            64,
            Some(capacity_entries * 8),
        ));
        let mut model = ModelClock::new(capacity_entries);
        let mut buf = Vec::new();
        for op in ops {
            match op {
                Op::Insert(key) => {
                    partition.insert_copy(key, &key.to_le_bytes()).unwrap();
                    model.insert(key);
                }
                Op::Lookup(key) => {
                    let hit = partition.lookup_copy(key, &mut buf);
                    prop_assert_eq!(hit, model.lookup(key), "hit/miss mismatch for key {}", key);
                    if hit {
                        prop_assert_eq!(&buf, &key.to_le_bytes());
                    }
                }
                Op::Delete(key) => {
                    prop_assert_eq!(partition.delete(key), model.delete(key));
                }
            }
            prop_assert_eq!(partition.keys(), model.keys());
            partition.check_invariants();
        }
    }

    /// Under random eviction the exact victims differ, but the capacity
    /// bound and the "most recent insert always survives" property must
    /// still hold.
    #[test]
    fn random_eviction_respects_capacity_and_keeps_latest(
        keys in prop::collection::vec(0u64..1000, 1..300),
        capacity_entries in 2usize..16,
    ) {
        let mut partition = Partition::new(
            PartitionConfig::new(32, Some(capacity_entries * 8))
                .with_eviction(EvictionPolicy::Random),
        );
        for &key in &keys {
            partition.insert_copy(key, &key.to_le_bytes()).unwrap();
            prop_assert!(partition.bytes_in_use() <= capacity_entries * 8);
            prop_assert!(partition.contains(key), "the key just inserted must be present");
            partition.check_invariants();
        }
        prop_assert!(partition.len() <= capacity_entries);
    }
}

/// A long alternating scan/drain workload (the classic pathological pattern
/// for recency-based eviction) must keep memory exactly at the budget and
/// never corrupt the table.
#[test]
fn scan_heavy_workload_stays_at_budget() {
    let capacity = 256 * 8;
    let mut partition = Partition::new(PartitionConfig::new(512, Some(capacity)));
    for round in 0..50u64 {
        for key in 0..1000u64 {
            partition
                .insert_copy(key + round, &(key + round).to_le_bytes())
                .unwrap();
        }
        assert!(partition.bytes_in_use() <= capacity);
        assert_eq!(partition.len(), 256);
        partition.check_invariants();
    }
    let stats = partition.stats();
    assert!(stats.evictions >= 50 * 1000 - 256);
}

/// A 64-bucket partition with a byte budget.
fn bounded(capacity_bytes: usize) -> Partition {
    Partition::new(PartitionConfig::new(64, Some(capacity_bytes)))
}

#[test]
fn a_reference_bit_buys_one_pass_of_the_hand() {
    let mut p = bounded(24);
    for key in 0..3u64 {
        p.insert_copy(key, &[0; 8]).unwrap();
    }
    let mut buf = Vec::new();
    assert!(p.lookup_copy(0, &mut buf) && p.lookup_copy(1, &mut buf));
    // The hand clears 0 and 1 and evicts 2; by the next insert 0's bit
    // is clear, so 0 goes.
    p.insert_copy(100, &[0; 8]).unwrap();
    assert_eq!(p.keys(), vec![0, 1, 100]);
    p.insert_copy(101, &[0; 8]).unwrap();
    assert_eq!(p.keys(), vec![101, 1, 100]);
    p.check_invariants();
}

#[test]
fn eviction_finds_a_victim_when_every_element_is_referenced() {
    let mut p = bounded(64);
    let mut buf = Vec::new();
    for key in 0..8u64 {
        p.insert_copy(key, &[0; 8]).unwrap();
        assert!(p.lookup_copy(key, &mut buf));
    }
    // A full sweep clears every bit and the second finds slot 0.
    assert!(p.evict_one());
    assert!(!p.contains(0));
    assert!(p.evict_one(), "the hand moves on from its last victim");
    assert!(!p.contains(1));
    assert_eq!((p.len(), p.stats().evictions), (6, 2));
    p.check_invariants();
}

#[test]
fn eviction_finds_a_victim_when_every_element_is_pinned() {
    let mut p = bounded(64);
    let pins: Vec<LookupHit> = (0..8u64)
        .map(|key| {
            p.insert_copy(key, &key.to_le_bytes()).unwrap();
            p.lookup(key).unwrap()
        })
        .collect();
    // Pinned elements are evicted like any other: unlinked, their
    // frees deferred, until nothing linked is left.
    for evicted in 1..=8 {
        assert!(p.evict_one());
        assert_eq!(p.len(), 8 - evicted);
        p.check_invariants();
    }
    assert!(!p.evict_one(), "nothing left to evict");
    assert_eq!(p.stats().deferred_frees, 8);
    assert_eq!(p.bytes_in_use(), 64, "the pinned values are still held");
    let mut buf = Vec::new();
    for (key, hit) in pins.iter().enumerate() {
        p.read_value(hit, &mut buf);
        assert_eq!(buf, (key as u64).to_le_bytes());
        p.decref(hit.id);
    }
    assert_eq!(p.bytes_in_use(), 0);
    p.check_invariants();
}

/// Exact LRU over `capacity` entries: recency stamps in an ordered map.
struct ModelLru {
    capacity: usize,
    stamp_of: HashMap<u64, u64>,
    by_stamp: BTreeMap<u64, u64>,
    now: u64,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            capacity,
            stamp_of: HashMap::new(),
            by_stamp: BTreeMap::new(),
            now: 0,
        }
    }

    /// Make `key` the most recently used, inserting it (and evicting the
    /// least recently used key if full) when absent.  Returns whether it
    /// was present.
    fn touch(&mut self, key: u64) -> bool {
        self.now += 1;
        let present = match self.stamp_of.get(&key) {
            Some(old) => self.by_stamp.remove(old).is_some(),
            None => {
                if self.stamp_of.len() == self.capacity {
                    let (_, victim) = self.by_stamp.pop_first().expect("full model");
                    self.stamp_of.remove(&victim);
                }
                false
            }
        };
        self.stamp_of.insert(key, self.now);
        self.by_stamp.insert(self.now, key);
        present
    }
}

/// splitmix64: a seeded, deterministic stream.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lookup hit ratios of a CLOCK partition and of exact LRU holding
/// `capacity` of `keys` 8-byte values, on one seeded Zipf(0.99)
/// cache-aside stream of `ops` operations: 80 % lookups that insert on a
/// miss, 20 % sets.
fn hit_ratios(keys: usize, capacity: usize, ops: usize, seed: u64) -> (f64, f64) {
    let mut cdf: Vec<f64> = (1..=keys)
        .scan(0.0, |sum, rank| {
            *sum += 1.0 / (rank as f64).powf(0.99);
            Some(*sum)
        })
        .collect();
    let total = cdf[keys - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    let mut partition = Partition::new(PartitionConfig::new(keys, Some(capacity * 8)));
    let mut lru = ModelLru::new(capacity);
    let (mut rng, mut lookups, mut lru_hits) = (seed, 0u64, 0u64);
    let mut buf = Vec::new();
    for _ in 0..ops {
        let draw = next_u64(&mut rng);
        let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let key = cdf.partition_point(|&c| c < uniform).min(keys - 1) as u64;
        if draw % 10 < 8 {
            lookups += 1;
            if !partition.lookup_copy(key, &mut buf) {
                partition.insert_copy(key, &key.to_le_bytes()).unwrap();
            }
            lru_hits += lru.touch(key) as u64;
        } else {
            partition.insert_copy(key, &key.to_le_bytes()).unwrap();
            lru.touch(key);
        }
    }
    let stats = partition.stats();
    assert_eq!(stats.lookups, lookups);
    (stats.hit_rate(), lru_hits as f64 / lookups as f64)
}

/// The condition for replacing §3.1's LRU list: on a Zipf cache-aside
/// stream CLOCK's hit ratio stays within one point of exact LRU's, at every
/// capacity from 5 % to 50 % of the key set.
///
/// Measured with this function, seed 7, LRU → CLOCK at 5 / 10 / 25 / 50 %:
/// - as run here, 8 192 keys and 200 k operations: 0.5637 → 0.5609,
///   0.6543 → 0.6508, 0.7807 → 0.7756, 0.8805 → 0.8749;
/// - 262 144 keys and 4 M operations: 0.6745 → 0.6723, 0.7424 → 0.7395,
///   0.8356 → 0.8317, 0.9040 → 0.9000.  1 KiB values in place of 8-byte
///   ones give the same ratios: the same number of entries fits.
///
/// Setting the bit on insert instead of on the first hit loses more:
/// 0.6658 / 0.7344 / 0.8292 / 0.9001 at the larger size.
#[test]
fn clock_hit_ratio_stays_within_a_point_of_lru_on_zipf() {
    const KEYS: usize = 8_192;
    for percent in [5, 10, 25, 50] {
        let (clock, lru) = hit_ratios(KEYS, KEYS * percent / 100, 200_000, 7);
        eprintln!("capacity {percent:>2} %: LRU {lru:.4}, CLOCK {clock:.4}");
        assert!(
            (clock - lru).abs() <= 0.01,
            "capacity {percent} %: CLOCK {clock:.4} against LRU {lru:.4}"
        );
    }
}
