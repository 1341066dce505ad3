//! The benchmark's own key / operation / value generator.
//!
//! Everything the program under test receives is derived from `--seed` here
//! and nowhere else (deliberately *not* `cphash-loadgen`: a later change to
//! that crate must not be able to change what is measured).
//!
//! * keys are a bijection of the key *index* (so `keys` indices are `keys`
//!   distinct keys, and a prefilled table must hit on every one of them);
//! * values are a pure function of `(key index, write version)`, so every
//!   hit's bytes can be checked without remembering what was written;
//! * the op stream is a seeded PRNG over (read/write, key index) with a
//!   uniform or Zipf popularity.

/// 60-bit key mask (mirrors `cphash_hashcore::MAX_KEY`; the table rejects
/// wider keys).
pub const KEY_MASK: u64 = (1 << 60) - 1;

/// splitmix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xoshiro256++ — fast, seedable, good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed through splitmix64 (never yields the all-zero state).
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = mix64(z);
        }
        Rng { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2⁻³² for our `n`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF table lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the cumulative table (`n` f64s).
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Rank for a uniform draw `u` in `[0, 1)`.
    #[inline]
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// How keys are spelled on the way into the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// The table's native 60-bit integer keys.
    U64,
    /// Byte strings of 16–24 bytes (the §8.2 envelope path).
    Bytes,
}

/// Popularity of key indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every key equally likely.
    Uniform,
    /// Zipf with the given exponent; rank 0 is the hottest key.
    Zipf(f64),
}

/// The key universe of one workload: index → key, in both spellings.
#[derive(Debug)]
pub struct KeySpace {
    kind: KeyKind,
    keys: usize,
    salt: u64,
    /// Byte keys, concatenated; `offsets[i]..offsets[i + 1]` is key `i`.
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    /// 60-bit table key of every byte key (see [`KeySpace::hashed_by`]).
    hashed: Vec<u64>,
}

impl KeySpace {
    /// Materialize the universe for `seed`.
    pub fn new(kind: KeyKind, keys: usize, seed: u64) -> KeySpace {
        assert!(
            keys > 0 && keys <= u32::MAX as usize,
            "key count out of range"
        );
        let salt = mix64(seed ^ 0x6B65_7973_7061_6365);
        let mut space = KeySpace {
            kind,
            keys,
            salt,
            bytes: Vec::new(),
            offsets: Vec::new(),
            hashed: Vec::new(),
        };
        if kind == KeyKind::Bytes {
            space.offsets.reserve(keys + 1);
            space.offsets.push(0);
            for index in 0..keys {
                // 8 hex digits of the index keep keys distinct; the seeded
                // tail varies the length (16..=24) and the bytes hashed.
                let tail = mix64(salt ^ index as u64);
                let len = 16 + (tail % 9) as usize;
                let start = space.bytes.len();
                space
                    .bytes
                    .extend_from_slice(format!("{index:08x}").as_bytes());
                let mut t = tail;
                while space.bytes.len() - start < len {
                    space.bytes.push(b'a' + (t % 26) as u8);
                    t = mix64(t);
                }
                space.offsets.push(space.bytes.len() as u32);
            }
        }
        space
    }

    /// Precompute the 60-bit table key of every byte key with the
    /// program's own key hash, so in-memory rungs can address the table the
    /// way the server would without re-hashing per operation.
    pub fn hashed_by(mut self, hash: impl Fn(&[u8]) -> u64) -> KeySpace {
        if self.kind == KeyKind::Bytes {
            self.hashed = (0..self.keys as u32)
                .map(|i| hash(self.byte_key(i)))
                .collect();
        }
        self
    }

    /// The table's integer key for `index` in either spelling.
    #[inline]
    pub fn table_key(&self, index: u32) -> u64 {
        match self.kind {
            KeyKind::U64 => self.u64_key(index),
            KeyKind::Bytes => self.hashed[index as usize],
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// Which spelling this universe uses.
    pub fn kind(&self) -> KeyKind {
        self.kind
    }

    /// The integer key for `index`: an odd-multiplier affine map modulo
    /// 2⁶⁰, hence a bijection — distinct indices never collide.
    #[inline]
    pub fn u64_key(&self, index: u32) -> u64 {
        (index as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.salt)
            & KEY_MASK
    }

    /// The byte-string key for `index` (only for [`KeyKind::Bytes`]).
    #[inline]
    pub fn byte_key(&self, index: u32) -> &[u8] {
        let i = index as usize;
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// `true` = replacing insert / set, `false` = lookup / get.
    pub write: bool,
    /// Key index into the workload's [`KeySpace`].
    pub index: u32,
}

/// The seeded operation stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    keys: u64,
    /// Writes per 1000 operations.
    write_permille: u64,
    zipf: Option<std::sync::Arc<Zipf>>,
}

impl OpStream {
    /// A stream over `keys` indices; `lane` separates the streams of
    /// concurrent generators that share one seed.
    pub fn new(seed: u64, lane: u64, keys: usize, write_permille: u32, pop: Popularity) -> Self {
        let zipf = match pop {
            Popularity::Uniform => None,
            Popularity::Zipf(s) => Some(std::sync::Arc::new(Zipf::new(keys, s))),
        };
        OpStream {
            rng: Rng::new(mix64(seed) ^ mix64(lane.wrapping_add(0x6F70_7374))),
            keys: keys as u64,
            write_permille: write_permille as u64,
            zipf,
        }
    }

    /// Next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let write = self.rng.below(1000) < self.write_permille;
        let index = match &self.zipf {
            None => self.rng.below(self.keys) as u32,
            Some(z) => z.rank(self.rng.unit()) as u32,
        };
        Op { write, index }
    }

    /// Order-sensitive digest of the next `n` operations of a *clone* of
    /// this stream (the stream itself does not advance).
    pub fn digest(&self, n: usize) -> u64 {
        let mut probe = self.clone();
        let mut acc = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..n {
            let op = probe.next_op();
            acc = mix64(acc ^ ((op.index as u64) << 1 | op.write as u64));
        }
        acc
    }
}

/// First 8 value bytes for `(index, version)`: the version in the low half
/// (so a reader can recover it) and a check word in the high half.
#[inline]
pub fn value_word(index: u32, version: u32) -> u64 {
    let check = mix64(((index as u64) << 32 | version as u64) ^ 0x7661_6C75_6521_2121);
    (check & 0xFFFF_FFFF_0000_0000) | version as u64
}

/// Fill `buf` (≥ 8 bytes) with the value of `(index, version)`.
pub fn fill_value(index: u32, version: u32, buf: &mut [u8]) {
    let word = value_word(index, version);
    buf[..8].copy_from_slice(&word.to_le_bytes());
    let mut state = word | 1;
    for chunk in buf[8..].chunks_mut(8) {
        // xorshift64: cheap enough to regenerate on every verification.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

/// Check that `bytes` is the value of *some* version of key `index` with
/// the expected length; returns that version.
pub fn check_value(
    index: u32,
    bytes: &[u8],
    expect_len: usize,
    scratch: &mut Vec<u8>,
) -> Option<u32> {
    if bytes.len() != expect_len || bytes.len() < 8 {
        return None;
    }
    let word = u64::from_le_bytes(bytes[..8].try_into().expect("length checked"));
    let version = word as u32;
    if value_word(index, version) != word {
        return None;
    }
    if bytes.len() > 8 {
        scratch.resize(expect_len, 0);
        fill_value(index, version, scratch);
        if scratch.as_slice() != bytes {
            return None;
        }
    }
    Some(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for (keys, permille, pop) in [
            (4_000_000, 50, Popularity::Uniform),
            (16_384, 500, Popularity::Uniform),
            (65_536, 50, Popularity::Uniform),
            (4_096, 200, Popularity::Zipf(0.99)),
        ] {
            let a = OpStream::new(7, 0, keys, permille, pop).digest(10_000);
            let b = OpStream::new(7, 0, keys, permille, pop).digest(10_000);
            let c = OpStream::new(8, 0, keys, permille, pop).digest(10_000);
            let d = OpStream::new(7, 1, keys, permille, pop).digest(10_000);
            assert_eq!(a, b, "same seed must give the same op stream");
            assert_ne!(a, c, "a different seed must give a different op stream");
            assert_ne!(a, d, "generator lanes must not share a stream");
        }
    }

    #[test]
    fn write_share_matches_request() {
        let mut s = OpStream::new(3, 0, 1000, 200, Popularity::Uniform);
        let writes = (0..100_000).filter(|_| s.next_op().write).count();
        assert!((19_000..21_000).contains(&writes), "writes = {writes}");
    }

    #[test]
    fn u64_keys_are_distinct_and_in_range() {
        let space = KeySpace::new(KeyKind::U64, 100_000, 1);
        let mut seen: Vec<u64> = (0..100_000).map(|i| space.u64_key(i)).collect();
        assert!(seen.iter().all(|&k| k <= KEY_MASK));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100_000);
        let other = KeySpace::new(KeyKind::U64, 100_000, 2);
        assert_ne!(space.u64_key(0), other.u64_key(0));
    }

    #[test]
    fn byte_keys_are_distinct_and_sized() {
        let space = KeySpace::new(KeyKind::Bytes, 5_000, 1);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..5_000 {
            let k = space.byte_key(i);
            assert!((16..=24).contains(&k.len()), "len {}", k.len());
            assert!(seen.insert(k.to_vec()));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(5);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.rank(rng.unit());
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        assert!(head > 3_000, "top 1% of keys drew only {head} of 10000");
        assert_eq!(z.rank(0.999_999_999_9), 999);
    }

    #[test]
    fn values_verify_and_reject_corruption() {
        let mut scratch = Vec::new();
        for len in [8usize, 13, 1024] {
            let mut buf = vec![0u8; len];
            fill_value(42, 9, &mut buf);
            assert_eq!(check_value(42, &buf, len, &mut scratch), Some(9));
            assert_eq!(check_value(43, &buf, len, &mut scratch), None, "wrong key");
            assert_eq!(check_value(42, &buf[..len - 1], len, &mut scratch), None);
            let last = len - 1;
            buf[last] ^= 1;
            assert_eq!(
                check_value(42, &buf, len, &mut scratch),
                None,
                "flipped bit"
            );
        }
    }
}
