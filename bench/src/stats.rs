//! Order statistics: medians, quartile spread, and a log-linear histogram
//! with in-bucket interpolation for latency percentiles.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the same arithmetic the acceptance driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median (`None` when undefined).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Sub-buckets per power of two: 64 ⇒ bucket width ≤ 1.6 % of the value.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Histogram of `u64` samples with ~1.6 % relative bucket width; values
/// below 64 are exact.  Percentiles interpolate linearly inside the bucket
/// the rank falls into, so they vary continuously with the data.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) as u64) << SUB_BITS | ((v >> shift) & (SUB - 1))) as usize
    }

    /// `[low, high)` value range of a bucket.
    fn bounds(bucket: usize) -> (u64, u64) {
        let b = bucket as u64;
        if b < SUB {
            return (b, b + 1);
        }
        let shift = (b >> SUB_BITS) - 1;
        let low = (SUB | (b & (SUB - 1))) << shift;
        (low, low.saturating_add(1 << shift))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `pct`-th percentile (0 < pct ≤ 100), `None` when empty.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Nearest-rank target, then linear interpolation within the bucket.
        let rank = (pct / 100.0 * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (low, high) = Self::bounds(bucket);
                let high = high.min(self.max.saturating_add(1)).max(low + 1);
                let within = (rank - seen as f64) / count as f64;
                return Some(low as f64 + within * (high - low) as f64);
            }
            seen += count;
        }
        Some(self.max as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        // Five windows with one stalled window: the median ignores it.
        assert_eq!(median(&[100.0, 101.0, 12.0, 99.0, 102.0]), Some(100.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "IQR 5.5 over median 5.5, got {s}");
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        for (pct, want) in [(50.0, 500_000.0), (99.0, 990_000.0), (100.0, 1_000_000.0)] {
            let got = h.percentile(pct).unwrap();
            assert!(
                (got - want).abs() / want < 0.02,
                "p{pct}: got {got}, want {want}"
            );
        }
        // Small values are exact, and a single sample is its own percentile.
        let mut one = Histogram::new();
        one.record(17);
        assert!((one.percentile(99.0).unwrap() - 17.5).abs() <= 0.5);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_merge_adds() {
        let mut last_high = 0;
        for b in 0..(20 * SUB as usize) {
            let (low, high) = Histogram::bounds(b);
            assert_eq!(low, last_high, "bucket {b}");
            assert_eq!(Histogram::bucket_of(low), b);
            assert_eq!(Histogram::bucket_of(high - 1), b);
            last_high = high;
        }
        assert!(Histogram::bucket_of(u64::MAX) < BUCKETS);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(100.0).unwrap() >= 1_000_000.0);
    }
}
