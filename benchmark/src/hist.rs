//! Fixed-bucket log-linear histogram (HdrHistogram shape, no dependencies).
//!
//! Values below 64 have a bucket each; above that every octave is split into
//! 32 equal sub-buckets, so a bucket is never wider than 1/32 of its lower
//! bound. One histogram is owned by one thread while it records and is merged
//! into the others at join.

/// Sub-buckets per octave.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;
/// 64 exact buckets, then 32 for each of the 58 remaining octaves of a `u64`.
const BUCKETS: usize = 64 + 58 * SUB_BUCKETS as usize;

/// A latency (or any `u64`) distribution with bounded relative error.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS {
        return value as usize;
    }
    let shift = (63 - value.leading_zeros()) - SUB_BITS;
    (shift as u64 * SUB_BUCKETS + (value >> shift)) as usize
}

/// Lower bound and width of bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        return (index, 1);
    }
    let shift = index / SUB_BUCKETS - 1;
    ((index - shift * SUB_BUCKETS) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other`; the result equals the histogram of the
    /// two sample sets concatenated.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest value recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `0.0..=1.0`, interpolated inside its
    /// bucket by rank; `0.0` for an empty histogram. The relative error
    /// against the exact order statistic is at most 1/32.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (before + count) as f64 > target {
                let (low, width) = bucket_range(index);
                let inside = (target - before as f64) / count as f64;
                return (low as f64 + width as f64 * inside).min(self.max as f64);
            }
            before += count;
        }
        self.max as f64
    }

    /// The highest of the usual percentiles (p50, p90, p99, p99.9, p99.99)
    /// that still has at least `beyond` samples above it, so a short round
    /// never reports a tail it did not observe. `None` when even the median
    /// has fewer than `beyond` samples above it.
    pub fn highest_percentile(&self, beyond: u64) -> Option<f64> {
        // In parts per ten thousand, so the count beyond is exact.
        [9_999u64, 9_990, 9_900, 9_000, 5_000]
            .into_iter()
            .find(|p| self.total * (10_000 - p) >= beyond * 10_000)
            .map(|p| p as f64 / 10_000.0)
    }

    /// Quantile `q`, lowered to [`highest_percentile`](Self::highest_percentile)
    /// (with ten samples beyond) when the histogram is too short to support
    /// `q` itself.
    pub fn supported_quantile(&self, q: f64) -> f64 {
        self.quantile(q.min(self.highest_percentile(10).unwrap_or(0.5)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64
    }

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut expected_low = 0u64;
        for index in 0..BUCKETS {
            let (low, width) = bucket_range(index);
            assert_eq!(
                low, expected_low,
                "bucket {index} starts where the last ended"
            );
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(low + (width - 1)), index);
            assert!(low < 2 * SUB_BUCKETS || width * SUB_BUCKETS <= low);
            expected_low = low.wrapping_add(width);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_within_one_thirty_second() {
        let mut rng = SplitMix64::new(7);
        let mut values: Vec<u64> = (0..50_000)
            .map(|_| {
                // Log-uniform over 1 ns .. ~17 ms, the range latencies live in.
                let octave = rng.next() % 24;
                (1u64 << octave) + rng.next() % (1u64 << octave)
            })
            .collect();
        let mut hist = Hist::new();
        values.iter().for_each(|&v| hist.record(v));
        values.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 32.0 + 1.0,
                "q={q}: histogram {got} vs exact {exact}"
            );
        }
        assert_eq!(hist.max(), *values.last().unwrap());
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut rng = SplitMix64::new(11);
        let a: Vec<u64> = (0..10_000).map(|_| rng.next() % 1_000_000).collect();
        let b: Vec<u64> = (0..3_000).map(|_| rng.next() % 300).collect();
        let (mut ha, mut hb, mut hab) = (Hist::new(), Hist::new(), Hist::new());
        a.iter().for_each(|&v| ha.record(v));
        b.iter().for_each(|&v| hb.record(v));
        a.iter().chain(&b).for_each(|&v| hab.record(v));
        ha.merge(&hb);
        assert_eq!(ha.counts, hab.counts);
        assert_eq!(ha.count(), hab.count());
        assert_eq!(ha.max(), hab.max());
        assert_eq!(ha.quantile(0.99), hab.quantile(0.99));
    }

    #[test]
    fn short_rounds_report_only_tails_they_observed() {
        let mut hist = Hist::new();
        assert_eq!(hist.highest_percentile(10), None);
        (0..19).for_each(|v| hist.record(v));
        assert_eq!(hist.highest_percentile(10), None, "9.5 samples above p50");
        hist.record(19);
        assert_eq!(hist.highest_percentile(10), Some(0.5));
        (20..100).for_each(|v| hist.record(v));
        assert_eq!(hist.highest_percentile(10), Some(0.9));
        (100..999).for_each(|v| hist.record(v));
        assert_eq!(hist.highest_percentile(10), Some(0.9), "999 × 1 % < 10");
        hist.record(999);
        assert_eq!(hist.highest_percentile(10), Some(0.99));
        // p99.9 is asked for, p99 is what 1000 samples support.
        assert_eq!(hist.supported_quantile(0.999), hist.quantile(0.99));
        assert_eq!(hist.supported_quantile(0.5), hist.quantile(0.5));
    }
}
