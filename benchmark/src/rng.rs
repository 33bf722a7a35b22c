//! Seeded input generation: SplitMix64 and the Zipf key tape.
//!
//! The program under test only ever sees what these produce; the same
//! `--seed` gives the same keys, mixes and prefill.

/// SplitMix64 (Steele, Lea & Flood): one multiply-xorshift chain per draw.
#[derive(Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator for stream `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..bound` (multiply-shift; `bound` < 2³²).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next() >> 32) * bound) >> 32
    }
}

/// Keys per tape; a power of two so the cursor wraps with a mask.
pub const TAPE_LEN: usize = 1 << 18;

/// A tape of `TAPE_LEN` keys in `0..keys` drawn from Zipf(`theta`): rank `r`
/// (1-based) has weight `r^-theta`. Ranks are scattered over the key space
/// by an odd multiplier so the hot keys do not share a bucket.
pub fn zipf_tape(seed: u64, keys: u64, theta: f64) -> Vec<u32> {
    assert!(keys > 0 && keys < u32::MAX as u64);
    let mut cdf = Vec::with_capacity(keys as usize);
    let mut sum = 0.0f64;
    for rank in 1..=keys {
        sum += (rank as f64).powf(-theta);
        cdf.push(sum);
    }
    let mut rng = SplitMix64::new(seed);
    (0..TAPE_LEN)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * sum;
            let rank = cdf.partition_point(|&c| c < u) as u64;
            ((rank.min(keys - 1) * 2_654_435_761) % keys) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix64::new(3), SplitMix64::new(3));
        assert!((0..100).all(|_| a.next() == b.next()));
        assert_ne!(SplitMix64::new(3).next(), SplitMix64::new(4).next());
        assert_eq!(zipf_tape(5, 1000, 0.99), zipf_tape(5, 1000, 0.99));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..10_000).all(|_| rng.below(2048) < 2048));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let tape = zipf_tape(9, 100_000, 0.99);
        assert!(tape.iter().all(|&k| k < 100_000));
        // Rank 1 maps to key 0 (0 × multiplier); under θ = 0.99 over 10⁵ keys
        // it carries ≈ 8 % of the mass, a uniform draw would give 0.001 %.
        let hottest = tape.iter().filter(|&&k| k == 0).count();
        assert!(hottest > TAPE_LEN / 20, "hottest key drawn {hottest} times");
    }
}
