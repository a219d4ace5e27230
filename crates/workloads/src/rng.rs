//! A small, fast, deterministic PRNG.
//!
//! Workload generation must be bit-for-bit reproducible across platforms and
//! library versions, so the generator is implemented here rather than pulled
//! from an external crate whose stream might change between releases. The
//! algorithm is xoshiro256** (Blackman & Vigna), seeded through SplitMix64.

use serde::{Deserialize, Serialize};

/// Deterministic xoshiro256** pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use powerbalance_workloads::Xoshiro256;
///
/// let mut a = Xoshiro256::new(7);
/// let mut b = Xoshiro256::new(7);
/// assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded with SplitMix64 so that nearby seeds yield
    /// uncorrelated streams; seed `0` is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [next_sm(), next_sm(), next_sm(), next_sm()] }
    }

    /// Next uniformly distributed 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n, which
        // is negligible for the n used here (all far below 2^32).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Geometric-like positive integer with mean approximately `mean`
    /// (truncated at `max`).
    ///
    /// Used for dependency distances: a producer `k` instructions back is
    /// chosen with geometrically decaying probability, which matches the
    /// short-range register lifetimes observed in real integer code.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 1.0` or `max == 0`.
    pub fn geometric(&mut self, mean: f64, max: u64) -> u64 {
        self.sample_geometric(Geometric::new(mean), max)
    }

    /// [`geometric`](Xoshiro256::geometric) with its per-mean logarithm
    /// taken once in `dist`; draws the same value from the same state.
    ///
    /// # Panics
    ///
    /// Panics if the mean is below 1 or `max == 0`.
    #[inline]
    pub(crate) fn sample_geometric(&mut self, dist: Geometric, max: u64) -> u64 {
        assert!(dist.mean >= 1.0, "geometric mean must be >= 1");
        assert!(max > 0, "geometric max must be positive");
        // Inverse-CDF sampling: k = ceil(ln(1-u)/ln(1-p)).
        let u = self.next_f64();
        ceil_clamped((1.0 - u).ln() / dist.ln_q, max)
    }
}

/// `ceil(x)` clamped to `1..=max`, with NaN and +inf giving 1, computed
/// with integer steps: `f64::ceil` is a library call on baseline x86-64,
/// which has no rounding instruction.
#[inline]
fn ceil_clamped(x: f64, max: u64) -> u64 {
    // Below 2^63 the conversions to and from `i64` are single instructions.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if x > 0.0 && x < TWO_63 {
        let t = x as i64; // truncates exactly
        (t as u64 + u64::from((t as f64) < x)).min(max)
    } else if (TWO_63..f64::INFINITY).contains(&x) {
        (x as u64).min(max) // already integral; the cast saturates at 2^64
    } else {
        1 // NaN, +inf and x <= 0
    }
}

/// A geometric distribution of a fixed mean, with the logarithm every draw
/// divides by, `ln(1 - 1/mean)`, computed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Geometric {
    mean: f64,
    ln_q: f64,
}

impl Geometric {
    /// The distribution with mean approximately `mean` (not checked here:
    /// sampling a mean below 1 panics).
    #[must_use]
    pub(crate) fn new(mean: f64) -> Self {
        let p = 1.0 / mean;
        Geometric { mean, ln_q: (1.0 - p).ln() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The float form `ceil_clamped` replaced.
    fn ceil_clamped_by_float(x: f64, max: u64) -> u64 {
        let k = x.ceil();
        let k = if k.is_finite() && k >= 1.0 { k as u64 } else { 1 };
        k.min(max)
    }

    #[test]
    fn integer_ceil_matches_the_float_ceil() {
        let maxes = [1, 2, 3, 63, 64, 1 << 20, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            63.0,
            63.5,
            64.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            9_223_372_036_854_774_784.0,
            9_223_372_036_854_775_808.0,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            1e300,
            f64::MAX,
        ];
        for &max in &maxes {
            for &x in &edges {
                assert_eq!(ceil_clamped(x, max), ceil_clamped_by_float(x, max), "x {x}, max {max}");
            }
        }
        let mut r = Xoshiro256::new(42);
        for i in 0..1_000_000u32 {
            let max = maxes[i as usize % maxes.len()];
            // Alternate draws as sampling makes them with arbitrary bit
            // patterns (every sign, exponent, NaN payload and infinity).
            let x = if i % 2 == 0 {
                (1.0 - r.next_f64()).ln() / Geometric::new(1.0 + 64.0 * r.next_f64()).ln_q
            } else {
                f64::from_bits(r.next_u64())
            };
            assert_eq!(ceil_clamped(x, max), ceil_clamped_by_float(x, max), "x {x:e}, max {max}");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be uncorrelated, {same} collisions");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xoshiro256::new(5);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = Xoshiro256::new(77);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all buckets should be hit");
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut r = Xoshiro256::new(31);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = Xoshiro256::new(42);
        for target in [1.5f64, 3.0, 8.0] {
            let n = 50_000;
            let sum: u64 = (0..n).map(|_| r.geometric(target, 10_000)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - target).abs() / target < 0.1,
                "geometric mean {mean} vs target {target}"
            );
        }
    }

    #[test]
    fn hoisted_geometric_draws_the_same_values() {
        // The unhoisted formula, taking both logarithms on every draw.
        fn per_draw_log(r: &mut Xoshiro256, mean: f64, max: u64) -> u64 {
            let p = 1.0 / mean;
            let u = r.next_f64();
            let k = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
            let k = if k.is_finite() && k >= 1.0 { k as u64 } else { 1 };
            k.min(max)
        }
        let (mut a, mut b) = (Xoshiro256::new(3), Xoshiro256::new(3));
        for mean in [1.0f64, 1.5, 3.0, 6.0, 12.0, 50.0, 1e9] {
            let dist = Geometric::new(mean);
            for _ in 0..2_000 {
                assert_eq!(per_draw_log(&mut a, mean, 24), b.sample_geometric(dist, 24));
            }
        }
    }

    #[test]
    fn geometric_respects_max() {
        let mut r = Xoshiro256::new(8);
        for _ in 0..10_000 {
            assert!(r.geometric(50.0, 16) <= 16);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        Xoshiro256::new(0).below(0);
    }
}
