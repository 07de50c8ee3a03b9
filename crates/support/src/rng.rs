//! A small, fast, seedable PRNG replacing `rand::rngs::SmallRng`.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! splitmix64 so that *any* `u64` seed — including 0 — yields a
//! well-mixed state. The API mirrors the subset of `rand` the workspace
//! used: [`SmallRng::seed_from_u64`], [`SmallRng::gen_range`] over
//! integer and float ranges, and [`SmallRng::gen_bool`], which is one
//! [`Bernoulli`] draw.
//!
//! Not cryptographic. Deterministic across platforms (no `usize`-width
//! dependence in the core algorithm).

use std::ops::{Range, RangeInclusive};

/// splitmix64 step — used for seeding and for deriving stream seeds.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ with a `rand`-shaped convenience API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    ///
    /// Matches the ergonomics of `rand::SeedableRng::seed_from_u64`; the
    /// output stream differs from `rand`'s, which is fine — everything
    /// downstream is seeded-deterministic, not golden-value-pinned.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// A generator whose **first** [`Self::next_u64`] output is exactly
    /// `word` (later outputs are unspecified). The property-test
    /// shrinker uses this to map one recorded tape word through the
    /// [`SampleRange`] implementations — each of which consumes exactly
    /// one raw output — so that a smaller word always yields a smaller
    /// sample.
    #[must_use]
    pub fn from_raw_word(word: u64) -> Self {
        // result = rotl(s0 + s3, 23) + s0; with s0 = 0 this is
        // rotl(s3, 23), so store the pre-rotated word in s3.
        Self { s: [0, 0, 0, word.rotate_right(23)] }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniform value from `range` (half-open `a..b` or inclusive
    /// `a..=b`, integer or float).
    ///
    /// # Panics
    ///
    /// Panics on an empty range, mirroring `rand`.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`: [`Bernoulli::new`]`(p)` sampled once.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }

    /// Derives an independent child generator by consuming one draw
    /// from `self` (splittable-PRNG style). Children are well-mixed via
    /// the splitmix64 seeding path and their streams do not correlate
    /// with the parent's subsequent output in any way our consumers can
    /// observe.
    ///
    /// This is how multi-concern simulations (e.g. the stream tier's
    /// fault injector) give every concern — drop, duplication,
    /// reordering, jitter, retry — its *own* stream from one user seed:
    /// enabling or tuning one concern never shifts the draws any other
    /// concern sees, so fault scenarios stay independently reproducible.
    #[must_use]
    pub fn split(&mut self) -> SmallRng {
        SmallRng::seed_from_u64(self.next_u64())
    }

    /// A generator for stream `stream_id` of `seed`, without consuming
    /// state anywhere: `stream(seed, i)` is a pure function, so
    /// distributed components can agree on per-concern streams by index
    /// alone. Distinct `(seed, stream_id)` pairs yield uncorrelated
    /// streams; `stream(seed, id)` never equals `seed_from_u64(seed)`'s
    /// stream for the ids we use (the golden-ratio multiply decouples
    /// them).
    #[must_use]
    pub fn stream(seed: u64, stream_id: u64) -> SmallRng {
        let mut s = seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let derived = splitmix64(&mut s) ^ splitmix64(&mut s).rotate_left(32);
        SmallRng::seed_from_u64(derived)
    }

    /// A uniform `u64` below `bound` (widening-multiply method; the tiny
    /// modulo bias of the naive approach is avoided without rejection
    /// loops, keeping draws O(1) and deterministic in count).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }
}

/// A coin that lands `true` with probability `p`, drawn as one integer
/// compare on one raw output.
///
/// [`SmallRng::gen_f64`] is exactly `(x >> 11)·2⁻⁵³` for the raw output
/// `x`, so `gen_f64() < p` holds exactly when `x >> 11 < p·2⁵³`, that
/// is when `x >> 11 < ⌈p·2⁵³⌉`. Scaling by a power of two is exact in
/// `f64`, so the threshold is exact for every `p` in `[0, 1]`, and a
/// sample equals the float compare draw for draw. Hoisting `new` out of
/// a loop leaves one shift and one compare per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p·2⁵³⌉`: a draw is `true` when its top 53 bits fall below it.
    threshold: u64,
}

impl Bernoulli {
    /// The coin for probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        Self { threshold: (p * (1u64 << 53) as f64).ceil() as u64 }
    }

    /// One draw: consumes exactly one raw output of `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// Ranges that [`SmallRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws a uniform sample from `self`.
    fn sample(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_int_sample {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                // Span as u64 handles the full signed domain via wrapping.
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.below(span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-width u64/i64 range: every output is valid.
                    return rng.next_u64() as $t;
                }
                let off = rng.below(span);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty float range");
        let v = self.start + (self.end - self.start) * rng.gen_f64();
        // Floating rounding can land exactly on `end`; nudge back inside.
        if v >= self.end { self.start.max(prev_down(self.end)) } else { v }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty float range");
        lo + (hi - lo) * rng.gen_f64()
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f32 {
        assert!(self.start < self.end, "gen_range: empty float range");
        let v = self.start + (self.end - self.start) * rng.gen_f32();
        if v >= self.end { f32::max(self.start, prev_down32(self.end)) } else { v }
    }
}

impl SampleRange<f32> for RangeInclusive<f32> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f32 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty float range");
        lo + (hi - lo) * rng.gen_f32()
    }
}

fn prev_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits().saturating_sub(1))
}

fn prev_down32(x: f32) -> f32 {
    f32::from_bits(x.to_bits().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u8 = rng.gen_range(30..70);
            assert!((30..70).contains(&v));
            let w: i16 = rng.gen_range(-4..=4);
            assert!((-4..=4).contains(&w));
            let f: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen_range(1.0f32..4.0);
            assert!((1.0..4.0).contains(&g));
            let h: u8 = rng.gen_range(200..=255);
            assert!(h >= 200);
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            distinct.insert(rng.next_u64());
        }
        assert!(distinct.len() > 60, "zero seed must still mix well");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((1_900..=3_100).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    /// `gen_bool`'s float form, which the threshold form replaced.
    fn float_bool(rng: &mut SmallRng, p: f64) -> bool {
        rng.gen_f64() < p
    }

    const TWO_POW_53: f64 = (1u64 << 53) as f64;
    const EDGE_P: [f64; 6] = [0.0, 5e-324, 1.0 / TWO_POW_53, 0.3, 1.0 - 1.0 / TWO_POW_53, 1.0];

    crate::check! {
        /// The threshold form equals the float compare draw for draw: on
        /// a seeded stream, and on the raw words whose top 53 bits sit
        /// just below and at the threshold (only below it at `p = 1`,
        /// whose threshold is 2⁵³).
        fn bernoulli_threshold_equals_float_compare(g, cases = 1024) {
            let p = match g.draw(0u8..3) {
                0 => EDGE_P[g.draw(0..EDGE_P.len())],
                1 => g.draw(0.0..=1.0),
                // Uniform over bit patterns: mostly tiny and subnormal p.
                _ => f64::from_bits(g.draw(0..=1.0f64.to_bits())),
            };
            let coin = Bernoulli::new(p);
            let seed = g.any::<u64>();
            let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for _ in 0..64 {
                assert_eq!(coin.sample(&mut a), float_bool(&mut b, p), "p = {p:e}");
            }
            let t = coin.threshold;
            let low = g.draw(0u64..1 << 11);
            for top in [t.checked_sub(1), Some(t).filter(|&t| t < 1 << 53)].into_iter().flatten() {
                let word = top << 11 | low;
                let want = float_bool(&mut SmallRng::from_raw_word(word), p);
                assert_eq!(want, top < t, "p = {p:e}: the float compare flips at the threshold");
                assert_eq!(coin.sample(&mut SmallRng::from_raw_word(word)), want, "p = {p:e}");
            }
        }
    }

    #[test]
    fn from_raw_word_first_output_is_the_word() {
        for w in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(SmallRng::from_raw_word(w).next_u64(), w);
        }
        // Monotone word -> monotone sample, the shrinker's contract.
        let lo: u32 = (0u32..1000).sample(&mut SmallRng::from_raw_word(10));
        let hi: u32 = (0u32..1000).sample(&mut SmallRng::from_raw_word(u64::MAX / 2));
        assert!(lo <= hi);
        let zero: u32 = (7u32..1000).sample(&mut SmallRng::from_raw_word(0));
        assert_eq!(zero, 7, "word 0 must give the range minimum");
    }

    #[test]
    fn split_streams_are_independent_and_reproducible() {
        let mut parent_a = SmallRng::seed_from_u64(5);
        let mut parent_b = SmallRng::seed_from_u64(5);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        for _ in 0..64 {
            assert_eq!(child_a.next_u64(), child_b.next_u64(), "same seed, same child stream");
        }
        // The child differs from the parent's continuing stream.
        let mut parent = SmallRng::seed_from_u64(5);
        let mut child = parent.split();
        let overlap = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert_eq!(overlap, 0, "child stream must not track the parent");
    }

    #[test]
    fn indexed_streams_are_distinct_and_pure() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..32u64 {
            let mut s = SmallRng::stream(1234, id);
            assert!(seen.insert(s.next_u64()), "stream {id} collides");
            // Pure function: same (seed, id) rebuilds the same stream.
            let mut again = SmallRng::stream(1234, id);
            assert_eq!(SmallRng::stream(1234, id).next_u64(), again.next_u64());
        }
        // Stream id 0 is not the raw seed stream.
        assert_ne!(
            SmallRng::stream(42, 0).next_u64(),
            SmallRng::seed_from_u64(42).next_u64()
        );
    }

    #[test]
    fn full_u64_inclusive_range_does_not_panic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }
}
