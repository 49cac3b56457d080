//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the exact API subset it uses: the [`Rng`]/[`RngExt`]
//! traits, [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++ seeded via
//! splitmix64 — deterministic, platform-independent, and comfortably good
//! enough for simulation randomness (this workspace never needs
//! cryptographic strength).
//!
//! Semantics match what the workspace relies on, not bit-streams of the
//! real crate: all results in this repository are produced and compared
//! under this generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A source of random 64-bit words. The only method generators implement.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Marker trait mirroring `rand::Rng`; blanket-implemented for every
/// [`RngCore`] so generic bounds like `R: Rng + ?Sized` work unchanged.
pub trait Rng: RngCore {}
impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable uniformly by [`RngExt::random`].
pub trait Standard: Sized {
    /// Draws one value from the type's standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Multiply-shift keeps low-bit artifacts out of small spans;
                // the residual bias over a u64 draw is negligible here.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample empty range");
                let span = (e as i128 - s as i128 + 1) as u128;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (s as i128 + hi) as $t
            }
        }
    )+};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as Standard>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
    )+};
}
float_range!(f32, f64);

/// Ergonomic sampling methods, blanket-implemented for every generator
/// (mirrors the `rand` 0.9+ `Rng` method surface under the name this
/// workspace imports).
pub trait RngExt: RngCore {
    /// A value from the type's standard distribution (`[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A value uniform over `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.random::<f64>() < p
    }
}
impl<R: RngCore + ?Sized> RngExt for R {}

/// Seedable generators (the `seed_from_u64` subset).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, expanding it with splitmix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// splitmix64: seeds the xoshiro state and decorrelates nearby seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Not the real crate's ChaCha12 — see the crate docs; every recorded
    /// result in this repository uses this generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            // xoshiro requires a not-all-zero state; splitmix64 cannot
            // produce four zero words from any seed, but stay defensive.
            if s == [0; 4] {
                return Self { s: [0x9E37_79B9_7F4A_7C15, 1, 2, 3] };
            }
            Self { s }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{RngCore, RngExt};

    /// Shuffling for slices (the `shuffle` subset of the real trait).
    pub trait SliceRandom {
        /// Uniform Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn floats_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f32 = rng.random();
            let y: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            assert!((0.0..1.0).contains(&y));
        }
    }

    /// `simnet::channel::Channel::run` compares the integer numerator of a
    /// draw with integer thresholds; that is only the `f32` comparison if
    /// the `f32` draw is this function of the `u32` one.
    #[test]
    fn f32_draw_is_the_top_24_bits_of_the_u32_draw() {
        let mut floats = StdRng::seed_from_u64(9);
        let mut words = floats.clone();
        for _ in 0..10_000 {
            let k = words.random::<u32>() >> 8;
            let want = k as f32 * (1.0 / (1u32 << 24) as f32);
            assert_eq!(floats.random::<f32>().to_bits(), want.to_bits());
            assert_eq!(f64::from(want) * f64::from(1u32 << 24), f64::from(k), "k · 2⁻²⁴ is exact");
        }
        assert_eq!(floats, words, "one generator step per draw either way");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let i = rng.random_range(3..17usize);
            assert!((3..17).contains(&i));
            let f = rng.random_range(-2.5f32..4.5);
            assert!((-2.5..4.5).contains(&f));
            let n = rng.random_range(-8i64..-2);
            assert!((-8..-2).contains(&n));
        }
    }

    #[test]
    fn range_mean_is_roughly_central() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 =
            (0..n).map(|_| rng.random_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let imean: f64 =
            (0..n).map(|_| rng.random_range(0..10usize) as f64).sum::<f64>() / n as f64;
        assert!((imean - 4.5).abs() < 0.1, "integer mean {imean}");
    }

    #[test]
    fn bool_probability_is_respected() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn works_through_unsized_refs() {
        // The workspace uses `R: Rng + ?Sized` bounds; make sure dyn works.
        fn draw(rng: &mut dyn RngCore) -> usize {
            rng.random_range(0..5)
        }
        let mut rng = StdRng::seed_from_u64(6);
        assert!(draw(&mut rng) < 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = rng.random_range(5..5usize);
    }
}
