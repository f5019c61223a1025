//! Functional rand stub with the API surface this workspace uses:
//! `rngs::StdRng`, `SeedableRng::seed_from_u64`, `Rng`, and
//! `RngExt::{random_range, random_bool}`. The generator is SplitMix64 —
//! statistically fine for tests, NOT the real StdRng stream.

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

pub trait Rng: RngCore {}
impl<R: RngCore + ?Sized> Rng for R {}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that `random_range` can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = if inclusive { hi_w - lo_w + 1 } else { hi_w - lo_w };
                assert!(span > 0, "empty range in random_range");
                let r = rng.next_u64() as i128 % span;
                (lo_w + r) as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, _inclusive: bool) -> Self {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, _inclusive: bool) -> Self {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (u as f32) * (hi - lo)
    }
}

/// Ranges acceptable to `random_range`.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_in(rng, lo, hi, true)
    }
}

pub trait RngExt: RngCore {
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
    fn random_bool(&mut self, p: f64) -> bool {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
    fn random<T: Standard>(&mut self) -> T {
        T::standard(self)
    }
}
impl<R: RngCore + ?Sized> RngExt for R {}

/// Helper for `random::<T>()`.
pub trait Standard {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 stand-in for the real StdRng.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            Self {
                state: state.wrapping_mul(0x2545f4914f6cdd1d) ^ 0x9e3779b97f4a7c15,
            }
        }
    }
}
