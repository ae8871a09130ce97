//! In-tree stand-in for the `rand` API subset this workspace uses:
//! `SmallRng::seed_from_u64`, `Rng::gen_range` over integer ranges,
//! `Rng::gen_bool`, and `Rng::gen` for plain integers/bools.
//!
//! The generator is splitmix64 seeded into xoshiro256**, which is the same
//! family the real `SmallRng` uses on 64-bit targets. Streams are
//! deterministic per seed (the workloads rely on seeded reproducibility)
//! but are not bit-compatible with the real crate.

#![forbid(unsafe_code)]

/// Core source of randomness: a 64-bit generator.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

/// Seedable construction (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce.
pub trait Standard: Sized {
    fn from_rng(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn from_rng(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges `gen_range` accepts for a value type `T`.
pub trait SampleRange<T> {
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
            }
        }
    )*};
}
impl_sample_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64
);

/// User-facing convenience methods, blanket-implemented for every core rng.
pub trait Rng: RngCore {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        // 53 high bits give a uniform float in [0, 1).
        let f = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        f < p
    }

    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }
}

impl<R: RngCore> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The small, fast generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }
}

impl RngCore for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

impl SeedableRng for Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        Xoshiro256::from_u64(seed)
    }
}

pub mod rngs {
    pub use super::Xoshiro256 as SmallRng;
    pub use super::Xoshiro256 as StdRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let u = r.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }
}
