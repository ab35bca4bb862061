//! A small, seedable, deterministic PRNG: SplitMix64 seeding into
//! xoshiro256++ (Blackman & Vigna), one type, [`StdRng`], with the few
//! draws the workloads and tests make.
//!
//! Not cryptographic — the workloads need reproducible distributions, not
//! secrecy.  Every stream is fully determined by its `u64` seed, so
//! `--seed N` reproduces a run bit-for-bit on any platform.

/// SplitMix64 step: the standard seeding sequence for xoshiro (fills the
/// state from a single `u64` so that no seed yields a degenerate state).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The unsigned integer types [`StdRng::random_range`] draws.
pub trait RangeInt: Copy + PartialOrd {
    /// Widens to `u64`.
    fn to_u64(self) -> u64;
    /// Narrows a value below the range's end, so it fits.
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

range_int!(usize, u32, u64);

/// xoshiro256++ — the workspace's one generator.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
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

    /// A uniform sample from `range` (half-open, `start < end` required).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T: RangeInt>(&mut self, range: std::ops::Range<T>) -> T {
        assert!(range.start < range.end, "empty sample range");
        let start = range.start.to_u64();
        T::from_u64(start + self.uniform_below(range.end.to_u64() - start))
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        // 53 bits of mantissa give a uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Unbiased uniform draw from `[0, bound)` by rejection sampling.
    #[inline]
    fn uniform_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Reject the final partial copy of [0, bound) in u64 space.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_reference_vector() {
        // SplitMix64 from seed 0 fills the state, xoshiro256++ runs from
        // it, and `random_range` rejection-samples its output: each stage
        // pinned to literal values, so a wrong constant anywhere fails here.
        let mut sm = 0;
        let state: Vec<u64> = (0..4).map(|_| splitmix64(&mut sm)).collect();
        assert_eq!(
            state,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec
            ]
        );
        let mut r = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a
            ]
        );
        let mut r = StdRng::seed_from_u64(1);
        let draws: Vec<u32> = (0..8).map(|_| r.random_range(0..100u32)).collect();
        assert_eq!(draws, [87, 65, 44, 70, 80, 85, 23, 45]);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v: usize = r.random_range(3..17);
            assert!((3..17).contains(&v));
        }
        // Single-element range is always that element.
        assert_eq!(r.random_range(5..6u32), 5);
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn bool_probability_endpoints() {
        let mut r = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| r.random_bool(0.0)));
        assert!((0..100).all(|_| r.random_bool(1.0)));
        let hits = (0..10_000).filter(|_| r.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    #[should_panic(expected = "empty sample range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(3);
        let _: usize = r.random_range(5..5);
    }
}
