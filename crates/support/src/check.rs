//! Deterministic randomized testing — the workspace's `proptest`
//! replacement.
//!
//! [`run_cases`] drives a test closure through `cases` generated inputs.
//! Each case draws its values from a [`Gen`] seeded as
//! `splitmix(base_seed, case_index)`, so every run of the suite exercises
//! the *same* inputs — failures reproduce without a persistence file.
//!
//! On failure the case is **shrunk by halving**: the same case seed is
//! replayed with an increasing shrink level, under which every drawn
//! value collapses toward the low end of its range (`lo + (offset >>
//! level)`) and every generated collection toward its minimum length.
//! The deepest level that still fails — the smallest failing input this
//! generator can express — is reported with its exact `(seed, case,
//! shrink)` coordinates.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rand::StdRng;

/// The deterministic value source handed to a test case.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
    shrink: u32,
}

impl Gen {
    /// A generator for `(base_seed, case)` at full size (shrink level 0).
    pub fn new(base_seed: u64, case: u64) -> Gen {
        Gen::with_shrink(base_seed, case, 0)
    }

    fn with_shrink(base_seed: u64, case: u64, shrink: u32) -> Gen {
        // Mix the case index in multiplicatively so neighboring cases get
        // unrelated streams.
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(case.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Gen {
            rng: StdRng::seed_from_u64(seed),
            shrink,
        }
    }

    /// Applies the shrink level to an offset.
    #[inline]
    fn shrunk(&self, offset: u64) -> u64 {
        offset >> self.shrink.min(63)
    }

    /// A `usize` in `[range.start, range.end)`, collapsing toward
    /// `range.start` under shrinking.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        let raw = self.rng.random_range(range.start as u64..range.end as u64);
        range.start + self.shrunk(raw - range.start as u64) as usize
    }

    /// A `u32` in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.usize_in(range.start as usize..range.end as usize) as u32
    }

    /// A `u64` in `[range.start, range.end)`.
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        let raw = self.rng.random_range(range.clone());
        range.start + self.shrunk(raw - range.start)
    }

    /// An unbiased bool (not affected by shrinking — both values are
    /// minimal).
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A vector with length drawn from `len` (collapsing toward
    /// `len.start`), elements produced by `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A vector of bools of exactly `n` elements.
    pub fn bools(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.bool()).collect()
    }
}

/// Maximum shrink level tried after a failure (beyond ~40 every practical range has
/// collapsed to its lower bound).
const MAX_SHRINK: u32 = 40;

/// Runs `body` against `cases` deterministic inputs derived from
/// `base_seed`.  Panics (with reproduction coordinates) if any case
/// fails; the reported case is the most-shrunk failing input.
pub fn run_cases(name: &str, base_seed: u64, cases: u64, mut body: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let mut g = Gen::new(base_seed, case);
        if catch_unwind(AssertUnwindSafe(|| body(&mut g))).is_ok() {
            continue;
        }
        // Shrink by halving: find the deepest level that still fails.
        let mut failing_level = 0;
        for level in 1..=MAX_SHRINK {
            let mut g = Gen::with_shrink(base_seed, case, level);
            if catch_unwind(AssertUnwindSafe(|| body(&mut g))).is_err() {
                failing_level = level;
            } else {
                break;
            }
        }
        // Replay the minimal case outside catch_unwind so the original
        // assertion message is the one the harness reports.
        eprintln!(
            "[check] {name}: case {case} failed (seed {base_seed}); \
             minimal failing shrink level {failing_level} — replaying"
        );
        let mut g = Gen::with_shrink(base_seed, case, failing_level);
        body(&mut g);
        unreachable!("[check] {name}: case {case} failed under catch_unwind but not on replay");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        run_cases("collect", 11, 5, |g| {
            first.push((g.usize_in(0..100), g.bool()));
        });
        let mut second = Vec::new();
        run_cases("collect", 11, 5, |g| {
            second.push((g.usize_in(0..100), g.bool()));
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn ranges_respected_at_every_shrink_level() {
        for level in 0..8 {
            let mut g = Gen::with_shrink(3, 1, level);
            for _ in 0..100 {
                let v = g.usize_in(10..20);
                assert!((10..20).contains(&v));
            }
        }
    }

    #[test]
    fn shrinking_collapses_to_lower_bound() {
        let mut g = Gen::with_shrink(5, 0, MAX_SHRINK);
        assert_eq!(g.usize_in(7..1_000_000), 7);
        assert_eq!(g.u64_in(3..1 << 40), 3);
        assert!(g.vec_of(0..50, |g| g.bool()).is_empty());
    }

    #[test]
    fn failure_reports_and_shrinks() {
        // A predicate that fails for large values: the reported minimal
        // case must still fail but be smaller than the original draw.
        let err = catch_unwind(|| {
            run_cases("shrinks", 1, 50, |g| {
                let v = g.usize_in(0..1_000_000);
                assert!(v < 10, "too big: {v}");
            });
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("too big"), "unexpected panic payload: {msg}");
    }

    #[test]
    fn passing_suite_runs_all_cases() {
        let mut n = 0;
        run_cases("passes", 2, 32, |g| {
            let _ = g.u32_in(0..10);
            n += 1;
        });
        assert_eq!(n, 32);
    }
}
