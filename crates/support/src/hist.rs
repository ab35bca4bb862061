//! A log-bucketed concurrent latency histogram — the
//! workspace's `hdrhistogram` replacement.
//!
//! [`Histogram`] records `u64` values (nanoseconds, by convention) into
//! HDR-style **log-linear buckets**: values below 2⁵ get their own exact
//! bucket; above that, each power-of-two octave is split into 2⁵ = 32
//! sub-buckets, bounding the relative quantization error at 1/32 ≈ 3.1%
//! across the whole `u64` range with a fixed table of 1920 counters.
//!
//! The record path is **lock-free and allocation-free**: one bucket index
//! computation (a `leading_zeros` and some shifts) plus three relaxed
//! atomic RMWs.  It is safe to call concurrently from any number of
//! threads — this is what lets every mutator share one histogram without
//! a merge step on the hot path.
//!
//! Every query goes through one surface: [`Histogram::snapshot`] captures
//! a plain-`u64` [`Snapshot`], and its methods ([`Snapshot::quantile`],
//! [`Snapshot::max`], ...) answer from that copy.  Quantiles use
//! the nearest-rank definition over bucket counts and report the
//! **upper bound** of the selected bucket (clamped to the exact recorded
//! maximum), so they never under-report a latency and are monotone in
//! the requested rank.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets,
/// so quantization error is bounded by `2^-SUB_BITS` of the value.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`: the `SUB` exact low buckets
/// plus `64 - SUB_BITS` octaves of `SUB` sub-buckets each (the first
/// "octave" `[SUB, 2·SUB)` reuses the same indexing formula).
const NUM_BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// The bucket index for a value.  Total and monotone: `v <= w` implies
/// `bucket_index(v) <= bucket_index(w)`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let shift = msb - SUB_BITS as usize;
        let sub = (v >> shift) as usize - SUB;
        SUB + shift * SUB + sub
    }
}

/// The smallest value mapping to bucket `i`.
#[inline]
fn bucket_low(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUB {
        i as u64
    } else {
        let shift = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        ((SUB + sub) as u64) << shift
    }
}

/// The largest value mapping to bucket `i` (inclusive).
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let shift = (i - SUB) / SUB;
        bucket_low(i) + ((1u64 << shift) - 1)
    }
}

/// Nearest-rank quantile over a bucket walk: the upper bound of the
/// bucket holding the `⌈q·n⌉`-th smallest recorded value, clamped to the
/// exact recorded maximum.
fn quantile_over(counts: impl IntoIterator<Item = u64>, n: u64, max: u64, q: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut cum = 0u64;
    for (i, c) in counts.into_iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_high(i).min(max);
        }
    }
    max
}

/// A concurrent log-bucketed histogram.  See the [module docs](self).
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.  This is the only allocating operation.
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.  Lock-free and allocation-free; callable from
    /// any thread concurrently.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A plain-integer snapshot of the current contents.  Concurrent
    /// `record`s may or may not be included; each bucket is internally
    /// consistent.
    pub fn snapshot(&self) -> Snapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        Snapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An owned snapshot of a [`Histogram`], with the same query API.
/// `Default` is the empty snapshot (every query returns 0).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Snapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`0.0 ..= 1.0`), reported as the
    /// upper bound of the selected bucket clamped to the recorded
    /// maximum — at most 1/32 above the exact order statistic, never
    /// below it.  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_over(self.counts.iter().copied(), self.count, self.max(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_cases, Gen};

    /// Nearest-rank quantile over raw samples — the oracle.
    fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[rank as usize - 1]
    }

    /// A value drawn log-uniformly so every octave is exercised.
    fn log_uniform(g: &mut Gen) -> u64 {
        let bits = g.u32_in(0..64);
        let base = 1u64 << bits.min(63);
        g.u64_in(base / 2..base.saturating_add(base - 1).max(base / 2 + 1))
    }

    #[test]
    fn bucket_index_covers_u64_and_is_monotone() {
        // Every power-of-two boundary and its neighbors, plus extremes.
        let mut last = 0usize;
        let mut probes = vec![0u64, 1, 2, 3];
        for b in 2..64u32 {
            let p = 1u64 << b;
            probes.extend_from_slice(&[p - 1, p, p + 1]);
        }
        probes.push(u64::MAX - 1);
        probes.push(u64::MAX);
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= last, "index not monotone at {v}");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        run_cases("hist_bucket_bounds", 0xB0B0, 300, |g| {
            let v = log_uniform(g);
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "value {v} outside bucket {i}: [{}, {}]",
                bucket_low(i),
                bucket_high(i)
            );
            // Relative bucket width bounds the quantization error.
            let width = bucket_high(i) - bucket_low(i);
            assert!(
                width as u128 <= (v as u128 / SUB as u128) + 1,
                "bucket {i} too wide ({width}) for value {v}"
            );
        });
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_high(i - 1) + 1,
                bucket_low(i),
                "gap or overlap between buckets {} and {i}",
                i - 1
            );
        }
        assert_eq!(bucket_low(0), 0);
    }

    #[test]
    fn exact_below_sub_resolution() {
        let h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..SUB as u64 {
            // Quantile ranks are 1-based: value v is the (v+1)-th smallest.
            let q = (v + 1) as f64 / SUB as f64;
            assert_eq!(s.quantile(q), v);
        }
    }

    #[test]
    fn empty_histogram_queries() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), Snapshot::default().max());
        assert_eq!(s.count(), Snapshot::default().count());
    }

    #[test]
    fn differential_quantiles_vs_sorted_vec_oracle() {
        run_cases("hist_vs_oracle", 0xD1FF, 60, |g| {
            let values = g.vec_of(1..400, log_uniform);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let s = h.snapshot();
            assert_eq!(s.count(), values.len() as u64);
            assert_eq!(s.max(), *sorted.last().unwrap());
            for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = oracle_quantile(&sorted, q);
                let approx = s.quantile(q);
                // Never under-reports; over-reports by at most one bucket
                // width (≤ exact/SUB + 1).
                assert!(
                    approx >= exact,
                    "q{q}: {approx} under-reports oracle {exact}"
                );
                assert!(
                    approx as u128 <= exact as u128 + exact as u128 / SUB as u128 + 1,
                    "q{q}: {approx} beyond error bound of oracle {exact}"
                );
            }
        });
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        run_cases("hist_monotone", 0x3333, 40, |g| {
            let values = g.vec_of(1..200, log_uniform);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let mut last = 0;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let v = s.quantile(q);
                assert!(v >= last, "quantile not monotone at q={q}");
                last = v;
            }
            assert!(s.quantile(1.0) <= s.max().max(1));
        });
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = &h;
                s.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t as u64 * per_thread + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), threads as u64 * per_thread);
        assert_eq!(s.max(), threads as u64 * per_thread - 1);
    }
}
