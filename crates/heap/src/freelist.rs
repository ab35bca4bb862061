//! The free-space pool of the non-moving heap.
//!
//! Free space is tracked as `(start granule, length)` chunks under one
//! lock.  The chunks live in plain vectors *outside* the heap memory, so
//! free space needs no parseable headers and the concurrent sweep never
//! reads metadata out of free memory.  Each chunk sits in one of 124
//! **size-class bins** (one per length below 8, four per power of two
//! above), each bin a LIFO stack, and a non-empty-bin bitmap makes
//! allocation a bit scan.  A freed chunk is pooled as it comes, one push;
//! touching chunks are merged into maximal runs by one sorted pass over
//! every bin ([`FreeLists::merge`]), which the sweep runs once at its end
//! and a request runs when it finds nothing (DESIGN.md §4.11).  So insert
//! and taking a bin's top are O(1), and the merge is O(n log n) in the
//! chunks pooled.
//!
//! Allocation policy (**good fit**): a request of (`min`, `preferred`)
//! granules takes the top of the lowest non-empty bin whose every chunk
//! holds `preferred`, and splits it; if there is none it takes a chunk of
//! at least `min` from the *highest* non-empty bin — so LAB refills
//! (`preferred ≫ min`) get big contiguous runs when available and degrade
//! gracefully on a tight heap.  Bins are LIFO and the merge rebuilds them
//! in address order, so which chunk is taken depends only on the
//! sequence of calls.
//!
//! Space comes back one way: the sweep's runs and a retired LAB's tails
//! alike arrive as one `insert_batch` under the lock.

use std::sync::atomic::{AtomicU64, Ordering};

use otf_support::sync::Mutex;

/// A free chunk: `len` contiguous free granules starting at granule
/// `start`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Chunk {
    /// First granule of the chunk.
    pub start: u32,
    /// Length in granules (never zero).
    pub len: u32,
}

impl Chunk {
    /// Creates a chunk.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `len` is zero.
    #[inline]
    pub fn new(start: u32, len: u32) -> Chunk {
        debug_assert!(len > 0, "empty chunk");
        Chunk { start, len }
    }

    /// One-past-the-end granule.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// The most chunks one [`FreeLists::exchange`] hands out, hence the most
/// holes a LAB queues: enough that a heap of 5-object holes is crossed at
/// one pool visit per ~300 objects, few enough that the visit stays a few
/// microseconds.
pub const LAB_MAX_HOLES: usize = 64;

/// Each power of two of lengths is cut into `1 << SUB_LOG` bins, which
/// leaves lengths below `2 << SUB_LOG` a bin each (the bin index is the
/// length).  The longest chunk lands in bin 123, so the non-empty-bin
/// bitmap is one `u128`.
const SUB_LOG: u32 = 2;
const BINS: usize = 128;

/// How many low bits of `len` its bin ignores.
#[inline]
fn bin_shift(len: u32) -> u32 {
    (len | 1).ilog2().saturating_sub(SUB_LOG)
}

/// The bin holding chunks of `len` granules.
#[inline]
fn bin_of(len: u32) -> usize {
    let shift = bin_shift(len);
    ((shift << SUB_LOG) + (len >> shift)) as usize
}

/// The lowest bin whose every chunk holds at least `len` granules: `len`'s
/// own bin if `len` is the shortest length in it, else the next one up.
#[inline]
fn bin_fitting(len: u32) -> usize {
    bin_of(len) + usize::from(len & ((1 << bin_shift(len)) - 1) != 0)
}

/// Invariants (checked by the tests' `Pool::check`): a bin's bitmap bit is
/// set exactly when the bin is non-empty and every chunk sits in
/// `bin_of(len)`; while `merged` holds, no pooled chunk ends where another
/// starts.
#[derive(Debug)]
struct Pool {
    /// Each bin is a LIFO stack: its last chunk is taken first.
    bins: [Vec<Chunk>; BINS],
    /// Bit `b` set = bin `b` is non-empty.
    nonempty: u128,
    free_granules: u64,
    /// Nothing was inserted since the last merge: the chunks are maximal
    /// runs.  Taking space out keeps them so.
    merged: bool,
    /// The merge's scratch: `start << 32 | len` of every chunk.
    runs: Vec<u64>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            bins: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            free_granules: 0,
            merged: true,
            runs: Vec::new(),
        }
    }

    /// Pushes `c` onto its bin.
    fn push(&mut self, c: Chunk) {
        let bin = bin_of(c.len);
        self.bins[bin].push(c);
        self.nonempty |= 1 << bin;
    }

    /// Takes the chunk at `i` out of `bin`; the rest keep their order.
    fn take(&mut self, bin: usize, i: usize) -> Chunk {
        let c = self.bins[bin].remove(i);
        if self.bins[bin].is_empty() {
            self.nonempty &= !(1 << bin);
        }
        c
    }

    /// Pools `[start, start + len)` as it is: one push, no merging.
    fn insert(&mut self, start: u32, len: u32) {
        self.push(Chunk::new(start, len));
        self.free_granules += len as u64;
        self.merged = false;
    }

    /// [`FreeLists::merge`] on the locked pool: one sorted pass, then the
    /// bins are refilled from the runs in address order.
    fn merge(&mut self) {
        if self.merged {
            return;
        }
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        for bin in &mut self.bins {
            runs.extend(bin.drain(..).map(|c| (c.start as u64) << 32 | c.len as u64));
        }
        self.nonempty = 0;
        runs.sort_unstable();
        // `dedup_by` passes each chunk with the run kept before it: a
        // chunk that starts where the run ends joins it (a run's length
        // is the sum of its chunks', below 2³²).
        runs.dedup_by(|next, run| {
            let (start, end) = (*next >> 32, (*run >> 32) + (*run as u32 as u64));
            assert!(start >= end, "free chunks overlap at granule {start}");
            if start == end {
                *run += *next as u32 as u64;
            }
            start == end
        });
        for &r in &runs {
            self.push(Chunk::new((r >> 32) as u32, r as u32));
        }
        self.runs = runs;
        self.merged = true;
    }

    /// The lowest non-empty bin at or above `from`.
    fn lowest_bin_from(&self, from: usize) -> Option<usize> {
        let above = self.nonempty & u128::MAX.checked_shl(from as u32).unwrap_or(0);
        (above != 0).then(|| above.trailing_zeros() as usize)
    }

    /// The highest non-empty bin.
    fn highest_bin(&self) -> Option<usize> {
        self.nonempty.checked_ilog2().map(|bin| bin as usize)
    }

    /// The `(bin, index)` good fit picks for (`min`, `preferred`): see the
    /// module header.
    fn find(&self, min: u32, preferred: u32) -> Option<(usize, usize)> {
        if let Some(bin) = self.lowest_bin_from(bin_fitting(preferred)) {
            return Some((bin, self.bins[bin].len() - 1));
        }
        let bin = self.highest_bin().filter(|&bin| bin >= bin_of(min))?;
        // Every chunk of a bin above `min`'s fits: the search goes past
        // the top only in `min`'s own bin.
        let i = self.bins[bin].iter().rposition(|c| c.len >= min)?;
        Some((bin, i))
    }

    /// Good fit, retried once after a merge when nothing fits, so `None`
    /// means no run of `min` free granules exists.
    fn alloc(&mut self, min: u32, preferred: u32) -> Option<Chunk> {
        let (bin, i) = match self.find(min, preferred) {
            None if !self.merged => {
                self.merge();
                self.find(min, preferred)
            }
            found => found,
        }?;
        let Chunk { start, len } = self.bins[bin][i];
        if len <= preferred {
            self.free_granules -= len as u64;
            return Some(self.take(bin, i));
        }
        // Split: the remainder keeps its end, and its place in the bin
        // unless its class changed.
        let rest = Chunk::new(start + preferred, len - preferred);
        if bin_of(rest.len) == bin {
            self.bins[bin][i] = rest;
        } else {
            self.take(bin, i);
            self.push(rest);
        }
        self.free_granules -= preferred as u64;
        Some(Chunk::new(start, preferred))
    }

    /// [`FreeLists::exchange`] on the locked pool.
    fn exchange(&mut self, give: &[Chunk], min: u32, budget: u32, out: &mut Vec<Chunk>) {
        give.iter().for_each(|&c| self.insert(c.start, c.len));
        let mut left = budget;
        while out.len() < LAB_MAX_HOLES && left >= min {
            let Some(c) = self.alloc(min, left) else {
                break;
            };
            left -= c.len;
            out.push(c);
        }
    }

    /// Every pooled chunk, sorted by start.
    fn snapshot(&self) -> Vec<Chunk> {
        let mut out: Vec<Chunk> = self.bins.concat();
        out.sort_unstable_by_key(|c| c.start);
        out
    }
}

/// Thread-safe free lists.
#[derive(Debug)]
pub struct FreeLists {
    inner: Mutex<Pool>,
    /// Mirror of the pool's `free_granules`, stored before every unlock
    /// so that reading the total takes no lock.  Release store, acquire
    /// load: a reader of a total also sees the frontier bump that carved
    /// every chunk counted in it (`HeapSpace::used_granules` relies on it).
    free: AtomicU64,
}

impl Default for FreeLists {
    fn default() -> Self {
        Self::new()
    }
}

impl FreeLists {
    /// Creates an empty pool.
    pub fn new() -> FreeLists {
        FreeLists {
            inner: Mutex::new(Pool::new()),
            free: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the locked pool and republishes the free total.
    fn locked<R>(&self, f: impl FnOnce(&mut Pool) -> R) -> R {
        let mut p = self.inner.lock();
        let r = f(&mut p);
        self.free.store(p.free_granules, Ordering::Release);
        r
    }

    /// Inserts free chunks under a single lock acquisition, each as it
    /// is (touching chunks stay apart until the next [`merge`](Self::merge));
    /// a single chunk is a batch of one.
    pub fn insert_batch(&self, chunks: &[Chunk]) {
        if chunks.is_empty() {
            return;
        }
        self.locked(|p| chunks.iter().for_each(|&c| p.insert(c.start, c.len)));
    }

    /// Merges touching pooled chunks into maximal runs; does nothing if
    /// nothing was inserted since the last merge.
    ///
    /// # Panics
    ///
    /// Panics if two pooled chunks overlap (space freed twice).
    pub fn merge(&self) {
        self.locked(Pool::merge);
    }

    /// Allocates at least `min` granules, preferring a chunk of up to
    /// `preferred`.  Takes a chunk from the lowest size class that
    /// guarantees `preferred` (split to `preferred`), falling back to a
    /// chunk of at least `min` from the highest non-empty class; if
    /// neither fits, merges and looks once more.  Returns `None` when no
    /// run of at least `min` free granules exists.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `preferred < min`, or as [`merge`](Self::merge).
    pub fn alloc(&self, min: u32, preferred: u32) -> Option<Chunk> {
        assert!(
            min > 0 && preferred >= min,
            "bad alloc request {min}/{preferred}"
        );
        self.locked(|p| p.alloc(min, preferred))
    }

    /// Gives back, then takes, in one critical section — a LAB's whole
    /// traffic with the pool (DESIGN.md §4.13).  Exactly
    /// `insert_batch(give)` followed by
    /// `alloc(min, budget − taken so far)` until the budget cannot cover
    /// another `min`, [`LAB_MAX_HOLES`] chunks are out, or the pool has
    /// no run of `min` left: the same chunks in the same order, for one
    /// lock acquisition.  The chunks are appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `budget < min`, or as [`merge`](Self::merge).
    pub fn exchange(&self, give: &[Chunk], min: u32, budget: u32, out: &mut Vec<Chunk>) {
        assert!(min > 0 && budget >= min, "bad exchange {min}/{budget}");
        self.locked(|p| p.exchange(give, min, budget, out));
    }

    /// Total free granules in the pool.
    #[inline]
    pub fn free_granules(&self) -> u64 {
        self.free.load(Ordering::Acquire)
    }

    /// The largest available chunk length.
    #[cfg(test)]
    pub fn largest_chunk(&self) -> u32 {
        self.snapshot().iter().map(|c| c.len).max().unwrap_or(0)
    }

    /// Number of pooled chunks.
    #[cfg(test)]
    pub fn chunk_count(&self) -> usize {
        self.snapshot().len()
    }

    /// A copy of every chunk currently in the pool, sorted by
    /// start (diagnostics); touching chunks show apart until a merge.
    pub fn snapshot(&self) -> Vec<Chunk> {
        self.inner.lock().snapshot()
    }
}

#[cfg(test)]
impl Pool {
    /// Asserts the pool invariants plus the granule count.
    fn check(&self) {
        let mut granules = 0;
        for (bin, chunks) in self.bins.iter().enumerate() {
            let bit = self.nonempty >> bin & 1 == 1;
            assert_eq!(bit, !chunks.is_empty(), "bitmap out of step with bin {bin}");
            for c in chunks {
                assert_eq!(bin_of(c.len), bin, "{c:?} in the wrong bin");
                granules += c.len as u64;
            }
        }
        assert_eq!(self.free_granules, granules);
        if self.merged {
            let snap = self.snapshot();
            assert!(
                snap.windows(2).all(|w| w[0].end() < w[1].start),
                "not merged"
            );
        }
    }
}

/// The pool this one replaced — two ordered indexes, best fit — kept as
/// the reference the property test compares against.
#[cfg(test)]
mod oracle {
    use super::Chunk;
    use std::collections::BTreeMap;

    #[derive(Debug, Default)]
    pub struct Pool {
        /// start granule -> length.
        pub runs: BTreeMap<u32, u32>,
        /// (length, start) -> (); ordered for best-fit queries.
        pub by_size: BTreeMap<(u32, u32), ()>,
        pub free_granules: u64,
    }

    impl Pool {
        pub fn remove(&mut self, start: u32, len: u32) {
            assert_eq!(self.runs.remove(&start), Some(len));
            assert!(self.by_size.remove(&(len, start)).is_some());
            self.free_granules -= len as u64;
        }

        pub fn add(&mut self, start: u32, len: u32) {
            self.runs.insert(start, len);
            self.by_size.insert((len, start), ());
            self.free_granules += len as u64;
        }

        /// Inserts with immediate coalescing against both neighbors.
        pub fn insert_merging(&mut self, chunk: Chunk) {
            let mut start = chunk.start;
            let mut len = chunk.len;
            if let Some((&p_start, &p_len)) = self.runs.range(..start).next_back() {
                assert!(p_start + p_len <= start, "overlapping free chunks");
                if p_start + p_len == start {
                    self.remove(p_start, p_len);
                    start = p_start;
                    len += p_len;
                }
            }
            if let Some((&s_start, &s_len)) = self.runs.range(start + len..).next() {
                if s_start == start + len {
                    self.remove(s_start, s_len);
                    len += s_len;
                }
            }
            self.add(start, len);
        }

        /// Takes exactly `chunk` out of the run that contains it.
        pub fn carve(&mut self, chunk: Chunk) {
            let (&start, &len) = self.runs.range(..=chunk.start).next_back().unwrap();
            assert!(start + len >= chunk.end(), "{chunk:?} is not wholly free");
            self.remove(start, len);
            if chunk.start > start {
                self.add(start, chunk.start - start);
            }
            if start + len > chunk.end() {
                self.add(chunk.end(), start + len - chunk.end());
            }
        }

        pub fn largest(&self) -> u32 {
            self.by_size.keys().next_back().map_or(0, |&(len, _)| len)
        }

        /// Every pooled chunk, sorted by start.
        pub fn chunks(&self) -> Vec<Chunk> {
            let runs = self.runs.iter();
            runs.map(|(&start, &len)| Chunk::new(start, len)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otf_support::check::{run_cases, Gen};
    use std::sync::Barrier;

    #[test]
    fn exact_alloc() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(10, 4)]);
        assert_eq!(f.free_granules(), 4);
        let c = f.alloc(4, 4).unwrap();
        assert_eq!(c, Chunk::new(10, 4));
        assert_eq!(f.free_granules(), 0);
        assert!(f.alloc(1, 1).is_none());
    }

    #[test]
    fn split_returns_remainder() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 100)]);
        let c = f.alloc(8, 8).unwrap();
        assert_eq!(c.len, 8);
        assert_eq!(f.free_granules(), 92);
        let rest = f.alloc(92, 92).unwrap();
        assert_eq!(rest, Chunk::new(8, 92));
    }

    #[test]
    fn bins_partition_lengths_in_order() {
        let mut lens: Vec<u32> = (1..5000).collect();
        lens.extend((13..32).flat_map(|p| [(1 << p) - 1, 1 << p, (1 << p) + 1]));
        lens.push(u32::MAX);
        for w in lens.windows(2) {
            let (a, b) = (bin_of(w[0]), bin_of(w[1]));
            assert!(a <= b && b < BINS - 1, "bins out of order at {w:?}");
        }
        for &len in &lens {
            // Only from its lowest length up does a bin guarantee `len`.
            let lowest = len == 1 || bin_of(len - 1) < bin_of(len);
            assert_eq!(bin_fitting(len), bin_of(len) + usize::from(!lowest));
            assert!(len >= 2 << SUB_LOG || bin_of(len) == len as usize);
        }
    }

    #[test]
    fn exact_request_takes_the_exact_bin_before_splitting() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 50)]);
        f.insert_batch(&[Chunk::new(100, 10)]);
        assert_eq!(f.alloc(10, 10), Some(Chunk::new(100, 10)));
        assert_eq!(f.chunk_count(), 1, "the big run was not split");
    }

    #[test]
    fn lab_refill_skips_fragments_when_a_full_lab_fits() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 3)]);
        f.insert_batch(&[Chunk::new(100, 200)]);
        // min 2, preferred 64: must NOT hand out the 3-granule fragment.
        assert_eq!(f.alloc(2, 64), Some(Chunk::new(100, 64)));
        assert_eq!(f.free_granules(), 3 + 136);
    }

    #[test]
    fn falls_back_to_the_highest_class_below_preferred() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 3)]);
        f.insert_batch(&[Chunk::new(100, 30)]);
        f.insert_batch(&[Chunk::new(200, 5)]);
        assert_eq!(f.alloc(2, 64), Some(Chunk::new(100, 30)));
        assert_eq!(f.alloc(4, 64), Some(Chunk::new(200, 5)));
        assert_eq!(f.alloc(4, 64), None, "only the 3-granule fragment is left");
    }

    #[test]
    fn fallback_searches_min_own_log_bin() {
        // 65 and 75 share a bin and no higher bin is occupied: the walk
        // starts at the head (75, inserted last), split to `preferred`.
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 65)]);
        f.insert_batch(&[Chunk::new(100, 75)]);
        assert_eq!(bin_of(65), bin_of(75));
        assert_eq!(f.alloc(70, 72), Some(Chunk::new(100, 72)));
        // The 3-granule tail went to a lower bin: the walk sees only 65.
        assert_eq!(f.alloc(66, 70), None);
        assert_eq!(f.alloc(65, 70), Some(Chunk::new(0, 65)));
    }

    #[test]
    fn same_call_sequence_same_chunks() {
        let run = || {
            let f = FreeLists::new();
            let mut got = Vec::new();
            for i in 0..400u32 {
                f.insert_batch(&[Chunk::new(i * 40, 1 + i * 7 % 31)]);
                if i % 3 == 0 {
                    got.push(f.alloc(2, 16));
                }
            }
            got.extend((0..200).map(|_| f.alloc(3, 2048)));
            got
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn coalesces_with_predecessor_and_successor() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 10)]);
        f.insert_batch(&[Chunk::new(20, 10)]);
        assert_eq!(f.chunk_count(), 2);
        // The middle piece glues everything into one run at the merge.
        f.insert_batch(&[Chunk::new(10, 10)]);
        assert_eq!(f.chunk_count(), 3);
        f.merge();
        assert_eq!(f.chunk_count(), 1);
        assert_eq!(f.largest_chunk(), 30);
        let c = f.alloc(30, 30).unwrap();
        assert_eq!(c, Chunk::new(0, 30));
    }

    #[test]
    fn no_coalescing_across_gaps() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 5)]);
        f.insert_batch(&[Chunk::new(6, 5)]); // gap at granule 5
        f.merge();
        assert_eq!(f.chunk_count(), 2);
        assert_eq!(f.largest_chunk(), 5);
    }

    #[test]
    fn fragmentation_heals() {
        // Allocate many small pieces out of one run, free them all in a
        // scrambled order: the pool must return to a single chunk.
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 1024)]);
        let mut held = Vec::new();
        while let Some(c) = f.alloc(7, 7) {
            held.push(c);
        }
        // Consume any remainder too.
        while let Some(c) = f.alloc(1, 7) {
            held.push(c);
        }
        assert_eq!(f.free_granules(), 0);
        held.reverse();
        let mid = held.len() / 2;
        held.swap(0, mid);
        f.insert_batch(&held);
        assert_eq!(f.chunk_count(), held.len());
        f.merge();
        assert_eq!(f.chunk_count(), 1);
        assert_eq!(f.largest_chunk(), 1024);
    }

    /// Touching chunks pooled by separate batches are separate records
    /// until a merge makes them one.
    #[test]
    fn touching_chunks_stay_apart_until_merge() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 10)]);
        f.insert_batch(&[Chunk::new(10, 10)]);
        assert_eq!(f.snapshot(), [Chunk::new(0, 10), Chunk::new(10, 10)]);
        assert!(!f.inner.lock().merged);
        f.merge();
        f.inner.lock().check();
        assert_eq!(f.snapshot(), [Chunk::new(0, 20)]);
    }

    /// A request that only the union of touching records can serve merges
    /// them and gets the union.
    #[test]
    fn request_that_finds_nothing_merges_and_retries() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 10)]);
        f.insert_batch(&[Chunk::new(10, 10)]);
        f.insert_batch(&[Chunk::new(30, 5)]);
        assert_eq!(f.alloc(15, 15), Some(Chunk::new(0, 15)));
        let p = f.inner.lock();
        assert!(p.merged);
        p.check();
        assert_eq!(p.snapshot(), [Chunk::new(15, 5), Chunk::new(30, 5)]);
    }

    /// A failing request after a merge, with nothing inserted since, does
    /// not sort again, and neither does a merge: a record slipped in
    /// behind the flag stays apart.
    #[test]
    fn second_failing_request_does_not_merge_again() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 10)]);
        f.insert_batch(&[Chunk::new(10, 10)]);
        assert_eq!(f.alloc(30, 30), None);
        let mut p = f.inner.lock();
        assert!(p.merged);
        assert_eq!(p.snapshot(), [Chunk::new(0, 20)]);
        p.insert(20, 5);
        p.merged = true;
        assert_eq!(p.alloc(25, 25), None);
        p.merge();
        assert_eq!(p.snapshot(), [Chunk::new(0, 20), Chunk::new(20, 5)]);
    }

    /// Space freed twice overlaps itself, and the merge refuses it.
    #[test]
    #[should_panic(expected = "overlap")]
    fn merge_panics_on_overlapping_records() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(0, 10)]);
        f.insert_batch(&[Chunk::new(5, 10)]);
        f.merge();
    }

    /// Granules of the test span; everything not in the pool is "held".
    const SPAN: u32 = 1 << 13;

    /// Cuts the held granules of `[from, to)` into an address-sorted batch
    /// of runs no longer than `max_len`, marking them free; `keep` decides
    /// per run whether to leave it held instead (a live object).
    fn cut_runs(
        held: &mut [bool],
        (from, to): (u32, u32),
        max_len: u32,
        g: &mut Gen,
        keep: impl Fn(&mut Gen) -> bool,
    ) -> Vec<Chunk> {
        let mut batch = Vec::new();
        let mut at = from;
        while at < to {
            let want = g.u32_in(1..max_len + 1);
            let end = (at..to.min(at + want))
                .find(|&i| !held[i as usize])
                .unwrap_or(to.min(at + want));
            if end > at && !keep(g) {
                held[at as usize..end as usize].fill(false);
                batch.push(Chunk::new(at, end - at));
            }
            at = end.max(at + 1);
        }
        batch
    }

    /// `chunks` (sorted by start) with touching neighbours joined: the
    /// runs a merge would leave.
    fn coalesced(chunks: Vec<Chunk>) -> Vec<Chunk> {
        let mut out: Vec<Chunk> = Vec::new();
        for c in chunks {
            match out.last_mut() {
                Some(last) if last.end() == c.start => last.len += c.len,
                Some(last) => {
                    assert!(last.end() < c.start, "{last:?} overlaps {c:?}");
                    out.push(c);
                }
                None => out.push(c),
            }
        }
        out
    }

    /// Differential test against the old two-`BTreeMap` pool.  The new
    /// pool may pick a different chunk than best fit would, so each
    /// `alloc` result is carved out of the oracle; every other operation
    /// is applied to both.  After every step the pool's records, joined
    /// where they touch, are the oracle's chunks; after a merge (a sweep's
    /// end, at random) the records themselves are — disjoint and maximal,
    /// because the oracle coalesces through an ordered index.
    #[test]
    fn pool_matches_btree_oracle() {
        run_cases("pool_matches_btree_oracle", 0xB175, 96, |g| {
            let f = FreeLists::new();
            let mut oracle = oracle::Pool::default();
            let mut held = vec![true; SPAN as usize];
            for _ in 0..g.usize_in(1..160) {
                let from = g.u32_in(1..SPAN);
                let to = g.u32_in(from..SPAN) + 1;
                match g.usize_in(0..4) {
                    // One chunk (a retired LAB, a large object).
                    0 => {
                        let to = to.min(from + 300);
                        for c in cut_runs(&mut held, (from, to), to - from, g, |_| false) {
                            f.insert_batch(&[c]);
                            oracle.insert_merging(c);
                        }
                    }
                    // A sweep-shaped batch: address-sorted dead runs with
                    // live objects left standing between some of them.
                    1 => {
                        let batch = cut_runs(&mut held, (from, to), 12, g, |g| g.bool());
                        f.insert_batch(&batch);
                        for &c in &batch {
                            oracle.insert_merging(c);
                        }
                    }
                    // A LAB refill or an exact request; a LAB's unused
                    // tail comes straight back.
                    _ => {
                        let min = g.u32_in(1..100);
                        let preferred = if g.bool() { min } else { g.u32_in(min..2049) };
                        let got = f.alloc(min, preferred);
                        assert_eq!(got.is_some(), oracle.largest() >= min, "{min}/{preferred}");
                        if let Some(c) = got {
                            assert!(
                                min <= c.len && c.len <= preferred,
                                "{c:?} for {min}/{preferred}"
                            );
                            assert!(held[c.start as usize..c.end() as usize].iter().all(|&h| !h));
                            held[c.start as usize..c.end() as usize].fill(true);
                            oracle.carve(c);
                            let used = g.u32_in(min..c.len + 1);
                            if used < c.len {
                                let tail = Chunk::new(c.start + used, c.len - used);
                                held[tail.start as usize..tail.end() as usize].fill(false);
                                f.insert_batch(&[tail]);
                                oracle.insert_merging(tail);
                            }
                        }
                    }
                }
                f.inner.lock().check();
                assert_eq!(f.free_granules(), oracle.free_granules);
                assert_eq!(coalesced(f.snapshot()), oracle.chunks());
                if g.bool() {
                    f.merge();
                    f.inner.lock().check();
                    let snap = f.snapshot();
                    assert!(
                        snap.windows(2).all(|w| w[0].end() < w[1].start),
                        "not maximal runs"
                    );
                    assert_eq!(snap, oracle.chunks());
                    assert_eq!(f.largest_chunk(), oracle.largest());
                }
            }
        });
    }

    /// `alloc` shrinks a longer chunk where it sits: same place in its
    /// bin, same end, a new bin only when the remainder changes class.
    #[test]
    fn split_keeps_the_record_and_rebins_only_across_classes() {
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(100, 1000)]);
        f.insert_batch(&[Chunk::new(5000, 900)]);
        let mut p = f.inner.lock();
        // 900 → 896 stays in its bin, at its top; 896 → 40 does not.
        assert_eq!(bin_of(900), bin_of(896));
        assert_eq!(p.alloc(4, 4), Some(Chunk::new(5000, 4)));
        p.check();
        assert_eq!(p.bins[bin_of(896)].last(), Some(&Chunk::new(5004, 896)));
        assert_eq!(p.alloc(856, 856), Some(Chunk::new(5004, 856)));
        p.check();
        assert_eq!(p.bins[bin_of(40)].last(), Some(&Chunk::new(5860, 40)));
        assert_eq!(p.bins[bin_of(1000)], [Chunk::new(100, 1000)]);
        assert_eq!(p.snapshot(), [Chunk::new(100, 1000), Chunk::new(5860, 40)]);
        assert_eq!(p.free_granules, 1040);
    }

    /// Good fit's choices rest on each bin's order: taking a chunk out of
    /// the middle of a bin must leave the others where they were.
    #[test]
    fn a_bin_keeps_its_order_across_a_middle_removal() {
        let f = FreeLists::new();
        for c in [(0, 65), (100, 75), (200, 66), (300, 67)] {
            f.insert_batch(&[Chunk::new(c.0, c.1)]);
        }
        assert!([75, 66, 67].iter().all(|&len| bin_of(len) == bin_of(65)));
        assert_eq!(f.alloc(70, 72), Some(Chunk::new(100, 72)));
        assert_eq!(f.alloc(64, 64), Some(Chunk::new(300, 64)));
        assert_eq!(f.alloc(64, 64), Some(Chunk::new(200, 64)));
        assert_eq!(f.alloc(64, 64), Some(Chunk::new(0, 64)));
    }

    /// `exchange` against the calls it stands for — `insert_batch` of the
    /// chunks given, then `alloc` while the budget lasts — on a twin pool:
    /// the same chunks in the same order.  The B-tree oracle follows both
    /// (every chunk taken is carved out of it): the pool's records, joined
    /// where they touch, are its chunks, and after a merge of both pools
    /// (at random) the records themselves are.  `Pool::check` runs after
    /// every step.
    #[test]
    fn exchange_matches_inserts_then_allocs() {
        use std::cell::Cell;
        // Steps that split a chunk at least as long as what was left of
        // the budget, and steps that found only shorter ones.
        let (split, whole) = (Cell::new(0), Cell::new(0));
        run_cases("exchange_matches_inserts_then_allocs", 0xE8C4, 96, |g| {
            let (f, twin) = (FreeLists::new(), FreeLists::new());
            let mut oracle = oracle::Pool::default();
            let mut held = vec![true; SPAN as usize];
            for _ in 0..g.usize_in(1..60) {
                // What a LAB hands back: tails and skipped holes, a few
                // granules each — or, now and then, one long run.
                let from = g.u32_in(1..SPAN);
                let to = g.u32_in(from..SPAN) + 1;
                let give = if g.usize_in(0..4) == 0 {
                    let to = to.min(from + 400);
                    cut_runs(&mut held, (from, to), to - from, g, |_| false)
                } else {
                    let to = to.min(from + 600);
                    cut_runs(&mut held, (from, to), 12, g, |g| g.bool())
                };
                let min = g.u32_in(1..12);
                let budget = if g.bool() {
                    g.u32_in(min..65)
                } else {
                    g.u32_in(min..2049)
                };

                let mut got = Vec::new();
                f.exchange(&give, min, budget, &mut got);
                f.inner.lock().check();

                let mut want = Vec::new();
                let mut left = budget;
                twin.insert_batch(&give);
                for &c in &give {
                    oracle.insert_merging(c);
                }
                while want.len() < LAB_MAX_HOLES && left >= min {
                    let Some(c) = twin.alloc(min, left) else {
                        break;
                    };
                    if c.len == left && oracle.largest() > left {
                        split.set(split.get() + 1);
                    } else {
                        whole.set(whole.get() + 1);
                    }
                    left -= c.len;
                    want.push(c);
                    assert!(held[c.start as usize..c.end() as usize].iter().all(|&h| !h));
                    held[c.start as usize..c.end() as usize].fill(true);
                    oracle.carve(c);
                }
                assert_eq!(got, want, "exchange({give:?}, {min}, {budget})");
                assert!(
                    got.len() == LAB_MAX_HOLES || left < min || oracle.largest() < min,
                    "stopped early: {left} of {budget} left, min {min}"
                );
                assert!(got.iter().all(|c| c.len >= min));

                assert_eq!(f.free_granules(), oracle.free_granules);
                assert_eq!(f.snapshot(), twin.snapshot());
                assert_eq!(coalesced(f.snapshot()), oracle.chunks());
                if g.bool() {
                    f.merge();
                    twin.merge();
                    assert_eq!(f.snapshot(), oracle.chunks());
                    assert_eq!(twin.snapshot(), oracle.chunks());
                }
            }
        });
        assert!(split.get() > 50 && whole.get() > 50, "{split:?} {whole:?}");
    }

    /// Two threads allocate from and free into one pool at once; nothing
    /// is lost or duplicated, and when everything is back the pool merges
    /// to one run again.
    #[test]
    fn two_thread_churn_conserves_granules() {
        const TOTAL: u32 = 1 << 16;
        let f = FreeLists::new();
        f.insert_batch(&[Chunk::new(1, TOTAL)]);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    let mut held: Vec<Chunk> = Vec::new();
                    start.wait();
                    for i in 0..20_000u32 {
                        let min = 1 + (i * 7 + t) % 24;
                        if let Some(c) = f.alloc(min, if i % 2 == 0 { 256 } else { min }) {
                            // Keep the front, hand the LAB tail back.
                            let keep = min.max(c.len / 2);
                            if keep < c.len {
                                f.insert_batch(&[Chunk::new(c.start + keep, c.len - keep)]);
                            }
                            held.push(Chunk::new(c.start, keep));
                        }
                        if held.len() > 64 {
                            let at = (i as usize * 31) % held.len();
                            let batch: Vec<Chunk> = held.drain(at.min(held.len() - 16)..).collect();
                            f.insert_batch(&batch);
                        }
                    }
                    f.insert_batch(&held);
                });
            }
        });
        f.inner.lock().check();
        f.merge();
        assert_eq!(f.snapshot(), vec![Chunk::new(1, TOTAL)]);
        assert_eq!(f.free_granules(), TOTAL as u64);
    }
}
