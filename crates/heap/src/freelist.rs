//! The coalescing free-space pool of the non-moving heap.
//!
//! Free space is tracked as `(start granule, length)` chunks under one
//! lock.  Chunk records live in a side slab *outside* the heap memory, so
//! free space needs no parseable headers and the concurrent sweep never
//! reads metadata out of free memory.  Each record is linked into one of
//! 124 **size-class bins** (one per length below 8, four per power of two
//! above) and indexed by two exact-key **boundary maps**,
//! `start → record` and `end → record`.  A freed chunk merges with
//! adjacent free neighbors immediately — exactly like the JVM heap
//! manager the paper's collector lived in — by looking its own two
//! boundaries up in those maps, and a non-empty-bin bitmap makes
//! allocation a bit scan.  Nothing orders chunks by address or by size,
//! so insert, coalesce and allocate are O(1) (DESIGN.md §4.11).
//!
//! Allocation policy (**good fit**): a request of (`min`, `preferred`)
//! granules takes the head of the lowest non-empty bin whose every chunk
//! holds `preferred`, and splits it; if there is none it takes a chunk of
//! at least `min` from the *highest* non-empty bin — so LAB refills
//! (`preferred ≫ min`) get big contiguous runs when available and degrade
//! gracefully on a tight heap.  Bins are LIFO, so which chunk is taken
//! depends only on the sequence of calls.
//!
//! The pool is indifferent to which thread performs reclamation: sweep
//! batches arrive from collector workers in the eager back-end and from
//! allocating mutators in the lazy one (DESIGN.md §4.6), always through
//! the same insert paths under the same lock.

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

/// "No record": ends a bin list, the spare-slot chain, and marks a list
/// head's `prev`.
const NIL: u32 = u32::MAX;

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

/// An exact-key `granule → record` table: open addressing with linear
/// probing at no more than half load, backward-shift deletion (no
/// tombstones), grown on demand from empty.
#[derive(Debug, Default)]
struct BoundaryMap {
    /// `key << 32 | record`, or `EMPTY`; the length is zero or a power of
    /// two.
    slots: Vec<u64>,
    len: usize,
}

/// No live slot equals this: a record index is never `NIL`.
const EMPTY: u64 = u64::MAX;

impl BoundaryMap {
    /// Home slot of `key` (Fibonacci hashing: sweep batches arrive as
    /// arithmetic progressions of addresses, which this spreads evenly).
    #[inline]
    fn home(&self, key: u32) -> usize {
        key.wrapping_mul(0x9E37_79B9) as usize >> (32 - self.slots.len().trailing_zeros())
    }

    /// The slot holding `key`.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if (s >> 32) as u32 == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, key: u32) -> Option<u32> {
        self.find(key).map(|i| self.slots[i] as u32)
    }

    fn insert(&mut self, key: u32, record: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != EMPTY {
            debug_assert_ne!((self.slots[i] >> 32) as u32, key, "boundary {key} twice");
            i = (i + 1) & mask;
        }
        self.slots[i] = (key as u64) << 32 | record as u64;
        self.len += 1;
    }

    fn remove(&mut self, key: u32) {
        let mut hole = self.find(key).expect("every pooled chunk is mapped");
        // Pull each follower of the probe run back into the hole unless
        // its home lies cyclically after the hole.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s == EMPTY {
                break;
            }
            let home = self.home((s >> 32) as u32);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    fn grow(&mut self) {
        let bigger = vec![EMPTY; (self.slots.len() * 2).max(16)];
        let old = std::mem::replace(&mut self.slots, bigger);
        self.len = 0;
        for s in old.into_iter().filter(|&s| s != EMPTY) {
            self.insert((s >> 32) as u32, s as u32);
        }
    }
}

/// A pooled chunk's record: its extent and its links in its bin's list.
#[derive(Copy, Clone, Debug)]
struct Node {
    start: u32,
    len: u32,
    prev: u32,
    next: u32,
}

/// Invariants (checked by the tests' `Pool::check`): a bin's bitmap bit is
/// set exactly when its list is non-empty and every record sits in
/// `bin_of(len)`; both boundary maps hold every pooled chunk; no pooled
/// chunk ends where another starts.
#[derive(Debug)]
struct Pool {
    /// The record slab; unused slots are chained from `spare` by `next`.
    nodes: Vec<Node>,
    spare: u32,
    /// Head record of each bin's doubly linked LIFO list.
    heads: [u32; BINS],
    /// Bit `b` set = bin `b` is non-empty.
    nonempty: u128,
    by_start: BoundaryMap,
    by_end: BoundaryMap,
    free_granules: u64,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            nodes: Vec::new(),
            spare: NIL,
            heads: [NIL; BINS],
            nonempty: 0,
            by_start: BoundaryMap::default(),
            by_end: BoundaryMap::default(),
            free_granules: 0,
        }
    }

    /// Links record `n` at the head of `bin`'s list.
    fn link(&mut self, n: u32, bin: usize) {
        let head = self.heads[bin];
        self.nodes[n as usize].prev = NIL;
        self.nodes[n as usize].next = head;
        if head != NIL {
            self.nodes[head as usize].prev = n;
        }
        self.heads[bin] = n;
        self.nonempty |= 1 << bin;
    }

    /// Unlinks record `n` from its bin's list.
    fn unlink(&mut self, n: u32) {
        let node = self.nodes[n as usize];
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        }
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            let bin = bin_of(node.len);
            self.heads[bin] = node.next;
            if node.next == NIL {
                self.nonempty &= !(1 << bin);
            }
        }
    }

    /// Pools `[start, start + len)` as it is, without coalescing.
    fn add(&mut self, start: u32, len: u32) {
        debug_assert!(len > 0);
        let node = Node {
            start,
            len,
            prev: NIL,
            next: NIL,
        };
        let n = if self.spare == NIL {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        } else {
            let n = self.spare;
            self.spare = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.link(n, bin_of(len));
        self.by_start.insert(start, n);
        self.by_end.insert(start + len, n);
        self.free_granules += len as u64;
    }

    /// Unpools record `n` and returns its chunk.
    fn remove(&mut self, n: u32) -> Chunk {
        let node = self.nodes[n as usize];
        self.unlink(n);
        self.nodes[n as usize].next = self.spare;
        self.spare = n;
        self.by_start.remove(node.start);
        self.by_end.remove(node.start + node.len);
        self.free_granules -= node.len as u64;
        Chunk::new(node.start, node.len)
    }

    /// Inserts with immediate coalescing against both neighbors.
    fn insert_coalescing(&mut self, chunk: Chunk) {
        debug_assert!(self.by_start.get(chunk.start).is_none(), "double free");
        let (mut start, mut end) = (chunk.start, chunk.end());
        if let Some(pred) = self.by_end.get(start) {
            start = self.remove(pred).start;
        }
        if let Some(succ) = self.by_start.get(end) {
            end = self.remove(succ).end();
        }
        self.add(start, end - start);
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

    /// Good fit: see the module header.
    fn alloc(&mut self, min: u32, preferred: u32) -> Option<Chunk> {
        let n = match self.lowest_bin_from(bin_fitting(preferred)) {
            Some(bin) => self.heads[bin],
            None => {
                let bin = self.highest_bin().filter(|&bin| bin >= bin_of(min))?;
                // Every chunk of a bin above `min`'s fits: the walk goes
                // past the head only in `min`'s own bin.
                let mut n = self.heads[bin];
                while self.nodes[n as usize].len < min {
                    n = self.nodes[n as usize].next;
                    if n == NIL {
                        return None;
                    }
                }
                n
            }
        };
        let Node { start, len, .. } = self.nodes[n as usize];
        if len <= preferred {
            return Some(self.remove(n));
        }
        // Split in place: the record keeps its slot and its end, so only
        // the start key moves, and the bin only if the class changed.
        let rest = len - preferred;
        if bin_of(rest) != bin_of(len) {
            self.unlink(n);
            self.link(n, bin_of(rest));
        }
        let node = &mut self.nodes[n as usize];
        (node.start, node.len) = (start + preferred, rest);
        self.by_start.remove(start);
        self.by_start.insert(start + preferred, n);
        self.free_granules -= preferred as u64;
        Some(Chunk::new(start, preferred))
    }

    /// [`FreeLists::exchange`] on the locked pool.
    fn exchange(&mut self, give: &[Chunk], min: u32, budget: u32, out: &mut Vec<Chunk>) {
        for &c in give {
            self.insert_coalescing(c);
        }
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
        let live = self.by_start.slots.iter().filter(|&&s| s != EMPTY);
        let records = live.map(|&s| self.nodes[s as u32 as usize]);
        let mut out: Vec<Chunk> = records.map(|n| Chunk::new(n.start, n.len)).collect();
        out.sort_unstable_by_key(|c| c.start);
        out
    }
}

/// Thread-safe coalescing free lists.
#[derive(Debug)]
pub struct FreeLists {
    inner: Mutex<Pool>,
    /// Mirror of the pool's `free_granules`, stored before every unlock
    /// so that reading the total takes no lock.
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
        self.free.store(p.free_granules, Ordering::Relaxed);
        r
    }

    /// Inserts a free chunk, merging it with adjacent free space.
    pub fn insert(&self, chunk: Chunk) {
        self.locked(|p| p.insert_coalescing(chunk));
    }

    /// Inserts many chunks under a single lock acquisition (the sweep's
    /// batching path).
    pub fn insert_batch(&self, chunks: &[Chunk]) {
        if chunks.is_empty() {
            return;
        }
        self.locked(|p| chunks.iter().for_each(|&c| p.insert_coalescing(c)));
    }

    /// Allocates at least `min` granules, preferring a chunk of up to
    /// `preferred`.  Takes a chunk from the lowest size class that
    /// guarantees `preferred` (split to `preferred`), falling back to a
    /// chunk of at least `min` from the highest non-empty class.
    /// Returns `None` when no chunk of at least `min` granules exists.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `preferred < min`.
    pub fn alloc(&self, min: u32, preferred: u32) -> Option<Chunk> {
        assert!(
            min > 0 && preferred >= min,
            "bad alloc request {min}/{preferred}"
        );
        self.locked(|p| p.alloc(min, preferred))
    }

    /// Gives back, then takes, in one critical section — a LAB's whole
    /// traffic with the pool (DESIGN.md §4.13).  Exactly
    /// `insert(c)` for every `c` of `give` followed by
    /// `alloc(min, budget − taken so far)` until the budget cannot cover
    /// another `min`, [`LAB_MAX_HOLES`] chunks are out, or the pool has
    /// no chunk of `min` left: the same chunks in the same order, for one
    /// lock acquisition.  The chunks are appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `budget < min`.
    pub fn exchange(&self, give: &[Chunk], min: u32, budget: u32, out: &mut Vec<Chunk>) {
        assert!(min > 0 && budget >= min, "bad exchange {min}/{budget}");
        self.locked(|p| p.exchange(give, min, budget, out));
    }

    /// Total free granules in the pool.
    #[inline]
    pub fn free_granules(&self) -> u64 {
        self.free.load(Ordering::Relaxed)
    }

    /// The largest available chunk length (diagnostics / fragmentation
    /// measurements).
    pub fn largest_chunk(&self) -> u32 {
        self.snapshot().iter().map(|c| c.len).max().unwrap_or(0)
    }

    /// Number of distinct chunks (diagnostics).
    pub fn chunk_count(&self) -> usize {
        self.inner.lock().by_start.len
    }

    /// A copy of every chunk currently in the pool, sorted by start
    /// (diagnostics).
    pub fn snapshot(&self) -> Vec<Chunk> {
        self.inner.lock().snapshot()
    }
}

#[cfg(test)]
impl Pool {
    /// Asserts the three pool invariants plus slab and counter bookkeeping.
    fn check(&self) {
        let mut pooled = 0;
        let mut granules = 0;
        for (bin, &head) in self.heads.iter().enumerate() {
            let bit = self.nonempty >> bin & 1 == 1;
            assert_eq!(bit, head != NIL, "bitmap out of step with bin {bin}");
            let (mut prev, mut n) = (NIL, head);
            while n != NIL {
                let node = self.nodes[n as usize];
                assert_eq!(bin_of(node.len), bin, "{node:?} in the wrong bin");
                assert_eq!(node.prev, prev, "broken back link at {node:?}");
                assert_eq!(self.by_start.get(node.start), Some(n));
                assert_eq!(self.by_end.get(node.start + node.len), Some(n));
                assert_eq!(self.by_end.get(node.start), None, "{node:?} not coalesced");
                pooled += 1;
                granules += node.len as u64;
                (prev, n) = (n, node.next);
            }
        }
        assert_eq!((self.by_start.len, self.by_end.len), (pooled, pooled));
        assert_eq!(self.free_granules, granules);
        let mut spare = 0;
        let mut n = self.spare;
        while n != NIL {
            spare += 1;
            n = self.nodes[n as usize].next;
        }
        assert_eq!(pooled + spare, self.nodes.len(), "leaked slab slot");
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
        pub by_start: BTreeMap<u32, u32>,
        /// (length, start) -> (); ordered for best-fit queries.
        pub by_size: BTreeMap<(u32, u32), ()>,
        pub free_granules: u64,
    }

    impl Pool {
        pub fn remove(&mut self, start: u32, len: u32) {
            assert_eq!(self.by_start.remove(&start), Some(len));
            assert!(self.by_size.remove(&(len, start)).is_some());
            self.free_granules -= len as u64;
        }

        pub fn add(&mut self, start: u32, len: u32) {
            self.by_start.insert(start, len);
            self.by_size.insert((len, start), ());
            self.free_granules += len as u64;
        }

        /// Inserts with immediate coalescing against both neighbors.
        pub fn insert_coalescing(&mut self, chunk: Chunk) {
            let mut start = chunk.start;
            let mut len = chunk.len;
            if let Some((&p_start, &p_len)) = self.by_start.range(..start).next_back() {
                assert!(p_start + p_len <= start, "overlapping free chunks");
                if p_start + p_len == start {
                    self.remove(p_start, p_len);
                    start = p_start;
                    len += p_len;
                }
            }
            if let Some((&s_start, &s_len)) = self.by_start.range(start + len..).next() {
                if s_start == start + len {
                    self.remove(s_start, s_len);
                    len += s_len;
                }
            }
            self.add(start, len);
        }

        /// Takes exactly `chunk` out of the run that contains it.
        pub fn carve(&mut self, chunk: Chunk) {
            let (&start, &len) = self.by_start.range(..=chunk.start).next_back().unwrap();
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
            let runs = self.by_start.iter();
            runs.map(|(&start, &len)| Chunk::new(start, len)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otf_support::check::{run_cases, Gen};
    use std::collections::HashMap;
    use std::sync::Barrier;

    #[test]
    fn exact_alloc() {
        let f = FreeLists::new();
        f.insert(Chunk::new(10, 4));
        assert_eq!(f.free_granules(), 4);
        let c = f.alloc(4, 4).unwrap();
        assert_eq!(c, Chunk::new(10, 4));
        assert_eq!(f.free_granules(), 0);
        assert!(f.alloc(1, 1).is_none());
    }

    #[test]
    fn split_returns_remainder() {
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 100));
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
        f.insert(Chunk::new(0, 50));
        f.insert(Chunk::new(100, 10));
        assert_eq!(f.alloc(10, 10), Some(Chunk::new(100, 10)));
        assert_eq!(f.chunk_count(), 1, "the big run was not split");
    }

    #[test]
    fn lab_refill_skips_fragments_when_a_full_lab_fits() {
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 3));
        f.insert(Chunk::new(100, 200));
        // min 2, preferred 64: must NOT hand out the 3-granule fragment.
        assert_eq!(f.alloc(2, 64), Some(Chunk::new(100, 64)));
        assert_eq!(f.free_granules(), 3 + 136);
    }

    #[test]
    fn falls_back_to_the_highest_class_below_preferred() {
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 3));
        f.insert(Chunk::new(100, 30));
        f.insert(Chunk::new(200, 5));
        assert_eq!(f.alloc(2, 64), Some(Chunk::new(100, 30)));
        assert_eq!(f.alloc(4, 64), Some(Chunk::new(200, 5)));
        assert_eq!(f.alloc(4, 64), None, "only the 3-granule fragment is left");
    }

    #[test]
    fn fallback_searches_min_own_log_bin() {
        // 65 and 75 share a bin and no higher bin is occupied: the walk
        // starts at the head (75, inserted last), split to `preferred`.
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 65));
        f.insert(Chunk::new(100, 75));
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
                f.insert(Chunk::new(i * 40, 1 + i * 7 % 31));
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
        f.insert(Chunk::new(0, 10));
        f.insert(Chunk::new(20, 10));
        assert_eq!(f.chunk_count(), 2);
        // The middle piece glues everything into one run.
        f.insert(Chunk::new(10, 10));
        assert_eq!(f.chunk_count(), 1);
        assert_eq!(f.largest_chunk(), 30);
        let c = f.alloc(30, 30).unwrap();
        assert_eq!(c, Chunk::new(0, 30));
    }

    #[test]
    fn no_coalescing_across_gaps() {
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 5));
        f.insert(Chunk::new(6, 5)); // gap at granule 5
        assert_eq!(f.chunk_count(), 2);
        assert_eq!(f.largest_chunk(), 5);
    }

    #[test]
    fn fragmentation_heals() {
        // Allocate many small pieces out of one run, free them all in a
        // scrambled order: the pool must return to a single chunk.
        let f = FreeLists::new();
        f.insert(Chunk::new(0, 1024));
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
        assert_eq!(f.chunk_count(), 1);
        assert_eq!(f.largest_chunk(), 1024);
    }

    /// The boundary map against `HashMap`, through several growths and
    /// with deletes that have to shift probe runs back (keys that share
    /// home slots: multiples of a large power of two).
    #[test]
    fn boundary_map_matches_hashmap() {
        run_cases("boundary_map_matches_hashmap", 0xB0DA, 64, |g| {
            let mut map = BoundaryMap::default();
            let mut model: HashMap<u32, u32> = HashMap::new();
            let stride = [1, 4, 1 << 20, 1 << 28][g.usize_in(0..4)];
            for step in 0..g.usize_in(1..600) {
                let key = g.u32_in(0..300).wrapping_mul(stride);
                if model.remove(&key).is_some() {
                    map.remove(key);
                } else {
                    model.insert(key, step as u32);
                    map.insert(key, step as u32);
                }
                assert_eq!(map.len, model.len());
                assert!(map.slots.len() >= 2 * map.len, "over half full");
                let probe = g.u32_in(0..300).wrapping_mul(stride);
                assert_eq!(map.get(probe), model.get(&probe).copied());
            }
            for (&key, &record) in &model {
                assert_eq!(map.get(key), Some(record));
            }
        });
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

    /// Differential test against the old two-`BTreeMap` pool.  The new
    /// pool may pick a different chunk than best fit would, so each
    /// `alloc` result is carved out of the oracle; every other operation
    /// is applied to both, and after every step both must hold the same
    /// chunks — which makes the new pool's chunks disjoint and maximal,
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
                            f.insert(c);
                            oracle.insert_coalescing(c);
                        }
                    }
                    // A sweep-shaped batch: address-sorted dead runs with
                    // live objects left standing between some of them.
                    1 => {
                        let batch = cut_runs(&mut held, (from, to), 12, g, |g| g.bool());
                        f.insert_batch(&batch);
                        for &c in &batch {
                            oracle.insert_coalescing(c);
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
                                f.insert(tail);
                                oracle.insert_coalescing(tail);
                            }
                        }
                    }
                }
                f.inner.lock().check();
                assert_eq!(f.free_granules(), oracle.free_granules);
                let snap = f.snapshot();
                assert!(
                    snap.windows(2).all(|w| w[0].end() < w[1].start),
                    "not maximal runs"
                );
                assert_eq!(snap, oracle.chunks());
                assert_eq!(f.largest_chunk(), oracle.largest());
            }
        });
    }

    /// `alloc` shrinks a longer chunk's record where it sits: same slot,
    /// same end key, a new bin only when the remainder changes class.
    #[test]
    fn split_keeps_the_record_and_rebins_only_across_classes() {
        let f = FreeLists::new();
        f.insert(Chunk::new(100, 1000));
        f.insert(Chunk::new(5000, 900));
        let mut p = f.inner.lock();
        // 900 → 896 stays in its bin, at its head; 896 → 40 does not.
        assert_eq!(bin_of(900), bin_of(896));
        assert_eq!(p.alloc(4, 4), Some(Chunk::new(5000, 4)));
        p.check();
        assert_eq!(p.heads[bin_of(896)], p.by_end.get(5900).unwrap());
        assert_eq!(p.alloc(856, 856), Some(Chunk::new(5004, 856)));
        p.check();
        assert_eq!(p.by_start.get(5860), p.by_end.get(5900));
        assert_eq!((p.nodes.len(), p.spare), (2, NIL), "no slot changed hands");
        assert_eq!(p.snapshot(), [Chunk::new(100, 1000), Chunk::new(5860, 40)]);
        assert_eq!(p.free_granules, 1040);
    }

    /// `exchange` against the calls it stands for — `insert` for each
    /// chunk given, then `alloc` while the budget lasts — on a twin pool:
    /// the same chunks in the same order.  The B-tree oracle follows both
    /// (every chunk taken is carved out of it), so the pool stays a set of
    /// disjoint maximal runs, and `Pool::check` runs after every step.
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
                for &c in &give {
                    twin.insert(c);
                    oracle.insert_coalescing(c);
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
                assert_eq!(f.snapshot(), oracle.chunks());
                assert_eq!(twin.snapshot(), oracle.chunks());
            }
        });
        assert!(split.get() > 50 && whole.get() > 50, "{split:?} {whole:?}");
    }

    /// Two threads allocate from and free into one pool at once; nothing
    /// is lost or duplicated, and when everything is back the pool is one
    /// run again.
    #[test]
    fn two_thread_churn_conserves_granules() {
        const TOTAL: u32 = 1 << 16;
        let f = FreeLists::new();
        f.insert(Chunk::new(1, TOTAL));
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
                                f.insert(Chunk::new(c.start + keep, c.len - keep));
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
        assert_eq!(f.snapshot(), vec![Chunk::new(1, TOTAL)]);
        assert_eq!(f.free_granules(), TOTAL as u64);
    }
}
