//! `HeapSpace`: the assembled heap substrate.
//!
//! Ties together the arena, the color and age side tables, the segregated
//! free lists and the bump frontier, and provides the two operations the
//! collector and mutators build on:
//!
//! * **chunk allocation** — free-list good-fit with splitting, falling
//!   back to bumping the frontier inside the committed region (mutators
//!   lease a LAB's worth of chunks at a time — a queue of holes — and
//!   bump-allocate privately through them);
//! * **object installation** — writing a new object into owned memory and
//!   *publishing* it with a release store of its start-granule color, the
//!   ordering that makes the concurrent color-table heap walk safe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::addr::{ObjectRef, GRANULE};
use crate::age::{AgeTable, INFANT_AGE};
use crate::arena::Arena;
use crate::color::{Color, ColorTable};
use crate::freelist::{Chunk, FreeLists};
use crate::layout::ObjShape;

/// LAB (local allocation buffer) size in granules (32 KB): the most one
/// refill leases.  Objects of half a LAB or more bypass it.
pub const LAB_GRANULES: u32 = 2048;

/// The heap substrate shared by mutators and the collector.
#[derive(Debug)]
pub struct HeapSpace {
    arena: Arena,
    colors: ColorTable,
    ages: AgeTable,
    freelists: FreeLists,
    /// Next never-allocated granule (bump frontier).
    frontier: AtomicUsize,
    /// Granules currently held by objects or leased LABs.
    used_granules: AtomicUsize,
    /// Granules of every live LAB lease (see
    /// [`HeapSpace::exchange_lab`]).  Subtracted from the trigger policy's
    /// used figure so mostly-empty LABs don't read as pressure.
    lab_leased: AtomicUsize,
    /// Totals handed over in batches ([`HeapSpace::note_allocated`]).
    objects_allocated: AtomicU64,
    bytes_allocated: AtomicU64,
}

impl HeapSpace {
    /// Creates a heap with `max_bytes` reserved and `initial_bytes`
    /// committed.  Granule 0 is reserved so that offset 0 can be the null
    /// reference.
    pub fn new(max_bytes: usize, initial_bytes: usize) -> HeapSpace {
        let arena = Arena::new(max_bytes, initial_bytes);
        let granules = arena.max_granules();
        HeapSpace {
            colors: ColorTable::new(granules),
            ages: AgeTable::new(granules),
            arena,
            freelists: FreeLists::new(),
            frontier: AtomicUsize::new(1), // granule 0 reserved for null
            used_granules: AtomicUsize::new(1),
            lab_leased: AtomicUsize::new(0),
            objects_allocated: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
        }
    }

    /// The underlying arena.
    #[inline]
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The color table.
    #[inline]
    pub fn colors(&self) -> &ColorTable {
        &self.colors
    }

    /// The age table.
    #[inline]
    pub fn ages(&self) -> &AgeTable {
        &self.ages
    }

    /// Granules in use (objects + leased LABs), in granules.
    #[inline]
    pub fn used_granules(&self) -> usize {
        self.used_granules.load(Ordering::Relaxed)
    }

    /// Bytes in use.
    #[inline]
    pub fn used_bytes(&self) -> usize {
        self.used_granules() * GRANULE
    }

    /// Committed heap size in bytes (soft limit).
    #[inline]
    pub fn committed_bytes(&self) -> usize {
        self.arena.committed_bytes()
    }

    /// Maximum heap size in bytes.
    #[inline]
    pub fn max_bytes(&self) -> usize {
        self.arena.max_bytes()
    }

    /// Grows the committed region; returns the new committed byte size or
    /// `None` when already at maximum.
    pub fn grow(&self) -> Option<usize> {
        self.arena.grow()
    }

    /// Grows the committed region to exactly `min(target, max)` bytes.
    pub fn grow_to(&self, target: usize) -> usize {
        self.arena.grow_to(target)
    }

    /// The first granule the bump frontier has not yet passed.  A linear
    /// heap parse needs to cover `[1, frontier_granule())`.
    #[inline]
    pub fn frontier_granule(&self) -> usize {
        self.frontier.load(Ordering::Acquire)
    }

    /// Objects allocated, as reported so far through
    /// [`note_allocated`](HeapSpace::note_allocated).
    #[inline]
    pub fn objects_allocated(&self) -> u64 {
        self.objects_allocated.load(Ordering::Relaxed)
    }

    /// Bytes allocated (granule-rounded), as reported so far through
    /// [`note_allocated`](HeapSpace::note_allocated).
    #[inline]
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Adds a batch of installed objects to the allocation totals.
    /// [`install_object`](Self::install_object) counts nothing: allocating
    /// threads count privately and report here at their own boundaries, so
    /// the per-object path writes no shared cache line.
    pub fn note_allocated(&self, objects: u64, bytes: u64) {
        self.objects_allocated.fetch_add(objects, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Allocates a chunk of at least `min` granules (preferring up to
    /// `preferred`): free-list good-fit, then the bump frontier inside the
    /// committed region.  Returns `None` when the committed region is
    /// exhausted — the caller then grows the heap or triggers a
    /// collection.
    pub fn alloc_chunk(&self, min: u32, preferred: u32) -> Option<Chunk> {
        let chunk = self
            .freelists
            .alloc(min, preferred)
            .or_else(|| self.bump_frontier(min, preferred))?;
        self.used_granules
            .fetch_add(chunk.len as usize, Ordering::Relaxed);
        Some(chunk)
    }

    /// Carves a chunk off never-allocated space inside the committed region.
    fn bump_frontier(&self, min: u32, preferred: u32) -> Option<Chunk> {
        loop {
            let cur = self.frontier.load(Ordering::Acquire);
            let committed = self.arena.committed_granules();
            if cur + min as usize > committed {
                return None;
            }
            let take = (preferred as usize).min(committed - cur).max(min as usize) as u32;
            if self
                .frontier
                .compare_exchange(
                    cur,
                    cur + take as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // Arena::new bounds the heap to the u32 offset space, so
                // the frontier can never pass it.
                debug_assert!(cur <= u32::MAX as usize, "frontier beyond u32 offsets");
                return Some(Chunk::new(cur as u32, take));
            }
        }
    }

    /// Returns chunks to the free lists (sweep-reclaimed runs, retired LAB
    /// tails) under one lock acquisition; a single chunk is a batch of
    /// one.  Their granules must already be `Free` in the color table.
    /// Empty batches return without touching the lock.
    pub fn free_chunk_batch(&self, chunks: &[Chunk]) {
        if chunks.is_empty() {
            return;
        }
        // Batch invariants asserted once here, not per chunk downstream.
        debug_assert!(
            chunks.iter().all(|c| c.len > 0),
            "zero-length chunk in batch"
        );
        let total: usize = chunks.iter().map(|c| c.len as usize).sum();
        self.used_granules.fetch_sub(total, Ordering::Relaxed);
        self.freelists.insert_batch(chunks);
    }

    /// Free granules currently on the free lists.
    pub fn free_list_granules(&self) -> u64 {
        self.freelists.free_granules()
    }

    /// A copy of every free chunk (diagnostics / heap verification),
    /// sorted by start granule.
    pub fn free_list_snapshot(&self) -> Vec<Chunk> {
        self.freelists.snapshot()
    }

    /// One pool exchange (DESIGN.md §4.13), the only way a LAB is leased:
    /// what is left of `lab`'s queue goes back and up to `budget` granules
    /// come out as up to [`LAB_MAX_HOLES`](crate::LAB_MAX_HOLES) chunks of
    /// at least `min` (`budget >= min > 0`), the old lease off the books
    /// and the new one on — one critical section, topped by a frontier
    /// bump when the pool had nothing.  `false` — and an empty, lease-free
    /// `lab` — when nothing of `min` granules could be had without
    /// collecting or growing.
    ///
    /// The lease figure is the correction term for the collection-trigger
    /// policy: `used_granules` counts a whole LAB as used the moment it is
    /// granted, so without it many mostly-empty LABs read as heap pressure
    /// and fire premature full collections.  The whole lease goes on here
    /// and comes off when the queue is given up; carving objects out of
    /// the LAB in between touches nothing shared.
    pub fn exchange_lab(&self, lab: &mut Lab, min: u32, budget: u32) -> bool {
        lab.close();
        let given: usize = lab.tails.iter().map(|c| c.len as usize).sum();
        self.freelists
            .exchange(&lab.tails, min, budget, &mut lab.holes);
        if lab.holes.is_empty() {
            lab.holes.extend(self.bump_frontier(min, budget));
        }
        lab.tails.clear();
        let taken: usize = lab.holes.iter().map(|c| c.len as usize).sum();
        debug_assert!(taken <= budget as usize, "lease {taken} over {budget}");
        // One write per counter: `used` moves by the difference, the
        // lease figure from the old queue's total to the new one's.
        self.used_granules
            .fetch_add(taken.wrapping_sub(given), Ordering::Relaxed);
        self.lab_leased
            .fetch_add(taken.wrapping_sub(lab.leased as usize), Ordering::Relaxed);
        lab.leased = taken as u32;
        // The pool hands out its best chunks first; `Lab::carve` pops.
        lab.holes.reverse();
        taken > 0
    }

    /// Ends `lab`'s lease and returns everything uncarved — tails, skipped
    /// and unopened holes — to the free lists.
    pub fn retire_lab(&self, lab: &mut Lab) {
        lab.close();
        self.lab_leased
            .fetch_sub(lab.leased as usize, Ordering::Relaxed);
        lab.leased = 0;
        self.free_chunk_batch(&lab.tails);
        lab.tails.clear();
    }

    /// Granules of every live LAB lease: the leased-but-uncarved space,
    /// over-stated by what each live LAB has carved (under one LAB per
    /// allocating thread).
    #[inline]
    pub fn lab_leased_granules(&self) -> usize {
        self.lab_leased.load(Ordering::Relaxed)
    }

    /// [`lab_leased_granules`](Self::lab_leased_granules) in bytes.
    #[inline]
    pub fn lab_leased_bytes(&self) -> usize {
        self.lab_leased_granules() * GRANULE
    }

    /// Writes a new object of `shape` at `start` (granule index) inside
    /// memory the caller owns (a LAB carve or a direct chunk), publishing
    /// it with `color` and age [`INFANT_AGE`].
    ///
    /// Publication order is the heart of the concurrent heap-parse
    /// protocol: all words are zeroed and the header written first, then
    /// interior color bytes, and the start-granule color *last* with
    /// release ordering.  A concurrent scanner either sees the final color
    /// (and can safely read the header) or a `Free`/`Interior` byte (and
    /// skips one granule).
    /// Nothing is counted here (see [`note_allocated`](Self::note_allocated)).
    pub fn install_object(&self, start: usize, shape: &ObjShape, color: Color) -> ObjectRef {
        let size = shape.size_granules();
        let obj = ObjectRef::from_granule(start);
        // Zero every word so stale reference slots from a previous object
        // can never be traced.
        self.arena
            .zero_words(obj.word(), size * crate::addr::WORDS_PER_GRANULE);
        self.arena.write_header(obj, shape.encode_header());
        self.colors.fill(start + 1, size - 1, Color::Interior);
        self.ages.set(start, INFANT_AGE);
        self.colors.set(start, color); // release: publishes the object
        obj
    }
}

/// A mutator-private local allocation buffer (the paper's thread-local
/// allocation): a queue of leased holes, bump-allocated one after the
/// other without synchronization.  A hole's unusable tail, and a hole too
/// short for the request that reached it, wait here until the next visit
/// to the pool takes them back — so the mutator meets the pool once per
/// queue, not once per hole (DESIGN.md §4.13).  Queues go in and out
/// through [`HeapSpace::exchange_lab`] and [`HeapSpace::retire_lab`].
#[derive(Debug, Default)]
pub struct Lab {
    /// The open hole: `[cur, end)` is uncarved.
    cur: u32,
    end: u32,
    /// Leased holes not opened yet; the next one is the last.
    holes: Vec<Chunk>,
    /// Leased space this queue will not use any more.
    tails: Vec<Chunk>,
    /// Granules of the whole queue as leased: what `lab_leased` holds for
    /// this LAB.
    leased: u32,
}

impl Lab {
    /// An empty LAB (first allocation will refill).
    pub fn new() -> Lab {
        Lab::default()
    }

    /// Tries to carve `n` granules out of the open hole; returns the start
    /// granule.
    #[inline]
    pub fn try_carve(&mut self, n: u32) -> Option<u32> {
        if self.cur + n <= self.end {
            let start = self.cur;
            self.cur += n;
            Some(start)
        } else {
            None
        }
    }

    /// [`try_carve`](Self::try_carve), moving on through the queue: the
    /// open hole's tail and every hole shorter than `n` are set aside for
    /// the pool.  `None` when the queue is used up.
    pub fn carve(&mut self, n: u32) -> Option<u32> {
        loop {
            if let Some(start) = self.try_carve(n) {
                return Some(start);
            }
            self.set_aside_open_hole();
            let hole = self.holes.pop()?;
            (self.cur, self.end) = (hole.start, hole.end());
        }
    }

    fn set_aside_open_hole(&mut self) {
        if self.cur < self.end {
            self.tails.push(Chunk::new(self.cur, self.end - self.cur));
        }
        (self.cur, self.end) = (0, 0);
    }

    /// Sets aside everything uncarved.
    fn close(&mut self) {
        self.set_aside_open_hole();
        self.tails.append(&mut self.holes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> HeapSpace {
        HeapSpace::new(1 << 16, 1 << 16) // 64 KB
    }

    #[test]
    fn frontier_allocation_skips_null_granule() {
        let h = small_heap();
        let c = h.alloc_chunk(4, 4).unwrap();
        assert_eq!(c.start, 1);
        assert_eq!(c.len, 4);
        assert_eq!(h.frontier_granule(), 5);
    }

    #[test]
    fn freelist_preferred_over_frontier() {
        let h = small_heap();
        let c = h.alloc_chunk(4, 4).unwrap();
        h.colors()
            .fill(c.start as usize, c.len as usize, Color::Free);
        h.free_chunk_batch(&[c]);
        let c2 = h.alloc_chunk(2, 2).unwrap();
        assert_eq!(c2.start, 1); // reused, not frontier
    }

    #[test]
    fn used_accounting() {
        let h = small_heap();
        let before = h.used_granules();
        let c = h.alloc_chunk(8, 8).unwrap();
        assert_eq!(h.used_granules(), before + 8);
        h.free_chunk_batch(&[c]);
        assert_eq!(h.used_granules(), before);
    }

    #[test]
    fn exhaustion_returns_none() {
        let h = HeapSpace::new(1 << 12, 1 << 12); // 4 KB = 256 granules
        assert!(h.alloc_chunk(255, 255).is_some());
        assert!(h.alloc_chunk(16, 16).is_none());
    }

    #[test]
    fn committed_limits_frontier_until_grow() {
        let h = HeapSpace::new(1 << 13, 1 << 12);
        assert!(h.alloc_chunk(255, 255).is_some());
        assert!(h.alloc_chunk(16, 16).is_none());
        assert!(h.grow().is_some());
        assert!(h.alloc_chunk(16, 16).is_some());
    }

    #[test]
    fn install_publishes_object() {
        let h = small_heap();
        let shape = ObjShape::new(2, 1).with_class(3);
        let c = h
            .alloc_chunk(shape.size_granules() as u32, shape.size_granules() as u32)
            .unwrap();
        let obj = h.install_object(c.start as usize, &shape, Color::White);
        assert_eq!(h.colors().get(obj.granule()), Color::White);
        assert_eq!(h.colors().get(obj.granule() + 1), Color::Interior);
        assert_eq!(h.ages().get(obj.granule()), INFANT_AGE);
        let hd = h.arena().header(obj);
        assert_eq!(hd.ref_slots(), 2);
        assert_eq!(hd.class_id(), 3);
        // Slots are zeroed.
        assert!(h.arena().load_ref_slot(obj, 0).is_null());
        assert!(h.arena().load_ref_slot(obj, 1).is_null());
        // Installing counts nothing; the totals move when told.
        assert_eq!((h.objects_allocated(), h.bytes_allocated()), (0, 0));
        h.note_allocated(1, shape.size_bytes() as u64);
        assert_eq!(h.objects_allocated(), 1);
        assert_eq!(h.bytes_allocated(), shape.size_bytes() as u64);
    }

    #[test]
    fn install_zeroes_stale_slots() {
        let h = small_heap();
        let shape = ObjShape::new(2, 0);
        let n = shape.size_granules() as u32;
        let c = h.alloc_chunk(n, n).unwrap();
        let obj = h.install_object(c.start as usize, &shape, Color::White);
        h.arena().store_ref_slot(obj, 0, ObjectRef::from_granule(7));
        // Simulate free + reallocation at the same spot.
        h.colors().fill(obj.granule(), n as usize, Color::Free);
        let obj2 = h.install_object(obj.granule(), &shape, Color::Yellow);
        assert!(h.arena().load_ref_slot(obj2, 0).is_null());
    }

    #[test]
    fn lab_lease_accounting() {
        let h = small_heap();
        let mut lab = Lab::new();
        h.retire_lab(&mut lab); // an empty LAB retires to nothing
        assert_eq!(h.lab_leased_granules(), 0);
        let used = h.used_granules();
        // On an empty pool an exchange leases one frontier chunk.
        assert!(h.exchange_lab(&mut lab, 100, 100));
        assert_eq!(h.lab_leased_granules(), 100);
        // Carving is private: the whole lease stays on the books.
        lab.carve(30).unwrap();
        lab.try_carve(20).unwrap();
        assert_eq!((h.lab_leased_granules(), lab.leased), (100, 100));
        // A refill ends the old lease whole and hands its tail back: the
        // 50-granule tail is what a 40-granule lease then gets.
        assert!(h.exchange_lab(&mut lab, 40, 40));
        assert_eq!(h.lab_leased_granules(), 40);
        assert_eq!(h.used_granules(), used + 50 + 40);
        h.retire_lab(&mut lab);
        assert_eq!((h.lab_leased_bytes(), lab.leased), (0, 0));
        assert_eq!(h.used_granules(), used + 50);
        assert!(lab.carve(1).is_none(), "a retired LAB is empty");
    }

    /// A heap with everything past the pool out of reach: it is carved
    /// into `holes` (each fenced by one held granule), the rest is taken
    /// out of circulation, and the holes are freed.
    fn heap_of_holes(holes: &[u32]) -> HeapSpace {
        let h = HeapSpace::new(1 << 18, 1 << 18);
        let cut: Vec<Chunk> = holes
            .iter()
            .map(|&len| {
                let hole = h.alloc_chunk(len, len).unwrap();
                h.alloc_chunk(1, 1).unwrap();
                hole
            })
            .collect();
        while h.alloc_chunk(1, 1 << 14).is_some() {}
        h.free_chunk_batch(&cut);
        assert_eq!(
            h.free_list_granules(),
            holes.iter().map(|&l| l as u64).sum::<u64>()
        );
        h
    }

    #[test]
    fn lab_queues_every_hole_one_exchange_brings() {
        let h = heap_of_holes(&[8, 3, 5]);
        let used = h.used_granules();
        let mut lab = Lab::new();
        assert!(h.exchange_lab(&mut lab, 2, 64));
        // The whole pool in one visit, leased and off the free lists.
        assert_eq!((h.lab_leased_granules(), lab.leased), (16, 16));
        assert_eq!((h.free_list_granules(), h.used_granules()), (0, used + 16));
        // Best chunk first, and no shared counter moves on the way
        // from hole to hole.
        let a = lab.carve(8).unwrap();
        let b = lab.carve(5).unwrap();
        let c = lab.carve(3).unwrap();
        assert!(a != b && b != c && lab.carve(1).is_none());
        assert_eq!(
            (h.lab_leased_granules(), h.used_granules()),
            (16, used + 16)
        );
        // Nothing is left anywhere: the next visit comes back empty.
        assert!(!h.exchange_lab(&mut lab, 1, 64));
        assert_eq!((h.lab_leased_granules(), lab.leased), (0, 0));
        assert_eq!(h.used_granules(), used + 16);
    }

    #[test]
    fn lab_hole_shorter_than_the_request_goes_back_at_the_next_exchange() {
        let h = heap_of_holes(&[8, 3]);
        let used = h.used_granules();
        let mut lab = Lab::new();
        assert!(h.exchange_lab(&mut lab, 2, 64));
        let first = lab.carve(2).unwrap();
        // 6 granules are left in the open hole and 3 in the next: a
        // request for 7 passes over both, and they wait in the LAB.
        assert_eq!(lab.carve(7), None);
        assert_eq!((h.free_list_granules(), h.lab_leased_granules()), (0, 11));
        // The exchange gives them back before it takes: the 6-granule
        // tail is what a request for 4 gets (the 3 stay pooled).
        assert!(h.exchange_lab(&mut lab, 4, 64));
        assert_eq!((h.free_list_granules(), h.lab_leased_granules()), (3, 6));
        assert_eq!(lab.carve(4), Some(first + 2));
        h.retire_lab(&mut lab);
        assert_eq!((h.free_list_granules(), h.lab_leased_granules()), (5, 0));
        assert_eq!(h.used_granules(), used + 2 + 4);
    }

    #[test]
    fn lab_lease_stays_under_budget_and_balances_at_retire() {
        const BUDGET: u32 = 64;
        let holes: Vec<u32> = (0..300).map(|i| 2 + i * 7 % 23).collect();
        let h = heap_of_holes(&holes);
        let used = h.used_granules();
        let mut lab = Lab::new();
        let (mut objects, mut exchanges) = (0, 0);
        'full: for i in 0.. {
            let n = 1 + i * 5 % 6;
            let start = loop {
                if let Some(start) = lab.carve(n) {
                    break start;
                }
                if !h.exchange_lab(&mut lab, n, BUDGET) {
                    break 'full;
                }
                exchanges += 1;
                assert!(lab.leased <= BUDGET);
                assert_eq!(h.lab_leased_granules(), lab.leased as usize);
            };
            assert_eq!(h.colors().get(start as usize), Color::Free);
            objects += n as usize;
        }
        // Holes of 2..24 granules: a 64-granule budget spans several.
        assert!(exchanges > 20 && exchanges < holes.len() / 2, "{exchanges}");
        h.retire_lab(&mut lab);
        assert_eq!(h.lab_leased_granules(), 0);
        assert_eq!(h.used_granules(), used + objects, "a tail leaked");
        let free: u32 = holes.iter().sum();
        assert_eq!(h.free_list_granules(), free as u64 - objects as u64);
    }

    #[test]
    fn lab_exchange_falls_back_to_the_frontier() {
        let h = HeapSpace::new(1 << 16, 1 << 16);
        let mut lab = Lab::new();
        assert!(h.exchange_lab(&mut lab, 2, 64));
        assert_eq!((h.lab_leased_granules(), h.used_granules()), (64, 1 + 64));
        assert_eq!(lab.carve(2), Some(1), "granule 0 stays reserved");
        h.retire_lab(&mut lab);
        assert_eq!((h.lab_leased_granules(), h.used_granules()), (0, 1 + 2));
    }

    /// Sixteen threads go in and out of the one pool by every door at
    /// once; when they stop, every granule is counted exactly once.
    #[test]
    fn sixteen_thread_churn_accounts_for_every_granule() {
        const THREADS: u64 = 16;
        const STEPS: usize = 4000;
        let h = HeapSpace::new(8 << 20, 8 << 20);
        let churn = |t: u64| {
            let mut g = otf_support::check::Gen::new(0x5AAD, t);
            let mut held: Vec<Chunk> = Vec::new();
            let mut lab = Lab::new();
            let mut carved = 0;
            for _ in 0..STEPS {
                match g.usize_in(0..6) {
                    0 | 1 => {
                        let min = g.u32_in(1..65);
                        match h.alloc_chunk(min, min + g.u32_in(0..256)) {
                            Some(c) => {
                                assert!(c.len >= min && c.start > 0, "{c:?} for {min}");
                                held.push(c);
                            }
                            // Heap pressure: give everything back.
                            None => h.free_chunk_batch(&std::mem::take(&mut held)),
                        }
                    }
                    2 if !held.is_empty() => {
                        h.free_chunk_batch(&[held.swap_remove(g.usize_in(0..held.len()))]);
                    }
                    3 if held.len() >= 4 => {
                        let batch = held.split_off(held.len() - 4);
                        h.free_chunk_batch(&batch);
                    }
                    4 => h.retire_lab(&mut lab),
                    _ => {
                        let n = g.u32_in(1..9);
                        if lab.carve(n).is_some()
                            || (h.exchange_lab(&mut lab, n, 256) && lab.carve(n).is_some())
                        {
                            carved += n as usize;
                        }
                    }
                }
            }
            h.retire_lab(&mut lab);
            h.free_chunk_batch(&held);
            carved
        };
        let carved: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS).map(|t| s.spawn(move || churn(t))).collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });

        // What was carved out of LABs is all that is still in use...
        assert_eq!(h.used_granules(), 1 + carved, "leaked or double-freed");
        assert_eq!(h.lab_leased_granules(), 0);
        // ...and used + pooled + never-allocated is the whole heap.
        let committed = h.arena().committed_granules();
        assert_eq!(
            h.used_granules() + h.free_list_granules() as usize + committed - h.frontier_granule(),
            committed
        );
        // The pool coalesces: its chunks neither overlap nor touch.
        let snap = h.free_list_snapshot();
        assert!(snap.iter().all(|c| c.len > 0));
        assert!(
            snap.windows(2).all(|w| w[0].end() < w[1].start),
            "pooled chunks overlap or touch"
        );
        let pooled: u64 = snap.iter().map(|c| c.len as u64).sum();
        assert_eq!(pooled, h.free_list_granules());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let h = small_heap();
        let before = h.used_granules();
        h.free_chunk_batch(&[]);
        assert_eq!(h.used_granules(), before);
        assert_eq!(h.free_list_granules(), 0);
    }

    #[test]
    fn lab_carving() {
        let h = small_heap();
        let mut lab = Lab::new();
        assert!(lab.try_carve(1).is_none());
        assert!(h.exchange_lab(&mut lab, 8, 8));
        // The queued hole opens on the slow path, not in `try_carve`.
        assert!(lab.try_carve(3).is_none());
        assert_eq!(lab.carve(3), Some(1));
        assert_eq!(lab.try_carve(5), Some(4));
        assert!(lab.carve(1).is_none());
        // Fully carved: retiring frees nothing.
        let free = h.free_list_granules();
        h.retire_lab(&mut lab);
        assert_eq!(h.free_list_granules(), free);
    }
}
