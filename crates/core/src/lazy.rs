//! Lazy (allocation-time) sweep — the opt-in `GcConfig::lazy_sweep`
//! back-end (DESIGN.md §4.6), after Nofl ("A Precise Immix").
//!
//! In eager mode the collector walks the whole color table at the end of
//! every cycle.  In lazy mode the cycle becomes **mark-only**: where the
//! sweep phase used to run, the collector issues a fence and *publishes a
//! sweep epoch* — the frontier and the pinned [`SweepParams`] of the
//! cycle that just finished.  Reclamation then happens on demand:
//!
//! * a mutator's LAB refill claims one epoch segment and sweeps it
//!   (*sweep-to-allocate*), keeping a reclaimed run big enough for its
//!   LAB and flushing the rest to the free lists;
//! * a mutator that fails allocation drains segments until it finds
//!   space, before escalating to a blocking full collection;
//! * the collector drains leftover segments between cycles (yielding to
//!   pending cycle requests), so garbage does not linger on an idle
//!   heap.
//!
//! **Epoch lifecycle invariant.**  An epoch must be *fully drained
//! before the next cycle's color toggle*: after the toggle, the old
//! epoch's clear color becomes the new allocation color, and a straggler
//! sweeping under stale params would free freshly allocated objects.
//! [`GcShared::lazy_finalize`] therefore runs as the cycle schedule's
//! *first* bucket (`lazy-finalize`, before the init bucket and any
//! handshake — DESIGN.md §4.7), and the publish packet at the old sweep
//! point only ever replaces an already-drained epoch.  Within an epoch,
//! segment claims are a lock-free CAS on an *epoch-stamped* cursor word
//! (`epoch << 32 | granule`); the frontier and pinned params live in
//! their own epoch-stamped words, published before the cursor, so a
//! claimant that wins a CAS under epoch *e* is guaranteed
//! matching-epoch params and frontier — the stamp makes the claim
//! ABA-proof across publishes without a lock on the refill hot path.
//! The segment cursor partitions `[1, frontier)` exactly as the PR 5
//! parallel sweep does (including `sweep_range`'s straddler rule), and
//! every granule therefore belongs to exactly one claimant — no double
//! free, and no resurrection because concurrent allocation uses the
//! allocation color which the epoch's pinned `clear` never matches.
//!
//! The per-epoch sweep counters fold into the *next* cycle's stats at
//! finalization (the same place an eager sweep would have produced
//! them, one cycle later); the cumulative at-allocation vs
//! at-finalization reclaim split is exported through `GcStats`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use otf_heap::{Chunk, Color, GRANULE};
use otf_support::fault;
use otf_support::sync::{Backoff, Mutex};

use crate::cycle::Counters;
use crate::obs::EventKind;
use crate::shared::GcShared;
use crate::sweep::{SweepBuf, SweepParams, SWEEP_PROGRESS_STRIDE, SWEEP_SEGMENT_GRANULES};

/// Pairs a 32-bit epoch stamp with a 32-bit payload in one atomic word.
/// Every mutable epoch word (cursor, frontier, params) carries the
/// stamp, so a claimant can verify the three reads belong to the same
/// epoch: a publish bumps the stamp in all of them, which also makes
/// the claim CAS ABA-proof (granule values recur across epochs, stamped
/// words never do until the 32-bit wrap).
fn stamp(epoch: u32, payload: u32) -> u64 {
    (epoch as u64) << 32 | payload as u64
}

fn unstamp(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// `aging` byte of the packed [`SweepParams`] when the policy is off
/// (thresholds are `u8`, so `0xFF` can never be a real threshold).
const NO_AGING: u8 = 0xFF;

/// [`SweepParams`] packed into the payload half of an epoch-stamped
/// word: byte 0 = clear color, 1 = alloc color, 2 = aging threshold (or
/// [`NO_AGING`]), 3 = trace target.
fn pack_params(p: &SweepParams) -> u32 {
    (p.clear as u32)
        | (p.alloc as u32) << 8
        | (p.aging.unwrap_or(NO_AGING) as u32) << 16
        | (p.trace_target as u32) << 24
}

fn unpack_params(w: u32) -> SweepParams {
    SweepParams {
        clear: Color::from_byte(w as u8),
        alloc: Color::from_byte((w >> 8) as u8),
        aging: match (w >> 16) as u8 {
            NO_AGING => None,
            t => Some(t),
        },
        trace_target: Color::from_byte((w >> 24) as u8),
    }
}

/// Who swept a lazy segment — the `GcStats` at-allocation /
/// at-finalization split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LazyWho {
    /// A mutator allocation path (LAB refill or pressure drain).
    Mutator,
    /// The collector: background drain between cycles, the cycle-start
    /// finalization, or the shutdown/verify drain.
    Collector,
}

/// Shared state of the lazy sweep back-end (a field of `GcShared`;
/// inert unless `GcConfig::lazy_sweep` is set).
#[derive(Debug, Default)]
pub(crate) struct LazySweep {
    /// Fast-path gate: `true` while a published epoch may have work.
    active: AtomicBool,
    /// Epoch-stamped claim cursor: `epoch << 32 | next unclaimed segment
    /// start granule`.  A claim CASes the granule forward by
    /// [`SWEEP_SEGMENT_GRANULES`]; granule ≥ frontier ⇔ fully claimed.
    /// The per-epoch claimed-segment count is derived from it as
    /// `(granule − 1) / SWEEP_SEGMENT_GRANULES` (the cursor only ever
    /// advances by whole segments from 1).
    cursor: AtomicU64,
    /// Epoch-stamped frontier: one-past-the-last granule the epoch
    /// covers (the allocation frontier at publish time; later allocation
    /// is beyond the epoch).
    published: AtomicU64,
    /// Epoch-stamped packed [`SweepParams`] (see [`pack_params`]).
    params: AtomicU64,
    /// Segments fully swept for the current epoch (monotone within an
    /// epoch; reset at publish, when no claimant can be in flight).
    completed: AtomicU64,
    /// Estimated unswept-garbage bytes of the current epoch, decremented
    /// by actual per-segment reclaim.  `evaluate_triggers` subtracts it
    /// from heap occupancy so deferred garbage counts as available space
    /// and lazy mode keeps the eager trigger point.
    unswept: AtomicU64,
    /// Epoch sweep counters, folded into the next cycle at finalization.
    counters: Mutex<Counters>,
    /// Cumulative granules reclaimed by mutator sweeps (at-allocation).
    freed_at_alloc: AtomicU64,
    /// Cumulative granules reclaimed by collector sweeps (between-cycle
    /// drain + finalization).
    freed_at_final: AtomicU64,
    /// Epochs published since startup.
    epochs: AtomicU64,
}

impl LazySweep {
    pub(crate) fn freed_at_alloc_granules(&self) -> u64 {
        self.freed_at_alloc.load(Ordering::Relaxed)
    }

    pub(crate) fn freed_at_final_granules(&self) -> u64 {
        self.freed_at_final.load(Ordering::Relaxed)
    }

    pub(crate) fn epochs_published(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Current unswept-garbage estimate in bytes (0 when drained or in
    /// eager mode).
    pub(crate) fn unswept_bytes(&self) -> u64 {
        self.unswept.load(Ordering::Relaxed)
    }
}

impl GcShared {
    /// Publishes a new sweep epoch at the point the eager sweep used to
    /// run.  The previous epoch must already be finalized (drained) —
    /// see the module invariant.  `bytes_traced` is the finished trace's
    /// live-byte counter, seeding the unswept-garbage estimate:
    /// `used − leased-LABs − traced − allocated-during-cycle`, clamped
    /// at zero (live LABs are leased whole, so the estimate runs low by
    /// under one LAB per mutator).  For partial collections the untraced
    /// old generation inflates it (garbage is *over*-estimated, delaying the
    /// full trigger, never firing it early); the estimate is corrected
    /// downward by every swept segment and zeroed at finalization, and
    /// allocation failure still requests a full collection directly, so
    /// the overshoot cannot wedge the heap.
    pub(crate) fn lazy_publish(&self, bytes_traced: u64) {
        debug_assert!(self.config.lazy_sweep);
        let frontier = self.heap.frontier_granule();
        let params = self.sweep_params();
        let used = self
            .heap
            .used_bytes()
            .saturating_sub(self.heap.lab_leased_bytes()) as u64;
        let est = used
            .saturating_sub(bytes_traced)
            .saturating_sub(self.control.bytes_since_cycle());
        #[cfg(debug_assertions)]
        {
            let (ce, cg) = unstamp(self.lazy.cursor.load(Ordering::Relaxed));
            let (pe, pf) = unstamp(self.lazy.published.load(Ordering::Relaxed));
            debug_assert!(
                ce == pe && cg >= pf,
                "epoch published over undrained predecessor"
            );
        }
        let ep = (self.lazy.epochs.fetch_add(1, Ordering::Relaxed) + 1) as u32;
        // Publish order: params and frontier first, the cursor last with
        // release — a claimant whose CAS wins on a cursor carrying the
        // new stamp is guaranteed to read matching-stamp params and
        // frontier words.  `completed` resets here because the previous
        // epoch was finalized: no claimant can be in flight.
        self.lazy
            .params
            .store(stamp(ep, pack_params(&params)), Ordering::Release);
        self.lazy
            .published
            .store(stamp(ep, frontier as u32), Ordering::Release);
        self.lazy.completed.store(0, Ordering::Relaxed);
        self.lazy.unswept.store(est, Ordering::Relaxed);
        self.lazy.cursor.store(stamp(ep, 1), Ordering::Release);
        self.lazy.active.store(frontier > 1, Ordering::Release);
        self.obs.event(EventKind::SweepProgress, 1, frontier as u64);
    }

    /// Claims the next unclaimed segment of the current epoch with a
    /// lock-free CAS on the epoch-stamped cursor.  `None` when no epoch
    /// is active or it is fully claimed.
    ///
    /// Epoch consistency: the cursor is read first; a frontier whose
    /// stamp disagrees means a publish is mid-flight between the two
    /// stores, so the claim retries (the disagreement is transient —
    /// the cursor is published last).  A successful CAS under stamp *e*
    /// pins epoch *e* open: `lazy_finalize` cannot count this claim
    /// complete before [`LazySweep::completed`] is bumped, so no
    /// publish can replace the params/frontier words read afterwards.
    fn lazy_claim(&self) -> Option<(SweepParams, usize, usize)> {
        if !self.lazy.active.load(Ordering::Acquire) {
            return None;
        }
        loop {
            let cur = self.lazy.cursor.load(Ordering::Acquire);
            let (ep, g) = unstamp(cur);
            let (fe, frontier) = unstamp(self.lazy.published.load(Ordering::Acquire));
            if ep != fe {
                std::hint::spin_loop();
                continue;
            }
            if g >= frontier {
                return None;
            }
            let next = stamp(ep, g + SWEEP_SEGMENT_GRANULES as u32);
            if self
                .lazy
                .cursor
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let (pe, pw) = unstamp(self.lazy.params.load(Ordering::Acquire));
                debug_assert_eq!(pe, ep, "params stamp diverged from a claimed cursor");
                return Some((unpack_params(pw), g as usize, frontier as usize));
            }
        }
    }

    /// Claims and sweeps one epoch segment through the shared
    /// [`GcShared::sweep_range`] kernel.
    ///
    /// Returns `None` when there was nothing to claim; otherwise
    /// `Some(direct)`, where `direct` is a reclaimed chunk satisfying
    /// `want = (min, preferred)` handed straight to the caller *without*
    /// passing through the free lists.  A direct chunk's granules stay
    /// in `used_granules` (dead object → caller's LAB/object, exactly
    /// the balance the eager free-then-realloc sequence reaches);
    /// everything else is flushed with `free_chunk_batch`.
    pub(crate) fn lazy_sweep_segment(
        &self,
        who: LazyWho,
        want: Option<(u32, u32)>,
    ) -> Option<Option<Chunk>> {
        let (params, seg_start, frontier) = self.lazy_claim()?;
        // Delay/yield injection at the segment-claim window.  A claimed
        // segment must be swept exactly once, so the verdict is ignored
        // (as at `collector.worker`).
        let _ = fault::point("mutator.lazy_sweep.segment");
        let seg_stop = (seg_start + SWEEP_SEGMENT_GRANULES).min(frontier);
        let mut counters = Counters::default();
        let mut buf = SweepBuf::new(seg_start + SWEEP_PROGRESS_STRIDE);
        self.sweep_range(
            &params,
            seg_start,
            seg_stop,
            frontier,
            &mut counters,
            None,
            &mut buf,
        );
        Self::flush_run(&mut buf.run, &mut buf.batch);
        // Run-reclaim injection window, before the reclaimed runs become
        // visible to other allocators (verdict ignored, as above).
        let _ = fault::point("mutator.lazy_sweep.segment");
        let direct =
            want.and_then(|(min, preferred)| extract_direct(&mut buf.batch, min, preferred));
        self.heap.free_chunk_batch(&buf.batch);

        let freed_granules = counters.bytes_freed / GRANULE as u64;
        match who {
            LazyWho::Mutator => self
                .lazy
                .freed_at_alloc
                .fetch_add(freed_granules, Ordering::Relaxed),
            LazyWho::Collector => self
                .lazy
                .freed_at_final
                .fetch_add(freed_granules, Ordering::Relaxed),
        };
        let _ = self
            .lazy
            .unswept
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(counters.bytes_freed))
            });
        self.lazy.counters.lock().merge(&counters);
        // Completion *after* all effects of the sweep are published;
        // pairs with the acquire read in `lazy_finalize`.
        self.lazy.completed.fetch_add(1, Ordering::Release);
        self.obs
            .event(EventKind::SweepProgress, seg_stop as u64, frontier as u64);
        Some(direct)
    }

    /// Drains the current epoch to completion: claims and sweeps every
    /// remaining segment, then waits for in-flight claimants (a mutator
    /// mid-segment) to finish.  Idempotent and safe to race with
    /// concurrent sweepers; a no-op in eager mode or between epochs.
    ///
    /// Abort-safety (DESIGN.md §4.8): the supervisor's cycle abort calls
    /// this mid-recovery.  Any epoch open at that point was published by
    /// the *previous completed* cycle — the schedule's `lazy-finalize`
    /// bucket drains it before the aborted cycle's toggle, and the
    /// reclaim bucket's kill site fires before `lazy_publish` — so its
    /// sweep parameters (clear color, frontier) are still valid and
    /// finalizing frees only granules that cycle proved dead.  Restarting
    /// mid-epoch is therefore sound: recovery never sweeps under stale
    /// parameters, it just finishes the old epoch eagerly.
    pub(crate) fn lazy_finalize(&self, who: LazyWho) {
        if !self.config.lazy_sweep || !self.lazy.active.load(Ordering::Acquire) {
            return;
        }
        while self.lazy_sweep_segment(who, None).is_some() {}
        let mut backoff = Backoff::new();
        loop {
            // The cursor is stable here (fully claimed, and no publish
            // can race a finalize), so the claim count derives from it.
            let (_, g) = unstamp(self.lazy.cursor.load(Ordering::Acquire));
            let claimed = (g.saturating_sub(1) as u64) / SWEEP_SEGMENT_GRANULES as u64;
            if self.lazy.completed.load(Ordering::Acquire) >= claimed {
                break;
            }
            backoff.snooze();
        }
        self.lazy.active.store(false, Ordering::Release);
        self.lazy.unswept.store(0, Ordering::Relaxed);
    }

    /// Collector-side between-cycle drain: sweeps leftover epoch
    /// segments one at a time, bailing out as soon as a cycle request
    /// arrives (or shutdown begins) so lazy reclamation never delays a
    /// due collection.  A no-op in eager mode.
    pub(crate) fn lazy_drain_between_cycles(&self) {
        if !self.config.lazy_sweep {
            return;
        }
        while !self.control.has_request()
            && !self.control.is_shutdown()
            && self.lazy_sweep_segment(LazyWho::Collector, None).is_some()
        {}
    }

    /// Takes (and resets) the accumulated epoch sweep counters, to be
    /// merged into the finalizing cycle's stats.
    pub(crate) fn lazy_take_counters(&self) -> Counters {
        std::mem::take(&mut *self.lazy.counters.lock())
    }
}

/// Picks a chunk satisfying `(min, preferred)` out of a reclaimed
/// batch, mirroring the free-list policy: the smallest chunk that can be
/// split to exactly `preferred`, else the largest chunk of at least
/// `min` taken whole.
fn extract_direct(batch: &mut Vec<Chunk>, min: u32, preferred: u32) -> Option<Chunk> {
    let mut split_idx: Option<usize> = None;
    let mut whole_idx: Option<usize> = None;
    for (i, c) in batch.iter().enumerate() {
        if c.len >= preferred && split_idx.is_none_or(|b| c.len < batch[b].len) {
            split_idx = Some(i);
        }
        if c.len >= min && whole_idx.is_none_or(|b| c.len > batch[b].len) {
            whole_idx = Some(i);
        }
    }
    if let Some(i) = split_idx {
        let c = batch[i];
        if c.len == preferred {
            batch.swap_remove(i);
        } else {
            batch[i] = Chunk::new(c.start + preferred, c.len - preferred);
        }
        return Some(Chunk::new(c.start, preferred));
    }
    whole_idx.map(|i| batch.swap_remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use otf_heap::{Color, ObjShape, ObjectRef};

    fn setup(cfg: GcConfig) -> GcShared {
        GcShared::new(
            cfg.with_lazy_sweep(true)
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        )
    }

    fn alloc(sh: &GcShared, granules: usize, color: Color) -> ObjectRef {
        let shape = ObjShape::new(0, granules * 2 - 1);
        assert_eq!(shape.size_granules(), granules);
        let c = sh
            .heap
            .alloc_chunk(granules as u32, granules as u32)
            .unwrap();
        sh.heap.install_object(c.start as usize, &shape, color)
    }

    #[test]
    fn publish_then_finalize_matches_eager_sweep() {
        let lazy = setup(GcConfig::generational());
        let eager = GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        );
        for sh in [&lazy, &eager] {
            sh.colors.toggle();
            alloc(sh, 2, Color::White);
            alloc(sh, 3, Color::Black);
            alloc(sh, 2, Color::White);
            alloc(sh, 1, Color::Yellow);
        }
        lazy.lazy_publish(0);
        lazy.lazy_finalize(LazyWho::Collector);
        let mut cx = crate::cycle::CycleCx::new(&eager);
        eager.sweep(&mut cx);

        let c = lazy.lazy_take_counters();
        assert_eq!(c.objects_freed, cx.counters.objects_freed);
        assert_eq!(c.bytes_freed, cx.counters.bytes_freed);
        assert_eq!(c.objects_survived, cx.counters.objects_survived);
        assert_eq!(
            lazy.heap.free_list_granules(),
            eager.heap.free_list_granules()
        );
        for g in 1..lazy.heap.frontier_granule() {
            assert_eq!(
                lazy.heap.colors().get_raw_relaxed(g),
                eager.heap.colors().get_raw_relaxed(g),
                "color mismatch at granule {g}"
            );
        }
    }

    #[test]
    fn mutator_segment_sweep_hands_chunk_directly() {
        let sh = setup(GcConfig::generational());
        sh.colors.toggle();
        let dead = alloc(&sh, 64, Color::White);
        alloc(&sh, 1, Color::Black);
        let used_before = sh.heap.used_granules();
        sh.lazy_publish(0);
        let direct = sh
            .lazy_sweep_segment(LazyWho::Mutator, Some((8, 64)))
            .expect("one segment to claim")
            .expect("direct chunk from the dead run");
        assert_eq!(direct.start as usize, dead.granule());
        assert_eq!(direct.len, 64);
        // Direct handoff keeps the granules in `used` (dead object →
        // caller-held space), so the balance matches eager
        // free-then-realloc.
        assert_eq!(sh.heap.used_granules(), used_before);
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);
        assert_eq!(sh.lazy.freed_at_alloc_granules(), 64);
    }

    #[test]
    fn finalize_is_idempotent_and_zeroes_unswept() {
        let sh = setup(GcConfig::generational());
        sh.colors.toggle();
        alloc(&sh, 4, Color::White);
        sh.lazy_publish(0);
        assert!(sh.lazy.unswept_bytes() > 0);
        sh.lazy_finalize(LazyWho::Collector);
        assert_eq!(sh.lazy.unswept_bytes(), 0);
        sh.lazy_finalize(LazyWho::Collector);
        assert!(sh.lazy_sweep_segment(LazyWho::Mutator, None).is_none());
    }

    #[test]
    fn every_dead_granule_reclaimed_by_exactly_one_claimant() {
        // Property: racing claimants partition the epoch — the total
        // reclaimed equals the dead population exactly (no loss, no
        // double count), and every dead granule ends `Free`.
        let sh = std::sync::Arc::new(setup(GcConfig::generational()));
        sh.colors.toggle();
        let mut dead_granules = 0u64;
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        for i in 0..3000usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let granules = 1 + (r % 9) as usize;
            let color = if r.is_multiple_of(3) {
                Color::Black
            } else {
                Color::White
            };
            alloc(&sh, granules, color);
            if color == Color::White {
                dead_granules += granules as u64;
            }
            if i == 1500 {
                // Straddles several 16384-granule segments.
                alloc(&sh, 40_000, Color::White);
                dead_granules += 40_000;
            }
        }
        assert!(sh.heap.frontier_granule() > 2 * SWEEP_SEGMENT_GRANULES);
        sh.lazy_publish(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sh = &sh;
                s.spawn(
                    move || {
                        while sh.lazy_sweep_segment(LazyWho::Mutator, None).is_some() {}
                    },
                );
            }
        });
        sh.lazy_finalize(LazyWho::Collector);
        let c = sh.lazy_take_counters();
        assert_eq!(c.bytes_freed, dead_granules * GRANULE as u64);
        assert_eq!(sh.lazy.freed_at_alloc_granules(), dead_granules);
        let colors = sh.heap.colors();
        for g in 1..sh.heap.frontier_granule() {
            assert_ne!(colors.get_raw_relaxed(g), Color::White as u8);
        }
    }

    #[test]
    fn sweep_params_pack_round_trips() {
        for aging in [None, Some(2), Some(10), Some(0xFE)] {
            for (clear, alloc) in [(Color::White, Color::Yellow), (Color::Yellow, Color::White)] {
                for trace_target in [Color::Black, Color::White] {
                    let p = SweepParams {
                        clear,
                        alloc,
                        aging,
                        trace_target,
                    };
                    assert_eq!(unpack_params(pack_params(&p)), p);
                }
            }
        }
    }

    #[test]
    fn stamped_words_split_epoch_and_payload() {
        assert_eq!(unstamp(stamp(7, 123)), (7, 123));
        assert_eq!(unstamp(stamp(u32::MAX, u32::MAX)), (u32::MAX, u32::MAX));
        // Same granule under different epochs compares unequal — the
        // ABA protection the claim CAS relies on.
        assert_ne!(stamp(1, 1), stamp(2, 1));
    }

    #[test]
    fn extract_direct_prefers_split_of_smallest_sufficient() {
        let mut batch = vec![Chunk::new(10, 4), Chunk::new(100, 32), Chunk::new(200, 16)];
        let c = extract_direct(&mut batch, 4, 8).unwrap();
        assert_eq!((c.start, c.len), (200, 8));
        assert!(batch.contains(&Chunk::new(208, 8)));
        // No chunk ≥ preferred: largest ≥ min taken whole.
        let mut batch = vec![Chunk::new(10, 4), Chunk::new(50, 6)];
        let c = extract_direct(&mut batch, 3, 64).unwrap();
        assert_eq!((c.start, c.len), (50, 6));
        // Nothing ≥ min at all.
        let mut batch = vec![Chunk::new(10, 2)];
        assert!(extract_direct(&mut batch, 3, 64).is_none());
        assert_eq!(batch.len(), 1);
    }
}
