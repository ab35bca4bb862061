//! The collection cycle (Figures 2 and 5) and the collector thread.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use otf_heap::Color;
use otf_support::packet::Schedule;

use crate::cycle::CycleCx;
use crate::lazy::LazyWho;
use crate::obs::{dur_ns, EventKind};
use crate::plan::CycleFrame;
use crate::shared::{bucket, GcShared};
use crate::state::Status;
use crate::stats::{CycleKind, CycleStats};

impl GcShared {
    /// Runs one complete collection cycle.  Mutators keep running the
    /// whole time (on-the-fly): they cooperate via handshakes, their write
    /// barrier keeps the trace sound, and their allocations proceed with
    /// the allocation color.
    ///
    /// The cycle is a packet schedule (DESIGN.md §4.7): this
    /// configuration's plan selects the packets, the buckets open in
    /// Figure 2/5 order, and with one worker the schedule drains
    /// byte-for-byte the verified DLG sequence.  Phase attribution reads
    /// the closed buckets' spans back: each span is sampled exactly once
    /// at bucket close, handshake windows cover the full post→ack
    /// interval, and the card/root work nested inside them is subtracted
    /// out into its own slots.
    pub(crate) fn run_cycle(&self, kind: CycleKind, cx: &mut CycleCx) -> CycleStats {
        let cycle_start = Instant::now();
        // Chaos kill site 1 of 6 (cycle start, before any bucket opens);
        // the remaining five fire from the schedule's bucket-open hooks.
        if otf_support::fault::point("collector.phase") {
            panic!("injected collector panic (phase: cycle-start)");
        }
        cx.reset();

        let workers = self.config.gc_threads;
        let frame = CycleFrame::new(workers);
        let mut sched = Schedule::new();
        let buckets = self.build_cycle_schedule(&mut sched, kind, &frame, workers);
        self.run_schedule(&sched, cx, workers);

        cx.phases.init = sched.span(buckets.init);
        cx.phases.cards = Duration::from_nanos(frame.cards_ns.load(Ordering::Relaxed));
        cx.phases.roots = Duration::from_nanos(frame.roots_ns.load(Ordering::Relaxed));
        let windows = sched.span(buckets.hs1) + sched.span(buckets.hs2) + sched.span(buckets.hs3);
        cx.phases.handshakes = windows
            .saturating_sub(cx.phases.cards)
            .saturating_sub(cx.phases.roots);
        cx.phases.trace = sched.span(buckets.trace);
        cx.phases.sweep = sched.span(buckets.reclaim)
            + buckets.finalize.map_or(Duration::ZERO, |b| sched.span(b));

        self.open_bucket
            .store(crate::shared::bucket::NONE, Ordering::Release);
        self.collecting.store(false, Ordering::Release);

        let duration = cycle_start.elapsed();
        self.obs.note_cycle_end(kind, dur_ns(duration));

        let c = cx.counters;
        CycleStats {
            kind,
            duration,
            phases: cx.phases,
            objects_traced: c.objects_traced,
            intergen_objects: c.intergen_objects,
            intergen_bytes: c.intergen_bytes,
            dirty_cards: c.dirty_cards,
            cards_in_use: c.cards_in_use,
            objects_freed: c.objects_freed,
            bytes_freed: c.bytes_freed,
            objects_survived: c.objects_survived,
            bytes_survived: c.bytes_survived,
            bytes_alloc_colored: c.bytes_alloc_colored,
            pages_touched: cx.pages.touched() as u64,
            used_before: frame.used_before.load(Ordering::Relaxed),
            used_after: self.heap.used_bytes(),
            allocated_since_last: frame.allocated_since.load(Ordering::Relaxed),
        }
    }

    /// The collector thread body: sleep until a collection is requested,
    /// run the cycle, record statistics, apply the post-full-collection
    /// growth heuristic, and wake any allocation-blocked mutators.
    pub(crate) fn collector_loop(self: Arc<GcShared>) {
        let mut cx = CycleCx::new(&self);
        let mut alloc_at_last_full = 0u64;
        while let Some(kind) = self.control.next_request() {
            // Chaos hook: a failing injection here kills the collector
            // thread, exercising the panic-containment path (poisoned
            // shutdown, `AllocError::CollectorUnavailable`).
            if otf_support::fault::point("collector.panic") {
                panic!("injected collector panic (chaos fault plan)");
            }
            // Re-validate partial requests: a mutator can re-post one in
            // the window between this loop consuming the previous request
            // and the cycle publishing its `collecting` flag, against an
            // allocation counter the finished cycle was about to consume.
            // Running such a phantom would collect a half-empty young
            // generation back to back with the real cycle.
            if kind == CycleKind::Partial
                && self.control.bytes_since_cycle() < self.config.young_size as u64 / 2
            {
                self.lazy_drain_between_cycles();
                continue;
            }
            let stats = self.run_cycle(kind, &mut cx);
            {
                let mut s = self.stats.lock();
                s.gc_active += stats.duration;
                s.cycles.push(stats);
            }
            if kind == CycleKind::Full {
                let total_alloc = self.heap.bytes_allocated();
                let since_last_full = total_alloc - alloc_at_last_full;
                alloc_at_last_full = total_alloc;
                // Resize toward a target occupancy, like the paper's JVM
                // heap manager, from the *measured live set* (the full
                // collection's survivors minus allocation that raced the
                // cycle): live data should sit at ≤ grow_fraction
                // occupancy, and the almost-full trigger must leave
                // headroom for a whole young-generation budget plus
                // in-flight allocation above the live set — otherwise it
                // would preempt every partial collection.  The same
                // calculation serves non-generational mode (§8: "the
                // calculation of the trigger for a full collection was
                // the same with and without generations"), where it
                // yields a cadence of roughly 1.7 young-budgets of
                // garbage per collection.
                let live = stats
                    .bytes_survived
                    .saturating_sub(stats.bytes_alloc_colored) as usize;
                // The generational heap needs headroom for a whole young
                // budget of uncollected garbage *plus* in-flight
                // allocation above the live set, or the almost-full
                // trigger preempts every partial.  The non-generational
                // heap has no such constraint and the paper's JDK grew it
                // only under allocation pressure, leaving it snug around
                // the live set — its Figure 10 cadences correspond to a
                // gap of roughly one young budget per collection.
                let headroom = if self.config.is_generational() {
                    self.config.young_size * 9 / 4
                } else {
                    self.config.young_size * 5 / 4
                };
                let target = ((live as f64 / self.config.grow_fraction) as usize)
                    .max(live * 3 / 2 + headroom);
                self.heap.grow_to(target);
                // Full-GC thrash backstop: if less than a quarter of the
                // committed size was allocated since the previous full
                // collection, the heap is simply too small; widen it by
                // one young budget (gently — doubling here would blow the
                // carefully-sized trigger gap apart).
                if since_last_full < self.heap.committed_bytes() as u64 / 4 {
                    self.heap
                        .grow_to(self.heap.committed_bytes() + self.config.young_size);
                }
            }
            self.control.consume_allocated(stats.allocated_since_last);
            self.control.note_cycle_done(kind);
            // Triggers crossed while the cycle ran were deliberately
            // ignored (`collecting` was set); re-evaluate them now so a
            // mutator that stopped allocating — or one still below its
            // next 64 KB batch — cannot starve a due collection.
            self.evaluate_triggers();
            // Lazy back-end: reclaim leftover epoch segments between
            // cycles so garbage is not stranded on an idle heap, yielding
            // to fresh cycle requests segment-by-segment.
            self.lazy_drain_between_cycles();
        }
    }

    /// The safe cycle-abort protocol (DESIGN.md §4.8).  Called by the
    /// supervisor after the collector loop panicked — whether from an
    /// internal bug, an injected fault, or the watchdog's abort-cycle
    /// escalation — and before the loop is respawned.  Rolls whatever
    /// cycle was in flight forward to a no-op:
    ///
    /// 1. lowers `tracing` (the write barrier falls back to plain card
    ///    marking);
    /// 2. completes the in-flight handshake by fiat: `status_c` returns
    ///    to `Async` and every mutator's status is forced to match, so
    ///    no mutator is stranded mid-`Sync` waiting on a dead collector;
    /// 3. waits (bounded) for write-barrier epochs to go even, then
    ///    discards the gray queue — any entry a racing barrier pushes
    ///    afterwards is harmless, because `mark_black` ignores entries
    ///    whose granule is no longer gray;
    /// 4. repaints every object granule to the *live* color
    ///    ([`trace_target`](GcShared::trace_target): black for the
    ///    generational plans, the allocation color for the baseline)
    ///    with the same SWAR scan `InitFullCollection` uses.  Nothing is
    ///    freed by an aborted cycle, so the worst outcome is floating
    ///    garbage; the forced full collection below re-traces everything
    ///    from roots, rebuilding real liveness (and, in the generational
    ///    plans, the generations — its init pass demotes every black
    ///    object before the toggle, restoring the "all pre-cycle objects
    ///    carry the clear color" invariant the trace needs);
    /// 5. force-finalizes any published lazy-sweep epoch (the schedule
    ///    order guarantees its parameters predate the aborted cycle's
    ///    toggle, so finalizing is exactly what the next cycle's
    ///    `lazy-finalize` bucket would have done);
    /// 6. clears the cycle-in-flight state and re-arms `Control` with a
    ///    full-collection request, so allocators parked in
    ///    `wait_for_full` are served by the restarted loop instead of
    ///    poisoned, then replays `evaluate_triggers`.
    ///
    /// `restarts` is the restart ordinal this abort precedes (1-based),
    /// recorded in the `RecoveryEnd` event.
    pub(crate) fn abort_cycle(&self, restarts: u64) {
        let t = Instant::now();
        let open = self.open_bucket.load(Ordering::Acquire);
        let had_cycle = open != bucket::NONE || self.collecting.load(Ordering::Acquire);
        self.obs.event(EventKind::RecoveryBegin, open as u64, 0);

        self.tracing.store(false, Ordering::Release);
        self.status_c.store(Status::Async as u8, Ordering::Release);
        let snapshot = self.mutators.lock().clone();
        for m in &snapshot {
            m.force_async();
        }
        self.notify_handshake();

        // Give in-flight write barriers a moment to drain; proceeding
        // past a wedged barrier is safe (see step 3 above), so the wait
        // is bounded rather than a second place to hang.
        let spin = Instant::now();
        while !self.mutators_all_even() && spin.elapsed() < Duration::from_millis(10) {
            std::thread::yield_now();
        }
        while self.gray.pop().is_some() {}

        // Chaos window: a failing injection here models a panic *during*
        // recovery (the double-panic path — the supervisor falls back to
        // permanent poison).
        if otf_support::fault::point("collector.recovery") {
            panic!("injected collector panic (recovery window)");
        }

        let live = self.trace_target();
        let colors = self.heap.colors();
        let end = self.heap.frontier_granule();
        let mut g = 1;
        loop {
            g = colors.next_color_above(g, end, Color::Interior);
            if g >= end {
                break;
            }
            colors.set(g, live);
            g += 1;
        }

        self.lazy_finalize(LazyWho::Collector);

        self.open_bucket.store(bucket::NONE, Ordering::Release);
        self.collecting.store(false, Ordering::Release);
        self.control.reset_for_recovery();
        self.evaluate_triggers();

        if had_cycle {
            self.obs.cycles_aborted.fetch_add(1, Ordering::Relaxed);
            self.obs.event(EventKind::CycleAborted, open as u64, 0);
        }
        let dur = dur_ns(t.elapsed());
        self.obs.recovery.record(dur);
        self.obs.event(EventKind::RecoveryEnd, restarts, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use otf_heap::{ObjShape, ObjectRef};

    fn setup(cfg: GcConfig) -> (GcShared, CycleCx) {
        let sh = GcShared::new(cfg.with_max_heap(1 << 20).with_initial_heap(1 << 20));
        let cx = CycleCx::new(&sh);
        (sh, cx)
    }

    /// Allocates through the substrate with the current allocation color.
    fn alloc(sh: &GcShared, refs: usize) -> ObjectRef {
        let shape = ObjShape::new(refs, 1);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap
            .install_object(c.start as usize, &shape, sh.colors.allocation_color())
    }

    #[test]
    fn full_cycle_collects_unrooted_keeps_global_roots() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let live = alloc(&sh, 1);
        let son = alloc(&sh, 0);
        sh.heap.arena().store_ref_slot(live, 0, son);
        let dead = alloc(&sh, 0);
        sh.add_global_root(live);

        let stats = sh.run_cycle(CycleKind::Full, &mut cx);
        assert_eq!(stats.kind, CycleKind::Full);
        assert_eq!(sh.heap.colors().get(live.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(son.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_traced, 2);
        assert!(stats.pages_touched > 0);
    }

    #[test]
    fn two_partials_promote_then_collect_old_garbage_only_in_full() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let a = alloc(&sh, 0);
        sh.add_global_root(a);
        // Partial 1: a survives, promoted black.
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Black);
        // Drop the root: a is now old garbage.
        assert!(sh.remove_global_root(a));
        // Partial 2 does NOT reclaim old garbage...
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Black);
        // ...but a full collection does.
        sh.run_cycle(CycleKind::Full, &mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Free);
    }

    #[test]
    fn partial_uses_dirty_cards_as_roots() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let parent = alloc(&sh, 1);
        sh.add_global_root(parent);
        sh.run_cycle(CycleKind::Partial, &mut cx); // promote parent
        assert!(sh.remove_global_root(parent));
        assert_eq!(sh.heap.colors().get(parent.granule()), Color::Black);

        // Store a young object into the old parent, as the async write
        // barrier would: store, then mark the parent's card.
        let young = alloc(&sh, 0);
        sh.heap.arena().store_ref_slot(parent, 0, young);
        sh.cards.mark_byte(parent.byte());

        let stats = sh.run_cycle(CycleKind::Partial, &mut cx);
        // Young survived purely through the inter-generational pointer.
        assert_eq!(sh.heap.colors().get(young.granule()), Color::Black);
        assert!(stats.intergen_objects >= 1);
        assert!(stats.dirty_cards >= 1);
    }

    #[test]
    fn partial_without_dirty_card_reclaims_unreferenced_young() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let young = alloc(&sh, 0);
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::Free);
    }

    #[test]
    fn non_generational_cycles_have_no_card_work() {
        let (sh, mut cx) = setup(GcConfig::non_generational());
        let live = alloc(&sh, 0);
        sh.add_global_root(live);
        let dead = alloc(&sh, 0);
        let stats = sh.run_cycle(CycleKind::Full, &mut cx);
        assert_eq!(stats.dirty_cards, 0);
        assert_eq!(stats.intergen_objects, 0);
        // Marked with the role-based "black" = the cycle's allocation
        // color, never literal black.
        assert_ne!(sh.heap.colors().get(live.granule()), Color::Black);
        assert!(sh.heap.colors().get(live.granule()).is_object());
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);

        // A second cycle must keep the survivor alive (toggle roles swap).
        let stats2 = sh.run_cycle(CycleKind::Full, &mut cx);
        assert!(sh.heap.colors().get(live.granule()).is_object());
        assert_eq!(stats2.objects_freed, 0);
    }

    #[test]
    fn aging_partial_cycle_ages_young_survivors() {
        let (sh, mut cx) = setup(GcConfig::aging(3));
        let obj = alloc(&sh, 0);
        sh.add_global_root(obj);
        assert_eq!(sh.heap.ages().get(obj.granule()), 1);
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.ages().get(obj.granule()), 2);
        assert_ne!(sh.heap.colors().get(obj.granule()), Color::Black);
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.ages().get(obj.granule()), 3);
        // Reached the threshold: the next cycle leaves it black (tenured).
        sh.run_cycle(CycleKind::Partial, &mut cx);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Black);
        assert_eq!(sh.heap.ages().get(obj.granule()), 3);
    }

    #[test]
    fn aging_full_collection_preserves_card_marks() {
        let (sh, mut cx) = setup(GcConfig::aging(3));
        let parent = alloc(&sh, 1);
        sh.add_global_root(parent);
        sh.cards.mark_byte(parent.byte());
        sh.run_cycle(CycleKind::Full, &mut cx);
        // §6: InitFullCollection does not clear the dirty bits.
        assert!(sh.cards.is_dirty(sh.cards.card_of_byte(parent.byte())));
    }

    #[test]
    fn simple_full_collection_clears_card_marks() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let parent = alloc(&sh, 1);
        sh.add_global_root(parent);
        sh.cards.mark_byte(parent.byte());
        sh.run_cycle(CycleKind::Full, &mut cx);
        assert!(!sh.cards.is_dirty(sh.cards.card_of_byte(parent.byte())));
    }

    #[test]
    fn abort_cycle_restores_quiescent_protocol_state() {
        let (sh, _cx) = setup(GcConfig::generational());
        let live = alloc(&sh, 0);
        sh.add_global_root(live);
        let m = sh.register_mutator();
        m.status.store(Status::Sync2 as u8, Ordering::Release);
        // Surrogate for a panic mid-trace: tracing raised, cycle in
        // flight, the trace bucket open, gray work queued.
        sh.collecting.store(true, Ordering::Release);
        sh.tracing.store(true, Ordering::Release);
        sh.status_c.store(Status::Sync2 as u8, Ordering::Release);
        sh.open_bucket.store(bucket::TRACE, Ordering::Release);
        sh.mark_gray_snapshot(live);
        assert!(!sh.gray.is_empty());

        sh.abort_cycle(1);

        assert!(!sh.tracing.load(Ordering::Acquire));
        assert!(!sh.collecting.load(Ordering::Acquire));
        assert_eq!(sh.status_c(), Status::Async);
        assert_eq!(m.status(), Status::Async, "handshake completed by fiat");
        assert!(sh.gray.is_empty());
        assert_eq!(sh.open_bucket.load(Ordering::Acquire), bucket::NONE);
        // Repainted to the live color (black in the generational plans).
        assert_eq!(sh.heap.colors().get(live.granule()), Color::Black);
        // A full collection was re-armed and the abort was counted.
        assert!(sh.control.has_request());
        assert_eq!(sh.obs.cycles_aborted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn abort_cycle_floats_garbage_and_forced_full_reclaims_it() {
        for cfg in [GcConfig::generational(), GcConfig::non_generational()] {
            let (sh, mut cx) = setup(cfg);
            let live = alloc(&sh, 1);
            let son = alloc(&sh, 0);
            sh.heap.arena().store_ref_slot(live, 0, son);
            let dead = alloc(&sh, 0);
            sh.add_global_root(live);
            sh.collecting.store(true, Ordering::Release);
            sh.open_bucket.store(bucket::HANDSHAKE_1, Ordering::Release);

            sh.abort_cycle(1);

            // No object freed by an aborted cycle: the garbage floats.
            assert!(sh.heap.colors().get(dead.granule()).is_object());
            // The re-armed request is a *full* collection; running it
            // rebuilds real liveness and reclaims the float.
            assert_eq!(sh.control.next_request(), Some(CycleKind::Full));
            sh.run_cycle(CycleKind::Full, &mut cx);
            assert!(sh.heap.colors().get(live.granule()).is_object());
            assert!(sh.heap.colors().get(son.granule()).is_object());
            assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);
            assert!(sh.verify_heap().is_empty());
        }
    }

    #[test]
    fn abort_cycle_between_cycles_counts_no_abort() {
        let (sh, _cx) = setup(GcConfig::non_generational());
        sh.abort_cycle(1);
        // No cycle was in flight: nothing to count as aborted, but the
        // conservative full request is still armed.
        assert_eq!(sh.obs.cycles_aborted.load(Ordering::Relaxed), 0);
        assert!(sh.control.has_request());
        assert_eq!(sh.status_c(), Status::Async);
    }

    #[test]
    fn cycle_stats_account_bytes() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let dead1 = alloc(&sh, 0); // 2 granules (header + ref0? refs=0,data=1 -> 1 granule)
        let dead2 = alloc(&sh, 3);
        let d1 = sh.heap.arena().header(dead1).size_bytes() as u64;
        let d2 = sh.heap.arena().header(dead2).size_bytes() as u64;
        let stats = sh.run_cycle(CycleKind::Full, &mut cx);
        assert_eq!(stats.bytes_freed, d1 + d2);
        assert_eq!(stats.objects_freed, 2);
        assert_eq!(stats.objects_survived, 0);
    }
}
