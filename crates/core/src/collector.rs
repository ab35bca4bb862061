//! The collection cycle (Figures 2 and 5) and the collector thread.
//!
//! One collector thread runs every phase of a cycle in the paper's
//! order (DESIGN.md §4.7):
//!
//! | bucket        | work (by plan)                                                  |
//! |---------------|-----------------------------------------------------------------|
//! | `init`        | full collections of the gen modes: `InitFullCollection`         |
//! | `handshake-1` | post `sync1`, wait                                              |
//! | `handshake-2` | post `sync2`, card scan and toggle in Figure 2/5 order, wait    |
//! | `handshake-3` | raise tracing, post `async`, mark global roots, wait            |
//! | `trace`       | take the gray list onto the mark stack and drain, to termination |
//! | `reclaim`     | sweep `[1, frontier)`                                           |
//!
//! Each bucket publishes its code in [`GcShared::open_bucket`] (the
//! supervisor's abort and the watchdog name it), fires the
//! `collector.phase` chaos kill site, and is one phase window in the
//! event ring.  Card and root work nest inside their handshake windows
//! as phases of their own, so root marking is not billed to handshake
//! latency.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use otf_heap::Color;

use crate::config::{Mode, Promotion};
use crate::cycle::CycleCx;
use crate::obs::{dur_ns, phase, EventKind};
use crate::shared::{bucket, bucket_label, GcShared};
use crate::state::Status;
use crate::stats::{CycleKind, CycleStats};

/// Post-full-collection occupancy target: the committed heap grows until
/// live data occupies at most this fraction of it (the paper's JVM grew
/// its heap toward 32 MB under pressure the same way).
const GROW_FRACTION: f64 = 0.55;

impl GcShared {
    /// The heap-sizing rule, one for every mode (§8: "the calculation of
    /// the trigger for a full collection was the same with and without
    /// generations"): the committed size a full collection that measured
    /// `live` bytes grows the heap to.  Live data sits at most at
    /// `GROW_FRACTION` occupancy, and above it stays room for a whole
    /// young budget of garbage plus in-flight allocation, or the
    /// almost-full trigger would preempt every partial collection.
    pub(crate) fn sizing_target(&self, live: usize) -> usize {
        ((live as f64 / GROW_FRACTION) as usize).max(live * 3 / 2 + self.config.young_size * 9 / 4)
    }

    /// Runs one complete collection cycle.  Mutators keep running the
    /// whole time (on-the-fly): they cooperate via handshakes, their write
    /// barrier keeps the trace sound, and their allocations proceed with
    /// the allocation color.
    ///
    /// The buckets run in the module table's order; the plan (the
    /// collector mode) only selects what the init and second-handshake
    /// buckets do.  Phase attribution takes each bucket's span once, at
    /// its end: handshake windows cover the full post→ack interval, and
    /// the card/root work nested inside them is subtracted out into its
    /// own slots.
    pub(crate) fn run_cycle(&self, kind: CycleKind, cx: &mut CycleCx) -> CycleStats {
        let cycle_start = Instant::now();
        // Chaos kill site 1 of 6 (cycle start, before any bucket opens);
        // the remaining five fire as each later bucket opens.
        if self.fault("collector.phase") {
            panic!("injected collector panic (phase: cycle-start)");
        }
        cx.reset(kind);

        // ----- clear (Figure 2/5: "clear: If (full collection) Init...")
        // The init bucket opens before the accumulator is read (the
        // cycle itself has been open in `Control` since its hand-out).
        self.open_bucket.store(bucket::INIT, Ordering::Release);
        self.obs.note_cycle_begin(kind, cx.cause);
        cx.stats.used_before = self.heap.used_bytes();
        cx.stats.allocated_since_last = self.bytes_since_cycle();
        cx.stats.phases.init = self.bucket(bucket::INIT, phase::INIT, || {
            // The toggled non-generational baseline needs no
            // initialization pass (Remark 5.1).
            if kind == CycleKind::Full && self.config.is_generational() {
                self.init_full_collection(cx);
            }
        });

        let mut windows = self.bucket(bucket::HANDSHAKE_1, phase::HANDSHAKE, || {
            self.post_handshake(Status::Sync1);
            self.wait_handshake();
        });

        // ----- second handshake: card work and the color toggle --------
        windows += self.bucket(bucket::HANDSHAKE_2, phase::HANDSHAKE, || {
            self.post_handshake(Status::Sync2);
            match self.config.mode {
                Mode::NonGenerational => self.colors.toggle(),
                Mode::Generational(Promotion::Simple) => {
                    // Figure 2 order: ClearCards *before* the toggle, so
                    // card marks for parents of yellow objects are never
                    // lost (§7.1).  Both kinds scan.
                    cx.stats.phases.cards = self.timed(phase::CARDS, || self.clear_cards(cx));
                    self.colors.toggle();
                }
                Mode::Generational(Promotion::Aging { .. }) => {
                    // Figure 5 order: toggle first, then scan — the aging
                    // scan grays the previous cycle's young survivors,
                    // which only carry the clear color after the toggle.
                    // Full collections skip the scan entirely (§6).
                    self.colors.toggle();
                    if kind == CycleKind::Partial {
                        cx.stats.phases.cards = self.timed(phase::CARDS, || self.clear_cards(cx));
                    }
                }
            }
            self.wait_handshake();
        });
        // Each mutator flushes its private counts on parking and right
        // after it acks `sync2`, so this total is what was allocated
        // before the toggle, to within one flush interval per mutator.
        let allocated_at_toggle = self.heap.bytes_allocated();

        // ----- third handshake: root marking ---------------------------
        // Its kill site fires after the toggle and before tracing is
        // raised: the abort repaint must be sound there too.
        windows += self.bucket(bucket::HANDSHAKE_3, phase::HANDSHAKE, || {
            // Tracing goes up first: the barrier must start graying
            // overwritten values before any mutator can observe async.
            self.tracing.store(true, Ordering::Release);
            self.post_handshake(Status::Async);
            // Global roots between the post and its wait (Figure 2).
            cx.stats.phases.roots =
                self.timed(phase::ROOTS, || self.mark_global_roots(&mut cx.mark_stack));
            self.wait_handshake();
        });
        cx.stats.phases.handshakes = windows
            .saturating_sub(cx.stats.phases.cards)
            .saturating_sub(cx.stats.phases.roots);

        cx.stats.phases.trace = self.bucket(bucket::TRACE, phase::TRACE, || self.trace(cx));
        self.tracing.store(false, Ordering::Release);
        cx.stats.phases.sweep = self.bucket(bucket::RECLAIM, phase::SWEEP, || self.sweep(cx));
        if kind == CycleKind::Full {
            // The survivors the sweep counted, less what the mutators
            // allocated since the toggle: the same source in every mode.
            let allocated = self.heap.bytes_allocated() - allocated_at_toggle;
            cx.stats.live_bytes = cx.stats.bytes_survived.saturating_sub(allocated);
        }

        self.open_bucket.store(bucket::NONE, Ordering::Release);

        cx.stats.duration = cycle_start.elapsed();
        self.obs.note_cycle_end(kind, dur_ns(cx.stats.duration));
        cx.stats.pages_touched = cx.pages.touched() as u64;
        cx.stats.used_after = self.heap.used_bytes();
        cx.stats
    }

    /// Runs `body` as the cycle's bucket `code`: publishes the code in
    /// `open_bucket`, fires the `collector.phase` kill site (every bucket
    /// but `init`, which follows kill site 1 directly), and times it as
    /// phase `id` ([`GcShared::timed`]).
    fn bucket(&self, code: u8, id: u64, body: impl FnOnce()) -> Duration {
        self.open_bucket.store(code, Ordering::Release);
        if code != bucket::INIT && self.fault("collector.phase") {
            panic!(
                "injected collector panic (phase: {})",
                bucket_label(code as u64)
            );
        }
        self.timed(id, body)
    }

    /// Runs `body` between a `PhaseBegin` and a `PhaseEnd` event for
    /// phase `id` and returns its span, which the `PhaseEnd` carries too.
    fn timed(&self, id: u64, body: impl FnOnce()) -> Duration {
        let t = Instant::now();
        self.obs.event(EventKind::PhaseBegin, id, 0);
        body();
        let span = t.elapsed();
        self.obs.event(EventKind::PhaseEnd, id, dur_ns(span));
        span
    }

    /// The collector thread body: sleep until a collection is requested,
    /// run the cycle, record statistics, apply the post-full-collection
    /// growth heuristic, and wake any allocation-blocked mutators.
    pub(crate) fn collector_loop(self: Arc<GcShared>) {
        let mut cx = CycleCx::new(&self);
        let mut alloc_at_last_full = 0u64;
        while let Some((kind, cause)) = self.control.next_request() {
            // Chaos hook: a failing injection here kills the collector
            // thread, exercising the panic-containment path (poisoned
            // shutdown, `AllocError::CollectorUnavailable`).
            if self.fault("collector.panic") {
                panic!("injected collector panic (chaos fault plan)");
            }
            cx.cause = cause;
            let mut stats = self.run_cycle(kind, &mut cx);
            if kind == CycleKind::Full {
                let total_alloc = self.heap.bytes_allocated();
                let since_last_full = total_alloc - alloc_at_last_full;
                alloc_at_last_full = total_alloc;
                let target = self.sizing_target(stats.live_bytes as usize);
                stats.target_bytes = target as u64;
                self.heap.grow_to(target);
                // Full-GC thrash backstop: if less than a quarter of the
                // committed size was allocated since the previous full
                // collection, the heap is simply too small; widen it by
                // one young budget (gently — doubling here would blow the
                // carefully-sized trigger gap apart).  It also fires
                // right after the first full's `grow_to`: `since_last_full`
                // counts from 0 and is compared with the size just grown.
                if since_last_full < self.heap.committed_bytes() as u64 / 4 {
                    self.heap
                        .grow_to(self.heap.committed_bytes() + self.config.young_size);
                }
            }
            self.control.close_cycle(stats);
            // Triggers crossed while the cycle was open were dropped;
            // re-evaluate them now so a mutator that stopped allocating —
            // or one still below its next 64 KB batch — cannot starve a
            // due collection.
            self.evaluate_triggers();
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
    ///    clears the gray list — any entry a racing barrier pushes
    ///    afterwards is harmless, because `mark_black` ignores entries
    ///    whose granule is no longer gray;
    /// 4. repaints every object granule to the *live* color
    ///    ([`trace_target`](GcShared::trace_target): black for the
    ///    generational plans, the allocation color for the baseline)
    ///    with the repaint loop `InitFullCollection` uses
    ///    ([`recolor_above`](otf_heap::ColorTable::recolor_above), floor
    ///    `Interior`).  Nothing is freed by an aborted cycle, so the
    ///    worst outcome is floating
    ///    garbage; the forced full collection below re-traces everything
    ///    from roots, rebuilding real liveness (and, in the generational
    ///    plans, the generations — its init pass demotes every black
    ///    object before the toggle, restoring the "all pre-cycle objects
    ///    carry the clear color" invariant the trace needs);
    /// 5. clears `open_bucket`, closes the open cycle in `Control` and
    ///    re-arms it with a full-collection request, so allocators parked
    ///    in `wait_for_full` are served by the restarted loop instead of
    ///    poisoned, then replays `evaluate_triggers`.
    ///
    /// `restarts` is the restart ordinal this abort precedes (1-based),
    /// recorded in the `RecoveryEnd` event.
    pub(crate) fn abort_cycle(&self, restarts: u64) {
        let t = Instant::now();
        let open = self.open_bucket.load(Ordering::Acquire);
        let had_cycle = open != bucket::NONE;
        self.obs.event(EventKind::RecoveryBegin, open as u64, 0);

        self.tracing.store(false, Ordering::Release);
        self.status_c.store(Status::Async as u8, Ordering::Release);
        let snapshot = self.mutators.lock().clone();
        for m in &snapshot {
            m.force_async();
        }

        // Give in-flight write barriers a moment to drain; proceeding
        // past a wedged barrier is safe (see step 3 above), so the wait
        // is bounded rather than a second place to hang.
        let spin = Instant::now();
        while !self.mutators_all_even() && spin.elapsed() < Duration::from_millis(10) {
            std::thread::yield_now();
        }
        self.gray.lock().clear();

        // Chaos window: a failing injection here models a panic *during*
        // recovery (the double-panic path — the supervisor falls back to
        // permanent poison).
        if self.fault("collector.recovery") {
            panic!("injected collector panic (recovery window)");
        }

        let end = self.heap.frontier_granule();
        self.heap
            .colors()
            .recolor_above(1, end, Color::Interior, self.trace_target());

        self.open_bucket.store(bucket::NONE, Ordering::Release);
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
    use crate::control::Cause;
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

    /// The bucket sequence of every (plan × kind), as the event ring
    /// records it: one traced cycle with no mutators, a rooted object and
    /// a dirtied card.  The literals are the sequences the packet
    /// scheduler emitted before this straight-line cycle replaced it.
    /// The toggle is no event: it falls inside the second handshake
    /// window, after the CARDS phase in gen and before it in aging
    /// partials; aging fulls and nogen have no CARDS phase.
    #[test]
    fn cycle_events_follow_figure_2_and_5_order() {
        use crate::obs::phase::{CARDS, HANDSHAKE as HS, INIT, ROOTS, SWEEP, TRACE};
        use EventKind::{
            CycleBegin, CycleEnd, HandshakePost, PhaseBegin as Begin, PhaseEnd as End,
        };
        const SYNC1: u64 = Status::Sync1 as u64;
        const SYNC2: u64 = Status::Sync2 as u64;
        const ASYNC: u64 = Status::Async as u64;

        let head = |k: u64| vec![(CycleBegin, k), (Begin, INIT), (End, INIT)];
        let hs1 = [(Begin, HS), (HandshakePost, SYNC1), (End, HS)];
        let hs2_cards = [
            (Begin, HS),
            (HandshakePost, SYNC2),
            (Begin, CARDS),
            (End, CARDS),
            (End, HS),
        ];
        let hs2_bare = [(Begin, HS), (HandshakePost, SYNC2), (End, HS)];
        let tail = |k: u64| {
            vec![
                (Begin, HS),
                (HandshakePost, ASYNC),
                (Begin, ROOTS),
                (End, ROOTS),
                (End, HS),
                (Begin, TRACE),
                (End, TRACE),
                (Begin, SWEEP),
                (End, SWEEP),
                (CycleEnd, k),
            ]
        };
        let seq = |k: u64, hs2: &[(EventKind, u64)]| {
            [head(k), hs1.to_vec(), hs2.to_vec(), tail(k)].concat()
        };

        let aging: fn() -> GcConfig = || GcConfig::aging(3);
        for (make, kind, expect) in [
            (
                GcConfig::generational as fn() -> GcConfig,
                CycleKind::Partial,
                seq(0, &hs2_cards),
            ),
            (GcConfig::generational, CycleKind::Full, seq(1, &hs2_cards)),
            (aging, CycleKind::Partial, seq(0, &hs2_cards)),
            (aging, CycleKind::Full, seq(1, &hs2_bare)),
            (
                GcConfig::non_generational,
                CycleKind::Partial,
                seq(0, &hs2_bare),
            ),
            (
                GcConfig::non_generational,
                CycleKind::Full,
                seq(1, &hs2_bare),
            ),
        ] {
            let (sh, mut cx) = setup(make().with_event_trace(true));
            let parent = alloc(&sh, 1);
            sh.add_global_root(parent);
            sh.cards.mark_byte(parent.byte());
            sh.run_cycle(kind, &mut cx);
            let got: Vec<(EventKind, u64)> = sh
                .obs
                .events()
                .iter()
                .filter(|e| matches!(e.kind, CycleBegin | Begin | End | HandshakePost | CycleEnd))
                .map(|e| (e.kind, e.a))
                .collect();
            assert_eq!(got, expect, "{} {kind:?}", make().plan_name());
        }
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
        sh.tracing.store(true, Ordering::Release);
        sh.status_c.store(Status::Sync2 as u8, Ordering::Release);
        sh.open_bucket.store(bucket::TRACE, Ordering::Release);
        sh.mark_gray_snapshot(live, |o| sh.gray.lock().push(o));
        assert!(!sh.gray.lock().is_empty());

        sh.abort_cycle(1);

        assert!(!sh.tracing.load(Ordering::Acquire));
        assert_eq!(sh.status_c(), Status::Async);
        assert_eq!(m.status(), Status::Async, "handshake completed by fiat");
        assert!(sh.gray.lock().is_empty());
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
            sh.open_bucket.store(bucket::HANDSHAKE_1, Ordering::Release);

            sh.abort_cycle(1);

            // No object freed by an aborted cycle: the garbage floats.
            assert!(sh.heap.colors().get(dead.granule()).is_object());
            // The re-armed request is a *full* collection; running it
            // rebuilds real liveness and reclaims the float.
            assert_eq!(
                sh.control.next_request(),
                Some((CycleKind::Full, Cause::Recovery))
            );
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

    /// The `cause` of every `cycle_begin` event, in order.
    fn begin_causes(gc: &crate::Gc) -> Vec<&'static str> {
        gc.events()
            .iter()
            .filter(|e| e.kind == EventKind::CycleBegin)
            .map(|e| Cause::name(e.b))
            .collect()
    }

    /// A requested partial runs, with no allocation since the last cycle.
    #[test]
    fn requested_partial_runs_without_allocation() {
        for cfg in [GcConfig::generational(), GcConfig::non_generational()] {
            let gc = crate::Gc::new(cfg.with_event_trace(true));
            let mut m = gc.mutator();
            let r = m.alloc(&ObjShape::new(0, 1)).unwrap();
            m.root_push(r);
            m.parked(|| {
                gc.request_partial();
                // None pending: the collector has taken the request, so
                // the full below cannot absorb it.
                while gc.shared.control.has_request() {
                    std::thread::yield_now();
                }
                gc.collect_full_blocking();
            });
            let kinds: Vec<CycleKind> = gc.stats().cycles.iter().map(|c| c.kind).collect();
            assert_eq!(
                kinds,
                [CycleKind::Partial, CycleKind::Full],
                "{}",
                cfg.plan_name()
            );
            assert_eq!(begin_causes(&gc), ["requested", "requested"]);
            drop(m);
            gc.shutdown();
        }
    }

    /// A mutator crossing the almost-full line again while the collector
    /// sits between taking a full request and starting the cycle (a
    /// delay at `collector.panic` holds that window open) posts nothing:
    /// the cycle is open from hand-out, so one full runs, not two.
    #[test]
    fn almost_full_in_the_start_window_runs_one_full() {
        use otf_support::fault::{FaultAction, FaultPlan, FaultRule, Faults};
        let faults = Arc::new(Faults::new(
            FaultPlan::new(4).rule(
                FaultRule::at("collector.panic")
                    .delaying(1.0, 200_000)
                    .max_fires(1),
            ),
        ));
        // Fixed at 2 MB: no growth moves the almost-full line.
        let cfg = GcConfig::generational()
            .with_max_heap(2 << 20)
            .with_initial_heap(2 << 20)
            .with_young_size(8 << 20)
            .with_event_trace(true);
        let gc = crate::Gc::with_faults(cfg, Arc::clone(&faults));
        let mut m = gc.mutator();
        let shape = ObjShape::new(0, 127); // 1 KB
        let rooted_alloc = |m: &mut crate::Mutator| {
            let r = m.alloc(&shape).unwrap();
            m.root_push(r);
        };
        // Fill up to the almost-full request, then wait for the collector
        // to take it and sleep in its start window.
        while faults.log().is_empty() {
            if gc.shared.control.has_request() {
                std::thread::yield_now();
            } else {
                rooted_alloc(&mut m);
            }
        }
        let FaultAction::Delay { micros } = faults.log()[0].action else {
            panic!("{:?}", faults.log());
        };
        assert!(micros >= 20_000, "window too short: {micros} us");
        // Cross the line again by four trigger batches.
        for _ in 0..256 {
            rooted_alloc(&mut m);
        }
        m.parked(|| {
            gc.collect_full_blocking();
            // The almost-full cycle's close wakes this wait; the requested
            // one may not have begun yet.
            while gc.cycles_completed() < 2 {
                std::thread::yield_now();
            }
        });
        assert_eq!(begin_causes(&gc), ["almost_full", "requested"]);
        drop(m);
        gc.shutdown();
    }

    /// Every mode sizes the heap from the same live set: a full over a
    /// retained 2 MB tree records it within 10 %, and the target the
    /// rule derives from it.
    #[test]
    fn full_collection_sizes_the_heap_from_the_live_set_in_every_mode() {
        for cfg in [GcConfig::generational(), GcConfig::non_generational()] {
            let gc = crate::Gc::new(cfg);
            let mut m = gc.mutator();
            let node = ObjShape::new(2, 29); // 256 bytes
            let nodes = (2 << 20) / node.size_bytes();
            // A complete binary tree, every node rooted until linked.
            for _ in 0..nodes {
                let r = m.alloc(&node).unwrap();
                m.root_push(r);
            }
            for i in 1..nodes {
                let (parent, child) = (m.root_get((i - 1) / 2), m.root_get(i));
                m.write_ref(parent, (i - 1) % 2, child);
            }
            m.root_truncate(1);
            // The first wait may be served by a full that was open before
            // the tree was complete; the second full starts after it.
            m.parked(|| {
                gc.collect_full_blocking();
                gc.collect_full_blocking();
            });
            let last = *gc.stats().cycles.last().unwrap();
            assert_eq!(last.kind, CycleKind::Full);
            let (tree, live) = ((nodes * node.size_bytes()) as f64, last.live_bytes);
            assert!(
                (live as f64 - tree).abs() <= tree / 10.0,
                "{}: live {live} for a {tree} byte tree",
                cfg.plan_name()
            );
            let young = cfg.young_size as u64;
            let rule = ((live as f64 / GROW_FRACTION) as u64).max(live * 3 / 2 + young * 9 / 4);
            assert_eq!(last.target_bytes, rule, "{}", cfg.plan_name());
            drop(m);
            gc.shutdown();
        }
    }

    /// The rule's floor is committed before the first full runs, so a
    /// default heap that starts at 1 MB stalls no allocation while it
    /// does, even with the collector held at the cycle's start (a delay
    /// at `collector.panic`) while 2 MB are allocated.
    #[test]
    fn first_full_collection_stalls_no_allocation() {
        use otf_support::fault::{FaultPlan, FaultRule, Faults};
        let hold = FaultPlan::new(0).rule(
            FaultRule::at("collector.panic")
                .delaying(1.0, 200_000)
                .max_fires(1),
        );
        let gc = crate::Gc::with_faults(GcConfig::default(), Arc::new(Faults::new(hold)));
        let mut m = gc.mutator();
        let shape = ObjShape::new(0, 7); // 64 bytes
        for _ in 0..(2 << 20) / shape.size_bytes() {
            m.alloc(&shape).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        m.parked(|| {
            while gc.shared.control.fulls_done() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let stats = gc.stats();
        assert!(stats.cycles.iter().any(|c| c.kind == CycleKind::Full));
        assert_eq!(stats.alloc_stall.count(), 0);
        drop(m);
        gc.shutdown();
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
