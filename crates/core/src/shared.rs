//! `GcShared`: the state shared by every mutator and the collector thread,
//! plus the graying primitives and the soft-handshake protocol.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use otf_heap::{CardTable, Color, HeapSpace, ObjectRef};
use otf_support::queue::SegQueue;
use otf_support::sync::{Condvar, Mutex};

use crate::config::{GcConfig, StallPolicy};
use crate::control::Control;
use crate::lazy::LazySweep;
use crate::obs::Obs;
use crate::state::{ColorState, MutatorShared, Status};
use crate::stats::CycleStats;

/// Codes for the cycle bucket currently open, published in
/// [`GcShared::open_bucket`] so the supervisor's abort routine and the
/// watchdog's stall reports can name where a cycle was interrupted.
/// `0` means no bucket is open (no cycle in flight).
pub(crate) mod bucket {
    pub const NONE: u8 = 0;
    pub const LAZY_FINALIZE: u8 = 1;
    pub const INIT: u8 = 2;
    pub const HANDSHAKE_1: u8 = 3;
    pub const HANDSHAKE_2: u8 = 4;
    pub const HANDSHAKE_3: u8 = 5;
    pub const TRACE: u8 = 6;
    pub const RECLAIM: u8 = 7;
}

/// Human-readable name for an [`bucket`] code (also used by the event
/// ring's JSON rendering, which carries the code as a `u64` payload).
pub(crate) fn bucket_label(code: u64) -> &'static str {
    match code as u8 {
        bucket::LAZY_FINALIZE => "lazy-finalize",
        bucket::INIT => "init",
        bucket::HANDSHAKE_1 => "handshake-1",
        bucket::HANDSHAKE_2 => "handshake-2",
        bucket::HANDSHAKE_3 => "handshake-3",
        bucket::TRACE => "trace",
        bucket::RECLAIM => "reclaim",
        _ => "none",
    }
}

#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub cycles: Vec<CycleStats>,
    pub gc_active: Duration,
}

/// State shared between all mutators and the collector.
pub(crate) struct GcShared {
    pub config: GcConfig,
    pub heap: HeapSpace,
    pub cards: CardTable,
    pub colors: ColorState,
    /// The collector's status (`status_c` in the pseudo-code).
    pub status_c: AtomicU8,
    /// True while the collector is tracing ("Collector is tracing" in the
    /// write barrier, Figure 1).
    pub tracing: AtomicBool,
    /// True while any collection cycle is in progress.
    pub collecting: AtomicBool,
    /// The [`bucket`] code of the schedule bucket currently open (0 =
    /// none).  Written by the cycle schedule's open hooks; read by the
    /// watchdog (report enrichment) and the supervisor's abort routine
    /// (which bucket the panic unwound out of).
    pub open_bucket: AtomicU8,
    /// The gray-object work queue.  Mutators push after winning the
    /// gray-coloring CAS; only the collector pops.
    pub gray: SegQueue<ObjectRef>,
    /// Registered mutators.
    pub mutators: Mutex<Vec<Arc<MutatorShared>>>,
    /// Registration-id counter for mutators (watchdog diagnostics).
    next_mutator_id: AtomicU64,
    /// Global (static) roots, marked by the collector at the third
    /// handshake.
    pub globals: Mutex<Vec<ObjectRef>>,
    pub control: Control,
    /// Lazy (allocation-time) sweep epoch state — inert unless
    /// `config.lazy_sweep` is set (DESIGN.md §4.6).
    pub lazy: LazySweep,
    pub stats: Mutex<StatsInner>,
    /// Pause histograms and the GC event trace ring.
    pub obs: Obs,
    pub start: Instant,
    /// Handshake wakeup: mutators notify after adopting a posted status
    /// (and when parking), so the collector sleeps instead of spinning —
    /// essential on machines with fewer cores than threads.
    hs_lock: Mutex<()>,
    hs_cond: Condvar,
}

impl std::fmt::Debug for GcShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcShared")
            .field("config", &self.config)
            .field("status_c", &self.status_c)
            .field("collecting", &self.collecting)
            .finish_non_exhaustive()
    }
}

impl GcShared {
    pub(crate) fn new(config: GcConfig) -> GcShared {
        config.validate().expect("invalid GcConfig");
        let heap = HeapSpace::new(config.max_heap, config.initial_heap);
        let cards = CardTable::new(config.max_heap, config.card_size);
        GcShared {
            config,
            heap,
            cards,
            colors: ColorState::new(),
            status_c: AtomicU8::new(Status::Async as u8),
            tracing: AtomicBool::new(false),
            collecting: AtomicBool::new(false),
            open_bucket: AtomicU8::new(bucket::NONE),
            gray: SegQueue::new(),
            mutators: Mutex::new(Vec::new()),
            next_mutator_id: AtomicU64::new(1),
            globals: Mutex::new(Vec::new()),
            control: Control::new(),
            lazy: LazySweep::default(),
            stats: Mutex::new(StatsInner::default()),
            obs: Obs::new(
                config.trace_events || std::env::var_os("OTF_GC_TRACE").is_some(),
                config.gc_threads,
            ),
            start: Instant::now(),
            hs_lock: Mutex::new(()),
            hs_cond: Condvar::new(),
        }
    }

    /// Wakes a collector blocked in [`wait_handshake`].  Called by
    /// mutators right after adopting a posted status or parking.
    ///
    /// [`wait_handshake`]: GcShared::wait_handshake
    pub(crate) fn notify_handshake(&self) {
        let _guard = self.hs_lock.lock();
        self.hs_cond.notify_all();
    }

    /// The collector's current status.
    #[inline]
    pub(crate) fn status_c(&self) -> Status {
        Status::from_byte(self.status_c.load(Ordering::Acquire))
    }

    /// The color that "black" plays during trace: literal black for the
    /// generational variants (black ⇔ traced, and in the simple variant
    /// also ⇔ old); for the non-generational baseline the *allocation*
    /// color is the mark color, which is how the black/white color toggle
    /// of Remark 5.1 avoids any recoloring pass.
    #[inline]
    pub(crate) fn trace_target(&self) -> Color {
        if self.config.is_generational() {
            Color::Black
        } else {
            self.colors.allocation_color()
        }
    }

    /// `MarkGray` as the collector (and the async-phase write barrier)
    /// performs it: shade the object only if it has the clear color.
    #[inline]
    pub(crate) fn mark_gray_clear(&self, obj: ObjectRef) {
        if obj.is_null() {
            return;
        }
        let clear = self.colors.clear_color();
        if self.heap.colors().cas(obj.granule(), clear, Color::Gray) {
            self.gray.push(obj);
        }
    }

    /// `MarkGray` as performed in the sync1/sync2 window and at root
    /// marking: both young colors are shaded (the §7.1 yellow exception —
    /// "whenever the DLG write barrier would shade a white object gray, it
    /// will also shade a yellow object gray").
    #[inline]
    pub(crate) fn mark_gray_snapshot(&self, obj: ObjectRef) {
        if obj.is_null() {
            return;
        }
        let g = obj.granule();
        let ct = self.heap.colors();
        if ct.cas(g, Color::White, Color::Gray) || ct.cas(g, Color::Yellow, Color::Gray) {
            self.gray.push(obj);
        }
    }

    /// Grays an old (black) object found on a dirty card so the trace will
    /// re-scan it (simple variant `ClearCards`, Figure 3).  Returns whether
    /// this call performed the shading.
    #[inline]
    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn mark_gray_from_black(&self, obj: ObjectRef) -> bool {
        let shaded = self
            .heap
            .colors()
            .cas(obj.granule(), Color::Black, Color::Gray);
        if shaded {
            self.gray.push(obj);
        }
        shaded
    }

    /// Collector-side `MarkGray` onto the collector's private mark stack
    /// (cheaper than the shared queue; only the collector pops it).
    #[inline]
    pub(crate) fn mark_gray_clear_local(&self, obj: ObjectRef, stack: &mut Vec<ObjectRef>) {
        if obj.is_null() {
            return;
        }
        let clear = self.colors.clear_color();
        if self.heap.colors().cas(obj.granule(), clear, Color::Gray) {
            stack.push(obj);
        }
    }

    /// Collector-side snapshot `MarkGray` (both young colors) onto the
    /// private mark stack.
    #[inline]
    pub(crate) fn mark_gray_snapshot_local(&self, obj: ObjectRef, stack: &mut Vec<ObjectRef>) {
        if obj.is_null() {
            return;
        }
        let g = obj.granule();
        let ct = self.heap.colors();
        if ct.cas(g, Color::White, Color::Gray) || ct.cas(g, Color::Yellow, Color::Gray) {
            stack.push(obj);
        }
    }

    /// Evaluates the §3.3 collection triggers against the current
    /// accumulator and heap occupancy, requesting a partial and/or full
    /// collection as needed.  Shared by the allocation slow path, the
    /// collector's end-of-cycle check (so a trigger crossed *during* a
    /// cycle is not starved until the next 64 KB allocation batch), and
    /// `Mutator::drop` (which flushes its unflushed bytes first).
    ///
    /// A no-op while a cycle is running: the collector re-evaluates when
    /// it finishes.
    pub(crate) fn evaluate_triggers(&self) {
        if self.collecting.load(Ordering::Acquire) {
            return;
        }
        let since = self.control.bytes_since_cycle();
        if self.config.is_generational() && since >= self.config.young_size as u64 {
            self.control.request_partial();
        }
        // Full collection when the heap is "almost full" (§3.3) — but only
        // after some allocation progress, to avoid re-triggering endlessly
        // on a mostly-live heap.  `used_granules` counts whole LABs at
        // grant time, so subtract the LAB leases: with many mutators
        // (one LAB each) the raw figure reads mostly-empty buffers as
        // pressure and fires premature full collections.  A lease comes
        // off whole until its LAB retires (DESIGN.md §4.10), so `used`
        // runs low — and the trigger late — by under one LAB per mutator.
        // In lazy-sweep mode, granules the published epoch has not yet
        // reclaimed still sit in `used_granules` even though they are
        // dead: subtract the epoch's unswept-garbage estimate so the
        // deferred sweep does not masquerade as occupancy and fire
        // premature full collections (DESIGN.md §4.6).
        let used = self
            .heap
            .used_bytes()
            .saturating_sub(self.heap.lab_leased_bytes())
            .saturating_sub(self.lazy.unswept_bytes() as usize) as f64;
        let committed = self.heap.committed_bytes() as f64;
        if used >= self.config.full_trigger_fraction * committed && since >= (64 << 10) {
            self.control.request_full();
        }
    }

    // ----- handshakes (§7: postHandshake / waitHandshake) -----

    /// `postHandshake(s)`: announce the new status.  The post timestamp
    /// is recorded first, so any mutator that observes the new status
    /// also observes a post time at least this fresh.
    pub(crate) fn post_handshake(&self, s: Status) {
        self.obs.note_handshake_post(s);
        self.status_c.store(s as u8, Ordering::Release);
    }

    /// `waitHandshake`: wait until every mutator has adopted the posted
    /// status.  Parked mutators are responded-to on their behalf under the
    /// park lock: if the transition is to `Async` (the third handshake),
    /// the collector marks the parked mutator's snapshot roots gray.
    pub(crate) fn wait_handshake(&self) {
        let target = self.status_c.load(Ordering::Acquire);
        let snapshot: Vec<Arc<MutatorShared>> = self.mutators.lock().clone();
        // Watchdog state: after `stall` without full adoption, name the
        // non-cooperating mutators instead of hanging silently, then keep
        // waiting — the protocol cannot proceed without the ack, but the
        // hang is now attributed.  Repeat reports are rate-limited
        // (spacing doubles each time) and escalate per
        // `handshake_stall_policy`: warn → trace-dump → abort-cycle (the
        // third report panics into the supervisor, which runs the safe
        // cycle abort and restarts the collector).
        let started = Instant::now();
        let stall = match self.config.handshake_stall_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let mut next_report = stall;
        let mut reports = 0u32;
        loop {
            otf_support::fault::point("collector.handshake.wait");
            let mut all_responded = true;
            for m in &snapshot {
                if m.status.load(Ordering::Acquire) == target {
                    continue;
                }
                let park = m.park.lock();
                if park.parked {
                    // Respond on the parked mutator's behalf.
                    if target == Status::Async as u8 {
                        for &r in &park.roots {
                            self.mark_gray_snapshot(r);
                        }
                    }
                    m.status.store(target, Ordering::Release);
                } else {
                    all_responded = false;
                }
            }
            if all_responded {
                return;
            }
            if let Some(at) = next_report {
                let waited = started.elapsed();
                if waited >= at {
                    reports += 1;
                    self.report_handshake_stall(&snapshot, target, waited, reports);
                    if reports >= 3 && self.config.handshake_stall_policy == StallPolicy::AbortCycle
                    {
                        // Unwind into the supervisor, which aborts the
                        // wedged cycle and restarts the collector loop —
                        // a bounded degradation instead of a diagnosed
                        // hang.  With restarts disabled this degrades to
                        // the verified poison path.
                        panic!(
                            "otf-gc watchdog: aborting wedged collection cycle \
                             (handshake to status {:?} stalled for {:?})",
                            Status::from_byte(target),
                            waited,
                        );
                    }
                    // Rate limit: double the spacing after every report
                    // so a long stall logs O(log t) lines, not O(t).
                    next_report = stall.map(|s| at + s * (1u32 << reports.min(16)));
                }
            }
            // Sleep until a mutator responds.  The status re-check under
            // the handshake lock pairs with the mutators' notify-under-
            // lock, so a response cannot be missed; the timeout only
            // covers park-state transitions racing the check.
            let mut guard = self.hs_lock.lock();
            let responded_now = snapshot
                .iter()
                .all(|m| m.status.load(Ordering::Acquire) == target || m.park.lock().parked);
            if !responded_now {
                self.hs_cond.wait_for(&mut guard, Duration::from_millis(1));
            }
        }
    }

    /// Watchdog report: which mutators have not acked the posted status
    /// after `waited`, on stderr, attributed to the active plan and the
    /// schedule bucket that is currently open.  The event-trace ring is
    /// dumped when tracing is on, or from the second report of a stall
    /// under the `TraceDump`/`AbortCycle` escalation policies.
    fn report_handshake_stall(
        &self,
        snapshot: &[Arc<MutatorShared>],
        target: u8,
        waited: Duration,
        nth: u32,
    ) {
        self.obs.watchdog_trips.fetch_add(1, Ordering::Relaxed);
        let stalled: Vec<u64> = snapshot
            .iter()
            .filter(|m| m.status.load(Ordering::Acquire) != target && !m.park.lock().parked)
            .map(|m| m.id)
            .collect();
        eprintln!(
            "otf-gc watchdog: handshake to status {:?} stalled for {:?} \
             (report #{nth}, plan {}, open bucket {}); \
             unresponsive mutator ids: {:?} (of {} registered)",
            Status::from_byte(target),
            waited,
            self.config.plan_name(),
            bucket_label(self.open_bucket.load(Ordering::Acquire) as u64),
            stalled,
            snapshot.len(),
        );
        let escalate_dump = nth >= 2 && self.config.handshake_stall_policy != StallPolicy::Warn;
        if self.obs.tracing_enabled() || escalate_dump {
            eprintln!("otf-gc watchdog: event-trace ring follows");
            let _ = self.obs.write_jsonl(&mut std::io::stderr().lock());
        }
    }

    /// Collector panic containment: called (from the spawn wrapper in
    /// `Gc::new`) after the collector thread's body panicked.  Restores
    /// protocol state no mutator should be left observing — tracing off,
    /// no cycle in progress, status back to `Async` so `cooperate` fast-
    /// paths — and poisons the control so every parked allocator wakes
    /// and surfaces `AllocError::CollectorUnavailable` instead of
    /// deadlocking.
    pub(crate) fn poison_after_panic(&self) {
        self.tracing.store(false, Ordering::Release);
        self.collecting.store(false, Ordering::Release);
        self.open_bucket.store(bucket::NONE, Ordering::Release);
        self.status_c.store(Status::Async as u8, Ordering::Release);
        self.control.poison();
        self.notify_handshake();
        eprintln!(
            "otf-gc: collector thread panicked; collection disabled, \
             allocation continues in grow-only mode"
        );
    }

    /// Convenience: `Handshake(s)` = post + wait (Figure 3).  The cycle
    /// schedule posts and waits as separate packets (tests).
    #[allow(dead_code)]
    pub(crate) fn handshake(&self, s: Status) {
        self.post_handshake(s);
        self.wait_handshake();
    }

    /// Registers a new mutator.  It joins with the collector's current
    /// status (it has no roots yet and has performed no updates, so it has
    /// trivially responded to any in-flight handshake).
    pub(crate) fn register_mutator(&self) -> Arc<MutatorShared> {
        let mut list = self.mutators.lock();
        let status = self.status_c();
        let id = self.next_mutator_id.fetch_add(1, Ordering::Relaxed);
        let m = Arc::new(MutatorShared::new(status, id));
        list.push(Arc::clone(&m));
        m
    }

    /// Deregisters a mutator (on `Mutator` drop).  Its shadow stack is
    /// gone, so it parks forever with an empty root snapshot; a collector
    /// mid-`waitHandshake` will proxy any outstanding response.
    pub(crate) fn deregister_mutator(&self, m: &Arc<MutatorShared>) {
        {
            let mut park = m.park.lock();
            park.parked = true;
            park.roots.clear();
        }
        {
            let mut list = self.mutators.lock();
            if let Some(pos) = list.iter().position(|x| Arc::ptr_eq(x, m)) {
                list.swap_remove(pos);
            }
        }
        self.notify_handshake();
    }

    /// Adds a global (static) root.
    pub(crate) fn add_global_root(&self, r: ObjectRef) {
        if !r.is_null() {
            self.globals.lock().push(r);
        }
    }

    /// Removes one occurrence of a global root.  Returns whether it was
    /// present.
    pub(crate) fn remove_global_root(&self, r: ObjectRef) -> bool {
        let mut g = self.globals.lock();
        if let Some(pos) = g.iter().position(|&x| x == r) {
            g.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Marks all global roots gray (between the third `postHandshake` and
    /// its `waitHandshake`, Figure 2).
    pub(crate) fn mark_global_roots_local(&self, stack: &mut Vec<ObjectRef>) {
        let globals = self.globals.lock().clone();
        for r in globals {
            self.mark_gray_snapshot_local(r, stack);
        }
    }

    /// Whether every registered mutator is outside its write-barrier
    /// epoch (§4.3): the trace bucket's closing condition observes this
    /// *before* re-checking queue emptiness.
    pub(crate) fn mutators_all_even(&self) -> bool {
        self.mutators.lock().iter().all(|m| m.epoch_is_even())
    }

    /// Queue-based variant (tests).
    #[allow(dead_code)]
    pub(crate) fn mark_global_roots(&self) {
        let globals = self.globals.lock().clone();
        for r in globals {
            self.mark_gray_snapshot(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GcShared {
        GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        )
    }

    fn alloc_white(sh: &GcShared, refs: usize) -> ObjectRef {
        let shape = otf_heap::ObjShape::new(refs, 0);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap
            .install_object(c.start as usize, &shape, sh.colors.allocation_color())
    }

    #[test]
    fn trace_target_by_mode() {
        let sh = small();
        assert_eq!(sh.trace_target(), Color::Black);
        let sh = GcShared::new(
            GcConfig::non_generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        );
        assert_eq!(sh.trace_target(), Color::White);
        sh.colors.toggle();
        assert_eq!(sh.trace_target(), Color::Yellow);
    }

    #[test]
    fn mark_gray_clear_only_shades_clear_color() {
        let sh = small();
        let obj = alloc_white(&sh, 1); // allocated White; clear color is Yellow
        sh.mark_gray_clear(obj);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::White);
        assert!(sh.gray.is_empty());
        sh.colors.toggle(); // now White is the clear color
        sh.mark_gray_clear(obj);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Gray);
        assert_eq!(sh.gray.pop(), Some(obj));
    }

    #[test]
    fn mark_gray_snapshot_shades_both_young_colors() {
        let sh = small();
        let a = alloc_white(&sh, 0);
        sh.colors.toggle();
        let b = alloc_white(&sh, 0); // allocated Yellow
        sh.mark_gray_snapshot(a);
        sh.mark_gray_snapshot(b);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(b.granule()), Color::Gray);
        // Exactly two pushes, no duplicates on re-graying.
        sh.mark_gray_snapshot(a);
        let mut n = 0;
        while sh.gray.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn null_is_never_grayed() {
        let sh = small();
        sh.mark_gray_clear(ObjectRef::NULL);
        sh.mark_gray_snapshot(ObjectRef::NULL);
        assert!(sh.gray.is_empty());
    }

    #[test]
    fn handshake_with_parked_mutator_marks_snapshot_roots() {
        let sh = small();
        let m = sh.register_mutator();
        let obj = alloc_white(&sh, 0);
        {
            let mut p = m.park.lock();
            p.parked = true;
            p.roots.push(obj);
        }
        sh.handshake(Status::Sync1);
        sh.handshake(Status::Sync2);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::White);
        sh.handshake(Status::Async);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Gray);
        assert_eq!(m.status(), Status::Async);
    }

    #[test]
    fn handshake_with_cooperating_mutator() {
        let sh = Arc::new(small());
        let m = sh.register_mutator();
        let sh2 = Arc::clone(&sh);
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            // Emulate a cooperating mutator: adopt whatever the collector
            // posts until Async comes around again.
            loop {
                let sc = sh2.status_c.load(Ordering::Acquire);
                let sm = m2.status.load(Ordering::Acquire);
                if sm != sc {
                    m2.status.store(sc, Ordering::Release);
                    if sc == Status::Async as u8 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
        });
        sh.handshake(Status::Sync1);
        sh.handshake(Status::Sync2);
        sh.handshake(Status::Async);
        t.join().unwrap();
        assert_eq!(m.status(), Status::Async);
    }

    #[test]
    fn global_roots_add_remove_mark() {
        let sh = small();
        let obj = alloc_white(&sh, 0);
        sh.add_global_root(obj);
        sh.add_global_root(ObjectRef::NULL); // ignored
        assert!(sh.remove_global_root(obj));
        assert!(!sh.remove_global_root(obj));
        sh.add_global_root(obj);
        sh.mark_global_roots();
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Gray);
    }

    #[test]
    fn evaluate_triggers_requests_partial_past_young_budget() {
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(8 << 20)
                .with_initial_heap(8 << 20)
                .with_young_size(1 << 20),
        );
        sh.control.add_allocated(1 << 20);
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some(crate::stats::CycleKind::Partial)
        );
    }

    #[test]
    fn evaluate_triggers_noop_while_collecting() {
        let sh = small();
        sh.control.add_allocated(64 << 20);
        sh.collecting.store(true, Ordering::Release);
        sh.evaluate_triggers();
        sh.control.begin_shutdown();
        assert_eq!(sh.control.next_request(), None);
    }

    #[test]
    fn evaluate_triggers_requests_full_when_almost_full() {
        let sh = small(); // 1 MB heap
                          // Fill past the 75% trigger fraction (1024-granule = 8 KB chunks).
        while sh.heap.used_bytes() * 4 < sh.heap.committed_bytes() * 3 {
            if sh.heap.alloc_chunk(1024, 1024).is_none() {
                break;
            }
        }
        sh.control.add_allocated(128 << 10); // past the progress floor
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some(crate::stats::CycleKind::Full)
        );
    }

    #[test]
    fn leased_lab_granules_do_not_fire_full_trigger() {
        // Regression: `used_granules` is bumped at LAB grant, not object
        // install, so a fleet of mostly-empty LABs used to read as heap
        // pressure and fire premature full collections.
        let sh = small(); // 1 MB heap
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32; // 80%
        let c = sh.heap.alloc_chunk(granules, granules).unwrap();
        sh.heap.refill_lab(&mut otf_heap::Lab::new(), c);
        sh.control.add_allocated(128 << 10); // past the progress floor
        sh.evaluate_triggers();
        sh.control.begin_shutdown();
        assert_eq!(
            sh.control.next_request(),
            None,
            "leased-but-empty LABs must not count as used"
        );
    }

    #[test]
    fn retired_lab_granules_still_fire_full_trigger() {
        let sh = small();
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32;
        let c = sh.heap.alloc_chunk(granules, granules).unwrap();
        let mut lab = otf_heap::Lab::new();
        sh.heap.refill_lab(&mut lab, c);
        lab.carve(granules).unwrap(); // all of it now holds objects
        sh.heap.retire_lab(&mut lab);
        sh.control.add_allocated(128 << 10);
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some(crate::stats::CycleKind::Full)
        );
    }

    #[test]
    fn unswept_lazy_garbage_does_not_fire_full_trigger() {
        // Regression (lazy-sweep analogue of the LAB-lease tests above):
        // after a mark-only cycle the dead bytes are still counted in
        // `used_granules` until a lazy segment reclaims them.  The
        // unswept-garbage estimate published with the epoch must keep
        // that deferred garbage from reading as heap pressure, or lazy
        // mode would fire back-to-back full collections that the eager
        // sweep never would.
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20)
                .with_lazy_sweep(true),
        );
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32; // 80%
        sh.heap.alloc_chunk(granules, granules).unwrap();
        // Mark-only cycle ends having traced nothing: everything that is
        // used is garbage awaiting the lazy sweep.
        sh.lazy_publish(0);
        sh.control.add_allocated(128 << 10); // past the progress floor
        sh.evaluate_triggers();
        assert!(
            !sh.control.has_request(),
            "unswept lazy garbage must count as available space"
        );
    }

    #[test]
    fn lazy_traced_live_bytes_still_fire_full_trigger() {
        // Companion: when the mark phase saw the bytes alive, the epoch
        // carries no unswept-garbage credit and the full trigger fires at
        // the same effective occupancy as eager mode.
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20)
                .with_lazy_sweep(true),
        );
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32;
        sh.heap.alloc_chunk(granules, granules).unwrap();
        sh.lazy_publish(sh.heap.used_bytes() as u64); // all of it traced live
        sh.control.add_allocated(128 << 10);
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some(crate::stats::CycleKind::Full)
        );
    }

    #[test]
    fn deregister_removes_from_list() {
        let sh = small();
        let m = sh.register_mutator();
        assert_eq!(sh.mutators.lock().len(), 1);
        sh.deregister_mutator(&m);
        assert_eq!(sh.mutators.lock().len(), 0);
        assert!(m.park.lock().parked);
    }
}
