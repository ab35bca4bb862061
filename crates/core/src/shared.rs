//! `GcShared`: the state shared by every mutator and the collector thread,
//! plus the graying primitives and the soft-handshake protocol.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use otf_heap::{CardTable, Color, HeapSpace, ObjectRef};
use otf_support::fault::Faults;
use otf_support::sync::Mutex;

use crate::config::GcConfig;
use crate::control::{Cause, Control};
use crate::obs::Obs;
use crate::state::{ColorState, MutatorShared, Status};
use crate::stats::CycleKind;

/// Codes for the cycle bucket currently open, published in
/// [`GcShared::open_bucket`] so the supervisor's abort routine and the
/// watchdog's stall reports can name where a cycle was interrupted.
/// `0` means no bucket is open (no cycle in flight).  Code `1` is
/// retired, not reused, so recorded traces keep their meaning.
pub(crate) mod bucket {
    pub const NONE: u8 = 0;
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
        bucket::INIT => "init",
        bucket::HANDSHAKE_1 => "handshake-1",
        bucket::HANDSHAKE_2 => "handshake-2",
        bucket::HANDSHAKE_3 => "handshake-3",
        bucket::TRACE => "trace",
        bucket::RECLAIM => "reclaim",
        _ => "none",
    }
}

/// The §3.3 "almost full" threshold: a full collection is requested once
/// the heap's used bytes reach this fraction of its committed bytes.
const FULL_TRIGGER_FRACTION: f64 = 0.75;

/// How long a handshake may stay outstanding before the watchdog's first
/// report; later reports come at 3× and 7× this, and the third aborts
/// the wedged cycle into the collector supervisor (DESIGN.md §4.8).
const HANDSHAKE_STALL: Duration = Duration::from_secs(1);

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
    /// The [`bucket`] code of the cycle bucket currently open;
    /// [`bucket::NONE`] between cycles.  A diagnostic label, written by
    /// `run_cycle` as each bucket opens and read by the watchdog (report
    /// enrichment) and the supervisor's abort routine (which bucket the
    /// panic unwound out of); whether a cycle is open is `Control`'s.
    pub open_bucket: AtomicU8,
    /// The gray list (DESIGN.md §4.16).  Mutators push after winning
    /// the gray-coloring CAS; the collector takes the whole list at once.
    /// A leaf lock: nothing else is acquired while it is held.
    pub gray: Mutex<Vec<ObjectRef>>,
    /// Registered mutators.
    pub mutators: Mutex<Vec<Arc<MutatorShared>>>,
    /// Registration-id counter for mutators (watchdog diagnostics).
    next_mutator_id: AtomicU64,
    /// Global (static) roots, marked by the collector at the third
    /// handshake.
    pub globals: Mutex<Vec<ObjectRef>>,
    /// Cycle requests and the record of every completed cycle.
    pub control: Control,
    /// Pause histograms and the GC event trace ring; its clock is the
    /// collector's time origin.
    pub obs: Obs,
    /// The thread that waits in [`wait_handshake`](GcShared::wait_handshake)
    /// (the collector thread, or a unit test's own), registered by its
    /// first call.  Mutators `unpark` it after adopting a posted status
    /// (and when parking), so it sleeps instead of spinning — essential
    /// on machines with fewer cores than threads.
    waiter: OnceLock<Thread>,
    /// The fault plan this collector's injection points consult
    /// ([`Gc::with_faults`](crate::Gc::with_faults)); `None` outside the
    /// chaos harness.
    pub faults: Option<Arc<Faults>>,
}

impl std::fmt::Debug for GcShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcShared")
            .field("config", &self.config)
            .field("status_c", &self.status_c)
            .field("open_bucket", &self.open_bucket)
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
            open_bucket: AtomicU8::new(bucket::NONE),
            gray: Mutex::new(Vec::new()),
            mutators: Mutex::new(Vec::new()),
            next_mutator_id: AtomicU64::new(1),
            globals: Mutex::new(Vec::new()),
            control: Control::new(),
            obs: Obs::new(config.trace_events),
            waiter: OnceLock::new(),
            faults: None,
        }
    }

    /// An injection point (DESIGN.md §4.3): `true` when this collector's
    /// fault plan injects a failure at this hit.  Without a plan it is one
    /// field load and one branch.
    #[inline]
    pub(crate) fn fault(&self, name: &'static str) -> bool {
        self.faults.as_ref().is_some_and(|f| f.point(name))
    }

    /// Unparks the thread waiting in [`wait_handshake`], if one has
    /// registered.  Called by mutators right after adopting a posted
    /// status or parking.
    ///
    /// [`wait_handshake`]: GcShared::wait_handshake
    pub(crate) fn notify_handshake(&self) {
        if let Some(waiter) = self.waiter.get() {
            waiter.unpark();
        }
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

    /// `MarkGray` under the clear-color rule (the collector's son
    /// shading, the aging card scan, and the write barrier in `async` or
    /// under aging promotion): shade the object only if it has the clear
    /// color, and hand it to `push` if this call shaded it.  A relaxed
    /// read skips the CAS unless the byte holds the clear color; the CAS
    /// still decides.
    #[inline]
    pub(crate) fn mark_gray_clear(&self, obj: ObjectRef, push: impl FnOnce(ObjectRef)) {
        if obj.is_null() {
            return;
        }
        let (g, clear, ct) = (obj.granule(), self.colors.clear_color(), self.heap.colors());
        if ct.get_raw_relaxed(g) == clear as u8 && ct.cas(g, clear, Color::Gray) {
            push(obj);
        }
    }

    /// `MarkGray` under the snapshot rule (the sync1/sync2 barrier and
    /// root marking): both young colors are shaded (the §7.1 yellow
    /// exception — "whenever the DLG write barrier would shade a white
    /// object gray, it will also shade a yellow object gray").  Hands the
    /// object to `push` if this call shaded it.
    #[inline]
    pub(crate) fn mark_gray_snapshot(&self, obj: ObjectRef, push: impl FnOnce(ObjectRef)) {
        if obj.is_null() {
            return;
        }
        let g = obj.granule();
        let ct = self.heap.colors();
        if ct.cas(g, Color::White, Color::Gray) || ct.cas(g, Color::Yellow, Color::Gray) {
            push(obj);
        }
    }

    /// The §3.3 allocation accumulator: bytes allocated (as flushed into
    /// the heap totals) that no finished cycle has consumed yet.
    pub(crate) fn bytes_since_cycle(&self) -> u64 {
        self.heap
            .bytes_allocated()
            .saturating_sub(self.control.consumed())
    }

    /// Evaluates the §3.3 collection triggers against the current
    /// accumulator and heap occupancy, requesting a partial and/or full
    /// collection as needed.  Shared by the allocation slow path, the
    /// collector's end-of-cycle check (so a trigger crossed *during* a
    /// cycle is not starved until the next 64 KB allocation batch), and
    /// `Mutator::drop` (which flushes its unflushed bytes first).
    /// [`Control`] drops the request while a cycle is open; the collector
    /// re-evaluates when it closes.
    ///
    /// Never inlined: it runs only at flush boundaries, and inlined into
    /// [`Mutator::alloc`](crate::Mutator::alloc) it would grow the
    /// allocation fast path's function from 0.9 to 1.4 KB.
    #[inline(never)]
    pub(crate) fn evaluate_triggers(&self) {
        let since = self.bytes_since_cycle();
        if self.config.is_generational() && since >= self.config.young_size as u64 {
            self.control.request(CycleKind::Partial, Cause::YoungBudget);
        }
        // Full collection when the heap is "almost full" (§3.3) — but only
        // after some allocation progress, to avoid re-triggering endlessly
        // on a mostly-live heap.  `used_granules` counts whole LABs at
        // grant time, so subtract the LAB leases: with many mutators
        // (one LAB each) the raw figure reads mostly-empty buffers as
        // pressure and fires premature full collections.  A lease comes
        // off whole until its LAB retires (DESIGN.md §4.10), so `used`
        // runs low — and the trigger late — by under one LAB per mutator.
        let used = self
            .heap
            .used_bytes()
            .saturating_sub(self.heap.lab_leased_bytes()) as f64;
        let committed = self.heap.committed_bytes() as f64;
        // Chaos hook: a failing hit reads the heap as not almost full, so
        // only a failed allocation starts a cycle.
        if used >= FULL_TRIGGER_FRACTION * committed
            && since >= (64 << 10)
            && !self.fault("heap.almost_full")
        {
            // The sizing rule's floor, its target for an empty live set,
            // is committed before the first full runs, so the mutators
            // do not stall on the initial heap while it does.  Every
            // full grows at least that far, so after the first this is
            // a no-op.
            self.heap.grow_to(self.sizing_target(0));
            self.control.request(CycleKind::Full, Cause::AlmostFull);
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
    /// Between scans the waiter parks until an ack unparks it or the
    /// watchdog's next report is due.
    pub(crate) fn wait_handshake(&self) {
        let waiter = self.waiter.get_or_init(std::thread::current);
        debug_assert_eq!(
            waiter.id(),
            std::thread::current().id(),
            "one thread waits on handshakes"
        );
        let target = self.status_c.load(Ordering::Acquire);
        let snapshot: Vec<Arc<MutatorShared>> = self.mutators.lock().clone();
        // Watchdog state: after `HANDSHAKE_STALL` without full adoption,
        // name the non-cooperating mutators instead of hanging silently.
        // Reports are rate-limited — the gap doubles each time, so they
        // come at 1×, 3× and 7× `HANDSHAKE_STALL` — and the third one
        // panics into the supervisor, which runs the safe cycle abort and
        // restarts the collector.
        let started = Instant::now();
        let mut next_report = HANDSHAKE_STALL;
        let mut reports = 0u32;
        loop {
            // Chaos hook: a failing hit makes this pass read as past its
            // next report deadline.
            let overdue = self.fault("collector.handshake.wait");
            let mut all_responded = true;
            for m in &snapshot {
                if m.status.load(Ordering::Acquire) == target {
                    continue;
                }
                let park = m.park.lock();
                if park.parked {
                    // Respond on the parked mutator's behalf.
                    if target == Status::Async as u8 {
                        let mut gray = self.gray.lock();
                        for &r in &park.roots {
                            self.mark_gray_snapshot(r, |o| gray.push(o));
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
            let waited = started.elapsed();
            if overdue || waited >= next_report {
                reports += 1;
                self.report_handshake_stall(&snapshot, target, waited, reports);
                if reports >= 3 {
                    // Unwind into the supervisor, which aborts the wedged
                    // cycle and restarts the collector loop — a bounded
                    // degradation instead of a diagnosed hang.  Once the
                    // restart budget is spent this degrades to the
                    // verified poison path.
                    panic!(
                        "otf-gc watchdog: aborting wedged collection cycle \
                         (handshake to status {:?} stalled for {:?})",
                        Status::from_byte(target),
                        waited,
                    );
                }
                // Rate limit: double the spacing after every report so a
                // long stall logs O(log t) lines, not O(t).
                next_report += HANDSHAKE_STALL * (1u32 << reports.min(16));
                if overdue {
                    // The injected deadline passed; the real one did not.
                    continue;
                }
            }
            // Sleep until a mutator responds or the next report is due.
            // A response that lands after the scan above leaves its
            // `unpark` as this thread's token, so the park returns at once
            // and no wake-up is lost.
            std::thread::park_timeout(next_report.saturating_sub(waited));
        }
    }

    /// Watchdog report: which mutators have not acked the posted status
    /// after `waited`, on stderr, attributed to the active plan and the
    /// cycle bucket that is currently open, followed by the event-trace
    /// ring when tracing is on.  Every report of a stall is the same; only
    /// the caller's third one goes on to abort the cycle.
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
        if self.obs.tracing_enabled() {
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
        self.open_bucket.store(bucket::NONE, Ordering::Release);
        self.status_c.store(Status::Async as u8, Ordering::Release);
        self.control.poison();
        eprintln!(
            "otf-gc: collector thread panicked; collection disabled, \
             allocation continues in grow-only mode"
        );
    }

    /// Convenience: `Handshake(s)` = post + wait (Figure 3).  The cycle
    /// posts and waits separately, with bucket work between.
    #[cfg(test)]
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

    /// Marks all global roots gray onto the collector's mark stack
    /// (between the third `postHandshake` and its `waitHandshake`,
    /// Figure 2).
    pub(crate) fn mark_global_roots(&self, stack: &mut Vec<ObjectRef>) {
        for &r in self.globals.lock().iter() {
            self.mark_gray_snapshot(r, |o| stack.push(o));
        }
    }

    /// Whether every registered mutator is outside its write-barrier
    /// epoch (§4.3): the trace's termination check observes this
    /// *before* re-checking the gray list.
    pub(crate) fn mutators_all_even(&self) -> bool {
        self.mutators.lock().iter().all(|m| m.epoch_is_even())
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
    fn a_collector_without_a_plan_injects_nothing() {
        let sh = small();
        assert!(sh.faults.is_none());
        for name in ["anything.at.all", "collector.phase", "heap.alloc_chunk"] {
            assert!(!sh.fault(name));
        }
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
    fn clear_rule_shades_only_the_clear_color() {
        let sh = small();
        let obj = alloc_white(&sh, 1); // allocated White; clear color is Yellow
        let mut pushed = Vec::new();
        sh.mark_gray_clear(obj, |o| pushed.push(o));
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::White);
        assert!(pushed.is_empty());
        sh.colors.toggle(); // now White is the clear color
        sh.mark_gray_clear(obj, |o| pushed.push(o));
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Gray);
        assert_eq!(pushed, [obj]);
    }

    #[test]
    fn snapshot_rule_shades_both_young_colors() {
        let sh = small();
        let a = alloc_white(&sh, 0);
        sh.colors.toggle();
        let b = alloc_white(&sh, 0); // allocated Yellow
        let mut pushed = Vec::new();
        sh.mark_gray_snapshot(a, |o| pushed.push(o));
        sh.mark_gray_snapshot(b, |o| pushed.push(o));
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(b.granule()), Color::Gray);
        // Exactly two pushes, no duplicates on re-graying.
        sh.mark_gray_snapshot(a, |o| pushed.push(o));
        assert_eq!(pushed, [a, b]);
    }

    #[test]
    fn null_is_never_grayed() {
        let sh = small();
        let mut pushed = Vec::new();
        sh.mark_gray_clear(ObjectRef::NULL, |o| pushed.push(o));
        sh.mark_gray_snapshot(ObjectRef::NULL, |o| pushed.push(o));
        assert!(pushed.is_empty());
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
        assert_eq!(*sh.gray.lock(), [obj]);
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
        let mut stack = Vec::new();
        sh.mark_global_roots(&mut stack);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Gray);
        assert_eq!(stack, [obj]);
    }

    #[test]
    fn evaluate_triggers_requests_partial_past_young_budget() {
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(8 << 20)
                .with_initial_heap(8 << 20)
                .with_young_size(1 << 20),
        );
        sh.heap.note_allocated(0, 1 << 20);
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some((crate::stats::CycleKind::Partial, Cause::YoungBudget))
        );
    }

    /// A trigger crossed while a cycle is open posts nothing: `Control`
    /// drops it, and the collector re-evaluates after the close.
    #[test]
    fn evaluate_triggers_noop_while_collecting() {
        let sh = small();
        sh.control.request(CycleKind::Full, Cause::Requested);
        assert!(sh.control.next_request().is_some(), "opens the cycle");
        sh.heap.note_allocated(0, 64 << 20);
        sh.evaluate_triggers();
        assert!(!sh.control.has_request());
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
        sh.heap.note_allocated(0, 128 << 10); // past the progress floor
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some((crate::stats::CycleKind::Full, Cause::AlmostFull))
        );
    }

    #[test]
    fn leased_lab_granules_do_not_fire_full_trigger() {
        // Regression: `used_granules` is bumped at LAB grant, not object
        // install, so a fleet of mostly-empty LABs used to read as heap
        // pressure and fire premature full collections.
        let sh = small(); // 1 MB heap
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32; // 80%
        assert!(sh
            .heap
            .exchange_lab(&mut otf_heap::Lab::new(), granules, granules));
        sh.heap.note_allocated(0, 128 << 10); // past the progress floor
        sh.evaluate_triggers();
        sh.control.begin_shutdown();
        assert_eq!(
            sh.control.next_request(),
            None,
            "leased-but-empty LABs must not count as used"
        );
    }

    /// Fills 80 % of the heap through one LAB carved whole and retired,
    /// and counts enough allocation to pass the progress floor.
    fn fill_through_retired_lab(sh: &GcShared) {
        let granules = (sh.heap.committed_bytes() * 4 / 5 / 16) as u32;
        let mut lab = otf_heap::Lab::new();
        assert!(sh.heap.exchange_lab(&mut lab, granules, granules));
        lab.carve(granules).unwrap(); // all of it now holds objects
        sh.heap.retire_lab(&mut lab);
        sh.heap.note_allocated(0, 128 << 10);
    }

    #[test]
    fn retired_lab_granules_still_fire_full_trigger() {
        let sh = small();
        fill_through_retired_lab(&sh);
        sh.evaluate_triggers();
        assert_eq!(
            sh.control.next_request(),
            Some((crate::stats::CycleKind::Full, Cause::AlmostFull))
        );
    }

    /// The `heap.almost_full` hook: a failing hit reads the 80 %-used heap
    /// above as not almost full.
    #[test]
    fn failed_almost_full_hit_requests_no_full_collection() {
        use otf_support::fault::{FaultPlan, FaultRule, Faults};
        let mut sh = small();
        let faults = Arc::new(Faults::new(
            FaultPlan::new(0).rule(FaultRule::at("heap.almost_full").failing(1.0)),
        ));
        sh.faults = Some(Arc::clone(&faults));
        fill_through_retired_lab(&sh);
        sh.evaluate_triggers();
        sh.control.begin_shutdown();
        assert_eq!(sh.control.next_request(), None);
        let log = faults.log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0].point, "heap.almost_full");
    }

    /// The watchdog on the real clock: a handshake no mutator answers is
    /// first reported `HANDSHAKE_STALL` after it was posted, and not
    /// again until 3× that.
    #[test]
    fn watchdog_first_reports_a_stalled_handshake_after_one_second() {
        let sh = Arc::new(small());
        let m = sh.register_mutator();
        let trips = || sh.obs.watchdog_trips.load(Ordering::Relaxed);
        sh.post_handshake(Status::Sync1);
        let start = Instant::now();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| sh.wait_handshake());
            std::thread::sleep(Duration::from_millis(500));
            assert_eq!(trips(), 0, "reported before the stall threshold");
            std::thread::sleep(Duration::from_millis(1500).saturating_sub(start.elapsed()));
            assert_eq!(trips(), 1, "one report between 1 s and 3 s");
            m.status.store(Status::Sync1 as u8, Ordering::Release);
            sh.notify_handshake();
            waiter.join().unwrap();
        });
    }

    /// Acks wake the waiter: a mutator that adopts the posted status
    /// 20 ms after the post ends the wait long before the first report at
    /// 1 s, which is where a lost wake-up would sleep until.
    #[test]
    fn an_ack_wakes_the_handshake_waiter() {
        let sh = small();
        let m = sh.register_mutator();
        sh.post_handshake(Status::Sync1);
        let start = Instant::now();
        // The waiter is a thread of its own: the scope's end unparks the
        // thread that opened it, which would mask a lost wake-up.
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                sh.wait_handshake();
                start.elapsed()
            });
            std::thread::sleep(Duration::from_millis(20));
            m.status.store(Status::Sync1 as u8, Ordering::Release);
            sh.notify_handshake();
            waiter.join().unwrap()
        });
        assert!(
            waited < Duration::from_millis(500),
            "the ack did not wake the waiter: {waited:?}"
        );
        assert_eq!(sh.obs.watchdog_trips.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn allocation_accumulator() {
        let sh = small();
        sh.heap.note_allocated(2, 100);
        sh.heap.note_allocated(1, 50);
        assert_eq!(sh.bytes_since_cycle(), 150);
        // A cycle that started when 100 bytes were pending consumes only
        // those 100; the 50 allocated "during" it roll over.
        sh.control.close_cycle(crate::stats::CycleStats {
            allocated_since_last: 100,
            ..crate::stats::tests::cycle(CycleKind::Partial, 0, 0)
        });
        assert_eq!(sh.bytes_since_cycle(), 50);
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
