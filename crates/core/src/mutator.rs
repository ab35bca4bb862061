//! The mutator interface: allocation (`Create`), the write barrier
//! (`Update`), safe-point polling (`Cooperate`) and shadow-stack roots —
//! Figures 1 and 4 of the paper.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use otf_heap::{Header, HeapSpace, Lab, ObjShape, ObjectRef, LAB_GRANULES};

use crate::config::{Mode, Promotion};
use crate::obs::dur_ns;
use crate::shared::GcShared;
use crate::state::{MutatorShared, Status};

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The heap is exhausted: a full collection and heap growth both
    /// failed to produce enough contiguous space.
    OutOfMemory {
        /// The request size in bytes.
        requested: usize,
    },
    /// The collector thread has panicked (poisoned shutdown): no
    /// collection will ever free space again, and growing the heap did
    /// not satisfy this request.  Unlike [`OutOfMemory`], this says the
    /// *collector* is gone, not that the live set filled the heap.
    ///
    /// [`OutOfMemory`]: AllocError::OutOfMemory
    CollectorUnavailable {
        /// The request size in bytes.
        requested: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            AllocError::CollectorUnavailable { requested } => write!(
                f,
                "collector thread dead (poisoned shutdown); \
                 could not allocate {requested} bytes without collection"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Which write-barrier flavour this mutator runs (precomputed from the
/// collector mode).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum BarrierKind {
    /// DLG barrier, no card marking (non-generational baseline).
    NonGenerational,
    /// Figure 1: card marked (object's card, before the store) only in
    /// `async`; in sync periods both young colors are shaded (§7.1).
    Simple,
    /// Figure 4: card marked after the store in *every* period; `MarkGray`
    /// shades only the clear color.
    Aging,
}

/// A mutator (application thread) attached to a [`Gc`](crate::Gc).
///
/// All heap access goes through this type: [`alloc`](Mutator::alloc)
/// creates objects, [`write_ref`](Mutator::write_ref) is the write
/// barrier, and the shadow stack (`root_*`) is what the collector scans as
/// this thread's roots.
///
/// # Liveness rules
///
/// * An [`ObjectRef`] is kept alive only while reachable from a shadow
///   stack, a global root, or another live object.  A ref held only in a
///   local variable is a "register" in the paper's sense: it stays valid
///   until the next [`alloc`]/[`cooperate`]/[`parked`] call on this
///   mutator (no handshake can complete in between), after which it must
///   have been rooted or stored.
/// * Call [`cooperate`] regularly from long computation loops that do not
///   allocate; an on-the-fly collector handshakes with every mutator, and
///   a non-cooperating thread stalls collection (not program execution).
/// * Wrap long non-heap work (I/O, waiting) in [`parked`], which lets the
///   collector respond to handshakes on this thread's behalf.
///
/// [`alloc`]: Mutator::alloc
/// [`cooperate`]: Mutator::cooperate
/// [`parked`]: Mutator::parked
#[derive(Debug)]
pub struct Mutator {
    shared: Arc<GcShared>,
    me: Arc<MutatorShared>,
    lab: Lab,
    roots: Vec<ObjectRef>,
    barrier: BarrierKind,
    /// Bytes, objects and graying barriers not yet reported: counted
    /// privately, published by [`Mutator::flush_accounting`], so `alloc`
    /// and an idle `write_ref` write no shared cache line (DESIGN.md §4.10).
    unflushed_bytes: usize,
    unflushed_objects: u64,
    unflushed_barrier_slow: u64,
}

/// Allocation volume that forces a flush (and a trigger evaluation) when
/// no other boundary came first: large objects bypass the LAB.
const TRIGGER_CHECK_BYTES: usize = 64 << 10;

impl Mutator {
    pub(crate) fn new(shared: Arc<GcShared>) -> Mutator {
        let me = shared.register_mutator();
        let barrier = match shared.config.mode {
            Mode::NonGenerational => BarrierKind::NonGenerational,
            Mode::Generational(Promotion::Simple) => BarrierKind::Simple,
            Mode::Generational(Promotion::Aging { .. }) => BarrierKind::Aging,
        };
        Mutator {
            shared,
            me,
            lab: Lab::new(),
            roots: Vec::new(),
            barrier,
            unflushed_bytes: 0,
            unflushed_objects: 0,
            unflushed_barrier_slow: 0,
        }
    }

    // ----- allocation (Create, Figure 1) --------------------------------

    /// Allocates an object of the given shape, colored with the current
    /// allocation color (white between collections; the yellow role during
    /// a collection, §4/§5).  All reference slots start null and all data
    /// words start zero.
    ///
    /// This is a safe point: the mutator cooperates with any pending
    /// handshake *before* the object exists, so the returned reference
    /// stays valid until the next safe point even if not yet rooted.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when a blocking full collection and
    /// heap growth both fail to free enough space.
    pub fn alloc(&mut self, shape: &ObjShape) -> Result<ObjectRef, AllocError> {
        self.cooperate();
        let n = shape.size_granules() as u32;
        let start = self.acquire_granules(n)?;
        let color = self.shared.colors.allocation_color();
        let obj = self.shared.heap.install_object(start, shape, color);
        self.after_alloc(shape.size_bytes());
        Ok(obj)
    }

    #[inline]
    fn acquire_granules(&mut self, n: u32) -> Result<usize, AllocError> {
        match self.lab.try_carve(n) {
            Some(s) => Ok(s as usize),
            None => self.acquire_granules_slow(n),
        }
    }

    /// Everything past the open hole: the next private hole, then one
    /// refill (DESIGN.md §4.13).  Only the refill meets anything shared —
    /// the pool, the clock, the histogram, the flush.
    fn acquire_granules_slow(&mut self, n: u32) -> Result<usize, AllocError> {
        if n >= LAB_GRANULES / 2 {
            // Large object: allocate its chunk directly (it is carved into
            // an object immediately, so it never counts as leased-unused).
            let c = self.blocking(n, |heap, _| heap.alloc_chunk(n, n))?;
            if c.len < n {
                // A chunk shorter than `min` is a substrate bug, but a
                // short carve must degrade to AllocError, not abort the
                // process: return the chunk and report the failure.
                debug_assert!(false, "alloc_chunk returned {} < min {}", c.len, n);
                self.shared.heap.free_chunk_batch(&[c]);
                return Err(self.alloc_failure(n));
            }
            return Ok(c.start as usize);
        }
        if let Some(s) = self.lab.carve(n) {
            return Ok(s as usize);
        }
        self.shared.fault("mutator.lab.refill");
        // The refill latency histogram times the whole acquisition,
        // including a blocking collection, so a stall shows in its tail.
        let refill_start = Instant::now();
        let refilled = self.blocking(n, |heap, lab| {
            heap.exchange_lab(lab, n, LAB_GRANULES).then_some(())
        });
        self.shared
            .obs
            .note_lab_refill(dur_ns(refill_start.elapsed()));
        refilled?;
        // Report what the retired queue held before carving the new one.
        self.flush_accounting();
        match self.lab.carve(n) {
            Some(s) => Ok(s as usize),
            None => {
                // The fresh queue had no hole for the request.  Hand it
                // back so the granules are not leaked and fail the
                // allocation instead of aborting the process.
                debug_assert!(false, "fresh LAB cannot satisfy {n} granules");
                self.shared.heap.retire_lab(&mut self.lab);
                Err(self.alloc_failure(n))
            }
        }
    }

    /// The terminal allocation error for a request of `n` granules:
    /// `CollectorUnavailable` when the collector thread has panicked
    /// (space could exist, but nothing will ever reclaim it), otherwise
    /// plain `OutOfMemory`.
    fn alloc_failure(&self, n: u32) -> AllocError {
        let requested = n as usize * otf_heap::GRANULE;
        if self.shared.control.is_poisoned() {
            AllocError::CollectorUnavailable { requested }
        } else {
            AllocError::OutOfMemory { requested }
        }
    }

    /// Runs `attempt` — a large object's `alloc_chunk`, or a refill's
    /// `exchange_lab` — for a request of `n` granules until it succeeds,
    /// blocking on a full collection (and growing the heap) when the
    /// committed region is exhausted.  The one place a mutator waits for
    /// space: after a collection a refill leases a hole queue like any
    /// other.
    ///
    /// Collector-supervision interplay (DESIGN.md §4.8): a collector
    /// panic is *transparent* here.  The abort protocol re-arms a
    /// full-collection request without poisoning, so a mutator parked in
    /// `wait_for_full` keeps waiting and is woken when the restarted
    /// collector completes that cycle — "recovery in flight" is just a
    /// slower collection, not an error.  Only terminal poison (the
    /// consecutive-restart budget spent, or a panic during the abort
    /// itself) trips the `is_poisoned` checks below and degrades
    /// allocation to grow-only with `CollectorUnavailable` at exhaustion.
    ///
    /// Never inlined: both instances inlined into [`Mutator::alloc`]
    /// would grow the allocation fast path's function fourfold.
    #[inline(never)]
    fn blocking<T>(
        &mut self,
        n: u32,
        mut attempt: impl FnMut(&HeapSpace, &mut Lab) -> Option<T>,
    ) -> Result<T, AllocError> {
        // Chaos hook: a failing injection refuses one attempt before it
        // reaches the heap (the committed region "is" exhausted, the LAB
        // queue stays as it was), driving this loop into its
        // collection-or-grow path on a deterministic schedule.
        let mut attempt = |shared: &GcShared, lab: &mut Lab| {
            if shared.fault("heap.alloc_chunk") {
                return None;
            }
            attempt(&shared.heap, lab)
        };
        for _attempt in 0..8 {
            if let Some(t) = attempt(&self.shared, &mut self.lab) {
                return Ok(t);
            }
            if self.shared.control.is_shutdown() || self.shared.control.is_poisoned() {
                // No collector to help us (clean shutdown or poisoned by
                // a collector panic); just try to grow.
                if self.shared.heap.grow().is_none() {
                    break;
                }
                continue;
            }
            // Block for a full collection (we park so the collector can
            // handshake on our behalf).  The stall — the one place a
            // mutator waits for the collector — feeds the pause histogram.
            let fulls = self.shared.control.fulls_done();
            self.shared.control.request_full();
            let shared = Arc::clone(&self.shared);
            let stall_start = Instant::now();
            let completed = self.parked(move || shared.control.wait_for_full(fulls));
            self.shared
                .obs
                .note_alloc_stall(dur_ns(stall_start.elapsed()));
            if let Some(t) = attempt(&self.shared, &mut self.lab) {
                return Ok(t);
            }
            // The collection did not produce enough space: grow.
            if self.shared.heap.grow().is_none() && !completed {
                break;
            }
        }
        Err(self.alloc_failure(n))
    }

    fn after_alloc(&mut self, bytes: usize) {
        self.unflushed_objects += 1;
        self.unflushed_bytes += bytes;
        if self.unflushed_bytes >= TRIGGER_CHECK_BYTES {
            self.flush_accounting();
        }
    }

    /// Publishes the private counts (the heap totals, which the §3.3
    /// trigger accumulator reads, then a trigger evaluation;
    /// `Obs::barrier_slow`) at the boundaries
    /// the protocol already has: LAB refill, the `cooperate` slow path,
    /// `parked` entry, every [`TRIGGER_CHECK_BYTES`] allocated, drop.
    /// `Gc::stats()` is therefore exact whenever every mutator is parked
    /// or gone, and otherwise trails each by less than one such interval.
    fn flush_accounting(&mut self) {
        let shared = &self.shared;
        let slow = std::mem::take(&mut self.unflushed_barrier_slow);
        if slow > 0 {
            shared.obs.barrier_slow.fetch_add(slow, Ordering::Relaxed);
        }
        let objects = std::mem::take(&mut self.unflushed_objects);
        if objects == 0 {
            return;
        }
        let bytes = std::mem::take(&mut self.unflushed_bytes) as u64;
        // The §3.3 accumulator reads these totals; nothing else counts.
        shared.heap.note_allocated(objects, bytes);
        // While a cycle runs this is a no-op; the collector re-evaluates
        // the triggers itself when the cycle finishes, so a threshold
        // crossed mid-cycle is never starved waiting for the next batch.
        shared.evaluate_triggers();
    }

    // ----- the write barrier (Update, Figures 1 and 4) ------------------

    /// Stores `y` into reference slot `i` of object `x` through the DLG
    /// write barrier.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i` is not a reference slot of `x`.
    #[inline]
    pub fn write_ref(&mut self, x: ObjectRef, i: usize, y: ObjectRef) {
        debug_assert!(!x.is_null(), "store into null object");
        debug_assert!(
            i < self.shared.heap.arena().header(x).ref_slots(),
            "slot {i} out of bounds"
        );
        // The idle fast path (DESIGN.md §4.10): a barrier that grays
        // nothing has nothing to announce to the §4.3 termination check,
        // so it skips the epoch bracket.  `tracing` is never stale-false
        // here: it is raised before the third handshake is posted, so a
        // mutator that adopted this cycle's `async` (acquire on
        // `status_c`) sees it; one still `async` from the previous cycle
        // holds the collector at the first handshake.
        if self.me.status.load(Ordering::Acquire) == Status::Async as u8
            && !self.shared.tracing.load(Ordering::Acquire)
        {
            // Chaos hook inside the barrier's race window: between reading
            // this mutator's period perception and acting on it, a delay
            // here stretches the window in which the collector can advance
            // the cycle underneath us (once per store, on either path).
            self.shared.fault("mutator.barrier.window");
            self.store_and_mark_card(x, i, y, true);
            return;
        }
        self.write_ref_graying(x, i, y);
    }

    /// The barrier outside the idle period, bracketed by the epoch.  The
    /// period is read again *inside* the bracket: a decision to gray taken
    /// on values read before `epoch_enter` could act after the collector
    /// observed this mutator even and closed the trace.
    fn write_ref_graying(&mut self, x: ObjectRef, i: usize, y: ObjectRef) {
        let shared = &self.shared;
        let push = |o| shared.gray.lock().push(o);
        self.me.epoch_enter();
        let is_async = self.me.status.load(Ordering::Acquire) == Status::Async as u8;
        shared.fault("mutator.barrier.window");
        if !is_async {
            self.unflushed_barrier_slow += 1;
            let old = shared.heap.arena().load_ref_slot(x, i);
            if self.barrier == BarrierKind::Aging {
                shared.mark_gray_clear(old, push);
                shared.mark_gray_clear(y, push);
            } else {
                // §7.1: in sync1/sync2 the barrier also shades yellow
                // objects (mark_gray_snapshot shades both young colors).
                shared.mark_gray_snapshot(old, push);
                shared.mark_gray_snapshot(y, push);
            }
        } else if shared.tracing.load(Ordering::Acquire) {
            self.unflushed_barrier_slow += 1;
            let old = shared.heap.arena().load_ref_slot(x, i);
            shared.mark_gray_clear(old, push);
        }
        self.store_and_mark_card(x, i, y, is_async);
        self.me.epoch_exit();
    }

    /// The store itself and the mode's card mark.
    #[inline]
    fn store_and_mark_card(&self, x: ObjectRef, i: usize, y: ObjectRef, is_async: bool) {
        let shared = &self.shared;
        match self.barrier {
            BarrierKind::NonGenerational => shared.heap.arena().store_ref_slot(x, i, y),
            BarrierKind::Simple => {
                // Figure 1: the card is marked only in `async`; no card
                // marking is needed in the sync window (§7.1).
                if is_async {
                    shared.cards.mark_byte(x.byte());
                }
                shared.heap.arena().store_ref_slot(x, i, y);
            }
            BarrierKind::Aging => {
                // §7.2: the store strictly precedes the card mark, so the
                // collector's clear-check-remark protocol can never lose
                // an inter-generational pointer.
                shared.heap.arena().store_ref_slot(x, i, y);
                shared.cards.mark_byte(x.byte());
            }
        }
    }

    /// Loads reference slot `i` of `x`.  Reads need no barrier in DLG.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i` is not a reference slot of `x`.
    #[inline]
    pub fn read_ref(&self, x: ObjectRef, i: usize) -> ObjectRef {
        debug_assert!(
            i < self.shared.heap.arena().header(x).ref_slots(),
            "slot {i} out of bounds"
        );
        self.shared.heap.arena().load_ref_slot(x, i)
    }

    /// Stores a non-reference data word (no barrier needed).
    #[inline]
    pub fn write_data(&mut self, x: ObjectRef, i: usize, value: u64) {
        let ref_slots = self.shared.heap.arena().header(x).ref_slots();
        self.shared
            .heap
            .arena()
            .store_data_word(x, ref_slots, i, value);
    }

    /// Loads a non-reference data word.
    #[inline]
    pub fn read_data(&self, x: ObjectRef, i: usize) -> u64 {
        let ref_slots = self.shared.heap.arena().header(x).ref_slots();
        self.shared.heap.arena().load_data_word(x, ref_slots, i)
    }

    /// The header of `x` (size, slot count, class id).
    #[inline]
    pub fn header(&self, x: ObjectRef) -> Header {
        self.shared.heap.arena().header(x)
    }

    // ----- cooperation (Figure 1) ----------------------------------------

    /// The safe point: if the collector posted a handshake, respond to it.
    /// Responding to the third handshake (transition to `async`) marks
    /// this mutator's shadow-stack roots gray (Figure 1's `Cooperate`).
    pub fn cooperate(&mut self) {
        // Chaos hook: delaying here models a mutator that is slow to
        // reach its safe point, stretching the handshake window (and, at
        // the extreme, exercising the collector's stall watchdog).
        self.shared.fault("mutator.cooperate");
        let sc = self.shared.status_c.load(Ordering::Acquire);
        if self.me.status.load(Ordering::Relaxed) == sc {
            return;
        }
        // Adopting a posted status is this thread's GC pause: time the
        // safe-point work (root marking on the third handshake) and
        // record both the pause and the post→ack response latency.
        let pause_start = Instant::now();
        // Transitions advance one step at a time because the collector
        // waits for all mutators between handshakes.
        if sc == Status::Async as u8 {
            self.me.epoch_enter();
            let mut gray = self.shared.gray.lock();
            for &r in &self.roots {
                self.shared.mark_gray_snapshot(r, |o| gray.push(o));
            }
            drop(gray);
            self.me.epoch_exit();
        }
        self.me.status.store(sc, Ordering::Release);
        self.shared
            .obs
            .note_handshake_ack(Status::from_byte(sc), dur_ns(pause_start.elapsed()));
        self.shared.notify_handshake();
        // The ack is out; we are off the fast path anyway.
        self.flush_accounting();
        // Hand the CPU to the collector right away: the shorter the
        // sync1/sync2 windows are, the less the snapshot barrier
        // conservatively retains (on a machine with spare cores this is a
        // no-op; on an oversubscribed one it keeps handshakes prompt).
        std::thread::yield_now();
    }

    /// Runs `f` while parked: the collector may respond to handshakes on
    /// this mutator's behalf using a snapshot of its shadow stack.  Use
    /// this around blocking operations that do not touch the heap.
    pub fn parked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.flush_accounting(); // stats read while parked are exact
        {
            let mut p = self.me.park.lock();
            p.roots.clear();
            p.roots.extend_from_slice(&self.roots);
            p.parked = true;
        }
        self.shared.notify_handshake();
        let result = f();
        {
            let mut p = self.me.park.lock();
            p.parked = false;
            p.roots.clear();
        }
        result
    }

    // ----- shadow-stack roots --------------------------------------------

    /// Pushes a root; returns its index (for [`root_set`]).
    ///
    /// [`root_set`]: Mutator::root_set
    #[inline]
    pub fn root_push(&mut self, r: ObjectRef) -> usize {
        self.roots.push(r);
        self.roots.len() - 1
    }

    /// Pops the most recent root and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the shadow stack is empty.
    #[inline]
    pub fn root_pop(&mut self) -> ObjectRef {
        self.roots.pop().expect("shadow stack underflow")
    }

    /// Reads root `i`.
    #[inline]
    pub fn root_get(&self, i: usize) -> ObjectRef {
        self.roots[i]
    }

    /// Overwrites root `i` (no barrier needed: stacks are scanned at
    /// handshakes, one of DLG's key efficiency properties).
    #[inline]
    pub fn root_set(&mut self, i: usize, r: ObjectRef) {
        self.roots[i] = r;
    }

    /// Current shadow-stack depth.
    #[inline]
    pub fn root_len(&self) -> usize {
        self.roots.len()
    }

    /// Truncates the shadow stack to `len` entries (popping a frame).
    #[inline]
    pub fn root_truncate(&mut self, len: usize) {
        self.roots.truncate(len);
    }

    /// Adds a global (static) root.  The object must currently be rooted
    /// on this mutator's shadow stack (or otherwise reachable).
    pub fn add_global_root(&self, r: ObjectRef) {
        self.shared.add_global_root(r);
    }

    /// Removes one occurrence of a global root; returns whether it was
    /// present.
    pub fn remove_global_root(&self, r: ObjectRef) -> bool {
        self.shared.remove_global_root(r)
    }
}

impl Drop for Mutator {
    fn drop(&mut self) {
        // Return the whole queue, report what is still private (many
        // short-lived mutators each allocating under a flush interval must
        // still reach the §3.3 trigger) and leave the handshake protocol.
        self.shared.heap.retire_lab(&mut self.lab);
        self.flush_accounting();
        self.shared.deregister_mutator(&self.me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::state::Status;
    use otf_heap::Color;

    fn setup(cfg: GcConfig) -> (Arc<GcShared>, Mutator) {
        let shared = Arc::new(GcShared::new(
            cfg.with_max_heap(1 << 20).with_initial_heap(1 << 20),
        ));
        let m = Mutator::new(Arc::clone(&shared));
        (shared, m)
    }

    fn set_mutator_status(m: &Mutator, s: Status) {
        m.me.status.store(s as u8, Ordering::Release);
    }

    /// Cuts free space into pooled holes of `hole` granules, each fenced
    /// by one granule that stays held: `count` of them, or with `None`
    /// the whole heap, what is left over taken out of circulation.
    /// Returns the granules in use afterwards.
    fn fragment(shared: &GcShared, hole: u32, count: Option<usize>) -> usize {
        let heap = &shared.heap;
        let mut holes = Vec::new();
        while count.is_none_or(|n| holes.len() < n) {
            let Some(c) = heap.alloc_chunk(hole, hole) else {
                break;
            };
            holes.push(c);
            if heap.alloc_chunk(1, 1).is_none() {
                break;
            }
        }
        if count.is_none() {
            while heap.alloc_chunk(1, hole).is_some() {}
        }
        heap.free_chunk_batch(&holes);
        heap.used_granules()
    }

    #[test]
    fn alloc_uses_allocation_color_and_zeroes_slots() {
        let (shared, mut m) = setup(GcConfig::generational());
        let obj = m.alloc(&ObjShape::new(2, 1)).unwrap();
        assert_eq!(shared.heap.colors().get(obj.granule()), Color::White);
        assert!(m.read_ref(obj, 0).is_null());
        assert_eq!(m.read_data(obj, 0), 0);
        shared.colors.toggle();
        let obj2 = m.alloc(&ObjShape::new(0, 0)).unwrap();
        assert_eq!(shared.heap.colors().get(obj2.granule()), Color::Yellow);
    }

    #[test]
    fn simple_barrier_async_idle_marks_card_only() {
        let (shared, mut m) = setup(GcConfig::generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let y = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.write_ref(x, 0, y);
        // Card of x's header dirty; nothing grayed.
        assert!(shared.cards.is_dirty(shared.cards.card_of_byte(x.byte())));
        assert_eq!(shared.heap.colors().get(y.granule()), Color::White);
        assert!(shared.gray.lock().is_empty());
        assert_eq!(m.read_ref(x, 0), y);
    }

    #[test]
    fn simple_barrier_async_tracing_grays_old_value() {
        let (shared, mut m) = setup(GcConfig::generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let old = m.alloc(&ObjShape::new(0, 0)).unwrap();
        let new = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.write_ref(x, 0, old);
        // Enter "collector is tracing" with the toggle flipped, so the
        // stored objects carry the clear color.
        shared.colors.toggle();
        shared.tracing.store(true, Ordering::Release);
        m.write_ref(x, 0, new);
        // Old value (clear-colored) grayed; new value not.
        assert_eq!(shared.heap.colors().get(old.granule()), Color::Gray);
        assert_eq!(*shared.gray.lock(), [old]);
        assert_eq!(shared.heap.colors().get(new.granule()), Color::White);
    }

    #[test]
    fn simple_barrier_sync_grays_both_including_yellow() {
        let (shared, mut m) = setup(GcConfig::generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let old = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.write_ref(x, 0, old);
        shared.colors.toggle();
        // A "yellow" object (current allocation color).
        let yellow = m.alloc(&ObjShape::new(0, 0)).unwrap();
        assert_eq!(shared.heap.colors().get(yellow.granule()), Color::Yellow);
        // Mutator perceives sync1: §7.1's exception — yellow is shaded too.
        shared.post_handshake(Status::Sync1);
        set_mutator_status(&m, Status::Sync1);
        // Clear the dirt left by the async-phase write above so the card
        // assertion below observes only the sync-phase barrier.
        shared.cards.clear(shared.cards.card_of_byte(x.byte()));
        m.write_ref(x, 0, yellow);
        assert_eq!(shared.heap.colors().get(old.granule()), Color::Gray);
        assert_eq!(shared.heap.colors().get(yellow.granule()), Color::Gray);
        // No card marking in sync periods for the simple variant (§7.1).
        assert!(!shared.cards.is_dirty(shared.cards.card_of_byte(x.byte())));
    }

    #[test]
    fn aging_barrier_always_marks_card_after_store() {
        let (shared, mut m) = setup(GcConfig::aging(4));
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let y = m.alloc(&ObjShape::new(0, 0)).unwrap();
        // Even in a sync period the aging barrier marks the card (Fig 4).
        shared.post_handshake(Status::Sync1);
        set_mutator_status(&m, Status::Sync1);
        m.write_ref(x, 0, y);
        assert!(shared.cards.is_dirty(shared.cards.card_of_byte(x.byte())));
        // Aging MarkGray shades only the clear color: y has the
        // allocation color, so it is NOT grayed.
        assert_eq!(shared.heap.colors().get(y.granule()), Color::White);
    }

    #[test]
    fn non_generational_barrier_never_touches_cards() {
        let (shared, mut m) = setup(GcConfig::non_generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let y = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.write_ref(x, 0, y);
        shared.tracing.store(true, Ordering::Release);
        m.write_ref(x, 0, y);
        assert_eq!(shared.cards.count_dirty(shared.cards.len()), 0);
    }

    #[test]
    fn cooperate_marks_roots_on_third_handshake_only() {
        let (shared, mut m) = setup(GcConfig::generational());
        let r = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.root_push(r);
        shared.post_handshake(Status::Sync1);
        m.cooperate();
        assert_eq!(shared.heap.colors().get(r.granule()), Color::White);
        shared.post_handshake(Status::Sync2);
        m.cooperate();
        assert_eq!(shared.heap.colors().get(r.granule()), Color::White);
        shared.post_handshake(Status::Async);
        m.cooperate();
        assert_eq!(shared.heap.colors().get(r.granule()), Color::Gray);
        assert_eq!(*shared.gray.lock(), [r]);
    }

    #[test]
    fn counts_stay_private_until_a_flush_boundary() {
        let (shared, mut m) = setup(GcConfig::generational());
        let shape = ObjShape::new(0, 10);
        m.alloc(&shape).unwrap();
        m.alloc(&shape).unwrap();
        // The first allocation refilled the (empty) LAB, which flushed
        // nothing; both objects are still private.
        assert_eq!(shared.bytes_since_cycle(), 0);
        assert_eq!(shared.heap.objects_allocated(), 0);
        m.parked(|| {
            assert_eq!(shared.heap.objects_allocated(), 2);
            assert_eq!(shared.heap.bytes_allocated(), 2 * shape.size_bytes() as u64);
            assert_eq!(shared.bytes_since_cycle(), 2 * shape.size_bytes() as u64);
        });
        m.alloc(&shape).unwrap();
        assert_eq!(shared.heap.objects_allocated(), 2);
        drop(m);
        assert_eq!(shared.heap.objects_allocated(), 3);
        assert_eq!(shared.bytes_since_cycle(), 3 * shape.size_bytes() as u64);
    }

    #[test]
    fn lab_refill_and_handshake_ack_flush() {
        let (shared, mut m) = setup(GcConfig::generational());
        // Eight-granule holes: one refill queues as many as a queue holds.
        const QUEUE: usize = otf_heap::LAB_MAX_HOLES * 8;
        fragment(&shared, 8, None);
        let shape = ObjShape::new(0, 0); // one granule
        for _ in 0..QUEUE {
            m.alloc(&shape).unwrap();
        }
        // Moving from hole to hole is private: no flush, no second refill.
        assert_eq!(shared.heap.objects_allocated(), 0);
        assert_eq!(shared.obs.lab_refill.snapshot().count(), 1);
        assert_eq!(shared.heap.lab_leased_granules(), QUEUE);
        // The next allocation finds the queue used up: the refill reports
        // the objects the retired queue holds.
        m.alloc(&shape).unwrap();
        assert_eq!(shared.heap.objects_allocated(), QUEUE as u64);
        assert_eq!(shared.obs.lab_refill.snapshot().count(), 2);
        shared.post_handshake(Status::Sync1);
        m.cooperate();
        assert_eq!(shared.heap.objects_allocated(), QUEUE as u64 + 1);
    }

    #[test]
    fn barrier_slow_counts_graying_branches_only() {
        let (shared, mut m) = setup(GcConfig::generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let y = m.alloc(&ObjShape::new(0, 0)).unwrap();
        // Async, collector idle: card-mark-only fast path.
        m.write_ref(x, 0, y);
        // Sync window: the graying branch is the slow path.
        shared.post_handshake(Status::Sync1);
        set_mutator_status(&m, Status::Sync1);
        m.write_ref(x, 0, y);
        // Async while tracing: graying again.
        set_mutator_status(&m, Status::Async);
        shared.tracing.store(true, Ordering::Release);
        m.write_ref(x, 0, y);
        // The count is the mutator's own until a flush boundary.
        assert_eq!(shared.obs.barrier_slow.load(Ordering::Relaxed), 0);
        m.parked(|| assert_eq!(shared.obs.barrier_slow.load(Ordering::Relaxed), 2));
        drop(m);
        assert_eq!(shared.obs.barrier_slow.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cooperate_slow_path_records_handshake_latency() {
        let (shared, mut m) = setup(GcConfig::generational());
        m.cooperate(); // fast path: statuses agree, nothing recorded
        assert_eq!(shared.obs.handshake.snapshot().count(), 0);
        shared.post_handshake(Status::Sync1);
        m.cooperate();
        assert_eq!(shared.obs.handshake.snapshot().count(), 1);
        assert_eq!(shared.obs.pause.snapshot().count(), 1);
    }

    #[test]
    fn shadow_stack_operations() {
        let (_shared, mut m) = setup(GcConfig::generational());
        let a = m.alloc(&ObjShape::new(0, 0)).unwrap();
        let b = m.alloc(&ObjShape::new(0, 0)).unwrap();
        let ia = m.root_push(a);
        let ib = m.root_push(b);
        assert_eq!((ia, ib), (0, 1));
        assert_eq!(m.root_len(), 2);
        assert_eq!(m.root_get(0), a);
        m.root_set(0, b);
        assert_eq!(m.root_get(0), b);
        assert_eq!(m.root_pop(), b);
        m.root_truncate(0);
        assert_eq!(m.root_len(), 0);
    }

    #[test]
    fn parked_publishes_root_snapshot() {
        let (shared, mut m) = setup(GcConfig::generational());
        let r = m.alloc(&ObjShape::new(0, 0)).unwrap();
        m.root_push(r);
        let me = Arc::clone(&m.me);
        let result = m.parked(|| {
            let p = me.park.lock();
            assert!(p.parked);
            assert_eq!(p.roots.as_slice(), &[r]);
            7
        });
        assert_eq!(result, 7);
        assert!(!m.me.park.lock().parked);
        let _ = shared;
    }

    #[test]
    fn epochs_bracket_the_barrier() {
        let (shared, mut m) = setup(GcConfig::generational());
        let x = m.alloc(&ObjShape::new(1, 0)).unwrap();
        let me = Arc::clone(&m.me);
        let epoch = || me.epoch.load(Ordering::SeqCst);
        assert_eq!(epoch(), 0);
        // Idle period: the store grays nothing and announces nothing.
        m.write_ref(x, 0, ObjectRef::NULL);
        assert_eq!(epoch(), 0, "an idle-period store must not touch the epoch");
        // Any other period is bracketed: entered and left again.
        shared.tracing.store(true, Ordering::Release);
        m.write_ref(x, 0, ObjectRef::NULL);
        assert_eq!(epoch(), 2, "barrier must enter and exit its epoch");
        shared.tracing.store(false, Ordering::Release);
        shared.post_handshake(Status::Sync1);
        set_mutator_status(&m, Status::Sync1);
        m.write_ref(x, 0, ObjectRef::NULL);
        assert_eq!(epoch(), 4);
    }

    #[test]
    fn large_objects_bypass_the_lab() {
        let (shared, mut m) = setup(GcConfig::generational());
        // Larger than half a LAB: direct chunk allocation.
        let big = ObjShape::new(0, 3000);
        let obj = m.alloc(&big).unwrap();
        assert_eq!(shared.heap.colors().get(obj.granule()), Color::White);
        assert_eq!(m.header(obj).size_granules(), big.size_granules());
    }

    #[test]
    fn mostly_empty_labs_do_not_trigger_full_collection() {
        // Regression for the premature-full-collection bug: three
        // mutators each lease a 32 KB LAB on a 128 KB heap and install one
        // tiny object.  Raw `used_bytes` crosses the trigger (70% here),
        // but almost all of it is leased-unused LAB space.  The heap is
        // all half-LAB holes, so each of those LABs is a queue of two of
        // them, leased in one refill.
        const LAB: usize = LAB_GRANULES as usize;
        let mut cfg = GcConfig::generational()
            .with_max_heap(128 << 10)
            .with_initial_heap(128 << 10);
        cfg.full_trigger_fraction = 0.7;
        let shared = Arc::new(GcShared::new(cfg));
        fragment(&shared, LAB_GRANULES / 2, None);
        let mut muts: Vec<Mutator> = (0..3).map(|_| Mutator::new(Arc::clone(&shared))).collect();
        for (i, m) in muts.iter_mut().enumerate() {
            let r = m.alloc(&ObjShape::new(0, 0)).unwrap();
            m.root_push(r);
            assert_eq!(shared.heap.lab_leased_granules(), (i + 1) * LAB);
        }
        assert_eq!(
            shared.obs.lab_refill.snapshot().count(),
            3,
            "one refill a queue"
        );
        assert!(
            shared.heap.used_bytes() * 10 >= shared.heap.committed_bytes() * 7,
            "test premise: raw used crosses the 70% trigger"
        );
        shared.heap.note_allocated(0, 128 << 10); // past the progress floor
        shared.evaluate_triggers();
        assert!(
            !shared.control.has_request(),
            "mostly-empty LABs fired a premature full collection"
        );
        // The other side of the same accounting: a lease is subtracted
        // whole for as long as its queue lives, so queues carved nearly
        // empty still read as unused — the trigger runs late by under one
        // LAB per live mutator — and the space counts as used the moment
        // the queues retire (each drop flushes its fillers).
        let filler = ObjShape::new(0, 199); // 100 granules, ten to a hole
        for m in &mut muts {
            for _ in 0..20 {
                m.alloc(&filler).unwrap();
            }
        }
        assert_eq!(
            shared.obs.lab_refill.snapshot().count(),
            3,
            "still the first queues"
        );
        shared.evaluate_triggers();
        assert!(!shared.control.has_request());
        drop(muts);
        assert_eq!(shared.heap.lab_leased_granules(), 0);
        assert_eq!(
            shared.control.next_request(),
            Some(crate::stats::CycleKind::Full)
        );
    }

    #[test]
    fn lab_lease_accounting_balances_on_drop() {
        let (shared, mut m) = setup(GcConfig::generational());
        let lab = LAB_GRANULES as usize;
        // Holes of 37 granules: a LAB's worth is a queue of 55 of them and
        // a piece of the 56th.
        let fenced = fragment(&shared, 37, None);
        let _ = m.alloc(&ObjShape::new(0, 0)).unwrap();
        // The whole lease stays on the books while the queue is live, no
        // matter how much of it is carved.
        let leased = shared.heap.lab_leased_granules();
        assert_eq!(leased, lab);
        assert_eq!(shared.heap.used_granules(), fenced + leased);
        let _ = m.alloc(&ObjShape::new(0, 50)).unwrap();
        assert_eq!(shared.heap.lab_leased_granules(), leased);
        // Mixed sizes leave a tail in nearly every hole; whatever the
        // queue, a live mutator never holds more than one LAB.
        let mut objects = 1 + ObjShape::new(0, 50).size_granules();
        for i in 0..2000 {
            let shape = ObjShape::new(0, i % 40);
            m.alloc(&shape).unwrap();
            objects += shape.size_granules();
            assert!(shared.heap.lab_leased_granules() <= lab);
        }
        assert!(shared.obs.lab_refill.snapshot().count() > 10);
        drop(m);
        assert_eq!(
            shared.heap.lab_leased_granules(),
            0,
            "retiring the queue must return the whole lease"
        );
        // Only the objects are still in use: every tail and every hole
        // not reached went back.
        assert_eq!(shared.heap.used_granules(), fenced + objects);
    }

    /// A refill that has to wait for a full collection leases a hole
    /// queue like any other.  The heap fills with a comb — one-granule
    /// objects kept alive, four-granule ones dropped — and only the
    /// allocation that finds it full starts a cycle; the refill after
    /// that cycle takes many of the freed holes at once, so the next
    /// allocations meet no pool.
    #[test]
    fn blocking_refill_leases_a_queue_of_the_holes_a_full_collection_frees() {
        const HEAP: usize = 256 << 10;
        let mut cfg = GcConfig::non_generational()
            .with_max_heap(HEAP)
            .with_initial_heap(HEAP);
        cfg.full_trigger_fraction = 1.0;
        let gc = crate::Gc::new(cfg);
        let shared = Arc::clone(&gc.shared);
        let mut m = gc.mutator();
        let (live, dead) = (ObjShape::new(1, 0), ObjShape::new(0, 7));
        let stalls = || shared.obs.alloc_stall.snapshot().count();
        m.root_push(ObjectRef::NULL);
        while stalls() == 0 {
            let x = m.alloc(&live).unwrap();
            let prev = m.root_get(0);
            m.write_ref(x, 0, prev);
            m.root_set(0, x);
            if stalls() == 0 {
                m.alloc(&dead).unwrap();
            }
        }
        assert_eq!(gc.cycles_completed(), 1, "the stall was the first cycle");
        let leased = shared.heap.lab_leased_granules();
        assert!(leased >= 16 * 4, "the refill leased {leased} granules");
        let refills = shared.obs.lab_refill.snapshot().count();
        for _ in 0..15 {
            m.alloc(&dead).unwrap();
        }
        assert_eq!(shared.obs.lab_refill.snapshot().count(), refills);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn private_counts_add_up_exactly_across_threads() {
        const THREADS: u64 = 4;
        const ALLOCS: u64 = 100_000;
        const STORES: u64 = 1_000;
        let shared = Arc::new(GcShared::new(
            GcConfig::generational()
                .with_max_heap(64 << 20)
                .with_initial_heap(64 << 20),
        ));
        // A third of the heap is 40-granule holes: the LABs below are
        // queues of them, a tail in nearly every one, until the pools run
        // out and the rest comes off the frontier.
        let fenced = fragment(&shared, 40, Some(32_000));
        // "Collector is tracing": every store below takes a graying
        // branch, so the expected slow-path count is known exactly.
        shared.tracing.store(true, Ordering::Release);
        // Mixed sizes, 1 to 6 granules, plus one LAB-bypassing large
        // object per thread.
        let shapes: Vec<ObjShape> = (0..6).map(|k| ObjShape::new(1, 2 * k)).collect();
        let large = ObjShape::new(0, 4000);
        let per_thread_bytes: u64 = (0..ALLOCS)
            .map(|i| shapes[i as usize % shapes.len()].size_bytes() as u64)
            .sum::<u64>()
            + large.size_bytes() as u64;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let mut m = Mutator::new(Arc::clone(&shared));
                let (shapes, large) = (&shapes, &large);
                s.spawn(move || {
                    let mut last = ObjectRef::NULL;
                    for i in 0..ALLOCS {
                        let obj = m.alloc(&shapes[i as usize % shapes.len()]).unwrap();
                        if i < STORES {
                            m.write_ref(obj, 0, last);
                        }
                        last = obj;
                    }
                    m.alloc(large).unwrap();
                });
            }
        });
        assert_eq!(shared.heap.objects_allocated(), THREADS * (ALLOCS + 1));
        assert_eq!(shared.heap.bytes_allocated(), THREADS * per_thread_bytes);
        assert_eq!(shared.bytes_since_cycle(), THREADS * per_thread_bytes);
        assert_eq!(
            shared.obs.barrier_slow.load(Ordering::Relaxed),
            THREADS * STORES
        );
        assert_eq!(shared.heap.lab_leased_granules(), 0);
        // Everything still in use is an object: no LAB tail leaked.
        assert_eq!(
            shared.heap.used_bytes() as u64,
            THREADS * per_thread_bytes + (fenced * otf_heap::GRANULE) as u64
        );
        // The holes were used: far fewer refills than holes, far more
        // than the frontier alone would have taken.
        let refills = shared.obs.lab_refill.snapshot().count();
        assert!(refills > 600 && refills < 6_000, "{refills} refills");
    }

    #[test]
    fn oom_error_reports_requested_bytes() {
        let (shared, mut m) = setup(GcConfig::generational());
        // These unit tests run without a collector thread, so shut the
        // control down: the blocking allocation path then falls back to
        // heap growth only, and reports OOM once the 1 MB heap is full.
        shared.control.begin_shutdown();
        let shape = ObjShape::new(0, 1000); // ~8 KB objects
        let mut oom = None;
        for _ in 0..400 {
            match m.alloc(&shape) {
                Ok(r) => {
                    m.root_push(r);
                }
                Err(e) => {
                    oom = Some(e);
                    break;
                }
            }
        }
        match oom {
            Some(AllocError::OutOfMemory { requested }) => {
                assert!(requested >= shape.size_bytes());
            }
            Some(other) => panic!("expected OutOfMemory, got {other}"),
            None => panic!("1 MB heap never overflowed"),
        }
    }
}
