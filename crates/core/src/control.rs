//! Collection triggering and collector-thread control (§3.3).
//!
//! `Control` owns a cycle's life, under one lock.  Mutators request
//! collections (partial when the young-generation allocation budget is
//! exhausted, full when the heap is almost full or an allocation stalls);
//! the collector thread sleeps until a request (or shutdown) arrives, and
//! [`next_request`](Control::next_request) opens the cycle it hands out.
//! [`close_cycle`](Control::close_cycle) closes it once the collector has
//! grown the heap: it consumes the cycle's budget, counts a full and
//! stores the record, whose count is how many cycles have completed.  A
//! request the open cycle answers is dropped under the same lock: a
//! trigger while any cycle is open (the collector re-evaluates the
//! triggers after the close), an allocation stall while a full is open or
//! once one has completed since the stalled mutator read the count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use otf_support::sync::{Condvar, Mutex};

use crate::stats::{CycleKind, CycleStats};

/// What requested a cycle: the `cause` of its `cycle_begin` event (the
/// second word of [`EventKind::CycleBegin`](crate::EventKind::CycleBegin)).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Cause {
    /// The young generation's allocation budget ran out (§3.3).
    YoungBudget = 0,
    /// The heap is almost full (§3.3).
    AlmostFull = 1,
    /// An allocation found the heap dry and blocked for a full cycle.
    AllocStall = 2,
    /// `Gc::request_full`, `Gc::request_partial` or
    /// `Gc::collect_full_blocking`.
    Requested = 3,
    /// The collector recovered from an aborted cycle (DESIGN.md §4.8).
    Recovery = 4,
}

impl Cause {
    /// The JSON name of a cause word.
    pub(crate) fn name(word: u64) -> &'static str {
        match word {
            0 => "young_budget",
            1 => "almost_full",
            2 => "alloc_stall",
            3 => "requested",
            4 => "recovery",
            _ => "unknown",
        }
    }
}

/// Requests, the open cycle and the finished ones.
#[derive(Debug, Default)]
struct State {
    /// The pending requests, each with the cause that posted it first.
    partial: Option<Cause>,
    full: Option<Cause>,
    /// The kind of the cycle handed out and not yet closed.
    open: Option<CycleKind>,
    /// Every closed cycle's record, in order.
    cycles: Vec<CycleStats>,
    /// How many of them were full: what an allocation stall waits on.
    fulls: u64,
}

impl State {
    /// Posts a request (idempotent: a pending request keeps its first
    /// cause; a pending full supersedes a partial).
    fn post(&mut self, kind: CycleKind, cause: Cause) {
        let slot = match kind {
            CycleKind::Full => &mut self.full,
            CycleKind::Partial if self.full.is_none() => &mut self.partial,
            CycleKind::Partial => return,
        };
        slot.get_or_insert(cause);
    }
}

/// Trigger state shared between mutators and the collector thread.
#[derive(Debug)]
pub(crate) struct Control {
    state: Mutex<State>,
    /// Signalled when a request is posted (the collector waits on it), a
    /// cycle closes (stalled mutators wait on that) and on shutdown or
    /// poison.
    changed: Condvar,
    /// Allocated bytes the closed cycles have consumed: the §3.3
    /// accumulator is the heap's allocation total minus this
    /// ([`GcShared::bytes_since_cycle`](crate::shared::GcShared::bytes_since_cycle)).
    consumed: AtomicU64,
    shutdown: AtomicBool,
    /// The collector thread panicked: no collection will ever complete
    /// again.  Like shutdown, but reported to blocked allocators as
    /// [`AllocError::CollectorUnavailable`](crate::AllocError) instead of
    /// silently degrading to grow-only mode.
    poisoned: AtomicBool,
}

impl Control {
    pub(crate) fn new() -> Control {
        Control {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            consumed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Requests a collection of `kind`.  A trigger cause (`YoungBudget`,
    /// `AlmostFull`) is dropped while a cycle is open: the collector
    /// re-evaluates the triggers once it closes.
    pub(crate) fn request(&self, kind: CycleKind, cause: Cause) {
        let mut s = self.state.lock();
        if matches!(cause, Cause::YoungBudget | Cause::AlmostFull) && s.open.is_some() {
            return;
        }
        s.post(kind, cause);
        self.changed.notify_all();
    }

    /// Collector thread: blocks until a request or shutdown, opens the
    /// cycle it answers and returns its kind and cause.  Returns `None`
    /// on shutdown.
    pub(crate) fn next_request(&self) -> Option<(CycleKind, Cause)> {
        let mut s = self.state.lock();
        loop {
            if self.is_shutdown() || self.is_poisoned() {
                return None;
            }
            let next = match s.full.take() {
                Some(cause) => {
                    s.partial = None;
                    Some((CycleKind::Full, cause))
                }
                None => s.partial.take().map(|cause| (CycleKind::Partial, cause)),
            };
            if let Some((kind, _)) = next {
                s.open = Some(kind);
                return next;
            }
            self.changed.wait(&mut s);
        }
    }

    /// Non-blocking peek: is a cycle request pending?
    #[cfg(test)]
    pub(crate) fn has_request(&self) -> bool {
        let s = self.state.lock();
        s.partial.is_some() || s.full.is_some()
    }

    /// Collector thread: closes the open cycle once the heap has grown.
    /// Consumes the bytes that were pending when it *started*
    /// (allocation performed while it ran keeps counting toward the next
    /// trigger — exactly the objects that form the next young
    /// generation), stores its record and wakes waiters.
    pub(crate) fn close_cycle(&self, stats: CycleStats) {
        let mut s = self.state.lock();
        self.consumed
            .fetch_add(stats.allocated_since_last, Ordering::Relaxed);
        s.open = None;
        if stats.kind == CycleKind::Full {
            s.fulls += 1;
        }
        s.cycles.push(stats);
        self.changed.notify_all();
    }

    /// Number of full collections completed so far.
    pub(crate) fn fulls_done(&self) -> u64 {
        self.state.lock().fulls
    }

    /// Number of cycles completed so far.
    pub(crate) fn cycles_done(&self) -> u64 {
        self.state.lock().cycles.len() as u64
    }

    /// A copy of every completed cycle's record, oldest first.
    pub(crate) fn cycles(&self) -> Vec<CycleStats> {
        self.state.lock().cycles.clone()
    }

    /// Requests a full collection by `cause` and blocks until more than
    /// `observed_fulls` full collections have completed.  An
    /// `AllocStall` posts nothing while a full is open or once one has
    /// completed since the caller read `observed_fulls`: that full serves
    /// the wait.  Returns `false` if the collector shut down first.  The
    /// caller must be *parked* (the collector may need to handshake
    /// while we wait).
    pub(crate) fn wait_for_full(&self, cause: Cause, observed_fulls: u64) -> bool {
        let mut s = self.state.lock();
        let answered = s.fulls > observed_fulls || s.open == Some(CycleKind::Full);
        if !(cause == Cause::AllocStall && answered) {
            s.post(CycleKind::Full, cause);
            self.changed.notify_all();
        }
        while s.fulls <= observed_fulls {
            if self.is_shutdown() || self.is_poisoned() {
                return false;
            }
            self.changed.wait(&mut s);
        }
        true
    }

    /// Allocated bytes consumed by closed cycles so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Cycle-abort recovery: closes the open cycle, drops any stale
    /// pending request and re-arms a *full* collection in its place.  The
    /// aborted cycle conservatively repainted the whole heap live, so only
    /// a full trace from roots can rebuild real liveness — and because a
    /// pending full supersedes any partial in
    /// [`next_request`](Control::next_request), the restarted collector
    /// is guaranteed to run it first.  Allocators parked in
    /// [`wait_for_full`](Control::wait_for_full) are then served by that
    /// cycle's completion instead of being poisoned awake.
    pub(crate) fn reset_for_recovery(&self) {
        let mut s = self.state.lock();
        s.open = None;
        s.partial = None;
        s.full = Some(Cause::Recovery);
        self.changed.notify_all();
    }

    /// Signals shutdown and wakes everything.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.notify_waiters();
    }

    /// Whether shutdown has been signalled.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Marks the control poisoned (the collector thread died) and wakes
    /// every waiter: the collector's request wait (its thread is gone,
    /// but a re-spawned loop would observe the flag) and — critically —
    /// every mutator parked in [`wait_for_full`](Control::wait_for_full),
    /// which would otherwise sleep forever on a collection that can no
    /// longer happen.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.notify_waiters();
    }

    /// Wakes every waiter after a flag store.  Lock-then-notify, so a
    /// waiter between its flag check and its wait cannot miss the wakeup
    /// (`Gc::stop_collector` joins a collector that may be exactly there
    /// in `next_request`).
    fn notify_waiters(&self) {
        let _s = self.state.lock();
        self.changed.notify_all();
    }

    /// Whether the collector thread has panicked.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::cycle;
    use std::sync::Arc;

    #[test]
    fn full_supersedes_partial() {
        let c = Control::new();
        c.request(CycleKind::Partial, Cause::YoungBudget);
        c.request(CycleKind::Full, Cause::AlmostFull);
        c.request(CycleKind::Full, Cause::AllocStall);
        // The full's first cause wins.
        assert_eq!(c.next_request(), Some((CycleKind::Full, Cause::AlmostFull)));
        // The pending partial was absorbed by the full.
        c.begin_shutdown();
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn partial_then_nothing() {
        let c = Control::new();
        c.request(CycleKind::Partial, Cause::YoungBudget);
        assert_eq!(
            c.next_request(),
            Some((CycleKind::Partial, Cause::YoungBudget))
        );
        c.begin_shutdown();
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn done_counters() {
        let c = Control::new();
        c.close_cycle(cycle(CycleKind::Partial, 1, 1));
        c.close_cycle(cycle(CycleKind::Full, 1, 1));
        assert_eq!(c.cycles_done(), 2);
        assert_eq!(c.fulls_done(), 1);
    }

    #[test]
    fn wait_for_full_wakes_on_completion() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(Cause::Requested, 0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.close_cycle(cycle(CycleKind::Full, 1, 1));
        assert!(h.join().unwrap());
    }

    #[test]
    fn wait_for_full_bails_on_poison() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(Cause::Requested, 5));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!c.is_poisoned());
        c.poison();
        assert!(!h.join().unwrap());
        assert!(c.is_poisoned());
        // Poison also unblocks the collector's request wait.
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn wait_for_full_bails_on_shutdown() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(Cause::Requested, 5));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.begin_shutdown();
        assert!(!h.join().unwrap());
    }

    /// A trigger posted while a cycle is open is dropped: nothing is
    /// pending after the close, and a requested cycle still posts.
    #[test]
    fn trigger_during_open_cycle_leaves_nothing_pending() {
        let c = Control::new();
        c.request(CycleKind::Partial, Cause::YoungBudget);
        assert_eq!(
            c.next_request(),
            Some((CycleKind::Partial, Cause::YoungBudget))
        );
        c.request(CycleKind::Partial, Cause::YoungBudget);
        c.request(CycleKind::Full, Cause::AlmostFull);
        c.close_cycle(cycle(CycleKind::Partial, 1, 1));
        assert!(!c.has_request());
        c.request(CycleKind::Partial, Cause::YoungBudget);
        assert!(c.has_request(), "a closed cycle drops nothing");
    }

    /// An allocation stall during an open full posts nothing, and that
    /// full's close wakes it.
    #[test]
    fn stall_during_open_full_waits_for_it() {
        let c = Arc::new(Control::new());
        c.request(CycleKind::Full, Cause::AlmostFull);
        assert_eq!(c.next_request(), Some((CycleKind::Full, Cause::AlmostFull)));
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(Cause::AllocStall, 0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!c.has_request());
        c.close_cycle(cycle(CycleKind::Full, 1, 1));
        assert!(h.join().unwrap());
        assert!(!c.has_request());
        // A stall that read the count before that close is served by it.
        assert!(c.wait_for_full(Cause::AllocStall, 0));
        assert!(!c.has_request());
    }
}
