//! Collection triggering and collector-thread control (§3.3).
//!
//! Mutators request collections (partial when the young-generation
//! allocation budget is exhausted, full when the heap is almost full or an
//! allocation fails); the collector thread sleeps on a condition variable
//! until a request (or shutdown) arrives.  A second condition variable lets
//! an allocation-blocked mutator wait for a full collection to complete.
//! The record of every finished cycle lives here, under that variable's
//! lock: how many cycles have completed is its length.

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

/// The pending requests, each with the cause that posted it first.
#[derive(Debug, Default)]
struct Pending {
    partial: Option<Cause>,
    full: Option<Cause>,
}

/// The finished cycles.
#[derive(Debug, Default)]
struct Done {
    /// Every completed cycle's record, in order.
    cycles: Vec<CycleStats>,
    /// How many of them were full: what an allocation stall waits on.
    fulls: u64,
}

/// Trigger state shared between mutators and the collector thread.
#[derive(Debug)]
pub(crate) struct Control {
    pending: Mutex<Pending>,
    wake: Condvar,
    done: Mutex<Done>,
    done_cond: Condvar,
    /// Allocated bytes the finished cycles have consumed: the §3.3
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
            pending: Mutex::new(Pending::default()),
            wake: Condvar::new(),
            done: Mutex::new(Done::default()),
            done_cond: Condvar::new(),
            consumed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Requests a partial collection (idempotent: a pending request
    /// keeps its first cause).
    pub(crate) fn request_partial(&self, cause: Cause) {
        let mut p = self.pending.lock();
        if p.partial.is_none() && p.full.is_none() {
            p.partial = Some(cause);
            self.wake.notify_all();
        }
    }

    /// Requests a full collection (idempotent: a pending request keeps
    /// its first cause; supersedes a pending partial).
    pub(crate) fn request_full(&self, cause: Cause) {
        let mut p = self.pending.lock();
        if p.full.is_none() {
            p.full = Some(cause);
            self.wake.notify_all();
        }
    }

    /// Collector thread: blocks until a request or shutdown, and returns
    /// its kind and cause.  Returns `None` on shutdown.
    pub(crate) fn next_request(&self) -> Option<(CycleKind, Cause)> {
        let mut p = self.pending.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire) {
                return None;
            }
            if let Some(cause) = p.full.take() {
                p.partial = None;
                return Some((CycleKind::Full, cause));
            }
            if let Some(cause) = p.partial.take() {
                return Some((CycleKind::Partial, cause));
            }
            self.wake.wait(&mut p);
        }
    }

    /// Non-blocking peek: is a cycle request pending?
    #[cfg(test)]
    pub(crate) fn has_request(&self) -> bool {
        let p = self.pending.lock();
        p.partial.is_some() || p.full.is_some()
    }

    /// Collector thread: records a completed cycle and wakes waiters.
    pub(crate) fn note_cycle_done(&self, stats: CycleStats) {
        let mut d = self.done.lock();
        if stats.kind == CycleKind::Full {
            d.fulls += 1;
        }
        d.cycles.push(stats);
        self.done_cond.notify_all();
    }

    /// Number of full collections completed so far.
    pub(crate) fn fulls_done(&self) -> u64 {
        self.done.lock().fulls
    }

    /// Number of cycles completed so far.
    pub(crate) fn cycles_done(&self) -> u64 {
        self.done.lock().cycles.len() as u64
    }

    /// A copy of every completed cycle's record, oldest first.
    pub(crate) fn cycles(&self) -> Vec<CycleStats> {
        self.done.lock().cycles.clone()
    }

    /// Blocks until more than `observed_fulls` full collections have
    /// completed.  Returns `false` if the collector shut down first.
    /// The caller must be *parked* (the collector may need to handshake
    /// while we wait).
    pub(crate) fn wait_for_full(&self, observed_fulls: u64) -> bool {
        let mut d = self.done.lock();
        while d.fulls <= observed_fulls {
            if self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            self.done_cond.wait(&mut d);
        }
        true
    }

    /// Allocated bytes consumed by finished cycles so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// Consumes `bytes` from the accumulator (at cycle end, the amount
    /// that was pending when the cycle *started*).  Allocation performed
    /// while the cycle ran keeps counting toward the next trigger —
    /// exactly the objects that form the next young generation.
    pub(crate) fn consume_allocated(&self, bytes: u64) {
        self.consumed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Cycle-abort recovery: drops any stale pending request and re-arms
    /// a *full* collection in its place.  The aborted cycle conservatively
    /// repainted the whole heap live, so only a full trace from roots can
    /// rebuild real liveness — and because a pending full supersedes any
    /// partial in [`next_request`](Control::next_request), the restarted
    /// collector is guaranteed to run it first.  Allocators parked in
    /// [`wait_for_full`](Control::wait_for_full) are then served by that
    /// cycle's completion instead of being poisoned awake.
    pub(crate) fn reset_for_recovery(&self) {
        let mut p = self.pending.lock();
        p.partial = None;
        p.full = Some(Cause::Recovery);
        self.wake.notify_all();
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
    /// every waiter: the collector's request queue (its thread is gone,
    /// but a re-spawned loop would observe the flag) and — critically —
    /// every mutator parked in [`wait_for_full`](Control::wait_for_full),
    /// which would otherwise sleep forever on a collection that can no
    /// longer happen.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.notify_waiters();
    }

    /// Wakes both condvars after a flag store.  Lock-then-notify, so a
    /// waiter between its flag check and its wait cannot miss the wakeup
    /// (`Gc::stop_collector` joins a collector that may be exactly there
    /// in `next_request`).
    fn notify_waiters(&self) {
        {
            let _p = self.pending.lock();
            self.wake.notify_all();
        }
        {
            let _d = self.done.lock();
            self.done_cond.notify_all();
        }
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
        c.request_partial(Cause::YoungBudget);
        c.request_full(Cause::AlmostFull);
        c.request_full(Cause::AllocStall);
        // The full's first cause wins.
        assert_eq!(c.next_request(), Some((CycleKind::Full, Cause::AlmostFull)));
        // The pending partial was absorbed by the full.
        c.begin_shutdown();
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn partial_then_nothing() {
        let c = Control::new();
        c.request_partial(Cause::YoungBudget);
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
        c.note_cycle_done(cycle(CycleKind::Partial, 1, 1));
        c.note_cycle_done(cycle(CycleKind::Full, 1, 1));
        assert_eq!(c.cycles_done(), 2);
        assert_eq!(c.fulls_done(), 1);
    }

    #[test]
    fn wait_for_full_wakes_on_completion() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.note_cycle_done(cycle(CycleKind::Full, 1, 1));
        assert!(h.join().unwrap());
    }

    #[test]
    fn wait_for_full_bails_on_poison() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(5));
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
        let h = std::thread::spawn(move || c2.wait_for_full(5));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.begin_shutdown();
        assert!(!h.join().unwrap());
    }
}
