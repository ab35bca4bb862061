//! Collection triggering and collector-thread control (§3.3).
//!
//! Mutators request collections (partial when the young-generation
//! allocation budget is exhausted, full when the heap is almost full or an
//! allocation fails); the collector thread sleeps on a condition variable
//! until a request (or shutdown) arrives.  A second condition variable lets
//! an allocation-blocked mutator wait for a full collection to complete.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use otf_support::sync::{Condvar, Mutex};

use crate::stats::CycleKind;

#[derive(Debug, Default)]
struct Pending {
    partial: bool,
    full: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct Done {
    cycles: u64,
    fulls: u64,
}

/// Trigger state shared between mutators and the collector thread.
#[derive(Debug)]
pub(crate) struct Control {
    pending: Mutex<Pending>,
    wake: Condvar,
    done: Mutex<Done>,
    done_cond: Condvar,
    bytes_since_cycle: AtomicU64,
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
            bytes_since_cycle: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Requests a partial collection (idempotent).
    pub(crate) fn request_partial(&self) {
        let mut p = self.pending.lock();
        if !p.partial && !p.full {
            p.partial = true;
            self.wake.notify_all();
        }
    }

    /// Requests a full collection (idempotent; supersedes a pending
    /// partial).
    pub(crate) fn request_full(&self) {
        let mut p = self.pending.lock();
        if !p.full {
            p.full = true;
            self.wake.notify_all();
        }
    }

    /// Collector thread: blocks until a request or shutdown.  Returns
    /// `None` on shutdown.
    pub(crate) fn next_request(&self) -> Option<CycleKind> {
        let mut p = self.pending.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire) {
                return None;
            }
            if p.full {
                p.full = false;
                p.partial = false;
                return Some(CycleKind::Full);
            }
            if p.partial {
                p.partial = false;
                return Some(CycleKind::Partial);
            }
            self.wake.wait(&mut p);
        }
    }

    /// Non-blocking peek: is a cycle request pending?
    #[cfg(test)]
    pub(crate) fn has_request(&self) -> bool {
        let p = self.pending.lock();
        p.partial || p.full
    }

    /// Collector thread: records a completed cycle and wakes waiters.
    pub(crate) fn note_cycle_done(&self, kind: CycleKind) {
        let mut d = self.done.lock();
        d.cycles += 1;
        if kind == CycleKind::Full {
            d.fulls += 1;
        }
        self.done_cond.notify_all();
    }

    /// Number of full collections completed so far.
    pub(crate) fn fulls_done(&self) -> u64 {
        self.done.lock().fulls
    }

    /// Number of cycles completed so far.
    pub(crate) fn cycles_done(&self) -> u64 {
        self.done.lock().cycles
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

    /// Adds to the §3.3 allocation accumulator; returns the new total.
    pub(crate) fn add_allocated(&self, bytes: u64) -> u64 {
        self.bytes_since_cycle.fetch_add(bytes, Ordering::Relaxed) + bytes
    }

    /// Reads the §3.3 allocation accumulator.
    pub(crate) fn bytes_since_cycle(&self) -> u64 {
        self.bytes_since_cycle.load(Ordering::Relaxed)
    }

    /// Consumes `bytes` from the accumulator (at cycle end, the amount
    /// that was pending when the cycle *started*).  Allocation performed
    /// while the cycle ran keeps counting toward the next trigger —
    /// exactly the objects that form the next young generation.
    pub(crate) fn consume_allocated(&self, bytes: u64) {
        self.bytes_since_cycle.fetch_sub(bytes, Ordering::Relaxed);
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
        p.partial = false;
        p.full = true;
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
    use std::sync::Arc;

    #[test]
    fn full_supersedes_partial() {
        let c = Control::new();
        c.request_partial();
        c.request_full();
        assert_eq!(c.next_request(), Some(CycleKind::Full));
        // The pending partial was absorbed by the full.
        c.begin_shutdown();
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn partial_then_nothing() {
        let c = Control::new();
        c.request_partial();
        assert_eq!(c.next_request(), Some(CycleKind::Partial));
        c.begin_shutdown();
        assert_eq!(c.next_request(), None);
    }

    #[test]
    fn allocation_accumulator() {
        let c = Control::new();
        assert_eq!(c.add_allocated(100), 100);
        assert_eq!(c.add_allocated(50), 150);
        assert_eq!(c.bytes_since_cycle(), 150);
        // A cycle that started when 100 bytes were pending consumes only
        // those 100; the 50 allocated "during" it roll over.
        c.consume_allocated(100);
        assert_eq!(c.bytes_since_cycle(), 50);
    }

    #[test]
    fn done_counters() {
        let c = Control::new();
        c.note_cycle_done(CycleKind::Partial);
        c.note_cycle_done(CycleKind::Full);
        assert_eq!(c.cycles_done(), 2);
        assert_eq!(c.fulls_done(), 1);
    }

    #[test]
    fn wait_for_full_wakes_on_completion() {
        let c = Arc::new(Control::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait_for_full(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.note_cycle_done(CycleKind::Full);
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
