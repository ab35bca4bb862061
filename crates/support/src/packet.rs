//! Work-packet scheduler: typed packets drained from phase *buckets*
//! that open in a declared order, executed by a small worker pool over
//! the same conservative-length [`WorkerDeque`]s the mark phase steals
//! from.
//!
//! The shape is MMTk's (see PAPERS.md): a *plan* enqueues typed
//! [`Packet`]s into the buckets of a [`Schedule`]; buckets open
//! strictly in declaration order; a bucket closes only when it is
//! *provably drained* — queue empty **and** no packet in flight — and,
//! if the bucket has a [`Drained`] hook, when that hook agrees.  The
//! hook is how a phase expresses a nontrivial termination condition
//! (e.g. the on-the-fly §4.4 check "every mutator outside its barrier
//! epoch, then every queue still empty") as a bucket-closing condition:
//! it may close the bucket, refill it with newly discovered packets, or
//! ask the pool to wait and re-poll.
//!
//! Guarantees:
//!
//! * **Ordered opening** — bucket *i*+1 opens only after bucket *i*
//!   closed; `on_open`/`on_close` hooks run exactly once, on the worker
//!   that performed the transition, serialized under the advance lock.
//! * **Conservative drain check** — a worker increments the bucket's
//!   `in_flight` *before* trying to take a packet and decrements it
//!   only after the packet ran (or the take failed), and the queue's
//!   length is itself conservative ([`WorkerDeque`] bumps `len` before
//!   publishing an item); so "queue empty ∧ `in_flight` = 0" proves no
//!   packet exists or is running, with no hidden window.  Packets may
//!   enqueue follow-ons, but only into their own (still open, hence
//!   `in_flight` > 0) bucket or a later one — so the check can never
//!   race with a packet it missed.
//! * **Serial buckets** — at most one packet in flight, taken FIFO.
//!   With one worker *every* bucket degenerates to exactly this, so a
//!   single-threaded schedule runs packets in enqueue order, bucket by
//!   bucket — byte-for-byte the sequential phase order.
//! * **Span accounting** — each bucket's open→close wall time is
//!   sampled once at close and handed to `on_close`; [`Schedule::span`]
//!   returns the same sample afterwards, so phase attribution and trace
//!   events cannot disagree about a phase's duration.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::steal::WorkerDeque;
use crate::sync::{Backoff, Mutex};

/// One unit of schedulable work.
///
/// A packet runs at most once, on one worker, with exclusive access to
/// that worker's context `Cx`.  While running it may enqueue follow-on
/// packets into its own bucket or any later bucket via `sched`.
pub trait Packet<'s, Cx>: Send + 's {
    /// Short static name, used in debug assertions and panic messages.
    fn name(&self) -> &'static str;
    /// Executes the packet on worker `worker`.
    fn run(self: Box<Self>, worker: usize, cx: &mut Cx, sched: &Schedule<'s, Cx>);
}

/// Verdict of a bucket's [`Drained`] hook, consulted when the bucket's
/// queue is empty and no packet is in flight.
pub enum Drained<'s, Cx> {
    /// The phase is complete: close the bucket and open the next.
    Close,
    /// More work was discovered: enqueue these packets and stay open.
    Refill(Vec<Box<dyn Packet<'s, Cx>>>),
    /// Not drained yet (progress pending outside the scheduler, e.g. a
    /// mutator inside its barrier epoch): back off and re-poll.
    Wait,
}

/// Hook run once when a bucket opens (on the advancing worker).
type OpenHook<'s> = Box<dyn Fn() + Send + Sync + 's>;
/// Hook run once when a bucket closes, with the open→close span.
type CloseHook<'s> = Box<dyn Fn(Duration) + Send + Sync + 's>;
/// Closing condition for a bucket whose emptiness is not sufficient.
type DrainHook<'s, Cx> = Box<dyn Fn() -> Drained<'s, Cx> + Send + Sync + 's>;

const PENDING: u8 = 0;
const OPEN: u8 = 1;
const CLOSED: u8 = 2;

/// Releases an in-flight slot on every exit path, unwind included: a
/// leaked slot would make "queue empty ∧ `in_flight` = 0"
/// unsatisfiable forever.
struct InFlight<'f>(&'f AtomicUsize);
impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Bucket<'s, Cx> {
    name: &'static str,
    /// Serial buckets admit at most one packet in flight.
    serial: bool,
    queue: WorkerDeque<Box<dyn Packet<'s, Cx>>>,
    in_flight: AtomicUsize,
    state: AtomicU8,
    opened_at: Mutex<Option<Instant>>,
    span_ns: AtomicU64,
    on_open: Option<OpenHook<'s>>,
    on_close: Option<CloseHook<'s>>,
    drained: Option<DrainHook<'s, Cx>>,
}

/// Identifies a bucket within its [`Schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketId(usize);

/// An ordered sequence of phase buckets plus the pool that drains them.
pub struct Schedule<'s, Cx> {
    buckets: Vec<Bucket<'s, Cx>>,
    /// Index of the currently open bucket (`buckets.len()` when done).
    current: AtomicUsize,
    /// Serializes bucket transitions and drained-hook evaluation.
    advance: Mutex<()>,
    /// Set when any worker unwinds out of [`Schedule::drive`] — a packet
    /// or hook panicked.  The surviving workers stop driving so the
    /// panic can propagate out of [`Schedule::run`]'s thread scope
    /// (instead of deadlocking behind the dead worker's abandoned
    /// bucket), where the collector's supervisor can catch it.
    failed: AtomicBool,
}

impl<'s, Cx: Send + 's> Schedule<'s, Cx> {
    /// Creates an empty schedule.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Schedule {
            buckets: Vec::new(),
            current: AtomicUsize::new(0),
            advance: Mutex::new(()),
            failed: AtomicBool::new(false),
        }
    }

    /// Appends a bucket that drains with full worker parallelism.
    pub fn add_bucket(&mut self, name: &'static str) -> BucketId {
        self.push_bucket(name, false)
    }

    /// Appends a bucket that admits at most one packet in flight,
    /// taken in enqueue (FIFO) order.
    pub fn add_serial_bucket(&mut self, name: &'static str) -> BucketId {
        self.push_bucket(name, true)
    }

    fn push_bucket(&mut self, name: &'static str, serial: bool) -> BucketId {
        self.buckets.push(Bucket {
            name,
            serial,
            queue: WorkerDeque::new(),
            in_flight: AtomicUsize::new(0),
            state: AtomicU8::new(PENDING),
            opened_at: Mutex::new(None),
            span_ns: AtomicU64::new(0),
            on_open: None,
            on_close: None,
            drained: None,
        });
        BucketId(self.buckets.len() - 1)
    }

    /// Installs the hook run once when `b` opens.
    pub fn on_open(&mut self, b: BucketId, f: impl Fn() + Send + Sync + 's) {
        self.buckets[b.0].on_open = Some(Box::new(f));
    }

    /// Installs the hook run once when `b` closes (gets the span).
    pub fn on_close(&mut self, b: BucketId, f: impl Fn(Duration) + Send + Sync + 's) {
        self.buckets[b.0].on_close = Some(Box::new(f));
    }

    /// Installs `b`'s closing condition, consulted only when the queue
    /// is empty and nothing is in flight.  Without one, empty ⇒ close.
    pub fn on_drained(&mut self, b: BucketId, f: impl Fn() -> Drained<'s, Cx> + Send + Sync + 's) {
        self.buckets[b.0].drained = Some(Box::new(f));
    }

    /// Enqueues a packet into bucket `b`.
    ///
    /// Legal before the schedule runs, or — from a running packet —
    /// into its own bucket or any later (not yet closed) one.  In debug
    /// builds enqueuing into a closed bucket panics: the drain check
    /// already proved that bucket empty, so the packet would be lost.
    pub fn enqueue<P: Packet<'s, Cx>>(&self, b: BucketId, p: P) {
        self.enqueue_boxed(b, Box::new(p));
    }

    /// [`Schedule::enqueue`] for an already-boxed packet.
    pub fn enqueue_boxed(&self, b: BucketId, p: Box<dyn Packet<'s, Cx>>) {
        let bucket = &self.buckets[b.0];
        #[cfg(debug_assertions)]
        if bucket.state.load(Ordering::SeqCst) == CLOSED {
            panic!(
                "packet `{}` enqueued to closed bucket `{}`",
                p.name(),
                bucket.name
            );
        }
        bucket.queue.push(p);
    }

    /// The open→close span of `b`; zero until `b` has closed.
    pub fn span(&self, b: BucketId) -> Duration {
        Duration::from_nanos(self.buckets[b.0].span_ns.load(Ordering::Acquire))
    }

    /// The declared bucket names, in declaration (= opening) order.
    pub fn bucket_names(&self) -> Vec<&'static str> {
        self.buckets.iter().map(|b| b.name).collect()
    }

    /// Runs the schedule to completion.
    ///
    /// The caller's thread drives packets with context `main`; each
    /// entry of `helpers` staffs one additional scoped worker thread.
    /// With no helpers everything runs inline on the caller — packets
    /// in enqueue order, buckets in declaration order — so a serial
    /// schedule *is* the sequential algorithm, not a simulation of it.
    pub fn run(&self, main: &mut Cx, helpers: &mut [Cx]) {
        if self.buckets.is_empty() {
            return;
        }
        self.open_bucket(0);
        if helpers.is_empty() {
            self.drive(0, main);
            return;
        }
        std::thread::scope(|scope| {
            for (i, cx) in helpers.iter_mut().enumerate() {
                let sched = &*self;
                scope.spawn(move || sched.drive(i + 1, cx));
            }
            self.drive(0, main);
        });
    }

    /// Worker loop: drain the open bucket, advance when provably done.
    ///
    /// Panic-safe: an unwinding worker releases its in-flight slot and
    /// raises [`Schedule::failed`] so its peers return instead of
    /// spinning on a bucket that can no longer drain.  A panicking
    /// packet therefore surfaces from [`Schedule::run`] — rethrown by
    /// the thread scope if it died on a helper — rather than wedging
    /// the schedule, which is what the collector's supervisor needs to
    /// catch it and abort the cycle.
    fn drive(&self, worker: usize, cx: &mut Cx) {
        /// Flags the schedule failed if dropped during a panic.
        struct FailFlag<'f>(&'f AtomicBool);
        impl Drop for FailFlag<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
        }
        let _fail = FailFlag(&self.failed);
        let mut backoff = Backoff::new();
        loop {
            if self.failed.load(Ordering::SeqCst) {
                return;
            }
            let b = self.current.load(Ordering::SeqCst);
            if b >= self.buckets.len() {
                return;
            }
            let bucket = &self.buckets[b];
            // Claim an in-flight slot *before* looking at the queue so
            // the drain check (`empty ∧ in_flight = 0`) is conservative.
            let prev = bucket.in_flight.fetch_add(1, Ordering::SeqCst);
            if bucket.serial && prev > 0 {
                bucket.in_flight.fetch_sub(1, Ordering::SeqCst);
                backoff.snooze();
                continue;
            }
            // FIFO end: packets run in enqueue order when serial.
            match bucket.queue.steal() {
                Some(p) => {
                    let _slot = InFlight(&bucket.in_flight);
                    p.run(worker, cx, self);
                    drop(_slot);
                    backoff.reset();
                }
                None => {
                    bucket.in_flight.fetch_sub(1, Ordering::SeqCst);
                    if self.try_advance(b) {
                        backoff.reset();
                    } else {
                        backoff.snooze();
                    }
                }
            }
        }
    }

    /// Attempts to close bucket `b` and open its successor.  Returns
    /// true when the caller made progress (closed or refilled).
    fn try_advance(&self, b: usize) -> bool {
        let bucket = &self.buckets[b];
        // Cheap pre-check outside the lock.
        if !bucket.queue.is_empty() || bucket.in_flight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let _adv = self.advance.lock();
        // Someone else may have advanced (or refilled) while we waited.
        if self.current.load(Ordering::SeqCst) != b {
            return false;
        }
        if !bucket.queue.is_empty() || bucket.in_flight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        // Queue empty and nothing running: ask the bucket's closing
        // condition (default: empty ⇒ done).
        match bucket.drained.as_ref().map_or(Drained::Close, |d| d()) {
            Drained::Refill(packets) => {
                for p in packets {
                    bucket.queue.push(p);
                }
                true
            }
            Drained::Wait => false,
            Drained::Close => {
                // The hook may itself have observed late work (it runs
                // under the advance lock, but mutator-fed queues change
                // underneath it); re-verify before committing.
                if !bucket.queue.is_empty() || bucket.in_flight.load(Ordering::SeqCst) != 0 {
                    return false;
                }
                let span = bucket
                    .opened_at
                    .lock()
                    .expect("closing a bucket that never opened")
                    .elapsed();
                bucket
                    .span_ns
                    .store(span.as_nanos() as u64, Ordering::Release);
                bucket.state.store(CLOSED, Ordering::SeqCst);
                if let Some(f) = &bucket.on_close {
                    f(span);
                }
                let next = b + 1;
                if next < self.buckets.len() {
                    self.open_bucket(next);
                }
                // Publish the new position only after the next bucket's
                // on_open ran, so its packets observe the hook's effects.
                self.current.store(next, Ordering::SeqCst);
                true
            }
        }
    }

    fn open_bucket(&self, b: usize) {
        let bucket = &self.buckets[b];
        // Stamp the clock before on_open so the span covers the hook
        // (phase-begin events are part of the phase they announce).
        *bucket.opened_at.lock() = Some(Instant::now());
        bucket.state.store(OPEN, Ordering::SeqCst);
        if let Some(f) = &bucket.on_open {
            f();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Test context: a per-worker tally.
    #[derive(Default)]
    struct Tally {
        ran: usize,
    }

    /// A packet that bumps a shared counter and the worker tally.
    struct Count {
        hits: Arc<AtomicUsize>,
    }
    impl<'s> Packet<'s, Tally> for Count {
        fn name(&self) -> &'static str {
            "count"
        }
        fn run(self: Box<Self>, _w: usize, cx: &mut Tally, _s: &Schedule<'s, Tally>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            cx.ran += 1;
        }
    }

    /// A packet that appends its tag to a shared order log.
    struct Tag {
        tag: usize,
        log: Arc<Mutex<Vec<usize>>>,
    }
    impl<'s> Packet<'s, Tally> for Tag {
        fn name(&self) -> &'static str {
            "tag"
        }
        fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, _s: &Schedule<'s, Tally>) {
            self.log.lock().push(self.tag);
        }
    }

    /// A packet that panics when run.
    struct Boom;
    impl<'s> Packet<'s, Tally> for Boom {
        fn name(&self) -> &'static str {
            "boom"
        }
        fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, _s: &Schedule<'s, Tally>) {
            panic!("injected packet panic");
        }
    }

    /// Whichever worker takes the poisoned packet, the panic must
    /// surface from `run` (rethrown by the thread scope if a helper
    /// died) while the surviving workers stop driving — not deadlock
    /// behind the dead worker's leaked in-flight slot.
    #[test]
    fn panicking_packet_propagates_instead_of_wedging_the_pool() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..8 {
            let hits = Arc::new(AtomicUsize::new(0));
            let mut sched: Schedule<Tally> = Schedule::new();
            let b = sched.add_bucket("work");
            for _ in 0..4 {
                sched.enqueue(
                    b,
                    Count {
                        hits: Arc::clone(&hits),
                    },
                );
            }
            sched.enqueue(b, Boom);
            let mut main = Tally::default();
            let mut helpers = [Tally::default(), Tally::default(), Tally::default()];
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.run(&mut main, &mut helpers);
            }));
            assert!(r.is_err(), "packet panic must escape the schedule");
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn serial_schedule_runs_packets_in_bucket_then_fifo_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b0 = sched.add_serial_bucket("first");
        let b1 = sched.add_serial_bucket("second");
        // Enqueue out of bucket order: bucket order must still win.
        sched.enqueue(
            b1,
            Tag {
                tag: 20,
                log: Arc::clone(&log),
            },
        );
        sched.enqueue(
            b0,
            Tag {
                tag: 10,
                log: Arc::clone(&log),
            },
        );
        sched.enqueue(
            b0,
            Tag {
                tag: 11,
                log: Arc::clone(&log),
            },
        );
        sched.enqueue(
            b1,
            Tag {
                tag: 21,
                log: Arc::clone(&log),
            },
        );
        sched.run(&mut Tally::default(), &mut []);
        assert_eq!(*log.lock(), vec![10, 11, 20, 21]);
    }

    #[test]
    fn follow_on_packets_extend_their_own_bucket() {
        /// Enqueues a `Tag` into its own bucket while running.
        struct Spawner {
            bucket: BucketId,
            log: Arc<Mutex<Vec<usize>>>,
        }
        impl<'s> Packet<'s, Tally> for Spawner {
            fn name(&self) -> &'static str {
                "spawner"
            }
            fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, s: &Schedule<'s, Tally>) {
                self.log.lock().push(1);
                s.enqueue(
                    self.bucket,
                    Tag {
                        tag: 2,
                        log: Arc::clone(&self.log),
                    },
                );
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b0 = sched.add_serial_bucket("grows");
        let b1 = sched.add_serial_bucket("after");
        sched.enqueue(
            b0,
            Spawner {
                bucket: b0,
                log: Arc::clone(&log),
            },
        );
        sched.enqueue(
            b1,
            Tag {
                tag: 3,
                log: Arc::clone(&log),
            },
        );
        sched.run(&mut Tally::default(), &mut []);
        assert_eq!(*log.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn drained_hook_can_refill_then_close() {
        let hits = Arc::new(AtomicUsize::new(0));
        let rounds = Arc::new(AtomicUsize::new(0));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b = sched.add_bucket("refilled");
        {
            let hits = Arc::clone(&hits);
            let rounds = Arc::clone(&rounds);
            sched.on_drained(b, move || {
                if rounds.fetch_add(1, Ordering::SeqCst) < 3 {
                    Drained::Refill(vec![Box::new(Count {
                        hits: Arc::clone(&hits),
                    })])
                } else {
                    Drained::Close
                }
            });
        }
        sched.enqueue(
            b,
            Count {
                hits: Arc::clone(&hits),
            },
        );
        sched.run(&mut Tally::default(), &mut []);
        // 1 seed + 3 refills, and the hook saw the bucket drained 4 times.
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(rounds.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn drained_hook_wait_delays_close_until_it_agrees() {
        let polls = Arc::new(AtomicUsize::new(0));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b = sched.add_bucket("waits");
        {
            let polls = Arc::clone(&polls);
            sched.on_drained(b, move || {
                if polls.fetch_add(1, Ordering::SeqCst) < 5 {
                    Drained::Wait
                } else {
                    Drained::Close
                }
            });
        }
        sched.run(&mut Tally::default(), &mut []);
        assert!(polls.load(Ordering::SeqCst) >= 6);
    }

    #[test]
    fn open_and_close_hooks_fire_once_per_bucket_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b0 = sched.add_bucket("a");
        let b1 = sched.add_bucket("b");
        for (i, b) in [b0, b1].into_iter().enumerate() {
            let l = Arc::clone(&log);
            sched.on_open(b, move || l.lock().push(i * 10));
            let l = Arc::clone(&log);
            sched.on_close(b, move |_| l.lock().push(i * 10 + 1));
        }
        sched.run(&mut Tally::default(), &mut []);
        assert_eq!(*log.lock(), vec![0, 1, 10, 11]);
    }

    #[test]
    fn bucket_span_covers_packet_runtime() {
        struct Sleep;
        impl<'s> Packet<'s, Tally> for Sleep {
            fn name(&self) -> &'static str {
                "sleep"
            }
            fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, _s: &Schedule<'s, Tally>) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let mut sched: Schedule<Tally> = Schedule::new();
        let b = sched.add_bucket("slept");
        sched.enqueue(b, Sleep);
        sched.run(&mut Tally::default(), &mut []);
        assert!(sched.span(b) >= Duration::from_millis(5));
    }

    #[test]
    fn parallel_run_executes_every_packet_exactly_once() {
        const N: usize = 4;
        const PACKETS: usize = 200;
        let hits = Arc::new(AtomicUsize::new(0));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b = sched.add_bucket("fanout");
        for _ in 0..PACKETS {
            sched.enqueue(
                b,
                Count {
                    hits: Arc::clone(&hits),
                },
            );
        }
        let mut main = Tally::default();
        let mut helpers: Vec<Tally> = (1..N).map(|_| Tally::default()).collect();
        sched.run(&mut main, &mut helpers);
        assert_eq!(hits.load(Ordering::SeqCst), PACKETS);
        // Per-worker contexts saw each run exactly once too.
        let total: usize = main.ran + helpers.iter().map(|t| t.ran).sum::<usize>();
        assert_eq!(total, PACKETS);
    }

    #[test]
    fn serial_bucket_admits_one_packet_at_a_time() {
        /// Asserts it is never concurrent with another `Exclusive`.
        struct Exclusive {
            live: Arc<AtomicUsize>,
            peak: Arc<AtomicUsize>,
        }
        impl<'s> Packet<'s, Tally> for Exclusive {
            fn name(&self) -> &'static str {
                "exclusive"
            }
            fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, _s: &Schedule<'s, Tally>) {
                let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
                self.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut sched: Schedule<Tally> = Schedule::new();
        let b = sched.add_serial_bucket("one-lane");
        for _ in 0..16 {
            sched.enqueue(
                b,
                Exclusive {
                    live: Arc::clone(&live),
                    peak: Arc::clone(&peak),
                },
            );
        }
        let mut main = Tally::default();
        let mut helpers: Vec<Tally> = (1..4).map(|_| Tally::default()).collect();
        sched.run(&mut main, &mut helpers);
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "closed bucket")]
    fn enqueue_to_closed_bucket_panics_in_debug() {
        let mut sched: Schedule<Tally> = Schedule::new();
        let b0 = sched.add_bucket("closes");
        let b1 = sched.add_bucket("tail");
        /// Enqueues into the already-closed first bucket.
        struct Late {
            closed: BucketId,
        }
        impl<'s> Packet<'s, Tally> for Late {
            fn name(&self) -> &'static str {
                "late"
            }
            fn run(self: Box<Self>, _w: usize, _cx: &mut Tally, s: &Schedule<'s, Tally>) {
                s.enqueue(
                    self.closed,
                    Late {
                        closed: self.closed,
                    },
                );
            }
        }
        sched.enqueue(b1, Late { closed: b0 });
        sched.run(&mut Tally::default(), &mut []);
    }
}
