//! Plans: the collection cycle expressed as a work-packet schedule
//! (DESIGN.md §4.7).
//!
//! PR 5 hard-wired exactly two parallel phases (mark, sweep) and left
//! the `gen`/`nogen`/`aging` differences as `match self.config.mode`
//! branches inside `run_cycle`.  This module re-expresses the cycle the
//! way MMTk structures collectors (PAPERS.md): each protocol step is a
//! typed [`Packet`]; packets live in phase buckets that open in a
//! declared order; a *plan* — the (mode × sweep-backend) combination —
//! selects which packets go into which bucket.  The bucket sequence of
//! every plan is:
//!
//! | bucket         | kind     | packets (by plan)                                  |
//! |----------------|----------|----------------------------------------------------|
//! | `lazy-finalize`| serial   | lazy plans only: drain the previous sweep epoch    |
//! | `init`         | serial   | full collections: `InitFullCollection` (gen modes) |
//! | `handshake-1`  | serial   | post `sync1`, wait                                 |
//! | `handshake-2`  | serial   | post `sync2`, card scan / color toggle (Fig. 2/5 order), wait |
//! | `handshake-3`  | serial   | raise tracing, post `async`, mark global roots, wait |
//! | `trace`        | parallel | one `TraceDrain` per worker lane                   |
//! | `reclaim`      | parallel | eager: sweep (serial kernel or page-partitioned lanes); lazy: publish the epoch |
//!
//! Buckets open strictly in declaration order and serial buckets drain
//! FIFO, so with one worker the schedule runs byte-for-byte the
//! verified DLG sequence `run_cycle` used to spell out imperatively.
//! The §4.4 trace-termination check is the `trace` bucket's closing
//! condition (see [`GcShared::add_trace_bucket`]); a future phase — an
//! Immix-style defrag arm, say — is a new bucket or packet, not new
//! control flow in the proof.
//!
//! Phase accounting rides on the bucket spans: each bucket's open→close
//! wall time is sampled exactly once at close (fixing the old
//! double-`elapsed()` sampling), handshake windows span the full
//! post→ack interval (fixing acks landing outside any phase window in
//! the event ring), and card/root work nests inside the handshake
//! windows as its own phase slots (fixing root marking billed to
//! handshake latency).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use otf_heap::ObjectRef;
use otf_support::fault;
use otf_support::packet::{BucketId, Drained, Packet, Schedule};
use otf_support::steal::WorkerDeque;
use otf_support::sync::Mutex;

use crate::config::{Mode, Promotion};
use crate::cycle::CycleCx;
use crate::lazy::LazyWho;
use crate::obs::{dur_ns, phase, EventKind};
use crate::shared::{bucket, GcShared};
use crate::state::Status;
use crate::stats::CycleKind;

/// Shared per-cycle scratch the packets of one schedule communicate
/// through: the seed list feeding the trace, the worker deques, the
/// sweep cursor, and the per-lane timing/steal tallies that phase
/// attribution reads back after the schedule completes.
pub(crate) struct CycleFrame {
    /// Gray seeds discovered before the trace bucket opens (card scan,
    /// global roots).  `TraceDrain` packets drain it under the trace
    /// bucket; the §4.4 closing condition re-checks its emptiness.
    pub seeds: Mutex<Vec<ObjectRef>>,
    /// One work-stealing deque per trace lane.
    pub deques: Vec<WorkerDeque<ObjectRef>>,
    /// Segment-claim cursor for the page-partitioned parallel sweep.
    pub cursor: AtomicUsize,
    /// Frontier granule pinned when the reclaim bucket plans its lanes.
    pub frontier: AtomicUsize,
    /// Nanoseconds spent scanning cards (nested inside handshake 2).
    pub cards_ns: AtomicU64,
    /// Nanoseconds spent marking global roots (inside handshake 3).
    pub roots_ns: AtomicU64,
    /// Per-lane trace time, summed over that lane's `TraceDrain` runs.
    pub mark_ns: Vec<AtomicU64>,
    /// Per-lane steal counts (sibling deques + the shared gray queue).
    pub steals: Vec<AtomicU64>,
    /// Total bytes blackened by the trace, summed across lanes as each
    /// packet returns — the lazy epoch is published from this *before*
    /// helper counters merge back into the main context.
    pub bytes_traced: AtomicU64,
    /// Heap bytes in use when the cycle proper began (sampled by the
    /// init bucket's open hook, after any lazy finalize).
    pub used_before: AtomicUsize,
    /// Allocation-trigger accumulator sampled at the same point.
    pub allocated_since: AtomicU64,
}

impl CycleFrame {
    pub(crate) fn new(workers: usize) -> CycleFrame {
        CycleFrame {
            seeds: Mutex::new(Vec::new()),
            deques: (0..workers).map(|_| WorkerDeque::new()).collect(),
            cursor: AtomicUsize::new(1),
            frontier: AtomicUsize::new(0),
            cards_ns: AtomicU64::new(0),
            roots_ns: AtomicU64::new(0),
            mark_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            bytes_traced: AtomicU64::new(0),
            used_before: AtomicUsize::new(0),
            allocated_since: AtomicU64::new(0),
        }
    }
}

/// The bucket handles of one full-cycle schedule, kept so `run_cycle`
/// can read the closed buckets' spans for phase attribution.
pub(crate) struct CycleBuckets {
    pub finalize: Option<BucketId>,
    pub init: BucketId,
    pub hs1: BucketId,
    pub hs2: BucketId,
    pub hs3: BucketId,
    pub trace: BucketId,
    pub reclaim: BucketId,
}

// ----- packets ---------------------------------------------------------

/// Lazy plans: drain the previous sweep epoch before this cycle's color
/// toggle, folding its deferred counters into this cycle (DESIGN.md
/// §4.6 — a straggling sweeper under stale params would free fresh
/// objects after the toggle).
struct LazyFinalize<'s> {
    sh: &'s GcShared,
}

impl<'s> Packet<'s, CycleCx> for LazyFinalize<'s> {
    fn name(&self) -> &'static str {
        "lazy-finalize"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        self.sh.lazy_finalize(LazyWho::Collector);
        cx.counters.merge(&self.sh.lazy_take_counters());
    }
}

/// `InitFullCollection` (Figure 3 / §6): recolor old objects young;
/// the simple variant also wipes the card marks, aging keeps them.
struct InitFull<'s> {
    sh: &'s GcShared,
    clear_cards: bool,
}

impl<'s> Packet<'s, CycleCx> for InitFull<'s> {
    fn name(&self) -> &'static str {
        "init-full-collection"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        self.sh.init_full_collection(self.clear_cards, cx);
    }
}

/// `postHandshake(s)`.  For the third handshake the tracing flag goes
/// up first: the barrier must start graying overwritten values before
/// any mutator can observe async status.
struct PostHandshake<'s> {
    sh: &'s GcShared,
    status: Status,
    raise_tracing: bool,
}

impl<'s> Packet<'s, CycleCx> for PostHandshake<'s> {
    fn name(&self) -> &'static str {
        "post-handshake"
    }
    fn run(self: Box<Self>, _w: usize, _cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        if self.raise_tracing {
            self.sh.tracing.store(true, Ordering::Release);
        }
        self.sh.post_handshake(self.status);
    }
}

/// `waitHandshake`: block until every mutator adopted the posted status.
struct WaitHandshake<'s> {
    sh: &'s GcShared,
}

impl<'s> Packet<'s, CycleCx> for WaitHandshake<'s> {
    fn name(&self) -> &'static str {
        "wait-handshake"
    }
    fn run(self: Box<Self>, _w: usize, _cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        self.sh.wait_handshake();
    }
}

/// The color toggle (Remark 5.1).
struct ToggleColors<'s> {
    sh: &'s GcShared,
}

impl<'s> Packet<'s, CycleCx> for ToggleColors<'s> {
    fn name(&self) -> &'static str {
        "toggle-colors"
    }
    fn run(self: Box<Self>, _w: usize, _cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        self.sh.colors.toggle();
    }
}

/// `ClearCards` as its own nested phase inside the second handshake
/// window — simple variant before the toggle (§7.1), aging scan after
/// it (Figure 5).  The grays it finds move onto the frame's seed list.
struct CardScan<'s> {
    sh: &'s GcShared,
    frame: &'s CycleFrame,
    /// `None` = simple `ClearCards`; `Some(threshold)` = the aging scan.
    aging: Option<u8>,
}

impl<'s> Packet<'s, CycleCx> for CardScan<'s> {
    fn name(&self) -> &'static str {
        "card-scan"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        let t = Instant::now();
        self.sh.obs.event(EventKind::PhaseBegin, phase::CARDS, 0);
        match self.aging {
            None => self.sh.clear_cards_simple(cx),
            Some(threshold) => self.sh.clear_cards_aging(threshold, cx),
        }
        let dur = dur_ns(t.elapsed());
        self.frame.cards_ns.fetch_add(dur, Ordering::Relaxed);
        self.sh.obs.event(EventKind::PhaseEnd, phase::CARDS, dur);
        self.frame.seeds.lock().append(&mut cx.mark_stack);
    }
}

/// Global-root marking, timed into its own phase slot: it is trace
/// work, and billing it to the handshake would inflate
/// handshake-latency SLOs by root-set size.  Runs between the third
/// post and its wait (Figure 2), seeding the frame.
struct MarkRoots<'s> {
    sh: &'s GcShared,
    frame: &'s CycleFrame,
}

impl<'s> Packet<'s, CycleCx> for MarkRoots<'s> {
    fn name(&self) -> &'static str {
        "mark-roots"
    }
    fn run(self: Box<Self>, _w: usize, _cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        let t = Instant::now();
        self.sh.obs.event(EventKind::PhaseBegin, phase::ROOTS, 0);
        self.sh
            .mark_global_roots_local(&mut self.frame.seeds.lock());
        let dur = dur_ns(t.elapsed());
        self.frame.roots_ns.fetch_add(dur, Ordering::Relaxed);
        self.sh.obs.event(EventKind::PhaseEnd, phase::ROOTS, dur);
    }
}

/// One trace lane: seed the deques from the frame, then drain private
/// stack / own deque / steals until out of work
/// ([`GcShared::trace_drain`]).  The packet returns to the scheduler
/// when it finds nothing to steal; the bucket's closing condition
/// decides between refilling (work reappeared), waiting (a mutator is
/// inside its barrier epoch) and closing (§4.4).
struct TraceDrain<'s> {
    sh: &'s GcShared,
    frame: &'s CycleFrame,
    lane: usize,
    workers: usize,
}

impl<'s> Packet<'s, CycleCx> for TraceDrain<'s> {
    fn name(&self) -> &'static str {
        "trace-drain"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        let t = Instant::now();
        {
            let mut seeds = self.frame.seeds.lock();
            if !seeds.is_empty() {
                if self.workers == 1 {
                    // Serial: straight onto the private mark stack, so
                    // the pop order is byte-for-byte the old sequence.
                    cx.mark_stack.append(&mut seeds);
                } else {
                    for (i, obj) in seeds.drain(..).enumerate() {
                        self.frame.deques[i % self.workers].push(obj);
                    }
                }
            }
        }
        let before = cx.counters.bytes_traced;
        let steals = self
            .sh
            .trace_drain(self.lane, self.workers, &self.frame.deques, cx);
        let traced = cx.counters.bytes_traced - before;
        self.frame.bytes_traced.fetch_add(traced, Ordering::Relaxed);
        self.frame.steals[self.lane].fetch_add(steals, Ordering::Relaxed);
        self.frame.mark_ns[self.lane].fetch_add(dur_ns(t.elapsed()), Ordering::Relaxed);
    }
}

/// The reclaim step of the selected plan: lazy plans publish the sweep
/// epoch (mark-only cycle); eager plans run the serial sweep kernel or
/// fan out one [`SweepLane`] per worker into their own bucket.
struct ReclaimPlan<'s> {
    sh: &'s GcShared,
    frame: &'s CycleFrame,
    bucket: BucketId,
    workers: usize,
    lazy: bool,
}

impl<'s> Packet<'s, CycleCx> for ReclaimPlan<'s> {
    fn name(&self) -> &'static str {
        "reclaim-plan"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, sched: &Schedule<'s, CycleCx>) {
        if self.lazy {
            // Mark-only cycle: order every trace-phase color store
            // before the epoch becomes claimable, then publish it.
            std::sync::atomic::fence(Ordering::SeqCst);
            self.sh
                .lazy_publish(self.frame.bytes_traced.load(Ordering::Relaxed));
        } else if self.workers <= 1 {
            self.sh.sweep_serial(cx);
        } else {
            let frontier = self.sh.heap.frontier_granule();
            self.frame.frontier.store(frontier, Ordering::Relaxed);
            self.frame.cursor.store(1, Ordering::SeqCst);
            cx.touch_color_range(1, frontier);
            for lane in 0..self.workers {
                sched.enqueue(
                    self.bucket,
                    SweepLane {
                        sh: self.sh,
                        frame: self.frame,
                        lane,
                    },
                );
            }
        }
    }
}

/// One page-partitioned sweep lane: claim segments from the frame's
/// shared cursor until the frontier is reached.
struct SweepLane<'s> {
    sh: &'s GcShared,
    frame: &'s CycleFrame,
    lane: usize,
}

impl<'s> Packet<'s, CycleCx> for SweepLane<'s> {
    fn name(&self) -> &'static str {
        "sweep-lane"
    }
    fn run(self: Box<Self>, _w: usize, cx: &mut CycleCx, _s: &Schedule<'s, CycleCx>) {
        let frontier = self.frame.frontier.load(Ordering::Relaxed);
        let params = self.sh.sweep_params();
        self.sh
            .sweep_worker(self.lane, frontier, &self.frame.cursor, &params, cx);
    }
}

// ----- schedule builders -----------------------------------------------

impl GcShared {
    /// Builds the full-cycle schedule for this configuration's plan:
    /// every bucket in Figure 2/5 order, packets selected by
    /// (mode × kind × sweep backend).
    pub(crate) fn build_cycle_schedule<'s>(
        &'s self,
        sched: &mut Schedule<'s, CycleCx>,
        kind: CycleKind,
        frame: &'s CycleFrame,
        workers: usize,
    ) -> CycleBuckets {
        // Lazy plans: the previous epoch drains *before* the toggle
        // (its residual time is attributed to the sweep phase).
        let finalize = if self.config.lazy_sweep {
            let b = sched.add_serial_bucket("lazy-finalize");
            sched.on_open(b, move || {
                self.open_bucket
                    .store(bucket::LAZY_FINALIZE, Ordering::Release);
            });
            sched.enqueue(b, LazyFinalize { sh: self });
            Some(b)
        } else {
            None
        };

        // ----- clear (Figure 2/5: "clear: If (full collection) Init...")
        let init = sched.add_serial_bucket("init");
        sched.on_open(init, move || {
            self.open_bucket.store(bucket::INIT, Ordering::Release);
            self.collecting.store(true, Ordering::Release);
            self.obs.note_cycle_begin(kind);
            frame
                .used_before
                .store(self.heap.used_bytes(), Ordering::Relaxed);
            frame
                .allocated_since
                .store(self.control.bytes_since_cycle(), Ordering::Relaxed);
            self.obs.event(EventKind::PhaseBegin, phase::INIT, 0);
        });
        if kind == CycleKind::Full {
            match self.config.mode {
                // The toggled non-generational baseline needs no
                // initialization pass (Remark 5.1).
                Mode::NonGenerational => {}
                // Simple variant: recolor old objects young and wipe
                // all card marks (Figure 3).
                Mode::Generational(Promotion::Simple) => sched.enqueue(
                    init,
                    InitFull {
                        sh: self,
                        clear_cards: true,
                    },
                ),
                // Aging variant: recolor but *keep* the card marks (§6).
                Mode::Generational(Promotion::Aging { .. }) => sched.enqueue(
                    init,
                    InitFull {
                        sh: self,
                        clear_cards: false,
                    },
                ),
            }
        }
        sched.on_close(init, move |span| {
            self.obs
                .event(EventKind::PhaseEnd, phase::INIT, dur_ns(span));
        });

        // ----- first handshake -----------------------------------------
        let hs1 = sched.add_serial_bucket("handshake-1");
        sched.on_open(hs1, move || {
            self.open_bucket
                .store(bucket::HANDSHAKE_1, Ordering::Release);
            // Chaos kill site 2 of 6.
            if fault::point("collector.phase") {
                panic!("injected collector panic (phase: handshake-1)");
            }
            self.obs.event(EventKind::PhaseBegin, phase::HANDSHAKE, 0);
        });
        sched.enqueue(
            hs1,
            PostHandshake {
                sh: self,
                status: Status::Sync1,
                raise_tracing: false,
            },
        );
        sched.enqueue(hs1, WaitHandshake { sh: self });
        sched.on_close(hs1, move |span| {
            self.obs
                .event(EventKind::PhaseEnd, phase::HANDSHAKE, dur_ns(span));
        });

        // ----- second handshake: card work and the color toggle --------
        // The whole post→ack window is one handshake phase; card work
        // nests inside as its own phase (the old code posted sync2
        // before the window's PhaseBegin, landing mutator acks outside
        // any phase in the event ring).
        let hs2 = sched.add_serial_bucket("handshake-2");
        sched.on_open(hs2, move || {
            self.open_bucket
                .store(bucket::HANDSHAKE_2, Ordering::Release);
            // Chaos kill site 3 of 6.
            if fault::point("collector.phase") {
                panic!("injected collector panic (phase: handshake-2)");
            }
            self.obs.event(EventKind::PhaseBegin, phase::HANDSHAKE, 0);
        });
        sched.enqueue(
            hs2,
            PostHandshake {
                sh: self,
                status: Status::Sync2,
                raise_tracing: false,
            },
        );
        match self.config.mode {
            Mode::NonGenerational => {
                sched.enqueue(hs2, ToggleColors { sh: self });
            }
            Mode::Generational(Promotion::Simple) => {
                // Figure 2 order: ClearCards *before* the toggle, so
                // card marks for parents of yellow objects are never
                // lost (§7.1).  Both kinds scan.
                sched.enqueue(
                    hs2,
                    CardScan {
                        sh: self,
                        frame,
                        aging: None,
                    },
                );
                sched.enqueue(hs2, ToggleColors { sh: self });
            }
            Mode::Generational(Promotion::Aging { threshold }) => {
                // Figure 5 order: toggle first, then scan — the aging
                // scan grays the previous cycle's young survivors,
                // which only carry the clear color after the toggle.
                // Full collections skip the scan entirely (§6).
                sched.enqueue(hs2, ToggleColors { sh: self });
                if kind == CycleKind::Partial {
                    sched.enqueue(
                        hs2,
                        CardScan {
                            sh: self,
                            frame,
                            aging: Some(threshold),
                        },
                    );
                }
            }
        }
        sched.enqueue(hs2, WaitHandshake { sh: self });
        sched.on_close(hs2, move |span| {
            self.obs
                .event(EventKind::PhaseEnd, phase::HANDSHAKE, dur_ns(span));
        });

        // ----- third handshake: root marking ---------------------------
        let hs3 = sched.add_serial_bucket("handshake-3");
        sched.on_open(hs3, move || {
            self.open_bucket
                .store(bucket::HANDSHAKE_3, Ordering::Release);
            // Chaos kill site 4 of 6 — after the toggle, before tracing
            // is raised: the abort repaint must be sound here too.
            if fault::point("collector.phase") {
                panic!("injected collector panic (phase: handshake-3)");
            }
            self.obs.event(EventKind::PhaseBegin, phase::HANDSHAKE, 0);
        });
        sched.enqueue(
            hs3,
            PostHandshake {
                sh: self,
                status: Status::Async,
                raise_tracing: true,
            },
        );
        sched.enqueue(hs3, MarkRoots { sh: self, frame });
        sched.enqueue(hs3, WaitHandshake { sh: self });
        sched.on_close(hs3, move |span| {
            self.obs
                .event(EventKind::PhaseEnd, phase::HANDSHAKE, dur_ns(span));
        });

        let trace = self.add_trace_bucket(sched, frame, workers, true);
        let reclaim = self.add_reclaim_bucket(sched, frame, workers, self.config.lazy_sweep, true);

        CycleBuckets {
            finalize,
            init,
            hs1,
            hs2,
            hs3,
            trace,
            reclaim,
        }
    }

    /// Appends the trace bucket: one [`TraceDrain`] per worker lane,
    /// with the §4.4 termination protocol as the closing condition.
    ///
    /// Soundness of the closing condition (DESIGN.md §4.7): the drained
    /// hook runs only when the bucket's queue is empty and no packet is
    /// in flight — the scheduler's `in_flight` counter plays §4.4's
    /// `active` (a returned packet holds no private work: `trace_drain`
    /// drains its stack and deque before returning).  The hook observes
    /// every mutator epoch even *first*, then re-checks all queues
    /// empty (§4.3 order): a barrier either shows an odd epoch here or
    /// has completed its push, which the later emptiness check sees.
    /// `Close` is re-verified by the scheduler against late enqueues.
    pub(crate) fn add_trace_bucket<'s>(
        &'s self,
        sched: &mut Schedule<'s, CycleCx>,
        frame: &'s CycleFrame,
        workers: usize,
        cycle_events: bool,
    ) -> BucketId {
        let b = sched.add_bucket("trace");
        if cycle_events {
            sched.on_open(b, move || {
                self.open_bucket.store(bucket::TRACE, Ordering::Release);
                // Chaos kill site 5 of 6.
                if fault::point("collector.phase") {
                    panic!("injected collector panic (phase: trace)");
                }
                self.obs.event(EventKind::PhaseBegin, phase::TRACE, 0);
            });
        }
        for lane in 0..workers {
            sched.enqueue(
                b,
                TraceDrain {
                    sh: self,
                    frame,
                    lane,
                    workers,
                },
            );
        }
        sched.on_drained(b, move || {
            // §4.3 order: epochs even observed *before* the emptiness
            // re-check.
            let all_even = self.mutators_all_even();
            let more = frame.deques.iter().any(|d| !d.is_empty())
                || !self.gray.is_empty()
                || !frame.seeds.lock().is_empty();
            if more {
                Drained::Refill(
                    (0..workers)
                        .map(|lane| {
                            Box::new(TraceDrain {
                                sh: self,
                                frame,
                                lane,
                                workers,
                            }) as Box<dyn Packet<'s, CycleCx>>
                        })
                        .collect(),
                )
            } else if !all_even {
                Drained::Wait
            } else {
                Drained::Close
            }
        });
        sched.on_close(b, move |span| {
            if cycle_events {
                self.obs
                    .event(EventKind::PhaseEnd, phase::TRACE, dur_ns(span));
                self.tracing.store(false, Ordering::Release);
            }
            for lane in 0..workers {
                self.obs.note_worker_mark(
                    lane,
                    frame.mark_ns[lane].load(Ordering::Relaxed),
                    frame.steals[lane].load(Ordering::Relaxed),
                );
            }
        });
        b
    }

    /// Appends the reclaim bucket: one [`ReclaimPlan`] packet that
    /// either publishes the lazy epoch, runs the serial sweep kernel,
    /// or fans one [`SweepLane`] per worker into this same bucket.
    pub(crate) fn add_reclaim_bucket<'s>(
        &'s self,
        sched: &mut Schedule<'s, CycleCx>,
        frame: &'s CycleFrame,
        workers: usize,
        lazy: bool,
        cycle_events: bool,
    ) -> BucketId {
        let b = sched.add_bucket("reclaim");
        if cycle_events {
            sched.on_open(b, move || {
                self.open_bucket.store(bucket::RECLAIM, Ordering::Release);
                // Chaos kill site 6 of 6 — before the sweep frees (or the
                // lazy epoch publishes) anything.
                if fault::point("collector.phase") {
                    panic!("injected collector panic (phase: reclaim)");
                }
                self.obs.event(EventKind::PhaseBegin, phase::SWEEP, 0);
            });
        }
        sched.enqueue(
            b,
            ReclaimPlan {
                sh: self,
                frame,
                bucket: b,
                workers,
                lazy,
            },
        );
        sched.on_close(b, move |span| {
            if !lazy && workers > 1 {
                // The lanes are done: report the completed sweep (the
                // serial kernel emits its own final progress event).
                let f = frame.frontier.load(Ordering::Relaxed) as u64;
                self.obs.event(EventKind::SweepProgress, f, f);
            }
            if cycle_events {
                self.obs
                    .event(EventKind::PhaseEnd, phase::SWEEP, dur_ns(span));
            }
        });
        b
    }

    /// Runs a built schedule: inline on the caller at one worker (the
    /// serial path stays free of scope/spawn machinery), otherwise with
    /// `workers − 1` scoped helper threads whose contexts merge back
    /// into `cx` afterwards.
    pub(crate) fn run_schedule(
        &self,
        sched: &Schedule<'_, CycleCx>,
        cx: &mut CycleCx,
        workers: usize,
    ) {
        if workers <= 1 {
            sched.run(cx, &mut []);
            return;
        }
        let mut helpers: Vec<CycleCx> = (1..workers).map(|_| CycleCx::new(self)).collect();
        sched.run(cx, &mut helpers);
        for h in &helpers {
            cx.merge_worker(h);
            debug_assert!(h.mark_stack.is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use otf_heap::{Color, ObjShape, ObjectRef};

    fn setup(cfg: GcConfig, threads: usize) -> (GcShared, CycleCx) {
        let sh = GcShared::new(
            cfg.with_max_heap(1 << 20)
                .with_initial_heap(1 << 20)
                .with_gc_threads(threads),
        );
        let cx = CycleCx::new(&sh);
        (sh, cx)
    }

    fn alloc(sh: &GcShared, refs: usize) -> ObjectRef {
        let shape = ObjShape::new(refs, 1);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap
            .install_object(c.start as usize, &shape, sh.colors.allocation_color())
    }

    /// Deterministic workload driven identically on twin heaps: rooted
    /// chains, garbage, and (for generational modes) an
    /// inter-generational store with a marked card between cycles.
    fn drive(sh: &GcShared, cx: &mut CycleCx, kinds: &[CycleKind]) -> (u64, u64, u64) {
        let mut traced = 0u64;
        let mut freed = 0u64;
        let mut survived = 0u64;
        let mut promoted: Option<ObjectRef> = None;
        for (round, &kind) in kinds.iter().enumerate() {
            // A rooted chain of 8 and 16 garbage objects per round.
            let head = alloc(sh, 1);
            sh.add_global_root(head);
            let mut prev = head;
            for _ in 0..7 {
                let next = alloc(sh, 1);
                sh.heap.arena().store_ref_slot(prev, 0, next);
                prev = next;
            }
            for _ in 0..16 {
                let _ = alloc(sh, 0);
            }
            // After the first round a promoted object exists: store a
            // fresh young object into it and dirty its card, as the
            // async write barrier would.
            if let Some(parent) = promoted {
                if sh.config.is_generational() && sh.heap.colors().get(parent.granule()).is_object()
                {
                    let young = alloc(sh, 0);
                    sh.heap.arena().store_ref_slot(parent, 0, young);
                    sh.cards.mark_byte(parent.byte());
                }
            }
            if round == 0 {
                promoted = Some(head);
            }
            let stats = sh.run_cycle(kind, cx);
            traced += stats.objects_traced;
            freed += stats.objects_freed;
            survived += stats.objects_survived;
        }
        // Settle any lazy epoch so end states compare against eager.
        sh.lazy_finalize(LazyWho::Collector);
        (traced, freed, survived)
    }

    /// Full end state: every granule's (color, age) up to the frontier,
    /// plus the free-list and used-byte totals.
    fn end_state(sh: &GcShared) -> (Vec<(Color, u8)>, u64, usize) {
        let frontier = sh.heap.frontier_granule();
        let colors = sh.heap.colors();
        let ages = sh.heap.ages();
        let table = (1..frontier)
            .map(|g| (colors.get(g), ages.get(g)))
            .collect();
        (table, sh.heap.free_list_granules(), sh.heap.used_bytes())
    }

    /// Every mode × sweep-backend plan must produce an end state
    /// identical to the serial DLG sequence, at N=1 and N=4.
    fn assert_plan_parity(make: fn() -> GcConfig, kinds: &[CycleKind]) {
        for lazy in [false, true] {
            let run = |threads: usize| {
                let (sh, mut cx) = setup(make().with_lazy_sweep(lazy), threads);
                let counts = drive(&sh, &mut cx, kinds);
                (end_state(&sh), counts)
            };
            let (state1, counts1) = run(1);
            let (state4, counts4) = run(4);
            let label = make().with_lazy_sweep(lazy).plan_name();
            assert_eq!(state1, state4, "end-state mismatch for plan {label}");
            // Trace totals are deterministic in both backends; freed /
            // survived totals are per-cycle identical only for eager
            // (lazy defers reclamation counters by an epoch).
            assert_eq!(counts1.0, counts4.0, "traced mismatch for plan {label}");
            if !lazy {
                assert_eq!(counts1, counts4, "counter mismatch for plan {label}");
            }
        }
    }

    #[test]
    fn generational_plans_match_across_worker_counts() {
        assert_plan_parity(
            GcConfig::generational,
            &[CycleKind::Partial, CycleKind::Partial, CycleKind::Full],
        );
    }

    #[test]
    fn non_generational_plans_match_across_worker_counts() {
        assert_plan_parity(
            GcConfig::non_generational,
            &[CycleKind::Full, CycleKind::Full],
        );
    }

    #[test]
    fn aging_plans_match_across_worker_counts() {
        assert_plan_parity(
            || GcConfig::aging(3),
            &[CycleKind::Partial, CycleKind::Partial, CycleKind::Full],
        );
    }

    #[test]
    fn cycle_schedule_has_declared_bucket_order() {
        // Exactly the module table's buckets, in Figure 2/5 order; the
        // finalize bucket exists only for lazy plans and precedes init.
        const EAGER: [&str; 6] = [
            "init",
            "handshake-1",
            "handshake-2",
            "handshake-3",
            "trace",
            "reclaim",
        ];
        for lazy in [false, true] {
            let (sh, _cx) = setup(GcConfig::generational().with_lazy_sweep(lazy), 1);
            let frame = CycleFrame::new(1);
            let mut sched = Schedule::new();
            let b = sh.build_cycle_schedule(&mut sched, CycleKind::Full, &frame, 1);
            let names = sched.bucket_names();
            assert_eq!(b.finalize.is_some(), lazy);
            if lazy {
                assert_eq!(names[0], "lazy-finalize");
            }
            assert_eq!(names[lazy as usize..], EAGER);
        }
    }
}
