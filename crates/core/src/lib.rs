//! # otf-gc — a generational on-the-fly garbage collector
//!
//! A from-scratch Rust implementation of *"A Generational On-the-fly
//! Garbage Collector for Java"* (Tamar Domani, Elliot K. Kolodner, Erez
//! Petrank — PLDI 2000): the Doligez–Leroy–Gonthier (DLG) on-the-fly
//! mark-sweep collector extended with **non-moving generations**.
//!
//! The collector never stops the world.  Application threads
//! ([`Mutator`]s) run concurrently with a single collector thread; they
//! coordinate only through three *soft handshakes* per cycle, a write
//! barrier, and fine-grained atomic color updates.  Generations are
//! *logical*: objects never move; an object's generation is encoded in its
//! color (simple promotion: black ⇔ old, §3 of the paper) or in a side age
//! table (the aging mechanism, §6).  Inter-generational pointers are
//! tracked by card marking (§3.1) with card sizes from 16 bytes ("object
//! marking") to 4096 bytes ("block marking").
//!
//! Three collector variants are provided, selected by [`GcConfig`]:
//!
//! * [`GcConfig::non_generational`] — the DLG baseline, *with* the color
//!   toggle (the paper's Remark 5.1 adds the toggle to the baseline too,
//!   so benchmark comparisons isolate the effect of generations);
//! * [`GcConfig::generational`] — simple promotion: survive one
//!   collection ⇒ old; objects created *during* a collection get the
//!   yellow color and are not promoted (§4); the color toggle removes the
//!   create/sweep race (§5);
//! * [`GcConfig::aging`] — tenure only after surviving a configurable
//!   number of collections (§6).
//!
//! ## Quickstart
//!
//! ```
//! use otf_gc::{Gc, GcConfig};
//! use otf_heap::ObjShape;
//!
//! let gc = Gc::new(GcConfig::generational());
//! let mut m = gc.mutator();
//!
//! // A list node: 1 reference slot + 1 data word.
//! let node = ObjShape::new(1, 1);
//!
//! // Build a small list, keeping the head rooted.
//! let head = m.alloc(&node)?;
//! m.root_push(head);
//! let second = m.alloc(&node)?;
//! m.write_ref(head, 0, second);       // write barrier
//! m.write_data(second, 0, 42);
//!
//! assert_eq!(m.read_data(m.read_ref(head, 0), 0), 42);
//!
//! m.root_pop();
//! drop(m);
//! // Shutdown joins the collector first, so the returned stats include
//! // any cycle that was still in flight.
//! let stats = gc.shutdown();
//! # let _ = stats;
//! # Ok::<(), otf_gc::AllocError>(())
//! ```

#![warn(missing_docs)]

mod cards;
mod collector;
mod config;
mod control;
mod cycle;
mod lazy;
mod mutator;
mod obs;
mod plan;
mod proptest_cycle;
mod shared;
mod state;
mod stats;
mod sweep;
mod trace;
mod verify;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use config::{GcConfig, Mode, Promotion, StallPolicy};
pub use mutator::{AllocError, Mutator};
pub use obs::{phase, EventKind, GcEvent};
pub use stats::{CycleKind, CycleStats, GcStats, PhaseTimes, WorkerStats};
pub use verify::HeapViolation;

// Re-export the heap vocabulary users need at the API boundary, and the
// histogram snapshot type `GcStats` exposes.
pub use otf_heap::{Color, Header, ObjShape, ObjectRef};
pub use otf_support::hist::Snapshot as HistogramSnapshot;

use shared::GcShared;

/// A garbage-collected heap with its on-the-fly collector thread.
///
/// Create one per logical "JVM"; attach application threads with
/// [`mutator`](Gc::mutator).  Dropping (or [`shutdown`](Gc::shutdown))
/// stops the collector thread.
#[derive(Debug)]
pub struct Gc {
    shared: Arc<GcShared>,
    collector: Option<JoinHandle<()>>,
}

impl Gc {
    /// Creates the heap and spawns the collector thread.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GcConfig::validate`]).
    pub fn new(config: GcConfig) -> Gc {
        let shared = Arc::new(GcShared::new(config));
        let collector = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("otf-gc-collector".into())
                .spawn(move || supervise_collector(shared))
                .expect("spawn collector thread")
        };
        Gc {
            shared,
            collector: Some(collector),
        }
    }

    /// Attaches a new mutator (application thread context).  The returned
    /// value is `Send` — move it into the thread that will use it.
    pub fn mutator(&self) -> Mutator {
        Mutator::new(Arc::clone(&self.shared))
    }

    /// The configuration this collector runs with.
    pub fn config(&self) -> &GcConfig {
        &self.shared.config
    }

    /// Asynchronously requests a full collection.
    pub fn request_full(&self) {
        self.shared.control.request_full();
    }

    /// Asynchronously requests a partial collection (in non-generational
    /// mode the cycle still collects the full heap).
    pub fn request_partial(&self) {
        self.shared.control.request_partial();
    }

    /// Number of completed collection cycles.
    pub fn cycles_completed(&self) -> u64 {
        self.shared.control.cycles_done()
    }

    /// Blocks until at least one more full collection completes than had
    /// completed when this call was made.  Must *not* be called from a
    /// mutator thread that is expected to cooperate (wrap the call in
    /// [`Mutator::parked`] there); intended for coordinator threads and
    /// tests.
    pub fn collect_full_blocking(&self) {
        let fulls = self.shared.control.fulls_done();
        self.shared.control.request_full();
        self.shared.control.wait_for_full(fulls);
    }

    /// Heap bytes currently in use (live objects + leased LABs).
    pub fn used_bytes(&self) -> usize {
        self.shared.heap.used_bytes()
    }

    /// Committed heap size in bytes.
    pub fn committed_bytes(&self) -> usize {
        self.shared.heap.committed_bytes()
    }

    /// Free granules currently pooled on the free lists.
    pub fn free_granules(&self) -> u64 {
        self.shared.heap.free_list_granules()
    }

    /// Total objects allocated so far, as published by the mutators at
    /// LAB refill, handshake ack, [`Mutator::parked`] entry, every 64 KB
    /// and drop (DESIGN.md §4.10): exact whenever every mutator is parked
    /// or dropped; otherwise never ahead, and behind each live mutator by
    /// less than one LAB's worth (plus under 64 KB of large objects).
    pub fn objects_allocated(&self) -> u64 {
        self.shared.heap.objects_allocated()
    }

    /// Total bytes allocated so far (see [`Gc::objects_allocated`] for
    /// when it is exact).
    pub fn bytes_allocated(&self) -> u64 {
        self.shared.heap.bytes_allocated()
    }

    /// A snapshot of all collection statistics, including the pause-time
    /// histograms.  Its allocation and barrier counters lag as
    /// [`Gc::objects_allocated`] documents.
    pub fn stats(&self) -> GcStats {
        let inner = self.shared.stats.lock();
        GcStats {
            cycles: inner.cycles.clone(),
            objects_allocated: self.shared.heap.objects_allocated(),
            bytes_allocated: self.shared.heap.bytes_allocated(),
            elapsed: self.shared.start.elapsed(),
            gc_active: inner.gc_active,
            pause: self.shared.obs.pause.snapshot(),
            handshake: self.shared.obs.handshake.snapshot(),
            alloc_stall: self.shared.obs.alloc_stall.snapshot(),
            barrier_slow_hits: self.shared.obs.barrier_slow.load(Ordering::Relaxed),
            dropped_events: self.shared.obs.events_dropped(),
            watchdog_trips: self.shared.obs.watchdog_trips.load(Ordering::Relaxed),
            collector_poisoned: self.shared.control.is_poisoned(),
            collector_restarts: self.shared.obs.collector_restarts.load(Ordering::Relaxed),
            cycles_aborted: self.shared.obs.cycles_aborted.load(Ordering::Relaxed),
            recovery: self.shared.obs.recovery.snapshot(),
            workers: self
                .shared
                .obs
                .workers
                .iter()
                .map(|w| WorkerStats {
                    mark: w.mark_ns.snapshot(),
                    sweep: w.sweep_ns.snapshot(),
                    steals: w.steals.load(Ordering::Relaxed),
                })
                .collect(),
            lab_refill: self.shared.obs.lab_refill.snapshot(),
            lazy_freed_at_alloc_granules: self.shared.lazy.freed_at_alloc_granules(),
            lazy_freed_at_final_granules: self.shared.lazy.freed_at_final_granules(),
            lazy_epochs: self.shared.lazy.epochs_published(),
            used_bytes: self.shared.heap.used_bytes(),
        }
    }

    /// Whether the collector thread has panicked (poisoned shutdown).
    /// Once true, no collection will ever run again: allocation falls
    /// back to heap growth and fails with
    /// [`AllocError::CollectorUnavailable`] once the heap is exhausted.
    pub fn is_poisoned(&self) -> bool {
        self.shared.control.is_poisoned()
    }

    /// Whether structured event tracing is enabled for this collector
    /// ([`GcConfig::with_event_trace`] or the `OTF_GC_TRACE` environment
    /// variable at construction time).
    pub fn tracing_enabled(&self) -> bool {
        self.shared.obs.tracing_enabled()
    }

    /// The structured GC events retained in the trace ring, oldest first.
    /// Empty unless tracing was enabled, via
    /// [`GcConfig::with_event_trace`] or the `OTF_GC_TRACE` environment
    /// variable.
    pub fn events(&self) -> Vec<GcEvent> {
        self.shared.obs.events()
    }

    /// Writes the retained trace events as JSON lines (one event per
    /// line; see [`GcEvent::to_json`] for the schema).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_events_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.shared.obs.write_jsonl(w)
    }

    /// Diagnostic: the current color of `obj` (for tests and examples).
    pub fn debug_color_of(&self, obj: ObjectRef) -> Color {
        self.shared.heap.colors().get(obj.granule())
    }

    /// Diagnostic: the current age of `obj` (meaningful with the aging
    /// promotion policy).
    pub fn debug_age_of(&self, obj: ObjectRef) -> u8 {
        self.shared.heap.ages().get(obj.granule())
    }

    /// Diagnostic: whether the granule of `obj` currently holds a live
    /// object start (i.e. it has not been reclaimed).
    pub fn debug_is_object(&self, obj: ObjectRef) -> bool {
        self.shared.heap.colors().get(obj.granule()).is_object()
    }

    /// Diagnostic: every chunk on the free lists, sorted by start granule.
    /// Whole only where [`verify_heap`](Gc::verify_heap) is: at a quiescent
    /// point, after it has forced any lazy sweep to completion.
    pub fn debug_free_chunks(&self) -> Vec<otf_heap::Chunk> {
        self.shared.heap.free_list_snapshot()
    }

    /// Walks the heap and checks the collector's structural invariants
    /// (parse integrity, free-pool agreement, no dangling references, and
    /// the inter-generational card invariant).  Returns every violation
    /// found — an empty vector means the heap is consistent.
    ///
    /// Only meaningful at a quiescent point: no collection in progress
    /// and no mutators mutating (tests call it after
    /// [`collect_full_blocking`](Gc::collect_full_blocking) with all
    /// mutators parked or dropped).
    pub fn verify_heap(&self) -> Vec<HeapViolation> {
        // Lazy sweep defers reclamation to allocation time: force any
        // outstanding epoch to completion first, so the verifier sees
        // the same fully-swept heap an eager cycle would leave (the
        // verifier treats unreclaimed clear-colored objects as live
        // parseable objects, but free-granule totals would differ).
        self.shared.lazy_finalize(crate::lazy::LazyWho::Collector);
        self.shared.verify_heap()
    }

    /// Stops and joins the collector thread without consuming the `Gc`,
    /// leaving the heap at a *true* quiescent point: any in-flight cycle
    /// runs to completion, no further cycle can start, and pending
    /// requests are dropped.  This is the precondition
    /// [`verify_heap`](Gc::verify_heap) needs —
    /// [`collect_full_blocking`](Gc::collect_full_blocking) alone is not
    /// enough, because the collector's end-of-cycle trigger re-evaluation
    /// may immediately launch another cycle whose sweep would race the
    /// verifier (and if a full collection was already mid-flight when it
    /// was requested, the wait can return while the requested one still
    /// runs).  Idempotent; [`shutdown`](Gc::shutdown) after this is a
    /// no-op join.
    pub fn stop_collector(&mut self) {
        self.shutdown_inner();
    }

    /// Stops the collector thread and returns the final statistics.  The
    /// snapshot is taken *after* the collector joins, so any cycle that
    /// was in flight when shutdown was requested is fully accounted —
    /// snapshotting before shutdown undercounts exactly the cycles a
    /// measurement run triggered last.  Any later allocation pressure is
    /// served by heap growth only; mutators never block on a collector
    /// again.
    pub fn shutdown(mut self) -> GcStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.control.begin_shutdown();
        if let Some(h) = self.collector.take() {
            let _ = h.join();
            // Lazy sweep: with the collector gone, nothing else will
            // drain an outstanding epoch — finalize it so the heap ends
            // fully swept (and `verify_heap` after shutdown matches an
            // eager run).
            self.shared.lazy_finalize(crate::lazy::LazyWho::Collector);
            // With the collector joined the trace ring is quiescent: dump
            // it if the user asked for a trace file.  Append, so multiple
            // collectors in one process share the file.
            if let Some(path) = std::env::var_os("OTF_GC_TRACE") {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    let _ = self.shared.obs.write_jsonl(&mut f);
                }
            }
        }
    }
}

impl Drop for Gc {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The collector supervisor (DESIGN.md §4.8): the body of the
/// `otf-gc-collector` thread.  Runs the collector loop under
/// `catch_unwind`; on a panic it either poisons the GC permanently (the
/// PR-4 behavior, kept verbatim when `max_collector_restarts == 0`, on
/// shutdown, or once the restart budget is spent) or runs the safe
/// cycle-abort protocol and respawns the loop after a capped exponential
/// backoff.  A second panic *during* the abort is terminal: recovery
/// must never itself become a crash loop, so the double-panic path falls
/// back to the verified poison behavior.
fn supervise_collector(shared: Arc<GcShared>) {
    let max_restarts = shared.config.max_collector_restarts;
    let backoff_ms = shared.config.collector_restart_backoff_ms;
    let mut restarts: u32 = 0;
    loop {
        let loop_shared = Arc::clone(&shared);
        let respawned = restarts > 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            // Chaos window: the respawn itself can be killed (the
            // `collector.recovery` point's first hit is the abort-repaint
            // window inside `abort_cycle`; later hits land here, in the
            // fresh incarnation, still inside this `catch_unwind`).
            if respawned && otf_support::fault::point("collector.recovery") {
                panic!("injected collector panic (respawn window)");
            }
            loop_shared.collector_loop()
        }));
        match result {
            // Clean exit: shutdown (or poison) ended the request loop.
            Ok(()) => return,
            Err(_) => {
                if shared.control.is_shutdown() || restarts >= max_restarts {
                    shared.poison_after_panic();
                    return;
                }
                // Safe cycle abort.  Without this, mutators parked on
                // `wait_for_full` would sleep forever on a collection
                // that will never complete and the heap would be left
                // with a half-run cycle's colors.
                let abort_shared = Arc::clone(&shared);
                let next = restarts as u64 + 1;
                let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    abort_shared.abort_cycle(next);
                }));
                if aborted.is_err() {
                    shared.poison_after_panic();
                    return;
                }
                shared
                    .obs
                    .collector_restarts
                    .fetch_add(1, Ordering::Relaxed);
                let delay = backoff_ms
                    .saturating_mul(1u64 << restarts.min(10))
                    .min(1_000);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                restarts += 1;
                eprintln!(
                    "otf-gc: collector thread panicked; cycle aborted, \
                     restarting collector (attempt {restarts} of {max_restarts})"
                );
            }
        }
    }
}
