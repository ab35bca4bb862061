//! The measurement driver: runs workloads against collector
//! configurations and reports the quantities the paper's figures need.
//!
//! Methodology (paper §8.1): on a saturated machine, elapsed time measures
//! the total CPU the application *plus* the collector consume — the paper
//! runs four simultaneous copies of each application on its 4-way machine
//! for exactly this reason.  [`run_copies`] reproduces that setup (N
//! independent heap+collector instances running concurrently);
//! [`run_workload`] is the single-copy "uniprocessor" measurement.

use std::time::{Duration, Instant};

use otf_gc::{Gc, GcConfig, GcStats, HeapViolation};

use crate::Workload;

/// The result of one measured workload run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock time of the application run (threads spawned → joined).
    pub elapsed: Duration,
    /// Final collector statistics, snapshotted after collector shutdown
    /// so a cycle still running when the threads joined is included.
    pub stats: GcStats,
}

impl RunResult {
    /// Percentage of the run during which a collection was active
    /// (Figure 10).
    pub fn percent_gc_active(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            100.0 * self.stats.gc_active.as_secs_f64() / self.elapsed.as_secs_f64()
        }
    }

    /// The longest GC-induced mutator pause of the run.
    pub fn max_pause(&self) -> Duration {
        self.stats.max_pause()
    }
}

/// Runs one copy of `workload` under `config` and returns the measured
/// result.  Spawns `workload.threads()` mutator threads.
pub fn run_workload(workload: &dyn Workload, config: GcConfig, seed: u64) -> RunResult {
    let gc = Gc::new(config);
    let elapsed = run_mutators(workload, &gc, seed);
    // Shutdown first, snapshot second: `Gc::shutdown` joins the collector
    // thread, so a cycle that was mid-flight when the mutators finished
    // lands in the stats instead of being silently dropped (it used to be
    // exactly the last collection a run triggered that went missing).
    let stats = gc.shutdown();
    RunResult { elapsed, stats }
}

/// Spawns `workload.threads()` mutator threads on `gc`, joins them, and
/// returns the wall time between the two.
fn run_mutators(workload: &dyn Workload, gc: &Gc, seed: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..workload.threads() {
            let mut m = gc.mutator();
            s.spawn(move || workload.run(t, seed, &mut m));
        }
    });
    start.elapsed()
}

/// Like [`run_workload`], but on a collector its caller built (a chaos
/// test arms a fault plan with [`Gc::with_faults`]), and it verifies the
/// heap's structural invariants before shutting the collector down: after
/// the mutator threads join, a blocking full collection settles the heap,
/// [`Gc::stop_collector`] joins the collector thread (true quiescence — a
/// follow-on cycle the trigger re-evaluation launched must not race the
/// walk), and [`Gc::verify_heap`] walks the heap.  Returns the violations alongside
/// the result — an empty vector means the workload left a consistent
/// heap.
///
/// When the collector is poisoned (a chaos plan panicked it) the settling
/// collection is skipped — no cycle can run — but the heap walk still
/// happens: a dead collector must not leave a *structurally* broken heap.
pub fn run_workload_verified(
    workload: &dyn Workload,
    mut gc: Gc,
    seed: u64,
) -> (RunResult, Vec<HeapViolation>) {
    let elapsed = run_mutators(workload, &gc, seed);
    if !gc.is_poisoned() {
        // Two settling collections, not one: garbage carrying the
        // allocation color of the last concurrent cycle survives the
        // first full (the born-during-the-cycle rule) and dies in the
        // second.  One full would leave a timing-dependent amount of
        // floating garbage behind, making the post-run live set that
        // `verify_heap` walks and `GcStats::used_bytes` reports depend
        // on when the trigger last fired instead of on the workload.
        gc.collect_full_blocking();
        gc.collect_full_blocking();
    }
    gc.stop_collector();
    let violations = gc.verify_heap();
    let stats = gc.shutdown();
    (RunResult { elapsed, stats }, violations)
}

/// Runs `copies` independent copies of `workload` concurrently (each with
/// its own heap and collector thread, like the paper's four simultaneous
/// application processes) and returns the wall time of the whole batch
/// plus each copy's result.
pub fn run_copies(
    workload: &dyn Workload,
    config: GcConfig,
    seed: u64,
    copies: usize,
) -> (Duration, Vec<RunResult>) {
    let start = Instant::now();
    let results: Vec<RunResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..copies)
            .map(|c| {
                let w = &workload;
                s.spawn(move || run_workload(*w, config, seed.wrapping_add(c as u64)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload copy panicked"))
            .collect()
    });
    (start.elapsed(), results)
}

/// The paper's headline metric: percentage improvement of `gen` over
/// `nogen` — positive means the generational collector is faster.
pub fn percent_improvement(nogen: Duration, gen: Duration) -> f64 {
    if nogen.is_zero() {
        0.0
    } else {
        100.0 * (nogen.as_secs_f64() - gen.as_secs_f64()) / nogen.as_secs_f64()
    }
}
