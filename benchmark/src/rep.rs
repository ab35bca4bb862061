//! One repetition: a fresh collector, the workload's mutator threads
//! spawned and joined, and everything measured around that interval.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use otf_gc::{Gc, GcConfig, GcEvent, GcStats};
use otf_workloads::{Anagram, Db, Jess, RayTracer, Workload};

use crate::procstat;

/// The benchmark's four workloads (README.md says why these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    Anagram,
    Jess,
    Db,
    Mtrt,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Anagram,
        WorkloadKind::Jess,
        WorkloadKind::Db,
        WorkloadKind::Mtrt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Anagram => "anagram",
            WorkloadKind::Jess => "jess",
            WorkloadKind::Db => "db",
            WorkloadKind::Mtrt => "mtrt",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Mutator threads the workload runs.
    pub fn threads(self) -> usize {
        self.build(1.0).threads()
    }

    fn build(self, scale: f64) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Anagram => Box::new(Anagram::new().scaled(scale)),
            WorkloadKind::Jess => Box::new(Jess::new().scaled(scale)),
            WorkloadKind::Db => Box::new(Db::new().scaled(scale)),
            WorkloadKind::Mtrt => Box::new(RayTracer::mtrt().scaled(scale)),
        }
    }
}

/// What one mutator thread did.
#[derive(Clone, Copy, Debug)]
pub struct ThreadRun {
    pub start: Instant,
    pub end: Instant,
    /// CPU seconds the thread itself consumed between the two.
    pub cpu_s: f64,
}

/// Everything measured about one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// `Gc::new` plus workload construction.
    pub setup: Duration,
    /// Process CPU seconds (every thread, user + system) from spawn to join:
    /// the paper's total work.
    pub cpu_s: f64,
    pub threads: Vec<ThreadRun>,
    /// `Gc::committed_bytes()` at join.
    pub committed_bytes: usize,
    /// `Gc::used_bytes()` at join.
    pub used_bytes: usize,
    /// Snapshot taken after the collector thread joined, so a cycle in
    /// flight when the mutators finished is counted.
    pub stats: GcStats,
    /// The trace ring (empty unless the config enabled event tracing).
    pub events: Vec<GcEvent>,
    pub t_setup: Instant,
    /// The instant `GcEvent::t_ns` counts from.
    pub gc_epoch: Instant,
    pub t_spawn: Instant,
    pub t_join: Instant,
    pub t_shutdown: Instant,
}

impl Rep {
    /// Mutator threads spawned → joined.
    pub fn elapsed(&self) -> Duration {
        self.t_join - self.t_spawn
    }

    /// Summed wall time of the mutator threads, in seconds.
    pub fn mutator_wall_s(&self) -> f64 {
        self.threads
            .iter()
            .map(|t| (t.end - t.start).as_secs_f64())
            .sum()
    }

    /// Summed CPU time of the mutator threads, in seconds.
    pub fn mutator_cpu_s(&self) -> f64 {
        self.threads.iter().map(|t| t.cpu_s).sum()
    }
}

/// Runs one repetition of `kind` under `cfg`.  A panic anywhere in it
/// (the workloads assert their payload checksums as they run) comes
/// back as the error, as does a poisoned collector.
///
/// With `verify` the heap is also checked once the mutators have
/// joined: two settling full collections (garbage born during the last
/// concurrent cycle survives the first), the collector stopped, and
/// `Gc::verify_heap` must find nothing.
pub fn run_rep(
    kind: WorkloadKind,
    scale: f64,
    cfg: GcConfig,
    seed: u64,
    verify: bool,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_rep_inner(kind, scale, cfg, seed, verify)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

fn run_rep_inner(
    kind: WorkloadKind,
    scale: f64,
    cfg: GcConfig,
    seed: u64,
    verify: bool,
) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let workload = kind.build(scale);
    let mut gc = Gc::new(cfg);
    let setup = t_setup.elapsed();
    let gc_epoch = Instant::now() - gc.stats().elapsed;

    let cpu_before = procstat::process_cpu_s()?;
    let t_spawn = Instant::now();
    let joined: Vec<std::thread::Result<Result<ThreadRun, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workload.threads())
            .map(|t| {
                let mut m = gc.mutator();
                let w = workload.as_ref();
                s.spawn(move || {
                    let cpu_start = procstat::thread_cpu_s()?;
                    let start = Instant::now();
                    w.run(t, seed, &mut m);
                    let end = Instant::now();
                    let cpu_s = procstat::thread_cpu_s()? - cpu_start;
                    Ok(ThreadRun { start, end, cpu_s })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let t_join = Instant::now();
    let cpu_s = procstat::process_cpu_s()? - cpu_before;
    let committed_bytes = gc.committed_bytes();
    let used_bytes = gc.used_bytes();

    let mut threads = Vec::with_capacity(joined.len());
    for (t, j) in joined.into_iter().enumerate() {
        match j {
            Ok(run) => threads.push(run?),
            Err(_) => return Err(format!("mutator thread {t} panicked")),
        }
    }

    if verify {
        gc.collect_full_blocking();
        gc.collect_full_blocking();
    }
    gc.stop_collector();
    if verify {
        let violations = gc.verify_heap();
        if !violations.is_empty() {
            return Err(format!(
                "verify_heap found {} violations, first: {:?}",
                violations.len(),
                violations[0]
            ));
        }
    }
    let stats = gc.stats();
    let events = gc.events();
    drop(gc);
    let t_shutdown = Instant::now();
    if stats.collector_poisoned {
        return Err("collector thread panicked (poisoned)".to_string());
    }
    Ok(Rep {
        setup,
        cpu_s,
        threads,
        committed_bytes,
        used_bytes,
        stats,
        events,
        t_setup,
        gc_epoch,
        t_spawn,
        t_join,
        t_shutdown,
    })
}
