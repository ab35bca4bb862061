//! Chaos stress driver: seeded fault-injection schedules, run as a CI
//! gate.
//!
//! Runs a matrix of *schedules* — (collector variant × sweep mode ×
//! fault plan) cells — against the error-tolerant [`Chaos`] workload,
//! each with a hard hang bound, and exits non-zero if any schedule
//!
//! * exceeds the hang bound (a liveness bug: the hardened failure paths
//!   exist precisely so injected stalls and deaths cannot wedge the
//!   process),
//! * leaves heap violations behind (`Gc::verify_heap` after the run), or
//! * fails to reproduce: the designated reproducibility schedule is run
//!   twice with the same seed and must produce the identical injection
//!   log byte-for-byte.
//!
//! A panic-containment schedule additionally kills the collector thread
//! at the start of every incarnation — a crash loop that spends the
//! supervisor's restart budget — and requires allocators to surface
//! [`CollectorUnavailable`](AllocError::CollectorUnavailable) within the
//! bound, and a recovery schedule kills the collector mid-trace once and
//! requires the supervisor (DESIGN.md §4.8) to abort the cycle, respawn,
//! and complete a subsequent full collection — reproducibly: the
//! recovery schedule also runs twice with the same seed and must produce
//! identical injection logs.
//!
//! Flags: `--seed N` (default 42) reseeds every plan — CI uses a fixed
//! seed so failures reproduce with `stress_chaos --seed N`; `--quick`
//! shrinks the workload for smoke runs; `--help` prints usage.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use otf_gc::{AllocError, Gc, GcConfig, Mode, MAX_COLLECTOR_RESTARTS};
use otf_heap::ObjShape;
use otf_support::fault::{self, FaultEvent, FaultPlan, FaultRule};
use otf_workloads::driver;
use otf_workloads::Chaos;

/// One (variant, plan) cell of the chaos matrix.
struct Schedule {
    name: String,
    config: GcConfig,
    plan: FaultPlan,
}

/// Outcome of one schedule, for the report table.
struct Outcome {
    name: String,
    injections: usize,
    cycles: usize,
    violations: usize,
    elapsed: Duration,
    ok: bool,
}

/// The scheduling-storm plan: delays and yields inside every protocol
/// race window, no failures.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(
            FaultRule::at("mutator.cooperate")
                .delaying(0.1, 200)
                .yielding(0.2),
        )
        .rule(FaultRule::at("mutator.barrier.window").yielding(0.1))
        .rule(FaultRule::at("mutator.lab.refill").delaying(0.1, 100))
        .rule(
            FaultRule::at("mutator.lazy_sweep.segment")
                .delaying(0.2, 200)
                .yielding(0.2),
        )
        .rule(FaultRule::at("collector.phase").delaying(0.5, 500))
        .rule(FaultRule::at("collector.handshake.wait").yielding(0.3))
}

/// The failure-storm plan: refused chunk allocations under light
/// scheduling noise.
fn failure_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(
            FaultRule::at("heap.alloc_chunk")
                .failing(0.05)
                .max_fires(40),
        )
        .rule(FaultRule::at("mutator.lab.refill").yielding(0.2))
        .rule(FaultRule::at("mutator.lazy_sweep.segment").yielding(0.3))
        .rule(FaultRule::at("mutator.cooperate").yielding(0.1))
}

fn mode_name(cfg: &GcConfig) -> &'static str {
    match cfg.mode {
        Mode::NonGenerational => "nogen",
        Mode::Generational(otf_gc::Promotion::Simple) => "gen",
        Mode::Generational(otf_gc::Promotion::Aging { .. }) => "aging",
    }
}

/// Runs one schedule with a hang bound.  The run happens on a worker
/// thread; if it does not finish inside `bound` the process reports the
/// hang and gives up on the schedule (the worker is left behind — the
/// process is about to exit non-zero anyway).
fn run_schedule(s: Schedule, threads: usize, ops_scale: f64, bound: Duration) -> Outcome {
    let started = Instant::now();
    fault::install(s.plan.clone());
    let (tx, rx) = mpsc::channel();
    let cfg = s.config;
    let wseed = s.plan.seed;
    std::thread::spawn(move || {
        let w = Chaos::new().with_threads(threads).scaled(ops_scale);
        let (r, violations) = driver::run_workload_verified(&w, cfg, wseed);
        let _ = tx.send((r, violations));
    });
    match rx.recv_timeout(bound) {
        Ok((r, violations)) => {
            let log = fault::uninstall();
            for v in &violations {
                eprintln!("stress_chaos: {}: heap violation: {v}", s.name);
            }
            Outcome {
                name: s.name,
                injections: log.len(),
                cycles: r.stats.cycles.len(),
                violations: violations.len(),
                elapsed: started.elapsed(),
                ok: violations.is_empty(),
            }
        }
        Err(_) => {
            let log = fault::uninstall();
            eprintln!(
                "stress_chaos: {}: HANG — no completion within {bound:?} ({} injections fired)",
                s.name,
                log.len()
            );
            Outcome {
                name: s.name,
                injections: log.len(),
                cycles: 0,
                violations: 0,
                elapsed: started.elapsed(),
                ok: false,
            }
        }
    }
}

/// Reproducibility gate: the same seed must yield the identical
/// injection log.  Single mutator thread + mutator-side delay/yield plan,
/// so the log order is the program order.
fn check_reproducibility(seed: u64, ops_scale: f64) -> bool {
    let plan = |s| {
        FaultPlan::new(s)
            .rule(
                FaultRule::at("mutator.cooperate")
                    .delaying(0.3, 50)
                    .yielding(0.3),
            )
            .rule(FaultRule::at("mutator.barrier.window").yielding(0.2))
            .rule(FaultRule::at("mutator.lab.refill").delaying(0.5, 30))
    };
    let w = Chaos::new().with_threads(1).scaled(ops_scale);
    let mut logs: Vec<Vec<FaultEvent>> = Vec::new();
    for _ in 0..2 {
        fault::install(plan(seed));
        let _ = driver::run_workload(
            &w,
            GcConfig::generational().with_young_size(256 << 10),
            seed,
        );
        logs.push(fault::uninstall());
    }
    if logs[0].is_empty() {
        eprintln!("stress_chaos: reproducibility plan never fired — schedule too small");
        return false;
    }
    if logs[0] != logs[1] {
        eprintln!(
            "stress_chaos: NON-REPRODUCIBLE — two runs with seed {seed} diverged ({} vs {} events)",
            logs[0].len(),
            logs[1].len()
        );
        return false;
    }
    println!(
        "reproducibility: OK ({} injections, identical across two runs of seed {seed})",
        logs[0].len()
    );
    true
}

/// Panic-containment gate: kill the collector at the start of every
/// incarnation, so the supervisor spends its restart budget, and require
/// `CollectorUnavailable` (not a hang) under allocation pressure.
fn check_panic_containment(seed: u64, bound: Duration) -> bool {
    fault::install(FaultPlan::new(seed).rule(FaultRule::at("collector.panic").failing(1.0)));
    let gc = Gc::new(
        GcConfig::generational()
            .with_initial_heap(1 << 20)
            .with_max_heap(1 << 20)
            .with_young_size(256 << 10),
    );
    let mut m = gc.mutator();
    let shape = ObjShape::new(0, 6);
    let start = Instant::now();
    let mut outcome = None;
    while start.elapsed() < bound {
        match m.alloc(&shape) {
            Ok(r) => {
                m.root_push(r);
            }
            Err(e) => {
                outcome = Some(e);
                break;
            }
        }
    }
    drop(m);
    let kills = fault::uninstall().len();
    let stats = gc.shutdown();
    let budget = MAX_COLLECTOR_RESTARTS as u64;
    let spent = stats.collector_poisoned
        && stats.collector_restarts == budget
        && kills as u64 == budget + 1;
    let ok = matches!(outcome, Some(AllocError::CollectorUnavailable { .. })) && spent;
    match &outcome {
        Some(AllocError::CollectorUnavailable { .. }) if spent => println!(
            "panic containment: OK (CollectorUnavailable after {:?}, {budget} restarts spent)",
            start.elapsed()
        ),
        Some(e) => eprintln!(
            "stress_chaos: panic containment: {e}; poisoned={} restarts={} injections={kills}, \
             expected CollectorUnavailable, poison after {budget} restarts and {} injections",
            stats.collector_poisoned,
            stats.collector_restarts,
            budget + 1
        ),
        None => eprintln!(
            "stress_chaos: panic containment: allocator still blocked after {bound:?} — HANG"
        ),
    }
    ok
}

/// One round of the recovery gate: kill the collector at its trace
/// phase (hit 4 of `collector.phase`: cycle-start, hs1, hs2, hs3,
/// trace), then demand a completed full
/// collection, no poison, and a clean heap.  Returns the observables
/// the gate checks plus the injection log for the reproducibility
/// comparison.
fn recovery_round(seed: u64) -> (bool, u64, u64, usize, Vec<FaultEvent>) {
    fault::install(
        FaultPlan::new(seed).rule(
            FaultRule::at("collector.phase")
                .failing(1.0)
                .after(4)
                .max_fires(1),
        ),
    );
    let mut gc = Gc::new(
        GcConfig::generational()
            .with_initial_heap(1 << 20)
            .with_max_heap(8 << 20)
            .with_young_size(64 << 10),
    );
    let mut m = gc.mutator();
    let shape = ObjShape::new(1, 2);
    for i in 0..256u64 {
        let r = m.alloc(&shape).expect("recovery gate alloc");
        m.write_data(r, 0, i);
        if i % 8 == 0 {
            m.root_push(r);
        }
    }
    // The first full dies mid-trace; the supervisor's abort re-arms it
    // and the respawned collector serves this wait.
    m.parked(|| gc.collect_full_blocking());
    drop(m);
    gc.stop_collector();
    let violations = gc.verify_heap().len();
    let stats = gc.shutdown();
    let log = fault::uninstall();
    (
        stats.collector_poisoned,
        stats.collector_restarts,
        stats.cycles_aborted,
        violations,
        log,
    )
}

/// Recovery gate: the supervisor must turn a mid-cycle collector panic
/// into an aborted cycle plus a restart (never poison, never a hang,
/// never a heap violation), and two same-seed runs must produce the
/// identical injection log.
fn check_recovery(seed: u64, bound: Duration) -> bool {
    let mut logs: Vec<Vec<FaultEvent>> = Vec::new();
    for round in 0..2 {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(recovery_round(seed));
        });
        let (poisoned, restarts, aborted, violations, log) = match rx.recv_timeout(bound) {
            Ok(r) => r,
            Err(_) => {
                fault::uninstall();
                eprintln!(
                    "stress_chaos: recovery round {round}: HANG — no completion within {bound:?}"
                );
                return false;
            }
        };
        if poisoned || restarts < 1 || aborted < 1 || violations != 0 || log.len() != 1 {
            eprintln!(
                "stress_chaos: recovery round {round}: poisoned={poisoned} restarts={restarts} \
                 cycles_aborted={aborted} violations={violations} injections={}",
                log.len()
            );
            return false;
        }
        logs.push(log);
    }
    if logs[0] != logs[1] {
        eprintln!("stress_chaos: recovery: NON-REPRODUCIBLE — two runs with seed {seed} diverged");
        return false;
    }
    println!(
        "recovery: OK (cycle aborted, collector restarted, full completed; \
         identical across two runs of seed {seed})"
    );
    true
}

fn main() {
    let mut seed = 42u64;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().map(|v| v.parse()) {
                Some(Ok(v)) => seed = v,
                _ => eprintln!("warning: --seed takes an integer; keeping {seed}"),
            },
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!(
                    "stress_chaos — seeded fault-injection matrix for the collector\n\n\
                     Options:\n  --seed N   reseed every fault plan (default 42)\n  \
                     --quick    smoke configuration (smaller workload)\n  \
                     --help     print this help and exit"
                );
                return;
            }
            other => eprintln!("warning: ignoring unknown argument {other:?} (try --help)"),
        }
    }
    let (threads, ops_scale, bound) = if quick {
        (2, 0.2, Duration::from_secs(60))
    } else {
        (4, 1.0, Duration::from_secs(300))
    };

    // The injected collector panic is an expected outcome; keep the
    // default hook's backtrace out of the report.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if !msg.contains("injected collector panic") {
            eprintln!("{msg}");
        }
    }));

    let variants = [
        GcConfig::generational().with_young_size(256 << 10),
        GcConfig::non_generational(),
        GcConfig::aging(3).with_young_size(256 << 10),
    ];
    let mut outcomes = Vec::new();
    for cfg in variants {
        for lazy in [false, true] {
            let cfg = cfg.with_lazy_sweep(lazy);
            let sweep = if lazy { "lazy" } else { "eager" };
            for (plan_name, plan) in [
                ("storm", storm_plan(seed)),
                ("failures", failure_plan(seed ^ 0x9E37_79B9)),
            ] {
                let s = Schedule {
                    name: format!("{}/{}/{}", mode_name(&cfg), sweep, plan_name),
                    config: cfg,
                    plan,
                };
                outcomes.push(run_schedule(s, threads, ops_scale, bound));
            }
        }
    }

    println!(
        "\n{:<22} {:>10} {:>7} {:>10} {:>9}  ok",
        "schedule", "injections", "cycles", "violations", "elapsed"
    );
    for o in &outcomes {
        println!(
            "{:<22} {:>10} {:>7} {:>10} {:>8.2}s  {}",
            o.name,
            o.injections,
            o.cycles,
            o.violations,
            o.elapsed.as_secs_f64(),
            if o.ok { "yes" } else { "NO" }
        );
    }

    let repro_ok = check_reproducibility(seed, ops_scale);
    let panic_ok = check_panic_containment(seed, bound);
    let recovery_ok = check_recovery(seed, bound);

    let matrix_ok = outcomes.iter().all(|o| o.ok);
    if matrix_ok && repro_ok && panic_ok && recovery_ok {
        println!("\nstress_chaos: all schedules clean");
    } else {
        eprintln!(
            "\nstress_chaos: FAILURES (matrix {matrix_ok}, repro {repro_ok}, \
             panic {panic_ok}, recovery {recovery_ok})"
        );
        std::process::exit(1);
    }
}
