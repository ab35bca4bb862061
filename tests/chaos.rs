//! Chaos harness: seeded fault-injection schedules against the live
//! collector.
//!
//! Each test arms a [`FaultPlan`] on its own collector
//! ([`Gc::with_faults`] — no other collector sees its hits, so the
//! schedules run in parallel), drives
//! real mutator threads against the collector, and then asserts the
//! hardened failure paths held: the heap verifies clean, a panicked
//! collector surfaces as [`AllocError::CollectorUnavailable`] instead of
//! a hang, the handshake watchdog trips on a non-cooperating mutator, and
//! the same seed reproduces the same injection sequence byte-for-byte.
//! Every schedule that could wedge runs under [`bounded`], so a liveness
//! bug fails its test instead of hanging the suite.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use otf_gengc::gc::{AllocError, Gc, GcConfig, Mutator, MAX_COLLECTOR_RESTARTS};
use otf_gengc::heap::ObjShape;
use otf_gengc::support::fault::{FaultEvent, FaultPlan, FaultRule, Faults};
use otf_gengc::workloads::{driver, Chaos, Workload};

mod common;
use common::silence_injected_panics;

/// How long one schedule may run before [`bounded`] calls it a hang —
/// far above any healthy run (well under a second each).
const HANG_BOUND: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and returns its result, or panics with
/// `"{label}: HANG"` if it has not returned within [`HANG_BOUND`]:
/// `cargo test` has no timeout, so without this a wedged schedule hangs
/// the suite.  A panic inside `f` is re-raised here.  The hung thread is
/// left behind; the test fails anyway.
fn bounded<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(HANG_BOUND) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: HANG — no completion within {HANG_BOUND:?}");
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
    }
}

/// The three collector variants every schedule runs under.
fn variants() -> [GcConfig; 3] {
    [
        GcConfig::generational().with_young_size(256 << 10),
        GcConfig::non_generational(),
        GcConfig::aging(3).with_young_size(256 << 10),
    ]
}

/// Determinism: a single mutator thread under a mutator-side delay/yield
/// plan must produce the *identical* injection log on every run — the
/// per-hit decision is a pure function of `(seed, point, hit)`, and with
/// one thread the hit order is the program order.
#[test]
fn same_seed_reproduces_identical_injection_sequence() {
    let plan = || {
        FaultPlan::new(0xC0FFEE)
            .rule(
                FaultRule::at("mutator.cooperate")
                    .delaying(0.3, 50)
                    .yielding(0.3),
            )
            .rule(FaultRule::at("mutator.barrier.window").yielding(0.2))
            .rule(FaultRule::at("mutator.lab.refill").delaying(0.5, 30))
    };
    let w = Chaos::new().with_threads(1).scaled(0.1);
    let mut logs = Vec::new();
    for _ in 0..2 {
        let faults = Arc::new(Faults::new(plan()));
        let gc = Gc::with_faults(
            GcConfig::generational().with_young_size(256 << 10),
            Arc::clone(&faults),
        );
        let _ = driver::run_workload_verified(&w, gc, 17);
        logs.push(faults.log());
    }
    assert!(!logs[0].is_empty(), "the plan never fired");
    assert_eq!(
        logs[0], logs[1],
        "same seed must reproduce the same injection sequence"
    );
}

/// The seeded chaos matrix: every collector variant survives both a
/// scheduling-storm plan (delays and yields inside the protocol's race
/// windows) and a failure-storm plan (refused chunk allocations) with a
/// structurally consistent heap at the end.
#[test]
fn chaos_matrix_verifies_clean_under_fault_plans() {
    let storm: fn() -> FaultPlan = || {
        FaultPlan::new(7)
            .rule(
                FaultRule::at("mutator.cooperate")
                    .delaying(0.1, 200)
                    .yielding(0.2),
            )
            .rule(FaultRule::at("mutator.barrier.window").yielding(0.1))
            .rule(FaultRule::at("mutator.lab.refill").delaying(0.1, 100))
            .rule(FaultRule::at("collector.phase").delaying(0.5, 500))
            .rule(FaultRule::at("collector.handshake.wait").yielding(0.3))
    };
    let failures: fn() -> FaultPlan = || {
        FaultPlan::new(11)
            .rule(
                FaultRule::at("heap.alloc_chunk")
                    .failing(0.05)
                    .max_fires(25),
            )
            .rule(FaultRule::at("mutator.lab.refill").yielding(0.2))
            .rule(FaultRule::at("mutator.cooperate").yielding(0.1))
    };
    let w = Chaos::new().with_threads(3).scaled(0.2);
    for cfg in variants() {
        for (name, mk) in [("storm", storm), ("failures", failures)] {
            let faults = Arc::new(Faults::new(mk()));
            let gc = Gc::with_faults(cfg, Arc::clone(&faults));
            let w = w.clone();
            let (_, violations) = bounded(
                &format!("plan {name:?} under {}", cfg.plan_name()),
                move || driver::run_workload_verified(&w, gc, 23),
            );
            let log = faults.log();
            assert!(
                violations.is_empty(),
                "plan {name:?} under {:?} left heap violations \
                 after {} injections: {violations:?}",
                cfg.mode,
                log.len()
            );
        }
    }
}

/// Two mutators that keep their tokens reachable only through holder
/// slots and move them by swapping: between the two stores of a swap the
/// overwritten token lives in a "register" alone, so a barrier that
/// judged the period idle when it was not (and grayed nothing) loses it
/// to the cycle it raced.  Every fourth swap also stores a freshly
/// allocated token into a holder that is old by then: only the idle
/// path's card mark keeps that one alive through the next partial.
struct TokenShuffle;

impl TokenShuffle {
    const HOLDERS: usize = 64;
    const SWAPS: usize = 3000;
}

impl Workload for TokenShuffle {
    fn name(&self) -> &'static str {
        "token-shuffle"
    }

    fn threads(&self) -> usize {
        2
    }

    fn run(&self, thread: usize, seed: u64, m: &mut Mutator) {
        let (holder, token) = (ObjShape::new(1, 0), ObjShape::new(0, 1));
        let garbage = ObjShape::new(0, 14);
        for id in 0..Self::HOLDERS {
            let h = m.alloc(&holder).unwrap();
            m.root_push(h);
            let tok = m.alloc(&token).unwrap();
            m.write_data(tok, 0, id as u64);
            m.write_ref(h, 0, tok);
        }
        let mut rng = seed ^ thread as u64;
        let mut pick = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) as usize % Self::HOLDERS
        };
        for swap in 0..Self::SWAPS {
            let (src, dst) = (m.root_get(pick()), m.root_get(pick()));
            let (a, b) = (m.read_ref(src, 0), m.read_ref(dst, 0));
            m.write_ref(src, 0, b);
            m.write_ref(dst, 0, a);
            if swap % 4 == 0 {
                let id = m.read_data(a, 0);
                let fresh = m.alloc(&token).unwrap();
                m.write_data(fresh, 0, id);
                m.write_ref(dst, 0, fresh);
            }
            for _ in 0..8 {
                m.alloc(&garbage).unwrap();
            }
        }
        let mut seen = [false; Self::HOLDERS];
        for i in 0..Self::HOLDERS {
            let tok = m.read_ref(m.root_get(i), 0);
            assert!(!tok.is_null(), "holder {i} lost its token");
            assert_eq!(m.header(tok).size_granules(), token.size_granules());
            let id = m.read_data(tok, 0) as usize;
            assert!(
                id < Self::HOLDERS && !seen[id],
                "token {id} corrupt or duplicated"
            );
            seen[id] = true;
        }
    }
}

/// The write barrier's idle fast path (DESIGN.md §4.10) under a stretched
/// race window: *every* `write_ref` sleeps between reading its period
/// and acting on it, while 64 KB young generations keep the collector
/// running handshake 1 → handshake 3 → trace underneath.  No token may be
/// lost and the heap must verify clean in gen, nogen and aging.
#[test]
fn barrier_window_delays_never_lose_a_moved_reference() {
    for cfg in variants() {
        let faults = Arc::new(Faults::new(
            FaultPlan::new(0xBA22).rule(FaultRule::at("mutator.barrier.window").delaying(1.0, 20)),
        ));
        let gc = Gc::with_faults(cfg.with_young_size(64 << 10), Arc::clone(&faults));
        let (result, violations) = driver::run_workload_verified(&TokenShuffle, gc, 0xBA22);
        let log = faults.log();
        assert!(
            violations.is_empty(),
            "barrier-window delays under {:?} left heap violations: {violations:?}",
            cfg.mode
        );
        assert!(
            log.len() >= 2 * TokenShuffle::SWAPS,
            "the delay plan barely fired"
        );
        let cycles = result.stats.cycles.len();
        assert!(
            cycles >= 3,
            "only {cycles} cycles raced the barriers under {:?}",
            cfg.mode
        );
    }
}

/// Panic containment: when the collector dies for good — here it panics
/// at the start of every incarnation, so the supervisor spends its whole
/// restart budget — allocation-blocked mutators must *not* hang: heap
/// exhaustion surfaces as [`AllocError::CollectorUnavailable`] within
/// [`HANG_BOUND`], and the poisoned state is visible in the stats.
#[test]
fn panicked_collector_unblocks_allocators_with_collector_unavailable() {
    // The injected panics are expected; silence their backtrace spam.
    silence_injected_panics();
    let faults = Arc::new(Faults::new(
        FaultPlan::new(1).rule(FaultRule::at("collector.panic").failing(1.0)),
    ));
    let gc_faults = Arc::clone(&faults);
    let (gc, outcome) = bounded("crash loop", move || {
        let gc = Gc::with_faults(
            GcConfig::generational()
                .with_initial_heap(1 << 20)
                .with_max_heap(1 << 20)
                .with_young_size(256 << 10),
            gc_faults,
        );
        let mut m = gc.mutator();
        let shape = ObjShape::new(0, 6);
        // Retain everything: every collection request panics the
        // collector, so growing pressure must end in an error.
        let outcome = loop {
            match m.alloc(&shape) {
                Ok(r) => {
                    m.root_push(r);
                }
                Err(e) => break e,
            }
        };
        drop(m);
        (gc, outcome)
    });
    let log = faults.log();

    assert_eq!(
        log.len(),
        MAX_COLLECTOR_RESTARTS as usize + 1,
        "one panic per incarnation: {log:?}"
    );
    assert!(
        matches!(outcome, AllocError::CollectorUnavailable { .. }),
        "expected CollectorUnavailable, got {outcome:?}"
    );
    assert!(gc.is_poisoned());
    let stats = gc.shutdown();
    assert!(stats.collector_poisoned);
    assert_eq!(stats.collector_restarts, MAX_COLLECTOR_RESTARTS as u64);
}

/// One cell of the recovery matrix: inject a collector panic at phase
/// hit `k` of the first cycle (the `collector.phase` point fires in a
/// fixed order per cycle: cycle-start, handshake-1, handshake-2,
/// handshake-3, trace, reclaim), then assert the supervisor recovered —
/// not poisoned, ≥ 1 restart, the blocking full collection completed,
/// retained objects intact, and the heap verifying clean.  Returns the
/// injection log.
fn kill_at_phase_and_recover(cfg: GcConfig, k: u64) -> Vec<FaultEvent> {
    let faults = Arc::new(Faults::new(
        FaultPlan::new(0xFA11).rule(
            FaultRule::at("collector.phase")
                .failing(1.0)
                .after(k)
                .max_fires(1),
        ),
    ));
    let mut gc = Gc::with_faults(
        cfg.with_initial_heap(1 << 20)
            .with_max_heap(8 << 20)
            .with_young_size(64 << 10),
        Arc::clone(&faults),
    );
    let mut m = gc.mutator();
    let shape = ObjShape::new(1, 2);
    let mut retained = Vec::new();
    for i in 0..256u64 {
        let r = m.alloc(&shape).expect("allocation before the kill");
        m.write_data(r, 0, i);
        if i % 8 == 0 {
            m.root_push(r);
            retained.push((r, i));
        }
    }
    // The first cycle dies at phase `k`; the abort re-arms a full
    // collection, and the restarted loop's completion of it serves this
    // wait — recovery is transparent to blocked callers.
    m.parked(|| gc.collect_full_blocking());
    let log = faults.log();

    let label = format!("plan {} k={k}", gc.config().plan_name(),);
    assert_eq!(log.len(), 1, "{label}: expected exactly one injected panic");
    for &(r, v) in &retained {
        assert!(gc.debug_is_object(r), "{label}: retained object freed");
        assert_eq!(m.read_data(r, 0), v, "{label}: retained data corrupted");
    }
    let stats = gc.stats();
    assert!(
        !stats.collector_poisoned,
        "{label}: poisoned despite budget"
    );
    assert!(
        stats.collector_restarts >= 1,
        "{label}: no restart recorded"
    );
    if k > 0 {
        // k = 0 dies before any bucket opens (no cycle in flight yet),
        // so only the later sites count as an aborted *cycle*.
        assert!(stats.cycles_aborted >= 1, "{label}: no abort recorded");
    }
    drop(m);
    gc.stop_collector();
    let violations = gc.verify_heap();
    assert!(
        violations.is_empty(),
        "{label}: heap violations after recovery: {violations:?}"
    );
    let stats = gc.shutdown();
    assert!(!stats.collector_poisoned, "{label}: poisoned at shutdown");
    log
}

/// The recovery matrix (tentpole acceptance): a collector panic at each
/// of the six phases, for gen and nogen, must end unpoisoned with ≥ 1
/// restart, a completed subsequent full collection, and zero
/// `verify_heap` violations.  One cell, the gen kill mid-trace, runs
/// once more: the same seed must reproduce its injection log exactly.
#[test]
fn collector_panic_at_every_phase_recovers_under_restarts() {
    silence_injected_panics();
    let recover = |cfg: GcConfig, k: u64| {
        let label = format!("plan {} k={k}", cfg.plan_name());
        bounded(&label, move || kill_at_phase_and_recover(cfg, k))
    };
    let mut trace_kill_log = None;
    for (gen, base) in [
        (true, GcConfig::generational as fn() -> GcConfig),
        (false, GcConfig::non_generational),
    ] {
        for k in 0..6u64 {
            let log = recover(base(), k);
            if gen && k == 4 {
                trace_kill_log = Some(log);
            }
        }
    }
    assert_eq!(
        trace_kill_log,
        Some(recover(GcConfig::generational(), 4)),
        "same seed must reproduce the recovery round's injection log"
    );
}

/// A kill in the *respawn* window (the `collector.recovery` point's
/// second hit — the first is the abort-repaint window) costs one more
/// restart but still recovers: the fresh incarnation panics inside the
/// supervisor's `catch_unwind`, is aborted again, and the next respawn
/// completes the re-armed full collection.
#[test]
fn respawn_window_kill_consumes_an_extra_restart() {
    silence_injected_panics();
    let faults = Arc::new(Faults::new(
        FaultPlan::new(3)
            .rule(FaultRule::at("collector.phase").failing(1.0).max_fires(1))
            .rule(
                FaultRule::at("collector.recovery")
                    .failing(1.0)
                    .after(1)
                    .max_fires(1),
            ),
    ));
    let gc = Gc::with_faults(
        GcConfig::generational().with_young_size(64 << 10),
        Arc::clone(&faults),
    );
    gc.collect_full_blocking();
    let log = faults.log();

    assert_eq!(log.len(), 2, "phase kill + respawn kill: {log:?}");
    let stats = gc.stats();
    assert!(!stats.collector_poisoned);
    assert!(
        stats.collector_restarts >= 2,
        "respawn kill must consume a second restart: {}",
        stats.collector_restarts
    );
    let mut gc = gc;
    gc.stop_collector();
    assert!(gc.verify_heap().is_empty());
    gc.shutdown();
}

/// Double-panic regression (satellite): a panic *during* the abort
/// protocol (the `collector.recovery` point's first hit) must fall back
/// to the PR-4 permanent poison — no recovery loop, no restart counted,
/// and shutdown still joins cleanly.
#[test]
fn panic_during_abort_falls_back_to_permanent_poison() {
    silence_injected_panics();
    let faults = Arc::new(Faults::new(
        FaultPlan::new(5)
            .rule(FaultRule::at("collector.phase").failing(1.0).max_fires(1))
            .rule(
                FaultRule::at("collector.recovery")
                    .failing(1.0)
                    .max_fires(1),
            ),
    ));
    let gc = Gc::with_faults(GcConfig::generational(), Arc::clone(&faults));
    gc.request_full();
    let start = Instant::now();
    while !gc.is_poisoned() && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let log = faults.log();

    assert_eq!(log.len(), 2, "phase kill + abort kill: {log:?}");
    assert!(gc.is_poisoned(), "double panic must poison permanently");
    let stats = gc.shutdown();
    assert!(stats.collector_poisoned);
    assert_eq!(
        stats.collector_restarts, 0,
        "a failed abort must not count as a restart"
    );
}

/// The budget counts *consecutive* restarts: five collector kills, each
/// followed by a completed full collection, are five separate incidents
/// and never poison, although the budget is smaller than five.
#[test]
fn kills_separated_by_completed_cycles_never_exhaust_the_budget() {
    const KILLS: u64 = 5;
    // Hits of `collector.phase` one incident spends: the kill at the
    // requested full's cycle start, then the six sites (cycle start and
    // five buckets) of the re-armed full the respawned collector
    // completes, which serves this wait.
    const HITS_PER_INCIDENT: u64 = 1 + 6;
    silence_injected_panics();
    // One plan, one window per incident: every rule counts each hit, and
    // rule `i` fires once, at the cycle start of incident `i`.
    let plan = (0..KILLS).fold(FaultPlan::new(0xB0D6), |plan, i| {
        plan.rule(
            FaultRule::at("collector.phase")
                .failing(1.0)
                .after(HITS_PER_INCIDENT * i)
                .max_fires(1),
        )
    });
    let faults = Arc::new(Faults::new(plan));
    let mut gc = Gc::with_faults(
        GcConfig::generational().with_young_size(64 << 10),
        Arc::clone(&faults),
    );
    for _ in 0..KILLS {
        gc.collect_full_blocking();
    }
    let injected = faults.log().len();

    const { assert!(KILLS > MAX_COLLECTOR_RESTARTS as u64) };
    let stats = gc.stats();
    assert!(!stats.collector_poisoned, "separate incidents poisoned");
    assert_eq!(injected as u64, KILLS, "one kill per incident");
    assert_eq!(stats.collector_restarts, KILLS);
    gc.stop_collector();
    let violations = gc.verify_heap();
    assert!(violations.is_empty(), "heap violations: {violations:?}");
    gc.shutdown();
}

/// Watchdog escalation: a wedged handshake is aborted after three reports
/// instead of hanging — the cycle is counted aborted, the collector
/// restarts, and once the mutator cooperates again the re-armed full
/// collection completes.
#[test]
fn watchdog_abort_cycle_unwedges_a_stalled_handshake() {
    silence_injected_panics();
    // The first three wait passes each read as past their report
    // deadline, so the watchdog's three reports come at once instead of
    // at 1, 3 and 7 s.
    let faults = Arc::new(Faults::new(
        FaultPlan::new(0).rule(
            FaultRule::at("collector.handshake.wait")
                .failing(1.0)
                .max_fires(3),
        ),
    ));
    let gc = Gc::with_faults(GcConfig::generational(), faults);
    let mut m = gc.mutator();
    let r = m.alloc(&ObjShape::new(1, 1)).unwrap();
    m.root_push(r);
    gc.request_full();
    // Never cooperate: the first handshake wedges, the watchdog reports
    // three times and the third report panics the cycle into the
    // supervisor.
    let start = Instant::now();
    while gc.stats().cycles_aborted == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = gc.stats();
    assert!(
        stats.cycles_aborted >= 1,
        "watchdog never aborted the cycle"
    );
    assert!(stats.collector_restarts >= 1);
    assert!(stats.watchdog_trips >= 3, "escalation needs three reports");
    assert!(
        start.elapsed() < Duration::from_secs(7),
        "the abort waited for the real third report at 7 s"
    );
    // Cooperate now: the re-armed full collection must complete.
    let start = Instant::now();
    while gc.cycles_completed() == 0 && start.elapsed() < Duration::from_secs(10) {
        m.cooperate();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(gc.cycles_completed() >= 1, "re-armed cycle never completed");
    assert!(!gc.is_poisoned());
    assert!(gc.debug_is_object(r), "rooted object lost across the abort");
    drop(m);
    gc.shutdown();
}

/// The handshake watchdog: a mutator that never cooperates stalls the
/// cycle; instead of hanging silently the collector must report the
/// stall (counted in [`watchdog_trips`]) and then complete the cycle
/// once the mutator is gone.
///
/// [`watchdog_trips`]: otf_gengc::gc::GcStats::watchdog_trips
#[test]
fn watchdog_reports_stalled_handshake() {
    // The first wait pass reads as past its report deadline: one report
    // at once, and the next real deadline is a second away.
    let faults = Arc::new(Faults::new(
        FaultPlan::new(0).rule(
            FaultRule::at("collector.handshake.wait")
                .failing(1.0)
                .max_fires(1),
        ),
    ));
    let gc = Gc::with_faults(GcConfig::generational(), faults);
    let mut m = gc.mutator();
    let r = m.alloc(&ObjShape::new(1, 1)).unwrap();
    m.root_push(r);
    gc.request_full();
    // Never cooperate: the first handshake cannot complete.  Give the
    // watchdog time to trip.
    let start = Instant::now();
    while gc.stats().watchdog_trips == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(gc.stats().watchdog_trips > 0, "watchdog never tripped");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "the report waited for the real 1 s threshold"
    );
    // Dropping the mutator unregisters it; the stalled cycle must now
    // run to completion (the first report does not abort anything; were
    // the third to come first, the re-armed full would complete instead).
    let before = gc.cycles_completed();
    drop(m);
    let start = Instant::now();
    while gc.cycles_completed() == before && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        gc.cycles_completed() > before,
        "stalled cycle never completed"
    );
    gc.shutdown();
}

/// Faults belong to a collector: two collectors running at once under
/// different plans each log only the hits of their own point, so
/// neither steals the other's.
#[test]
fn concurrent_collectors_keep_their_own_fault_plans() {
    let runs = ["mutator.cooperate", "mutator.lab.refill"].map(|point| {
        let faults = Arc::new(Faults::new(
            FaultPlan::new(0x2C0).rule(FaultRule::at(point).yielding(1.0)),
        ));
        let gc = Gc::with_faults(
            GcConfig::generational().with_young_size(256 << 10),
            Arc::clone(&faults),
        );
        let w = Chaos::new().with_threads(1).scaled(0.1);
        let run = std::thread::spawn(move || {
            bounded(point, move || driver::run_workload_verified(&w, gc, 29))
        });
        (point, faults, run)
    });
    for (point, faults, run) in runs {
        let (_, violations) = run.join().expect("schedule panicked");
        let log = faults.log();
        assert!(
            violations.is_empty(),
            "{point}: heap violations: {violations:?}"
        );
        assert!(!log.is_empty(), "{point}: the plan never fired");
        assert!(
            log.iter().all(|e| e.point == point),
            "{point}: a hit of another collector's point: {log:?}"
        );
    }
}
