//! Chaos harness: seeded fault-injection schedules against the live
//! collector.
//!
//! Each test installs a [`FaultPlan`] in the process-global registry
//! (serialized via [`fault::exclusive`] — the registry is shared), drives
//! real mutator threads against the collector, and then asserts the
//! hardened failure paths held: the heap verifies clean, a panicked
//! collector surfaces as [`AllocError::CollectorUnavailable`] instead of
//! a hang, the handshake watchdog trips on a non-cooperating mutator, and
//! the same seed reproduces the same injection sequence byte-for-byte.

use std::time::{Duration, Instant};

use otf_gengc::gc::{AllocError, Gc, GcConfig, Mutator};
use otf_gengc::heap::ObjShape;
use otf_gengc::support::fault::{self, FaultPlan, FaultRule};
use otf_gengc::workloads::{driver, Chaos, Workload};

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
    let _serial = fault::exclusive();
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
        fault::install(plan());
        let _ = driver::run_workload(&w, GcConfig::generational().with_young_size(256 << 10), 17);
        logs.push(fault::uninstall());
    }
    assert!(!logs[0].is_empty(), "the plan never fired");
    assert_eq!(
        logs[0], logs[1],
        "same seed must reproduce the same injection sequence"
    );
}

/// The seeded chaos matrix: every collector variant × both sweep modes
/// survives both a scheduling-storm plan (delays and yields inside the
/// protocol's race windows — including the lazy segment-claim and
/// run-reclaim windows) and a failure-storm plan (refused chunk
/// allocations) with a structurally consistent heap at the end.
#[test]
fn chaos_matrix_verifies_clean_under_fault_plans() {
    let _serial = fault::exclusive();
    let storm: fn() -> FaultPlan = || {
        FaultPlan::new(7)
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
    };
    let failures: fn() -> FaultPlan = || {
        FaultPlan::new(11)
            .rule(
                FaultRule::at("heap.alloc_chunk")
                    .failing(0.05)
                    .max_fires(25),
            )
            .rule(FaultRule::at("mutator.lab.refill").yielding(0.2))
            .rule(FaultRule::at("mutator.lazy_sweep.segment").yielding(0.3))
            .rule(FaultRule::at("mutator.cooperate").yielding(0.1))
    };
    let w = Chaos::new().with_threads(3).scaled(0.2);
    for cfg in variants() {
        for lazy in [false, true] {
            let cfg = cfg.with_lazy_sweep(lazy);
            for (name, mk) in [("storm", storm), ("failures", failures)] {
                fault::install(mk());
                let (_, violations) = driver::run_workload_verified(&w, cfg, 23);
                let log = fault::uninstall();
                assert!(
                    violations.is_empty(),
                    "plan {name:?} under {:?} (lazy_sweep={lazy}) left heap violations \
                     after {} injections: {violations:?}",
                    cfg.mode,
                    log.len()
                );
            }
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
    let _serial = fault::exclusive();
    for cfg in variants() {
        fault::install(
            FaultPlan::new(0xBA22).rule(FaultRule::at("mutator.barrier.window").delaying(1.0, 20)),
        );
        let (result, violations) =
            driver::run_workload_verified(&TokenShuffle, cfg.with_young_size(64 << 10), 0xBA22);
        let log = fault::uninstall();
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

/// The parallel back-end under chaos: every variant runs with four GC
/// workers while `collector.worker` injections delay and yield workers at
/// steal attempts (mark) and segment claims (sweep), stretching the
/// §4.4 termination race windows.  The heap must still verify clean and
/// the per-worker stats must show all four workers participated — if the
/// extended termination check ever fired early, the sweep would reclaim
/// live objects and verification would catch it.
#[test]
fn parallel_chaos_matrix_verifies_clean_at_four_workers() {
    let _serial = fault::exclusive();
    let plan = || {
        FaultPlan::new(0x5EED)
            .rule(
                FaultRule::at("collector.worker")
                    .delaying(0.2, 300)
                    .yielding(0.3),
            )
            .rule(FaultRule::at("mutator.cooperate").yielding(0.2))
            .rule(FaultRule::at("mutator.barrier.window").yielding(0.1))
            .rule(FaultRule::at("mutator.lazy_sweep.segment").yielding(0.3))
            .rule(FaultRule::at("collector.phase").delaying(0.2, 200))
    };
    let w = Chaos::new().with_threads(3).scaled(0.2);
    for cfg in variants() {
        for lazy in [false, true] {
            let cfg = cfg.with_gc_threads(4).with_lazy_sweep(lazy);
            fault::install(plan());
            let (result, violations) = driver::run_workload_verified(&w, cfg, 31);
            let log = fault::uninstall();
            assert!(
                violations.is_empty(),
                "N=4 chaos under {:?} (lazy_sweep={lazy}) left heap violations \
                 after {} injections: {violations:?}",
                cfg.mode,
                log.len()
            );
            assert_eq!(
                result.stats.workers.len(),
                4,
                "expected per-worker stats for all four GC workers"
            );
            assert!(
                result.stats.workers[0].mark.count() > 0,
                "worker 0 never recorded a mark phase"
            );
        }
    }
}

/// Panic containment: when the collector thread dies, allocation-blocked
/// mutators must *not* hang — heap exhaustion surfaces as
/// [`AllocError::CollectorUnavailable`] within a bounded time, and the
/// poisoned state is visible in the stats.
#[test]
fn panicked_collector_unblocks_allocators_with_collector_unavailable() {
    let _serial = fault::exclusive();
    // The injected panic is expected; silence the default hook's
    // backtrace spam for the duration (restored before any assertion).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    fault::install(
        FaultPlan::new(1).rule(FaultRule::at("collector.panic").failing(1.0).max_fires(1)),
    );
    // Restarts pinned to 0: this test asserts the PR-4 permanent-poison
    // behavior, which `max_collector_restarts = 0` preserves byte-for-byte
    // (the CI restart cell sets OTF_GC_MAX_RESTARTS=3 process-wide).
    let gc = Gc::new(
        GcConfig::generational()
            .with_initial_heap(1 << 20)
            .with_max_heap(1 << 20)
            .with_young_size(256 << 10)
            .with_max_collector_restarts(0),
    );
    let mut m = gc.mutator();
    let shape = ObjShape::new(0, 6);
    let bound = Duration::from_secs(30);
    let start = Instant::now();
    let mut outcome = None;
    // Retain everything: the first collection request panics the
    // collector, so growing pressure must end in CollectorUnavailable.
    for _ in 0..1_000_000 {
        match m.alloc(&shape) {
            Ok(r) => {
                m.root_push(r);
            }
            Err(e) => {
                outcome = Some(e);
                break;
            }
        }
        if start.elapsed() > bound {
            break;
        }
    }
    let hung = start.elapsed() > bound;
    drop(m);
    let log = fault::uninstall();
    std::panic::set_hook(prev_hook);

    assert!(
        !hung,
        "allocator still blocked {bound:?} after the collector died"
    );
    assert_eq!(log.len(), 1, "exactly one injected panic expected: {log:?}");
    assert!(
        matches!(outcome, Some(AllocError::CollectorUnavailable { .. })),
        "expected CollectorUnavailable, got {outcome:?}"
    );
    assert!(gc.is_poisoned());
    let stats = gc.shutdown();
    assert!(stats.collector_poisoned);
}

/// One cell of the recovery matrix: inject a collector panic at phase
/// hit `k` of the first cycle (the `collector.phase` point fires in a
/// fixed order per cycle: cycle-start, handshake-1, handshake-2,
/// handshake-3, trace, reclaim), then assert the supervisor recovered —
/// not poisoned, ≥ 1 restart, the blocking full collection completed,
/// retained objects intact, and the heap verifying clean.
fn kill_at_phase_and_recover(cfg: GcConfig, k: u64) {
    fault::install(
        FaultPlan::new(0xFA11).rule(
            FaultRule::at("collector.phase")
                .failing(1.0)
                .after(k)
                .max_fires(1),
        ),
    );
    let mut gc = Gc::new(
        cfg.with_initial_heap(1 << 20)
            .with_max_heap(8 << 20)
            .with_young_size(64 << 10)
            .with_max_collector_restarts(3)
            .with_collector_restart_backoff_ms(1),
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
    let log = fault::uninstall();

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
}

/// The recovery matrix (tentpole acceptance): a collector panic at each
/// of the six phases, for gen and nogen, eager and lazy sweep, N=1 and
/// N=4 workers, must end unpoisoned with ≥ 1 restart, a completed
/// subsequent full collection, and zero `verify_heap` violations.
#[test]
fn collector_panic_at_every_phase_recovers_under_restarts() {
    let _serial = fault::exclusive();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for base in [GcConfig::generational, GcConfig::non_generational] {
        for lazy in [false, true] {
            for threads in [1usize, 4] {
                for k in 0..6u64 {
                    let cfg = base().with_lazy_sweep(lazy).with_gc_threads(threads);
                    kill_at_phase_and_recover(cfg, k);
                }
            }
        }
    }
    std::panic::set_hook(prev_hook);
}

/// A kill in the *respawn* window (the `collector.recovery` point's
/// second hit — the first is the abort-repaint window) costs one more
/// restart but still recovers: the fresh incarnation panics inside the
/// supervisor's `catch_unwind`, is aborted again, and the next respawn
/// completes the re-armed full collection.
#[test]
fn respawn_window_kill_consumes_an_extra_restart() {
    let _serial = fault::exclusive();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fault::install(
        FaultPlan::new(3)
            .rule(FaultRule::at("collector.phase").failing(1.0).max_fires(1))
            .rule(
                FaultRule::at("collector.recovery")
                    .failing(1.0)
                    .after(1)
                    .max_fires(1),
            ),
    );
    let gc = Gc::new(
        GcConfig::generational()
            .with_young_size(64 << 10)
            .with_max_collector_restarts(3)
            .with_collector_restart_backoff_ms(1),
    );
    gc.collect_full_blocking();
    let log = fault::uninstall();
    std::panic::set_hook(prev_hook);

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
    let _serial = fault::exclusive();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fault::install(
        FaultPlan::new(5)
            .rule(FaultRule::at("collector.phase").failing(1.0).max_fires(1))
            .rule(
                FaultRule::at("collector.recovery")
                    .failing(1.0)
                    .max_fires(1),
            ),
    );
    let gc = Gc::new(
        GcConfig::generational()
            .with_max_collector_restarts(3)
            .with_collector_restart_backoff_ms(1),
    );
    gc.request_full();
    let start = Instant::now();
    while !gc.is_poisoned() && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let log = fault::uninstall();
    std::panic::set_hook(prev_hook);

    assert_eq!(log.len(), 2, "phase kill + abort kill: {log:?}");
    assert!(gc.is_poisoned(), "double panic must poison permanently");
    let stats = gc.shutdown();
    assert!(stats.collector_poisoned);
    assert_eq!(
        stats.collector_restarts, 0,
        "a failed abort must not count as a restart"
    );
}

/// Watchdog escalation (tentpole): under the `AbortCycle` stall policy a
/// wedged handshake is aborted after three reports instead of hanging —
/// the cycle is counted aborted, the collector restarts, and once the
/// mutator cooperates again the re-armed full collection completes.
#[test]
fn watchdog_abort_cycle_policy_unwedges_a_stalled_handshake() {
    use otf_gengc::gc::StallPolicy;
    let _serial = fault::exclusive();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let gc = Gc::new(
        GcConfig::generational()
            .with_handshake_stall_ms(20)
            .with_handshake_stall_policy(StallPolicy::AbortCycle)
            .with_max_collector_restarts(2)
            .with_collector_restart_backoff_ms(1),
    );
    let mut m = gc.mutator();
    let r = m.alloc(&ObjShape::new(1, 1)).unwrap();
    m.root_push(r);
    gc.request_full();
    // Never cooperate: the first handshake wedges, the watchdog reports
    // at 20/40/80 ms and then panics the cycle into the supervisor.
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
    // Cooperate now: the re-armed full collection must complete.
    let start = Instant::now();
    while gc.cycles_completed() == 0 && start.elapsed() < Duration::from_secs(10) {
        m.cooperate();
        std::thread::sleep(Duration::from_millis(1));
    }
    std::panic::set_hook(prev_hook);
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
    let _serial = fault::exclusive();
    let gc = Gc::new(GcConfig::generational().with_handshake_stall_ms(50));
    let mut m = gc.mutator();
    let r = m.alloc(&ObjShape::new(1, 1)).unwrap();
    m.root_push(r);
    gc.request_full();
    // Never cooperate: the first handshake cannot complete.  Give the
    // watchdog a few reporting intervals to trip.
    let start = Instant::now();
    while gc.stats().watchdog_trips == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(gc.stats().watchdog_trips > 0, "watchdog never tripped");
    // Dropping the mutator unregisters it; the stalled cycle must now
    // run to completion (the watchdog reports, it does not kill).
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
