//! End-to-end tests for the pause-time observability pipeline: every
//! `cooperate()` that adopts a handshake during a collection must land in
//! the handshake/pause histograms, the trace ring must tell a coherent
//! story (cycles begin and end, handshakes are posted and acked), the
//! per-phase times must add up to the cycle times, and `Gc::shutdown`
//! must return statistics that include the final cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use otf_gengc::gc::{phase, EventKind, Gc, GcConfig};
use otf_gengc::heap::{ObjShape, ObjectRef};

mod common;
use common::silence_injected_panics;

fn tiny(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(4 << 20)
        .with_initial_heap(1 << 20)
        .with_young_size(64 << 10)
}

/// Runs `cycles` blocking full collections while one mutator thread does
/// nothing but `cooperate()` — so every handshake of every cycle is
/// answered by a live (never parked, never allocating) mutator — and
/// returns the Gc for inspection.
fn run_cooperating_cycles(cfg: GcConfig, cycles: usize) -> Gc {
    run_cooperating_cycles_over(cfg, cycles, 0)
}

/// [`run_cooperating_cycles`] over a heap that holds a rooted list of
/// `live` nodes, built by the mutator before the first blocking cycle,
/// so the trace and the sweep have work to do.
fn run_cooperating_cycles_over(cfg: GcConfig, cycles: usize, live: usize) -> Gc {
    let gc = Gc::new(tiny(cfg));
    let stop = AtomicBool::new(false);
    let built = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut m = gc.mutator();
        let (stop, built) = (&stop, &built);
        s.spawn(move || {
            let node = ObjShape::new(1, 1);
            let mut head = ObjectRef::NULL;
            let root = m.root_push(head);
            for _ in 0..live {
                let next = m.alloc(&node).unwrap();
                m.write_ref(next, 0, head);
                head = next;
                m.root_set(root, head);
            }
            built.store(true, Ordering::Release);
            while !stop.load(Ordering::Relaxed) {
                m.cooperate();
                std::hint::spin_loop();
            }
        });
        while !built.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for _ in 0..cycles {
            gc.collect_full_blocking();
        }
        stop.store(true, Ordering::Relaxed);
    });
    gc
}

#[test]
fn every_cooperate_during_a_cycle_lands_in_the_histograms() {
    let gc = run_cooperating_cycles(GcConfig::generational(), 2);
    let stats = gc.stats();

    // Each full cycle posts three handshakes (Sync1, Sync2, Async) and the
    // cooperating mutator acks each one exactly once.
    assert!(
        stats.handshake.count() >= 6,
        "expected >= 6 handshake acks for 2 full cycles, got {}",
        stats.handshake.count()
    );
    // Every ack is also a recorded mutator pause.
    assert!(
        stats.pause.count() >= 6,
        "expected >= 6 pauses, got {}",
        stats.pause.count()
    );
    assert!(stats.max_pause() > Duration::ZERO);
    assert_eq!(stats.pause_quantile(1.0), stats.max_pause());

    // Quantiles must be monotone in q, and the handshake histogram's
    // latencies are real (post -> adoption takes nonzero time).
    let qs = [0.5, 0.9, 0.99, 0.999, 1.0];
    for w in qs.windows(2) {
        assert!(
            stats.pause_quantile(w[0]) <= stats.pause_quantile(w[1]),
            "pause quantiles not monotone at q={} vs q={}",
            w[0],
            w[1]
        );
        assert!(
            stats.handshake_quantile(w[0]) <= stats.handshake_quantile(w[1]),
            "handshake quantiles not monotone at q={} vs q={}",
            w[0],
            w[1]
        );
    }
    assert!(stats.handshake_quantile(1.0) > Duration::ZERO);
}

/// Phase accounting: over every recorded cycle, Σ phase times must be
/// within 5 % of Σ cycle durations.  The breakdown reads the cycle's
/// bucket spans back (each sampled once at the bucket's end, the card
/// and root work subtracted out of its handshake window), so the sum
/// telescopes the whole cycle minus prologue and epilogue; a ratio
/// outside the band means a phase was double-sampled, unattributed or
/// billed to two slots.  `mark_wall` is a vestige and must stay zero.
#[test]
fn phase_times_sum_to_cycle_durations() {
    for cfg in [GcConfig::generational(), GcConfig::non_generational()] {
        let gc = run_cooperating_cycles_over(cfg, 4, 50_000);
        let stats = gc.stats();
        assert!(stats.cycles.len() >= 4);
        let (mut phase_ns, mut cycle_ns) = (0u128, 0u128);
        for c in &stats.cycles {
            let p = c.phases;
            assert!(p.mark_wall.is_zero(), "mark_wall set: {c:?}");
            phase_ns += (p.init + p.handshakes + p.cards + p.roots + p.trace + p.sweep).as_nanos();
            cycle_ns += c.duration.as_nanos();
        }
        let ratio = phase_ns as f64 / cycle_ns as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{}: phase times sum to {ratio:.4}x the cycle durations",
            cfg.plan_name()
        );
    }
}

#[test]
fn trace_ring_records_a_coherent_cycle_story() {
    let gc = run_cooperating_cycles(GcConfig::generational().with_event_trace(true), 2);
    assert!(gc.config().trace_events);

    let events = gc.events();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();

    assert!(count(EventKind::CycleBegin) >= 2, "events: {events:?}");
    assert!(count(EventKind::CycleEnd) >= 2);
    // 3 handshakes per full cycle, each posted once and acked by the one
    // cooperating mutator.
    assert!(count(EventKind::HandshakePost) >= 6);
    assert!(count(EventKind::HandshakeAck) >= 6);
    // Begin/end pairing and timestamps are sane.
    assert_eq!(count(EventKind::PhaseBegin), count(EventKind::PhaseEnd));
    for w in events.windows(2) {
        assert!(w[0].t_ns <= w[1].t_ns, "events out of order: {w:?}");
    }

    // The JSONL form is one object per line with the documented keys.
    let mut buf = Vec::new();
    gc.write_events_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_eq!(text.lines().count(), events.len());
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(
            line.contains("\"t_ns\":") && line.contains("\"ev\":"),
            "{line}"
        );
    }
}

#[test]
fn handshake_posts_and_nested_work_land_inside_handshake_windows() {
    // Every handshake is posted inside an open HANDSHAKE phase window
    // (the old cycle posted sync2 *before* emitting the window's
    // PhaseBegin, landing the post — and the acks — outside any phase),
    // and the card scan and root marking nest inside those windows as
    // their own phases.
    let gc = run_cooperating_cycles(GcConfig::generational().with_event_trace(true), 2);
    let events = gc.events();

    let mut depth = 0i64;
    let mut posts = 0;
    let mut nested_cards = 0;
    let mut nested_roots = 0;
    for e in &events {
        match e.kind {
            EventKind::PhaseBegin if e.a == phase::HANDSHAKE => depth += 1,
            EventKind::PhaseEnd if e.a == phase::HANDSHAKE => depth -= 1,
            EventKind::HandshakePost => {
                posts += 1;
                assert!(
                    depth > 0,
                    "handshake posted outside any handshake phase window: {e:?}"
                );
            }
            EventKind::PhaseBegin if e.a == phase::CARDS => {
                assert!(depth > 0, "card scan outside its handshake window: {e:?}");
                nested_cards += 1;
            }
            EventKind::PhaseBegin if e.a == phase::ROOTS => {
                assert!(
                    depth > 0,
                    "root marking outside its handshake window: {e:?}"
                );
                nested_roots += 1;
            }
            _ => {}
        }
        assert!(depth >= 0, "handshake window closed twice: {e:?}");
    }
    // Three posts per full cycle; one card scan and one root-marking
    // pass per cycle in the simple generational mode.
    assert!(posts >= 6, "expected >= 6 posts over 2 cycles, got {posts}");
    assert!(nested_cards >= 2, "expected a card scan per cycle");
    assert!(nested_roots >= 2, "expected root marking per cycle");
}

#[test]
fn tracing_is_off_by_default_and_histograms_still_work() {
    let gc = run_cooperating_cycles(GcConfig::generational(), 1);
    assert!(!gc.config().trace_events);
    assert!(gc.events().is_empty());
    assert!(gc.stats().handshake.count() >= 3);
}

/// Supervision: an injected collector panic (mid-trace) must leave a coherent abort→restart story in the
/// event ring — `RecoveryBegin` (naming the open bucket), then
/// `CycleAborted`, then `RecoveryEnd` — matching counters in `GcStats`,
/// and a post-recovery cycle whose end state passes `verify_heap`.
#[test]
fn injected_panic_produces_a_coherent_recovery_event_story() {
    use otf_gengc::support::fault::{FaultPlan, FaultRule, Faults};
    silence_injected_panics();
    // Phase hit 4 of the first cycle is the trace bucket's kill site.
    let faults = Arc::new(Faults::new(
        FaultPlan::new(9).rule(
            FaultRule::at("collector.phase")
                .failing(1.0)
                .after(4)
                .max_fires(1),
        ),
    ));
    let mut gc = Gc::with_faults(
        tiny(GcConfig::generational().with_event_trace(true)),
        Arc::clone(&faults),
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut m = gc.mutator();
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                m.cooperate();
                std::hint::spin_loop();
            }
        });
        gc.collect_full_blocking(); // killed mid-trace, served by recovery
        gc.collect_full_blocking(); // clean post-recovery cycle
        stop.store(true, Ordering::Relaxed);
    });
    let log = faults.log();
    assert_eq!(log.len(), 1, "exactly one injected panic: {log:?}");

    let stats = gc.stats();
    assert!(!stats.collector_poisoned);
    assert_eq!(stats.collector_restarts, 1);
    assert_eq!(stats.cycles_aborted, 1);
    assert_eq!(
        stats.recovery.count(),
        1,
        "one recovery duration must be recorded"
    );

    let events = gc.events();
    let idx = |k: EventKind| events.iter().position(|e| e.kind == k);
    let begin = idx(EventKind::RecoveryBegin).expect("no RecoveryBegin event");
    let aborted = idx(EventKind::CycleAborted).expect("no CycleAborted event");
    let end = idx(EventKind::RecoveryEnd).expect("no RecoveryEnd event");
    assert!(
        begin < aborted && aborted < end,
        "recovery story out of order: begin={begin} aborted={aborted} end={end}"
    );
    // The JSONL rendering names the bucket the panic unwound out of.
    let mut buf = Vec::new();
    gc.write_events_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(
        text.contains("\"ev\":\"recovery_begin\"") && text.contains("\"bucket\":\"trace\""),
        "recovery events missing from JSONL: {text}"
    );
    // The post-recovery cycle completed and left a consistent heap.
    assert!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::CycleEnd)
            .count()
            >= 2,
        "expected the recovery full and the follow-up cycle to complete"
    );
    gc.stop_collector();
    assert!(gc.verify_heap().is_empty());
}

#[test]
fn shutdown_returns_stats_including_the_final_cycle() {
    let gc = run_cooperating_cycles(GcConfig::non_generational(), 2);
    let live = gc.stats();
    let final_stats = gc.shutdown();

    assert!(final_stats.cycles.len() >= 2);
    // Shutdown snapshots after the collector joins, so nothing recorded
    // before the live snapshot can be missing from the final one.
    assert!(final_stats.cycles.len() >= live.cycles.len());
    assert!(final_stats.pause.count() >= live.pause.count());
    assert!(final_stats.max_pause() >= live.max_pause());
}
