//! End-to-end behavior tests for the aging mechanism (§6), global roots,
//! and workload determinism.

use otf_gengc::gc::{Gc, GcConfig};
use otf_gengc::heap::{Color, ObjShape};

fn tiny(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(8 << 20)
        .with_initial_heap(1 << 20)
        .with_young_size(128 << 10)
}

/// Forces one partial collection by allocating past the young budget and
/// waiting for the cycle counter to move (then settle).
fn force_partial(gc: &Gc, m: &mut otf_gengc::gc::Mutator) {
    // `cycles_completed` counts only *completed* cycles, so polling it
    // both forces a collection and waits for its sweep to finish.
    let before = gc.cycles_completed();
    let junk = ObjShape::new(0, 6);
    while gc.cycles_completed() == before {
        for _ in 0..2000 {
            let _ = m.alloc(&junk).unwrap();
        }
        m.cooperate();
    }
}

#[test]
fn aging_object_ages_then_tenures() {
    let threshold = 3;
    let gc = Gc::new(tiny(GcConfig::aging(threshold)));
    let mut m = gc.mutator();
    let obj = m.alloc(&ObjShape::new(0, 1)).unwrap();
    m.write_data(obj, 0, 77);
    m.root_push(obj);
    assert_eq!(gc.debug_age_of(obj), 1, "allocated with age 1 (§8.5.2)");

    let mut last_age = 1;
    for _round in 0..6 {
        force_partial(&gc, &mut m);
        let age = gc.debug_age_of(obj);
        assert!(age >= last_age, "ages never decrease");
        assert!(age <= threshold, "age saturates at the threshold");
        last_age = age;
        if age < threshold {
            // Still young: must not be black between collections.
            assert_ne!(
                gc.debug_color_of(obj),
                Color::Black,
                "young object black before tenuring age"
            );
        }
    }
    assert_eq!(last_age, threshold, "object should have reached tenure");
    assert_eq!(
        gc.debug_color_of(obj),
        Color::Black,
        "tenured objects stay black"
    );
    assert_eq!(m.read_data(obj, 0), 77);
    drop(m);
    gc.shutdown();
}

#[test]
fn simple_promotion_tenures_after_one_collection() {
    let gc = Gc::new(tiny(GcConfig::generational()));
    let mut m = gc.mutator();
    let obj = m.alloc(&ObjShape::new(0, 1)).unwrap();
    m.root_push(obj);
    assert_ne!(gc.debug_color_of(obj), Color::Black);
    force_partial(&gc, &mut m);
    assert_eq!(
        gc.debug_color_of(obj),
        Color::Black,
        "survive one collection ⇒ old (§3)"
    );
    drop(m);
    gc.shutdown();
}

#[test]
fn global_roots_keep_objects_alive_without_stacks() {
    let gc = Gc::new(tiny(GcConfig::generational()));
    let table = {
        let mut m = gc.mutator();
        let table = m.alloc(&ObjShape::new(1, 1)).unwrap();
        m.write_data(table, 0, 1234);
        m.root_push(table);
        m.add_global_root(table);
        table
        // mutator dropped: its shadow stack is gone; only the global root
        // protects the object now.
    };
    {
        let mut m = gc.mutator();
        for _ in 0..5 {
            force_partial(&gc, &mut m);
        }
        m.parked(|| gc.collect_full_blocking());
        assert_eq!(
            m.read_data(table, 0),
            1234,
            "global root did not protect object"
        );
        assert!(m.remove_global_root(table));
        drop(m);
    }
    gc.shutdown();
}

#[test]
fn dropping_mutator_mid_cycle_is_safe() {
    let gc = Gc::new(tiny(GcConfig::generational()));
    // Spawn mutators that exit while collections are likely in flight.
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let mut m = gc.mutator();
            s.spawn(move || {
                let shape = ObjShape::new(1, 1);
                for i in 0..5_000 {
                    let obj = m.alloc(&shape).unwrap();
                    m.write_data(obj, 0, t * 100_000 + i);
                }
                // Drop without waiting for any cycle to finish.
            });
        }
    });
    gc.collect_full_blocking();
    gc.shutdown();
}

#[test]
fn workloads_are_deterministic_per_seed() {
    use otf_gengc::workloads::{driver, Jess};
    let w = Jess::new().scaled(0.02);
    let a = driver::run_workload(&w, GcConfig::generational(), 9);
    let b = driver::run_workload(&w, GcConfig::generational(), 9);
    // Allocation totals are identical run to run (collections may differ —
    // they're timing-dependent — but the application behavior may not).
    assert_eq!(a.stats.objects_allocated, b.stats.objects_allocated);
    assert_eq!(a.stats.bytes_allocated, b.stats.bytes_allocated);
}

#[test]
fn stats_snapshot_is_consistent() {
    let gc = Gc::new(tiny(GcConfig::generational()));
    let mut m = gc.mutator();
    for _ in 0..3 {
        force_partial(&gc, &mut m);
    }
    m.parked(|| gc.collect_full_blocking());
    let stats = gc.stats();
    assert_eq!(
        stats.cycles.len(),
        stats.partial_count() + stats.full_count()
    );
    for c in &stats.cycles {
        // Freed + survived should roughly account for what the sweep saw.
        assert!(c.duration.as_nanos() > 0);
        assert!(c.pages_touched > 0);
        assert!(
            c.used_after <= c.used_before + (4 << 20),
            "sweep grew the heap?"
        );
    }
    assert!(stats.gc_active <= stats.elapsed);
    drop(m);
    gc.shutdown();
}
