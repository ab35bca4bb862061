//! End-to-end correctness tests for the on-the-fly collector.
//!
//! The central invariant of any collector: *no live object is ever
//! reclaimed, and garbage is eventually reclaimed* — exercised here under
//! real concurrency (mutator threads running against the collector
//! thread) with small heaps so many cycles happen.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use otf_gengc::gc::{CycleKind, Gc, GcConfig};
use otf_gengc::heap::{ObjShape, ObjectRef};

/// A small heap so collections are frequent.
fn small(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(4 << 20)
        .with_initial_heap(1 << 20)
        .with_young_size(64 << 10)
}

/// Builds a linked list of `n` nodes, each carrying `seed + i` in its data
/// word, and returns the head.  The head is rooted by the caller.
fn build_list(m: &mut otf_gengc::gc::Mutator, n: usize, seed: u64) -> ObjectRef {
    let node = ObjShape::new(1, 1);
    let head = m.alloc(&node).unwrap();
    m.write_data(head, 0, seed);
    let root = m.root_push(head);
    let mut tail = head;
    for i in 1..n {
        let next = m.alloc(&node).unwrap();
        m.write_data(next, 0, seed + i as u64);
        m.write_ref(tail, 0, next);
        tail = next;
    }
    let head = m.root_get(root);
    m.root_pop();
    head
}

/// Walks the list and checks the payloads.
fn check_list(m: &otf_gengc::gc::Mutator, head: ObjectRef, n: usize, seed: u64) {
    let mut cur = head;
    for i in 0..n {
        assert!(!cur.is_null(), "list truncated at {i}/{n}");
        assert_eq!(
            m.read_data(cur, 0),
            seed + i as u64,
            "payload corrupted at {i}"
        );
        cur = m.read_ref(cur, 0);
    }
    assert!(cur.is_null(), "list longer than expected");
}

fn churn_under_config(cfg: GcConfig) {
    let gc = Gc::new(small(cfg));
    let mut m = gc.mutator();
    // A long-lived list that must survive every collection.
    let keeper = build_list(&mut m, 500, 10_000);
    m.root_push(keeper);

    // Churn: many short-lived lists, a few medium-lived ones.
    let mut medium: Vec<(ObjectRef, usize, u64)> = Vec::new();
    for round in 0..200u64 {
        let head = build_list(&mut m, 100, round * 1000);
        // Keep every 10th list alive for 5 rounds.
        if round % 10 == 0 {
            m.root_push(head);
            medium.push((head, 100, round * 1000));
            if medium.len() > 5 {
                let (old, n, seed) = medium.remove(0);
                check_list(&m, old, n, seed);
                // Drop the oldest medium list: find and remove its root.
                let keep: Vec<ObjectRef> = (0..m.root_len())
                    .map(|i| m.root_get(i))
                    .filter(|&r| r != old)
                    .collect();
                m.root_truncate(0);
                for r in keep {
                    m.root_push(r);
                }
            }
        }
        m.cooperate();
        // The keeper must stay intact through every cycle.
        if round % 50 == 0 {
            check_list(&m, keeper, 500, 10_000);
        }
    }
    check_list(&m, keeper, 500, 10_000);
    for (head, n, seed) in &medium {
        check_list(&m, *head, *n, *seed);
    }
    // Mutators can outrun the on-the-fly collector in a short test; force
    // a full cycle so the assertions below are deterministic.
    m.parked(|| gc.collect_full_blocking());
    check_list(&m, keeper, 500, 10_000);
    for (head, n, seed) in &medium {
        check_list(&m, *head, *n, *seed);
    }
    let stats = gc.stats();
    assert!(
        !stats.cycles.is_empty(),
        "expected collections to happen (allocated {} bytes)",
        stats.bytes_allocated
    );
    // Garbage is eventually reclaimed.
    let freed: u64 = stats.cycles.iter().map(|c| c.bytes_freed).sum();
    assert!(freed > 0, "no bytes were ever reclaimed");
    drop(m);
    gc.shutdown();
}

#[test]
fn churn_generational_simple() {
    churn_under_config(GcConfig::generational());
}

#[test]
fn churn_non_generational() {
    churn_under_config(GcConfig::non_generational());
}

#[test]
fn churn_aging() {
    churn_under_config(GcConfig::aging(4));
}

#[test]
fn churn_block_marking() {
    churn_under_config(GcConfig::generational().with_card_size(4096));
}

/// Eight mutators churn lists against the collector; once it is stopped
/// the heap must verify clean and the pooled chunks must add up to the
/// free total.
#[test]
fn multithreaded_churn_leaves_heap_verifiable() {
    let mut gc = Gc::new(small(GcConfig::generational()));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let mut m = gc.mutator();
            s.spawn(move || {
                let keeper = build_list(&mut m, 200, t * 1_000_000);
                m.root_push(keeper);
                for round in 0..100u64 {
                    let seed = t * 1_000_000 + round * 997;
                    let head = build_list(&mut m, 50, seed);
                    check_list(&m, head, 50, seed);
                    m.cooperate();
                }
                check_list(&m, keeper, 200, t * 1_000_000);
            });
        }
    });
    gc.collect_full_blocking();
    gc.stop_collector();
    let violations = gc.verify_heap();
    assert!(violations.is_empty(), "heap violations: {violations:?}");
    let pooled: u64 = gc.debug_free_chunks().iter().map(|c| c.len as u64).sum();
    assert_eq!(
        pooled,
        gc.free_granules(),
        "pooled chunks do not sum to the free total"
    );
}

/// Every variant under four churning mutators.
#[test]
fn multithreaded_churn_all_variants() {
    for cfg in [
        GcConfig::generational(),
        GcConfig::non_generational(),
        GcConfig::aging(3),
    ] {
        let gc = Gc::new(small(cfg));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut m = gc.mutator();
                s.spawn(move || {
                    let keeper = build_list(&mut m, 200, t * 1_000_000);
                    m.root_push(keeper);
                    for round in 0..100u64 {
                        let seed = t * 1_000_000 + round * 997;
                        let head = build_list(&mut m, 50, seed);
                        check_list(&m, head, 50, seed);
                        m.cooperate();
                    }
                    check_list(&m, keeper, 200, t * 1_000_000);
                });
            }
        });
        gc.collect_full_blocking();
        assert!(
            gc.cycles_completed() > 0,
            "no collections under concurrency"
        );
        gc.shutdown();
    }
}

#[test]
fn inter_generational_pointer_keeps_young_alive() {
    // An old object pointing at a young object: the young one must survive
    // a partial collection purely via the dirty-card scan.
    let gc = Gc::new(small(GcConfig::generational()));
    let mut m = gc.mutator();
    let node = ObjShape::new(1, 1);

    // Make `old` old by keeping it alive across one collection.
    let old = m.alloc(&node).unwrap();
    m.write_data(old, 0, 7);
    m.root_push(old);
    m.parked(|| gc.collect_full_blocking());
    assert_eq!(gc.debug_color_of(old), otf_gengc::heap::Color::Black);

    // Store a young object into the old one; drop all stack roots to it.
    let young = m.alloc(&node).unwrap();
    m.write_data(young, 0, 99);
    m.write_ref(old, 0, young);

    // Force a partial collection: allocate past the young budget.
    // `stats().cycles` records only completed cycles, so polling it also
    // waits for the sweep to finish.
    let filler = ObjShape::new(0, 6);
    let before = gc.stats().cycles.len();
    while gc.stats().cycles.len() == before {
        for _ in 0..1000 {
            let _ = m.alloc(&filler).unwrap();
        }
        m.cooperate();
    }

    let y = m.read_ref(old, 0);
    assert_eq!(y, young);
    assert_eq!(
        m.read_data(y, 0),
        99,
        "young object lost despite inter-gen pointer"
    );
    drop(m);
    gc.shutdown();
}

#[test]
fn unreachable_objects_are_reclaimed_by_full_collection() {
    let gc = Gc::new(small(GcConfig::generational()));
    let mut m = gc.mutator();
    let shape = ObjShape::new(0, 30);
    let mut garbage = Vec::new();
    for _ in 0..2000 {
        garbage.push(m.alloc(&shape).unwrap());
    }
    // No roots: everything above is garbage.
    garbage.clear();
    let used_before = gc.used_bytes();
    m.parked(|| gc.collect_full_blocking());
    m.parked(|| gc.collect_full_blocking());
    let used_after = gc.used_bytes();
    assert!(
        used_after < used_before,
        "full collections reclaimed nothing ({used_before} -> {used_after})"
    );
    drop(m);
    gc.shutdown();
}

/// The heap the comb tests run on: large enough that no collection
/// starts on its own while the comb is built.
fn comb_heap(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(8 << 20)
        .with_initial_heap(8 << 20)
        .with_young_size(4 << 20)
}

/// A comb of `2 * teeth` two-granule objects: the even teeth form a chain
/// from a root this pushes, the odd teeth are garbage at once.  Returns
/// the head, the granules of the live teeth and those of the dead ones.
fn build_comb(
    m: &mut otf_gengc::gc::Mutator,
    teeth: usize,
) -> (ObjectRef, HashSet<usize>, Vec<usize>) {
    let shape = ObjShape::new(1, 1);
    assert_eq!(shape.size_granules(), 2);
    let head = m.alloc(&shape).unwrap();
    m.root_push(head);
    let mut live = HashSet::from([head.granule()]);
    let mut dead = Vec::new();
    let mut tail = head;
    for i in 1..2 * teeth {
        let obj = m.alloc(&shape).unwrap();
        if i % 2 == 0 {
            m.write_ref(tail, 0, obj);
            tail = obj;
            live.insert(obj.granule());
        } else {
            dead.push(obj.granule());
        }
    }
    (head, live, dead)
}

/// A db-shaped comb — 2-granule objects, every other one dead — swept
/// into the free-space pool by real collections: each hole between two
/// survivors must come back as its own chunk, and once the survivors die
/// too the holes must have merged, so that no two pooled chunks touch.
#[test]
fn comb_of_dead_objects_is_pooled_as_maximal_runs() {
    const TEETH: usize = 6000;
    for survivors_die in [false, true] {
        let mut gc = Gc::new(comb_heap(GcConfig::generational()));
        let mut m = gc.mutator();
        let root = m.root_len();
        let (head, live, dead) = build_comb(&mut m, TEETH);
        assert_eq!(m.root_get(root), head);
        m.parked(|| gc.collect_full_blocking());
        m.parked(|| gc.collect_full_blocking());
        if survivors_die {
            // The holes are pooled by now.  The sweep skips them, so each
            // survivor arrives as a 2-granule run of its own, and only
            // the pool can merge it with the holes on either side.
            m.root_pop();
            m.parked(|| gc.collect_full_blocking());
            m.parked(|| gc.collect_full_blocking());
        }
        gc.stop_collector();
        let violations = gc.verify_heap();
        assert!(violations.is_empty(), "heap violations: {violations:?}");

        let free = gc.debug_free_chunks();
        for w in free.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(a.end() <= b.start, "overlapping chunks {a:?} {b:?}");
            assert!(a.end() < b.start, "{a:?} {b:?} not merged");
        }
        let chunk_over = |g: usize| {
            let i = free.partition_point(|c| c.end() as usize <= g);
            free.get(i).copied().filter(|c| c.start as usize <= g)
        };
        for &g in &dead {
            let c = chunk_over(g).unwrap_or_else(|| panic!("dead tooth {g} not pooled"));
            let fenced = live.contains(&(g - 2)) && live.contains(&(g + 2));
            if fenced && !survivors_die {
                assert_eq!((c.start as usize, c.len), (g, 2), "hole at {g} is {c:?}");
            }
        }
        for &g in &live {
            assert_eq!(chunk_over(g).is_some(), survivors_die, "tooth {g}");
        }
        drop(m);
        gc.shutdown();
    }
}

/// Allocating into a comb: every hole takes one object, and a LAB is a
/// queue of up to 64 of them, so the refills are a small fraction of the
/// allocations — in every mode, with the heap verifying clean around
/// the mutator's live queue.
#[test]
fn comb_holes_are_allocated_at_one_refill_per_queue() {
    const TEETH: usize = 6000;
    const N: u64 = 4000;
    for cfg in [
        GcConfig::generational(),
        GcConfig::non_generational(),
        GcConfig::aging(4),
    ] {
        let mut gc = Gc::new(comb_heap(cfg));
        let mut m = gc.mutator();
        let (_, live, dead) = build_comb(&mut m, TEETH);
        m.parked(|| gc.collect_full_blocking());
        m.parked(|| gc.collect_full_blocking());
        let before = gc.stats().lab_refill.count();
        let shape = ObjShape::new(1, 1);
        let mut in_holes = 0;
        for _ in 0..N {
            let obj = m.alloc(&shape).unwrap();
            assert!(!live.contains(&obj.granule()), "allocated over a survivor");
            in_holes += u64::from(dead.binary_search(&obj.granule()).is_ok());
        }
        let refills = gc.stats().lab_refill.count() - before;
        assert!(
            refills <= N / 32,
            "{refills} refills for {N} objects ({})",
            gc.config().plan_name()
        );
        // The pool serves before the frontier does (the mutator's old
        // queue had frontier space left).
        assert!(in_holes >= N / 2, "only {in_holes} of {N} objects in holes");
        gc.stop_collector();
        let violations = gc.verify_heap();
        assert!(violations.is_empty(), "heap violations: {violations:?}");
        drop(m);
        gc.shutdown();
    }
}

/// One mutator sits parked on a whole LAB's queue while another fills a
/// 1 MiB heap with garbage.  Nothing triggers a collection here but a
/// failed allocation, so the first cycle must come only once the heap is
/// genuinely full — all of it but the sitter's lease and the runner's own
/// — and then as a blocking full collection the runner comes back from,
/// not as `OutOfMemory`.
#[test]
fn parked_mutator_on_a_full_queue_does_not_starve_the_other() {
    const HEAP: usize = 1 << 20;
    let mut cfg = GcConfig::non_generational()
        .with_max_heap(HEAP)
        .with_initial_heap(HEAP);
    cfg.full_trigger_fraction = 1.0;
    let lab_bytes = cfg.lab_granules as usize * 16;
    let mut gc = Gc::new(cfg);
    let mut sitter = gc.mutator();
    let mut runner = gc.mutator();
    let kept = sitter.alloc(&ObjShape::new(0, 0)).unwrap();
    sitter.root_push(kept);
    let done = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            sitter.parked(|| done.wait());
            // The queue was kept across the park.
            let before = gc.stats().lab_refill.count();
            sitter.alloc(&ObjShape::new(0, 0)).unwrap();
            assert_eq!(gc.stats().lab_refill.count(), before);
        });
        let shape = ObjShape::new(1, 5); // 64 bytes
        let mut before_first_cycle = None;
        for i in 0..3 * HEAP / shape.size_bytes() {
            if before_first_cycle.is_none() && gc.cycles_completed() > 0 {
                before_first_cycle = Some(i * shape.size_bytes());
            }
            if let Err(e) = runner.alloc(&shape) {
                panic!("allocation {i} failed with {e} on a heap of garbage");
            }
        }
        let filled = before_first_cycle.expect("3 MiB through a 1 MiB heap without a cycle");
        assert!(
            filled + 3 * lab_bytes >= HEAP,
            "first collection after only {filled} bytes"
        );
        let stats = gc.stats();
        assert!(stats.alloc_stall.count() >= 2, "no blocking collection");
        assert!(stats.cycles.iter().all(|c| c.kind == CycleKind::Full));
        done.wait();
    });
    gc.stop_collector();
    let violations = gc.verify_heap();
    assert!(violations.is_empty(), "heap violations: {violations:?}");
    drop((sitter, runner));
    gc.shutdown();
}

/// A heap that fills with live objects reports `OutOfMemory`.
#[test]
fn oom_is_reported_not_crashed() {
    let cfg = GcConfig::generational()
        .with_max_heap(256 << 10)
        .with_initial_heap(256 << 10)
        .with_young_size(32 << 10);
    let gc = Gc::new(cfg);
    let mut m = gc.mutator();
    let shape = ObjShape::new(1, 10);
    let mut err = None;
    // Keep everything alive: the heap must eventually overflow.
    let mut prev = ObjectRef::NULL;
    for _ in 0..10_000 {
        match m.alloc(&shape) {
            Ok(obj) => {
                m.write_ref(obj, 0, prev);
                prev = obj;
                if m.root_len() == 0 {
                    m.root_push(obj);
                } else {
                    m.root_set(0, obj);
                }
            }
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert!(matches!(
        err,
        Some(otf_gengc::gc::AllocError::OutOfMemory { .. })
    ));
    drop(m);
    gc.shutdown();
}

#[test]
fn stats_record_partial_and_full_cycles() {
    let gc = Gc::new(small(GcConfig::generational()));
    let mut m = gc.mutator();
    let shape = ObjShape::new(0, 14);
    for _ in 0..20_000 {
        let _ = m.alloc(&shape).unwrap();
    }
    m.parked(|| {
        // The allocations can finish before the collector thread has
        // picked up the partial they requested; a full collection asked
        // for now would subsume it.  Let one partial complete first.
        let deadline = Instant::now() + Duration::from_secs(10);
        while gc.stats().partial_count() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        gc.collect_full_blocking();
    });
    let stats = gc.stats();
    assert!(stats.partial_count() > 0, "expected partial collections");
    assert!(stats.full_count() > 0, "expected a full collection");
    assert!(stats
        .cycles_of(CycleKind::Partial)
        .all(|c| c.kind == CycleKind::Partial));
    assert!(stats.gc_active > Duration::ZERO);
    // Exact, not a lower bound: `parked` flushed the mutator's counts.
    assert_eq!(stats.objects_allocated, 20_000);
    drop(m);
    gc.shutdown();
}

#[test]
fn non_generational_never_runs_partials() {
    let gc = Gc::new(small(GcConfig::non_generational()));
    let mut m = gc.mutator();
    let shape = ObjShape::new(0, 14);
    for _ in 0..20_000 {
        let _ = m.alloc(&shape).unwrap();
    }
    m.parked(|| gc.collect_full_blocking());
    let stats = gc.stats();
    assert_eq!(stats.partial_count(), 0);
    assert!(stats.full_count() > 0);
    drop(m);
    gc.shutdown();
}

#[test]
fn yellow_objects_survive_the_cycle_they_are_born_in() {
    // Objects created during a collection must not be reclaimed by that
    // collection's sweep even when unreachable (they die in the *next*
    // cycle).  We can't easily freeze the collector mid-cycle from here,
    // so we just hammer allocation during induced cycles and rely on the
    // payload checks of the churn tests; here we verify the weaker,
    // directly observable property: an object allocated and immediately
    // rooted while a collection runs is alive and intact afterwards.
    let gc = Gc::new(small(GcConfig::generational()));
    let mut m = gc.mutator();
    gc.request_full();
    let node = ObjShape::new(0, 1);
    let mut kept = Vec::new();
    for i in 0..5000u64 {
        let obj = m.alloc(&node).unwrap();
        m.write_data(obj, 0, i);
        if i % 100 == 0 {
            m.root_push(obj);
            kept.push((obj, i));
        }
    }
    m.parked(|| gc.collect_full_blocking());
    for (obj, i) in kept {
        assert_eq!(m.read_data(obj, 0), i);
    }
    drop(m);
    gc.shutdown();
}

/// The staleness contract of the allocation totals (DESIGN.md §4.10):
/// while mutators run, `Gc::objects_allocated()` never runs ahead of the
/// truth and trails it by less than one LAB's worth of objects per live
/// mutator; with every mutator parked it is exact.
#[test]
fn allocation_totals_lag_by_under_one_lab_per_mutator_and_are_exact_when_parked() {
    // Both mutators live on this one thread, so neither may ever block
    // (the other could not answer the handshake): commit the whole heap
    // up front — it holds everything the loop allocates — while the 64 KB
    // young generation still keeps partial collections running.
    let gc = Gc::new(small(GcConfig::generational()).with_initial_heap(4 << 20));
    let shape = ObjShape::new(1, 2); // 2 granules
    let per_lab = (gc.config().lab_granules as usize / shape.size_granules()) as u64;
    let mut a = gc.mutator();
    let mut b = gc.mutator();
    let mut truth = 0u64;
    let mut worst = 0u64;
    for round in 0..20_000 {
        a.alloc(&shape).unwrap();
        b.alloc(&shape).unwrap();
        truth += 2;
        let seen = gc.objects_allocated();
        assert!(seen <= truth, "totals ran ahead: {seen} > {truth}");
        worst = worst.max(truth - seen);
        if round % 4096 == 4095 {
            a.parked(|| b.parked(|| assert_eq!(gc.objects_allocated(), truth)));
            assert_eq!(
                gc.stats().bytes_allocated,
                truth * shape.size_bytes() as u64
            );
        }
    }
    assert!(
        worst <= 2 * per_lab,
        "totals trailed by {worst} objects; two LABs hold {}",
        2 * per_lab
    );
    assert!(worst > 0, "20 000 allocations never left a count private");
    drop((a, b));
    assert_eq!(gc.shutdown().objects_allocated, truth);
}
