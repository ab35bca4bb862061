//! Plan/packet equivalence through the public API: every
//! (mode × sweep-backend) plan must produce an identical end state
//! whether the packet schedule runs on one worker (byte-for-byte the
//! verified DLG sequence) or on four (DESIGN.md §4.7).
//!
//! The driver is deterministic: a single mutator builds the same object
//! graph, parks for every collection (so handshakes are proxied and no
//! allocation races the cycle), and the heap never grows past its
//! initial commitment — so any divergence between worker counts is a
//! scheduler bug, not workload noise.  The kind-level matrix (partial
//! vs full per plan) is covered by the `plan` unit tests in
//! `crates/core`; here full blocking cycles exercise the whole stack:
//! collector thread, schedule, packets, and the real handshake path.

use otf_gengc::gc::{Gc, GcConfig, Mutator};
use otf_gengc::heap::{Color, ObjShape, ObjectRef};

fn tiny(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(8 << 20).with_initial_heap(2 << 20)
}

/// Builds a linked list of `n` nodes and roots the head on the shadow
/// stack; returns the head.
fn build_list(m: &mut Mutator, n: usize, seed: u64) -> ObjectRef {
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

/// Everything we compare across worker counts: the settled heap totals,
/// the keeper list's per-node (color, age), and the per-cycle trace /
/// reclamation counters.
#[derive(Debug, PartialEq, Eq)]
struct EndState {
    used_bytes: usize,
    free_granules: u64,
    keeper: Vec<(Color, u8)>,
    traced: Vec<u64>,
    freed: Option<Vec<(u64, u64)>>,
}

fn run_plan(cfg: GcConfig, threads: usize) -> EndState {
    let gc = Gc::new(tiny(cfg).with_gc_threads(threads));
    let mut m = gc.mutator();

    // A long-lived list that must survive (and promote through) every
    // cycle, plus fresh garbage before each collection.
    let keeper = build_list(&mut m, 200, 7_000);
    let kroot = m.root_push(keeper);
    for round in 0..3u64 {
        for g in 0..8u64 {
            let _ = build_list(&mut m, 50, round * 1_000 + g * 100);
        }
        m.parked(|| gc.collect_full_blocking());
    }
    assert_eq!(m.root_get(kroot), keeper);

    // Settle the lazy backend (verify_heap finalizes any open sweep
    // epoch first) and require a clean heap in every cell.
    let violations = gc.verify_heap();
    assert!(violations.is_empty(), "heap violations: {violations:?}");

    let mut colors = Vec::new();
    let mut cur = keeper;
    while !cur.is_null() {
        colors.push((gc.debug_color_of(cur), gc.debug_age_of(cur)));
        cur = m.read_ref(cur, 0);
    }

    let stats = gc.stats();
    let traced = stats.cycles.iter().map(|c| c.objects_traced).collect();
    // Reclamation counters are per-cycle identical only for the eager
    // backend; the lazy backend defers them by an epoch and the tail
    // folds into the finalize outside any cycle.
    let freed = if gc.config().lazy_sweep {
        None
    } else {
        Some(
            stats
                .cycles
                .iter()
                .map(|c| (c.objects_freed, c.bytes_freed))
                .collect(),
        )
    };

    drop(m);
    EndState {
        used_bytes: gc.used_bytes(),
        free_granules: gc.free_granules(),
        keeper: colors,
        traced,
        freed,
    }
}

fn assert_plan_parity(cfg: fn() -> GcConfig) {
    for lazy in [false, true] {
        // Pinned explicitly so the comparison keeps its meaning under
        // the CI env cell (`OTF_GC_LAZY_SWEEP`) that reruns this suite.
        let make = || cfg().with_lazy_sweep(lazy);
        let one = run_plan(make(), 1);
        let four = run_plan(make(), 4);
        assert_eq!(
            one,
            four,
            "plan {} diverges between 1 and 4 workers",
            make().plan_name()
        );
    }
}

#[test]
fn generational_plans_match_across_worker_counts() {
    assert_plan_parity(GcConfig::generational);
}

#[test]
fn non_generational_plans_match_across_worker_counts() {
    assert_plan_parity(GcConfig::non_generational);
}

#[test]
fn aging_plans_match_across_worker_counts() {
    assert_plan_parity(|| GcConfig::aging(3));
}
