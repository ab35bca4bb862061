//! Plan end states through the public API: every plan (one per
//! collector mode) must reach the end state pinned below, which is what
//! the packet scheduler reached on one worker before the straight-line
//! cycle replaced it (DESIGN.md §4.7).
//!
//! The driver is deterministic: a single mutator builds the same object
//! graph, parks for every collection (so handshakes are proxied and no
//! allocation races the cycle), and the heap never grows past its
//! initial commitment — so any divergence from a pin is a change in the
//! cycle, not workload noise.  The kind-level matrix (partial vs full
//! per plan) is pinned by the `collector` unit tests in `crates/core`;
//! here full blocking cycles exercise the whole stack: collector
//! thread, cycle, and the real handshake path.

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

/// Everything we pin: the settled heap totals,
/// the keeper list's per-node (color, age), and the per-cycle trace /
/// reclamation counters.
#[derive(Debug, PartialEq, Eq)]
struct EndState {
    used_bytes: usize,
    free_granules: u64,
    keeper: Vec<(Color, u8)>,
    traced: Vec<u64>,
    freed: Vec<(u64, u64)>,
}

fn run_plan(cfg: GcConfig) -> EndState {
    let gc = Gc::new(tiny(cfg));
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

    // Require a clean heap in every cell.
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
    let freed = stats
        .cycles
        .iter()
        .map(|c| (c.objects_freed, c.bytes_freed))
        .collect();

    drop(m);
    EndState {
        used_bytes: gc.used_bytes(),
        free_granules: gc.free_granules(),
        keeper: colors,
        traced,
        freed,
    }
}

/// The pinned end state: three full cycles, each tracing the 200-node
/// keeper and freeing the 8 × 50 garbage nodes (32 bytes each); every
/// keeper node ends with `keeper`'s (color, age).
fn pinned(keeper: (Color, u8)) -> EndState {
    EndState {
        used_bytes: 6416,
        free_granules: 1648,
        keeper: vec![keeper; 200],
        traced: vec![200; 3],
        freed: vec![(400, 12_800); 3],
    }
}

#[test]
fn generational_plan_reaches_pinned_end_state() {
    assert_eq!(
        run_plan(GcConfig::generational()),
        pinned((Color::Black, 1))
    );
}

#[test]
fn non_generational_plan_reaches_pinned_end_state() {
    assert_eq!(
        run_plan(GcConfig::non_generational()),
        pinned((Color::Yellow, 1))
    );
}

#[test]
fn aging_plan_reaches_pinned_end_state() {
    assert_eq!(run_plan(GcConfig::aging(3)), pinned((Color::Black, 3)));
}
