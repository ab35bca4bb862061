//! Model-based reachability testing: build a random object graph through
//! the mutator API while mirroring it in a plain Rust model, pick random
//! roots, run collections, and verify that everything the *model* says is
//! reachable is intact in the *heap* — payloads included — and that
//! unreachable memory is actually reclaimed.
//!
//! This is the strongest single correctness check we have: any collector
//! bug that frees or corrupts a live object shows up as a payload
//! mismatch.

use std::collections::{HashSet, VecDeque};

use otf_gengc::gc::{Gc, GcConfig, Mutator};
use otf_gengc::heap::{ObjShape, ObjectRef};
use otf_support::rand::StdRng;

/// The Rust-side model of the heap graph.
struct Model {
    /// For each model node: its heap object and its outgoing edges
    /// (slot -> model index).
    nodes: Vec<(ObjectRef, Vec<Option<usize>>)>,
    refs_per_node: usize,
}

impl Model {
    fn reachable_from(&self, roots: &[usize]) -> HashSet<usize> {
        let mut seen: HashSet<usize> = roots.iter().copied().collect();
        let mut queue: VecDeque<usize> = roots.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for edge in self.nodes[n].1.iter().flatten() {
                if seen.insert(*edge) {
                    queue.push_back(*edge);
                }
            }
        }
        seen
    }
}

/// Builds `n` nodes with random wiring; every node is rooted during
/// construction so nothing is collected prematurely.
fn build_graph(m: &mut Mutator, rng: &mut StdRng, n: usize, refs_per_node: usize) -> Model {
    let shape = ObjShape::new(refs_per_node, 1);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let obj = m.alloc(&shape).expect("oom");
        m.write_data(obj, 0, payload(i));
        m.root_push(obj);
        nodes.push((obj, vec![None; refs_per_node]));
    }
    let mut model = Model {
        nodes,
        refs_per_node,
    };
    // Random edges (biased toward earlier nodes, like real graphs).
    let edges = n * refs_per_node / 2;
    for _ in 0..edges {
        let from = rng.random_range(0..n);
        let slot = rng.random_range(0..refs_per_node);
        let to = rng.random_range(0..n);
        m.write_ref(model.nodes[from].0, slot, model.nodes[to].0);
        model.nodes[from].1[slot] = Some(to);
    }
    model
}

fn payload(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Verifies every model-reachable node: payload intact, edges match.
fn verify(m: &Mutator, model: &Model, reachable: &HashSet<usize>) {
    for &i in reachable {
        let (obj, edges) = &model.nodes[i];
        assert_eq!(
            m.read_data(*obj, 0),
            payload(i),
            "payload of node {i} corrupted"
        );
        for (slot, edge) in edges.iter().enumerate() {
            let got = m.read_ref(*obj, slot);
            match edge {
                Some(to) => assert_eq!(got, model.nodes[*to].0, "edge {i}.{slot} corrupted"),
                None => assert!(got.is_null(), "edge {i}.{slot} should be null"),
            }
        }
    }
    let _ = model.refs_per_node;
}

fn run_model_test(cfg: GcConfig, seed: u64, n: usize) {
    let gc = Gc::new(
        cfg.with_max_heap(8 << 20)
            .with_initial_heap(1 << 20)
            .with_young_size(256 << 10),
    );
    let mut m = gc.mutator();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = build_graph(&mut m, &mut rng, n, 3);

    // Keep a random subset of nodes as roots; drop the rest.
    let keep: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.15)).collect();
    m.root_truncate(0);
    for &k in &keep {
        m.root_push(model.nodes[k].0);
    }

    let used_full = gc.used_bytes();
    // Churn a little so collections interleave with mutation of *dead*
    // space only, then force two full collections (the first may race
    // in-flight allocation; the second settles everything).
    let junk = ObjShape::new(0, 2);
    for _ in 0..20_000 {
        let _ = m.alloc(&junk).expect("oom");
    }
    m.parked(|| gc.collect_full_blocking());
    m.parked(|| gc.collect_full_blocking());

    let reachable = model.reachable_from(&keep);
    verify(&m, &model, &reachable);

    // Unreachable nodes must actually have been reclaimed: with ~85% of
    // the graph dropped, usage must fall well below the fully-live peak.
    let used_after = gc.used_bytes();
    assert!(
        used_after < used_full,
        "no reclamation: {used_full} -> {used_after} (|reachable| = {}/{n})",
        reachable.len()
    );

    drop(m);
    gc.shutdown();
}

#[test]
fn model_reachability_generational() {
    for seed in 0..4 {
        run_model_test(GcConfig::generational(), seed, 3000);
    }
}

#[test]
fn model_reachability_non_generational() {
    for seed in 10..14 {
        run_model_test(GcConfig::non_generational(), seed, 3000);
    }
}

#[test]
fn model_reachability_aging() {
    for seed in 20..24 {
        run_model_test(GcConfig::aging(3), seed, 3000);
    }
}

#[test]
fn model_reachability_block_marking() {
    for seed in 30..33 {
        run_model_test(GcConfig::generational().with_card_size(4096), seed, 3000);
    }
}

/// The same model check but with collections racing the graph
/// construction (tiny young generation forces partials mid-build).
#[test]
fn model_reachability_with_racing_partials() {
    for seed in 40..43 {
        let cfg = GcConfig::generational()
            .with_max_heap(8 << 20)
            .with_initial_heap(1 << 20)
            .with_young_size(64 << 10);
        let gc = Gc::new(cfg);
        let mut m = gc.mutator();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = build_graph(&mut m, &mut rng, 5000, 3);
        // Everything still rooted: the whole graph must be intact no
        // matter how many partials ran during construction.
        let all: HashSet<usize> = (0..5000).collect();
        verify(&m, &model, &all);
        drop(m);
        gc.shutdown();
    }
}
