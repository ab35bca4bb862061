//! Probes: timed loops over one public call each, for the layer costs
//! no workload run can separate out (ns per allocation, per barrier,
//! per safe-point poll, per free-list operation, per side-table byte).
//!
//! Every probe builds what it needs untimed, then takes the median of
//! several timed samples; the first sample only warms caches and pages.

use std::hint::black_box;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use otf_gc::{Gc, GcConfig, Mutator, ObjShape};
use otf_heap::{Chunk, HeapSpace};
use otf_support::hist::Histogram;
use otf_support::tablescan;

use crate::report::median;
use crate::spans::Recorder;

/// The probes' results, named as the per-layer metrics they become.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub alloc_ns: f64,
    pub alloc_2t_ns: f64,
    pub write_ref_ns: f64,
    pub write_ref_nogen_ns: f64,
    pub cooperate_ns: f64,
    pub alloc_chunk_ns: f64,
    pub free_batch_ns_per_chunk: f64,
    pub full_cycle_ms: f64,
    pub partial_cycle_ms: f64,
    pub find_sparse_gbps: f64,
    pub find_dense_gbps: f64,
    pub run_end_gbps: f64,
    pub count_gbps: f64,
    pub fill_gbps: f64,
    pub hist_record_ns: f64,
}

/// Calls `sample` once to warm up, then until `budget` is spent (three
/// times at least), and returns the median of each number it returned.
fn sampled_n<const N: usize>(budget: Duration, mut sample: impl FnMut() -> [f64; N]) -> [f64; N] {
    sample();
    let start = Instant::now();
    let mut values: Vec<[f64; N]> = Vec::new();
    while values.len() < 3 || start.elapsed() < budget {
        values.push(sample());
    }
    std::array::from_fn(|i| {
        let column: Vec<f64> = values.iter().map(|v| v[i]).collect();
        median(&column).expect("at least three samples")
    })
}

fn sampled(budget: Duration, mut sample: impl FnMut() -> f64) -> f64 {
    sampled_n(budget, || [sample()])[0]
}

/// Nanoseconds per iteration of `op` over `iters` iterations.
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        op();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// A heap on which no collection starts unless asked for: 64 MiB
/// committed up front, triggers beyond what any probe allocates.
fn quiet(cfg: GcConfig) -> GcConfig {
    cfg.with_max_heap(64 << 20)
        .with_initial_heap(64 << 20)
        .with_young_size(56 << 20)
}

/// ns per `Mutator::alloc` of a 32-byte object (1 reference slot, 2
/// data words), with `threads` mutators allocating at once: each sample
/// allocates 32 MiB in all from a heap the previous sample's objects
/// were just swept out of, so it times the steady state (LAB carve plus
/// one LAB refill per 1024 objects), not first-touch page faults.  With
/// more than one thread the slowest thread's time counts.
fn alloc_ns(threads: usize, budget: Duration) -> f64 {
    const OBJECTS: usize = 1 << 20;
    let gc = Gc::new(quiet(GcConfig::generational()));
    let shape = ObjShape::new(1, 2);
    let per_thread = OBJECTS / threads;
    sampled(budget, || {
        let gate = Barrier::new(threads);
        let slowest = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let mut m = gc.mutator();
                    let (gate, shape) = (&gate, &shape);
                    s.spawn(move || {
                        gate.wait();
                        ns_per_op(per_thread, || {
                            black_box(m.alloc(shape).expect("quiet heap holds a sample"));
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("alloc probe thread"))
                .fold(0.0, f64::max)
        });
        // Nothing is rooted and every mutator is gone: this frees it all.
        gc.collect_full_blocking();
        slowest
    })
}

/// ns per `Mutator::write_ref` between two rooted objects while no
/// collection runs (the async barrier: in generational mode a card
/// mark, in non-generational mode nothing but the store).
fn write_ref_ns(cfg: GcConfig, budget: Duration) -> f64 {
    let gc = Gc::new(quiet(cfg));
    let mut m = gc.mutator();
    let shape = ObjShape::new(2, 0);
    let a = m.alloc(&shape).expect("quiet heap");
    m.root_push(a);
    let b = m.alloc(&shape).expect("quiet heap");
    m.root_push(b);
    sampled(budget, || {
        ns_per_op(1 << 20, || m.write_ref(black_box(a), 0, black_box(b)))
    })
}

/// ns per `Mutator::cooperate` with no handshake posted.
fn cooperate_ns(budget: Duration) -> f64 {
    let gc = Gc::new(quiet(GcConfig::generational()));
    let mut m = gc.mutator();
    sampled(budget, || ns_per_op(1 << 20, || m.cooperate()))
}

/// ns per `Histogram::record`, the cost every pause, handshake and LAB
/// refill pays to be observable.
fn hist_record_ns(budget: Duration) -> f64 {
    let h = Histogram::new();
    let mut v = 1u64;
    sampled(budget, || {
        ns_per_op(1 << 20, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 40));
        })
    })
}

/// `HeapSpace` on a fragmented free list.  Shape: a 16 MiB heap carved
/// into 8-granule (128-byte) chunks, every other one freed, so 65 536
/// holes of 8 granules that cannot coalesce.  Returns (ns per
/// `alloc_chunk(2, 2048)`, which like db's LAB refills gets one hole
/// back, and ns per chunk of one `free_chunk_batch` of all the holes).
fn heap_ns(budget: Duration) -> (f64, f64) {
    const HOLE: u32 = 8;
    let heap = HeapSpace::new(16 << 20, 16 << 20);
    let mut holes: Vec<Chunk> = Vec::new();
    while let Some(hole) = heap.alloc_chunk(HOLE, HOLE) {
        holes.push(hole);
        // The slot after each hole stays allocated.
        if heap.alloc_chunk(HOLE, HOLE).is_none() {
            break;
        }
    }
    // Use up the frontier's last few granules, so that from here on
    // every allocation comes from the free list.
    while heap.alloc_chunk(1, HOLE).is_some() {}
    let mut taken: Vec<Chunk> = Vec::with_capacity(holes.len());
    let [alloc, free] = sampled_n(budget, || {
        let t = Instant::now();
        heap.free_chunk_batch(black_box(&holes));
        let free = t.elapsed().as_nanos() as f64 / holes.len() as f64;
        taken.clear();
        let t = Instant::now();
        while let Some(c) = heap.alloc_chunk(2, 2048) {
            taken.push(c);
        }
        let alloc = t.elapsed().as_nanos() as f64 / taken.len() as f64;
        assert_eq!(taken.len(), holes.len(), "every hole comes back once");
        [alloc, free]
    });
    (alloc, free)
}

/// Young-generation size of the cycle probes' heap.  The collector
/// drops a requested partial collection unless at least half of this has
/// been allocated since the last cycle, and starts one by itself once
/// all of it has: each partial sample allocates between the two.
const CYCLE_YOUNG: usize = 8 << 20;

/// The graph the cycle probes collect: 500 000 objects of 32 bytes in
/// a complete binary tree under one global root, in a 64 MiB
/// generational heap.  (Building it crosses the young budget twice;
/// every node is linked under the root before the next allocation, so
/// those collections only make the tree old.)
fn build_tree() -> (Gc, Mutator) {
    const NODES: usize = 500_000;
    let gc = Gc::new(quiet(GcConfig::generational()).with_young_size(CYCLE_YOUNG));
    let mut m = gc.mutator();
    let shape = ObjShape::new(2, 1);
    let mut nodes = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let node = m.alloc(&shape).expect("the heap holds the tree");
        if i == 0 {
            m.add_global_root(node);
        } else {
            m.write_ref(nodes[(i - 1) / 2], (i - 1) % 2, node);
        }
        nodes.push(node);
    }
    (gc, m)
}

/// ms per `collect_full_blocking` over the tree once it is old: InitFull,
/// trace and sweep over all of it.
fn full_cycle_ms(gc: &Gc, m: &mut Mutator, budget: Duration) -> f64 {
    sampled(budget, || {
        m.parked(|| {
            let t = Instant::now();
            gc.collect_full_blocking();
            t.elapsed().as_secs_f64() * 1e3
        })
    })
}

/// ms from `request_partial` until the cycle count moves, after the
/// mutator allocated 150 000 unreachable young objects (4.6 MiB).  The
/// tree is old and clean, so this is a partial's fixed cost plus freeing
/// those.  Panics, so that the probes are reported failed, if no cycle
/// completes within 5 s of the request: the collector dropped it.
fn partial_cycle_ms(gc: &Gc, m: &mut Mutator, budget: Duration) -> f64 {
    const GARBAGE: usize = 150_000;
    let shape = ObjShape::new(2, 1);
    assert!((CYCLE_YOUNG / 2..CYCLE_YOUNG).contains(&(GARBAGE * shape.size_bytes())));
    sampled(budget, || {
        for _ in 0..GARBAGE {
            black_box(m.alloc(&shape).expect("the heap holds a sample"));
        }
        m.parked(|| {
            let done = gc.cycles_completed();
            let t = Instant::now();
            gc.request_partial();
            while gc.cycles_completed() == done {
                assert!(
                    t.elapsed() < Duration::from_secs(5),
                    "requested partial collection never ran"
                );
                std::thread::sleep(Duration::from_micros(50));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
    })
}

/// The table the tablescan probes walk.  Byte values follow the color
/// table: 0 free, 1 interior, 2 an object start.
const TABLE_LEN: usize = 16 << 20;

fn paint(table: &[AtomicU8], byte_at: impl Fn(usize) -> u8) {
    for (i, b) in table.iter().enumerate() {
        b.store(byte_at(i), Ordering::Relaxed);
    }
}

/// GB/s of one pass of `walk` over the whole table.
fn pass_gbps(budget: Duration, mut walk: impl FnMut()) -> f64 {
    sampled(budget, || {
        let t = Instant::now();
        walk();
        TABLE_LEN as f64 / t.elapsed().as_nanos() as f64
    })
}

/// The sweep's skip over free and interior bytes, hopping from one
/// object start to the next.
fn hop_object_starts(table: &[AtomicU8], expect: usize) {
    let (mut g, mut hits) = (0, 0);
    while g < TABLE_LEN {
        g = tablescan::find_byte_not_in(table, g, TABLE_LEN, 1) + 1;
        hits += usize::from(g <= TABLE_LEN);
    }
    assert_eq!(hits, expect);
}

/// Sampled loops [`run_all`] runs, for sharing a time budget among them.
pub const LOOPS: usize = 14;

/// Runs every probe, `budget` of sampling each, one span per probe loop.
pub fn run_all(budget: Duration, rec: &mut Recorder) -> Probes {
    let run = rec.new_run();
    let start = Instant::now();
    let root = rec.push(run, None, "probes", start, start);
    let parent = Some(root);
    let mut p = Probes {
        alloc_ns: rec.within(run, parent, "probe.mutator.alloc", || alloc_ns(1, budget)),
        alloc_2t_ns: rec.within(run, parent, "probe.mutator.alloc_2t", || {
            alloc_ns(2, budget)
        }),
        write_ref_ns: rec.within(run, parent, "probe.mutator.write_ref", || {
            write_ref_ns(GcConfig::generational(), budget)
        }),
        write_ref_nogen_ns: rec.within(run, parent, "probe.mutator.write_ref_nogen", || {
            write_ref_ns(GcConfig::non_generational(), budget)
        }),
        cooperate_ns: rec.within(run, parent, "probe.mutator.cooperate", || {
            cooperate_ns(budget)
        }),
        hist_record_ns: rec.within(run, parent, "probe.obs.hist_record", || {
            hist_record_ns(budget)
        }),
        ..Probes::default()
    };
    (p.alloc_chunk_ns, p.free_batch_ns_per_chunk) =
        rec.within(run, parent, "probe.heap.free_list", || heap_ns(budget));

    let (gc, mut m) = build_tree();
    p.full_cycle_ms = rec.within(run, parent, "probe.collector.full_cycle", || {
        full_cycle_ms(&gc, &mut m, budget)
    });
    p.partial_cycle_ms = rec.within(run, parent, "probe.collector.partial_cycle", || {
        partial_cycle_ms(&gc, &mut m, budget)
    });
    drop(m);
    drop(gc);

    let table: Vec<AtomicU8> = (0..TABLE_LEN).map(|_| AtomicU8::new(0)).collect();
    // Sparse: one object start per 4 KiB.
    paint(&table, |i| if i % 4096 == 0 { 2 } else { 0 });
    p.find_sparse_gbps = rec.within(run, parent, "probe.tablescan.find_sparse", || {
        pass_gbps(budget, || hop_object_starts(&table, TABLE_LEN / 4096))
    });
    // Dense: one every other byte, so every call hits within two bytes.
    paint(&table, |i| if i % 2 == 0 { 2 } else { 1 });
    p.find_dense_gbps = rec.within(run, parent, "probe.tablescan.find_dense", || {
        pass_gbps(budget, || hop_object_starts(&table, TABLE_LEN / 2))
    });
    // The sweep's object-extent scan: 64-granule objects back to back.
    paint(&table, |i| if i % 64 == 0 { 2 } else { 1 });
    p.run_end_gbps = rec.within(run, parent, "probe.tablescan.run_end", || {
        pass_gbps(budget, || {
            let (mut g, mut runs) = (0, 0);
            while g < TABLE_LEN {
                g = tablescan::find_run_end(&table, g + 1, TABLE_LEN, 1);
                runs += 1;
            }
            assert_eq!(runs, TABLE_LEN / 64);
        })
    });
    p.count_gbps = rec.within(run, parent, "probe.tablescan.count", || {
        pass_gbps(budget, || {
            let starts = tablescan::count_matching(&table, 0, TABLE_LEN, 2);
            assert_eq!(starts, TABLE_LEN / 64);
        })
    });
    p.fill_gbps = rec.within(run, parent, "probe.tablescan.fill", || {
        pass_gbps(budget, || {
            tablescan::bulk_fill(black_box(&table), 0, TABLE_LEN, 1)
        })
    });
    rec.close(root, Instant::now());
    p
}
