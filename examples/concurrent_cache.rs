//! A domain-specific scenario: a shared in-heap cache served by worker
//! threads while the collector runs on-the-fly underneath.
//!
//! Run with `cargo run --release --example concurrent_cache`.
//!
//! This exercises parts of the API the benchmark workloads don't:
//!
//! * **global roots** — the cache's bucket table is registered as a global
//!   root so every thread (and the collector) can reach it without any
//!   thread keeping it on its shadow stack;
//! * **cross-thread object sharing** — workers publish entries into the
//!   shared table through the write barrier and read each other's
//!   entries;
//! * **`parked`** — workers periodically "wait for requests" while parked
//!   so the collector never stalls on them.

use std::sync::atomic::{AtomicU64, Ordering};

use otf_gengc::gc::{Gc, GcConfig};
use otf_gengc::heap::ObjShape;

const BUCKETS: usize = 4096;
const WORKERS: usize = 4;
const OPS_PER_WORKER: usize = 400_000;

fn main() {
    let gc = Gc::new(
        GcConfig::generational()
            .with_max_heap(16 << 20)
            .with_young_size(1 << 20),
    );

    // Build the shared bucket table and pin it with a global root.
    let table = {
        let mut setup = gc.mutator();
        let table = setup.alloc(&ObjShape::new(BUCKETS, 0)).expect("oom");
        setup.root_push(table);
        setup.add_global_root(table);
        setup.root_pop();
        table
        // `setup` drops here; the global root keeps the table alive.
    };

    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);

    std::thread::scope(|s| {
        for worker in 0..WORKERS as u64 {
            let mut m = gc.mutator();
            let hits = &hits;
            let misses = &misses;
            s.spawn(move || {
                // An entry: key + value words, no outgoing refs.
                let entry_shape = ObjShape::new(0, 2);
                let mut state = worker * 0x9E37_79B9 + 1;
                for op in 0..OPS_PER_WORKER {
                    // xorshift key stream
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = state % 60_000;
                    let bucket = (key as usize) % BUCKETS;

                    let cur = m.read_ref(table, bucket);
                    if !cur.is_null() && m.read_data(cur, 0) == key {
                        hits.fetch_add(1, Ordering::Relaxed);
                        // Validate the cached value.
                        assert_eq!(m.read_data(cur, 1), key.wrapping_mul(31));
                    } else {
                        misses.fetch_add(1, Ordering::Relaxed);
                        // "Compute" and publish a fresh entry; the old one
                        // (if any) becomes garbage for the collector.
                        let entry = m.alloc(&entry_shape).expect("oom");
                        m.write_data(entry, 0, key);
                        m.write_data(entry, 1, key.wrapping_mul(31));
                        m.write_ref(table, bucket, entry);
                    }

                    if op % 50_000 == 0 {
                        // Simulate waiting for the next request batch.
                        m.parked(std::thread::yield_now);
                    }
                    m.cooperate();
                }
            });
        }
    });

    let stats = gc.stats();
    println!(
        "{} workers x {} ops: {} hits / {} misses",
        WORKERS,
        OPS_PER_WORKER,
        hits.load(Ordering::Relaxed),
        misses.load(Ordering::Relaxed)
    );
    println!(
        "collections: {} partial + {} full (GC active {:.1?} of {:.1?}), heap used {} KB",
        stats.partial_count(),
        stats.full_count(),
        stats.gc_active,
        stats.elapsed,
        gc.used_bytes() / 1024
    );
    assert!(
        hits.load(Ordering::Relaxed) > 0,
        "cache never hit — table lost?"
    );
    gc.shutdown();
    println!("done.");
}
