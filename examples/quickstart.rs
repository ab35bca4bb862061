//! Quickstart: a guided tour of the on-the-fly generational collector.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Demonstrates the whole public API surface: creating a collector,
//! attaching a mutator, allocating objects, rooting them on the shadow
//! stack, writing references through the DLG write barrier, watching
//! objects get promoted to the old generation (turn black), and reading
//! the collection statistics.

use otf_gengc::gc::{CycleKind, Gc, GcConfig};
use otf_gengc::heap::{Color, ObjShape};

fn main() {
    // The paper's best configuration: simple promotion, 4 MB young
    // generation, 16-byte cards ("object marking"), 1→32 MB heap.  We
    // shrink the young generation so collections happen quickly here.
    let config = GcConfig::generational()
        .with_max_heap(16 << 20)
        .with_young_size(512 << 10);
    let gc = Gc::new(config);
    let mut m = gc.mutator();

    println!("== 1. allocate a linked list and keep it rooted ==");
    let node = ObjShape::new(1, 1); // 1 reference slot, 1 data word
    let head = m.alloc(&node).expect("allocation failed");
    m.write_data(head, 0, 0);
    m.root_push(head); // shadow-stack root: the collector sees this
    let mut tail = head;
    for i in 1..1000u64 {
        let next = m.alloc(&node).expect("allocation failed");
        m.write_data(next, 0, i);
        m.write_ref(tail, 0, next); // the DLG write barrier
        tail = next;
    }
    println!("   head is {head}, color = {}", gc.debug_color_of(head));

    println!("== 2. allocate garbage until collections run ==");
    let junk = ObjShape::new(0, 6);
    while gc.cycles_completed() < 3 {
        for _ in 0..10_000 {
            let _ = m.alloc(&junk).expect("allocation failed");
        }
        m.cooperate(); // the safe point an on-the-fly mutator must visit
    }

    println!("== 3. the list survived and was promoted (black = old) ==");
    // Wait for the in-flight cycle to finish so colors are settled.
    m.parked(|| gc.collect_full_blocking());
    let mut cur = head;
    let mut len = 0u64;
    while !cur.is_null() {
        assert_eq!(m.read_data(cur, 0), len, "heap corruption!");
        len += 1;
        cur = m.read_ref(cur, 0);
    }
    println!("   walked {len} nodes intact");
    assert_eq!(len, 1000);
    // After a full collection everything live was re-marked; in the
    // simple generational variant surviving = promoted.
    assert_eq!(gc.debug_color_of(head), Color::Black);
    println!("   head color is now {}", gc.debug_color_of(head));

    println!("== 4. inter-generational pointers via the card table ==");
    // Store a brand-new (young) object into the old list head: the write
    // barrier marks the head's card; the next partial collection scans it
    // and keeps the young object alive.
    let young = m.alloc(&node).expect("allocation failed");
    m.write_data(young, 0, 4242);
    m.write_ref(head, 0, young);
    let before = gc.cycles_completed();
    while gc.cycles_completed() == before {
        for _ in 0..10_000 {
            let _ = m.alloc(&junk).expect("allocation failed");
        }
        m.cooperate();
    }
    m.parked(|| gc.collect_full_blocking());
    assert_eq!(m.read_data(m.read_ref(head, 0), 0), 4242);
    println!("   young object survived through the dirty card");

    println!("== 5. statistics ==");
    drop(m);
    let stats = gc.stats();
    println!(
        "   {} partial + {} full collections, GC active {:.1?} of {:.1?}",
        stats.partial_count(),
        stats.full_count(),
        stats.gc_active,
        stats.elapsed
    );
    for kind in [CycleKind::Partial, CycleKind::Full] {
        let ms = stats.mean_over(kind, |c| c.duration.as_secs_f64() * 1e3);
        let freed = stats.mean_over(kind, |c| c.objects_freed as f64);
        if let (Some(ms), Some(freed)) = (ms, freed) {
            println!("   avg {kind}: {ms:.2} ms, {freed:.0} objects freed");
        }
    }
    println!(
        "   total allocated: {} objects / {} KB",
        stats.objects_allocated,
        stats.bytes_allocated / 1024
    );
    gc.shutdown();
    println!("done.");
}
