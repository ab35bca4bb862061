//! Shared building blocks for the synthetic workloads.

use otf_gc::{Mutator, ObjShape, ObjectRef};
use otf_support::rand::StdRng;

/// Class id for reference-array objects.
pub const CLASS_ARRAY: u32 = 1;
/// Class id for plain data objects ("strings", buffers).
pub const CLASS_DATA: u32 = 2;
/// Class id for record/node objects (refs + data).
pub const CLASS_NODE: u32 = 3;

/// Allocates an array of `len` reference slots.
///
/// # Panics
///
/// Panics on out-of-memory — the workloads are sized to fit the paper's
/// 32 MB heap, so exhaustion is a configuration error.
pub fn alloc_array(m: &mut Mutator, len: usize) -> ObjectRef {
    m.alloc(&ObjShape::new(len, 0).with_class(CLASS_ARRAY))
        .expect("workload out of memory")
}

/// Allocates a pure data object of `words` payload words.
///
/// # Panics
///
/// Panics on out-of-memory.
pub fn alloc_data(m: &mut Mutator, words: usize) -> ObjectRef {
    m.alloc(&ObjShape::new(0, words).with_class(CLASS_DATA))
        .expect("workload out of memory")
}

/// Allocates a node with `refs` reference slots and `words` data words.
///
/// # Panics
///
/// Panics on out-of-memory.
pub fn alloc_node(m: &mut Mutator, refs: usize, words: usize) -> ObjectRef {
    m.alloc(&ObjShape::new(refs, words).with_class(CLASS_NODE))
        .expect("workload out of memory")
}

/// A deterministic RNG for workload `seed` and stream `stream`.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream),
    )
}

/// Fills the data words of `obj` with a checkable pattern derived from
/// `tag`.
pub fn fill_data(m: &mut Mutator, obj: ObjectRef, words: usize, tag: u64) {
    for i in 0..words {
        m.write_data(obj, i, tag.wrapping_add(i as u64));
    }
}

/// Verifies the pattern written by [`fill_data`]; panics on corruption
/// (this is how workloads double as correctness checks).
pub fn check_data(m: &Mutator, obj: ObjectRef, words: usize, tag: u64) {
    for i in 0..words {
        let got = m.read_data(obj, i);
        assert_eq!(
            got,
            tag.wrapping_add(i as u64),
            "heap corruption in {obj} word {i}"
        );
    }
}

/// Picks a random element index for a container of `len` items.
pub fn pick(rng: &mut StdRng, len: usize) -> usize {
    rng.random_range(0..len)
}

/// A small computation kernel: `rounds` of integer mixing over `x`.
///
/// The synthetic workloads intersperse this "think time" with their
/// allocations so that the ratio of mutator work to allocation rate is in
/// the same regime as the paper's 1999 JVM benchmarks — a compiled Rust
/// loop that only allocates would outrun the collector by an order of
/// magnitude more than SPECjvm ever did.
#[inline]
pub fn mix(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otf_gc::{Gc, GcConfig};

    #[test]
    fn allocators_tag_class_ids() {
        let gc = Gc::new(
            GcConfig::generational()
                .with_max_heap(2 << 20)
                .with_initial_heap(2 << 20),
        );
        let mut m = gc.mutator();
        let a = alloc_array(&mut m, 4);
        let d = alloc_data(&mut m, 4);
        let n = alloc_node(&mut m, 2, 2);
        assert_eq!(m.header(a).class_id(), CLASS_ARRAY);
        assert_eq!(m.header(d).class_id(), CLASS_DATA);
        assert_eq!(m.header(n).class_id(), CLASS_NODE);
        assert_eq!(m.header(a).ref_slots(), 4);
        assert_eq!(m.header(d).ref_slots(), 0);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn fill_and_check_round_trip() {
        let gc = Gc::new(
            GcConfig::generational()
                .with_max_heap(2 << 20)
                .with_initial_heap(2 << 20),
        );
        let mut m = gc.mutator();
        let d = alloc_data(&mut m, 8);
        fill_data(&mut m, d, 8, 1000);
        check_data(&m, d, 8, 1000);
        drop(m);
        gc.shutdown();
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let mut a = rng_for(7, 1);
        let mut b = rng_for(7, 1);
        let mut c = rng_for(7, 2);
        let (x, y, z) = (pick(&mut a, 1000), pick(&mut b, 1000), pick(&mut c, 1000));
        assert_eq!(x, y);
        // Different stream almost surely differs; don't assert inequality
        // (could collide), just exercise it.
        let _ = z;
    }

    #[test]
    fn mix_is_pure_and_varies_with_rounds() {
        assert_eq!(mix(42, 8), mix(42, 8));
        assert_ne!(mix(42, 8), mix(42, 9));
        assert_ne!(mix(42, 8), mix(43, 8));
    }
}
