//! Heap invariant verification.
//!
//! [`Gc::verify_heap`] walks the heap at a quiescent point (no collection
//! in progress, no mutators running) and checks the structural invariants
//! the collector relies on.  It is meant for tests, debugging and
//! paranoid shutdown checks — it is not called on any hot path.
//!
//! Checked invariants:
//!
//! 1. **Parse integrity** — the color table describes a valid sequence of
//!    objects and free runs; every object start granule carries a valid
//!    header whose size agrees with its `Interior` run.
//! 2. **Free-pool agreement** — every chunk in the free pool covers only
//!    `Free` granules, chunks don't overlap, and the pool's total matches
//!    its accounting.
//! 3. **Reference validity** — every non-null reference slot of every
//!    live object points at a live object start (no dangling pointers
//!    into reclaimed space).
//! 4. **Inter-generational invariant** (simple generational mode, between
//!    collections) — a clear-colored or allocation-colored object
//!    referenced from a black object lies on a dirty card, so the next
//!    partial collection will find it.
//!
//! [`Gc::verify_heap`]: crate::Gc::verify_heap

use otf_heap::{Color, Header, ObjectRef};

use crate::config::Mode;
use crate::shared::GcShared;

/// A violated heap invariant, as reported by
/// [`Gc::verify_heap`](crate::Gc::verify_heap).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HeapViolation {
    /// A granule that should start an object has no valid header.
    BadHeader {
        /// Granule index of the alleged object start.
        granule: usize,
    },
    /// An object's `Interior` run disagrees with its header size.
    SizeMismatch {
        /// The object.
        object: ObjectRef,
        /// Size according to the header, in granules.
        header_granules: usize,
        /// Size according to the color table, in granules.
        table_granules: usize,
    },
    /// A reference slot points at something that is not a live object
    /// start.
    DanglingReference {
        /// The referencing object.
        from: ObjectRef,
        /// The slot index.
        slot: usize,
        /// The bogus target.
        to: ObjectRef,
    },
    /// A free-pool chunk covers a granule that is not `Free`.
    FreeChunkOverObject {
        /// Start granule of the chunk.
        start: usize,
        /// The offending granule inside it.
        granule: usize,
        /// What the color table says is there.
        color: Color,
    },
    /// Two free-pool chunks overlap: some space was freed twice.
    FreeChunksOverlap {
        /// Start granule of the first chunk.
        first: usize,
        /// Start granule of the second, which begins inside the first.
        second: usize,
    },
    /// The free-pool chunks do not add up to the pool's free total.
    FreePoolTotal {
        /// Granules the chunks cover.
        chunks: u64,
        /// Granules the pool accounts as free.
        accounted: u64,
    },
    /// A black (old) object references a young object but its card is
    /// clean — the next partial collection would miss the pointer.
    MissedIntergenPointer {
        /// The old object.
        from: ObjectRef,
        /// The slot index.
        slot: usize,
        /// The young target.
        to: ObjectRef,
    },
}

impl std::fmt::Display for HeapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapViolation::BadHeader { granule } => {
                write!(f, "granule {granule} has an object color but no valid header")
            }
            HeapViolation::SizeMismatch { object, header_granules, table_granules } => write!(
                f,
                "{object}: header says {header_granules} granules, color table says {table_granules}"
            ),
            HeapViolation::DanglingReference { from, slot, to } => {
                write!(f, "{from} slot {slot} dangles to {to}")
            }
            HeapViolation::FreeChunkOverObject { start, granule, color } => write!(
                f,
                "free chunk at granule {start} covers granule {granule} colored {color}"
            ),
            HeapViolation::FreeChunksOverlap { first, second } => write!(
                f,
                "free chunk at granule {second} overlaps the one at granule {first}"
            ),
            HeapViolation::FreePoolTotal { chunks, accounted } => write!(
                f,
                "free chunks cover {chunks} granules, the pool accounts {accounted}"
            ),
            HeapViolation::MissedIntergenPointer { from, slot, to } => write!(
                f,
                "old object {from} slot {slot} references young {to} on a clean card"
            ),
        }
    }
}

impl std::error::Error for HeapViolation {}

impl GcShared {
    /// Walks the heap and returns every violated invariant (empty = OK).
    ///
    /// Only meaningful while no collection is running and mutators are
    /// quiescent; concurrent activity produces false positives, so the
    /// caller is responsible for quiescence.
    pub(crate) fn verify_heap(&self) -> Vec<HeapViolation> {
        let mut out = Vec::new();
        let colors = self.heap.colors();
        let end = self.heap.frontier_granule();

        // Pass 1: parse integrity + collect live object starts.
        let mut live_starts: Vec<ObjectRef> = Vec::new();
        let mut g = 1usize;
        while g < end {
            match colors.get(g) {
                Color::Free | Color::Interior => {
                    g += 1;
                }
                _object_color => {
                    let obj = ObjectRef::from_granule(g);
                    let raw = self
                        .heap
                        .arena()
                        .load_word(obj.word(), std::sync::atomic::Ordering::Acquire);
                    if !Header::is_valid(raw) {
                        out.push(HeapViolation::BadHeader { granule: g });
                        g += 1;
                        continue;
                    }
                    let header = Header::decode(raw);
                    let table_end = colors.object_end(g, end);
                    if table_end - g != header.size_granules() {
                        out.push(HeapViolation::SizeMismatch {
                            object: obj,
                            header_granules: header.size_granules(),
                            table_granules: table_end - g,
                        });
                    }
                    live_starts.push(obj);
                    g = table_end;
                }
            }
        }

        // Pass 2: every reference slot targets a live object start.
        let is_gen_simple = matches!(
            self.config.mode,
            Mode::Generational(crate::config::Promotion::Simple)
        );
        for &obj in &live_starts {
            let header = self.heap.arena().header(obj);
            let from_color = colors.get(obj.granule());
            for slot in 0..header.ref_slots() {
                let target = self.heap.arena().load_ref_slot(obj, slot);
                if target.is_null() {
                    continue;
                }
                let tg = target.granule();
                if tg >= end || !colors.get(tg).is_object() {
                    out.push(HeapViolation::DanglingReference {
                        from: obj,
                        slot,
                        to: target,
                    });
                    continue;
                }
                // Inter-generational invariant (simple promotion only:
                // with aging, young objects may be reachable from young
                // parents of any color between cycles).
                if is_gen_simple
                    && from_color == Color::Black
                    && matches!(colors.get(tg), Color::White | Color::Yellow)
                    && !self.cards.is_dirty(self.cards.card_of_byte(obj.byte()))
                {
                    out.push(HeapViolation::MissedIntergenPointer {
                        from: obj,
                        slot,
                        to: target,
                    });
                }
            }
        }

        // Pass 3: free pool agrees with the color table and with itself.
        let chunks = self.heap.free_list_snapshot();
        for c in &chunks {
            for gg in c.start as usize..c.end() as usize {
                let color = colors.get(gg);
                if color != Color::Free {
                    out.push(HeapViolation::FreeChunkOverObject {
                        start: c.start as usize,
                        granule: gg,
                        color,
                    });
                    break;
                }
            }
        }
        for w in chunks.windows(2) {
            if w[0].end() > w[1].start {
                out.push(HeapViolation::FreeChunksOverlap {
                    first: w[0].start as usize,
                    second: w[1].start as usize,
                });
            }
        }
        let pooled: u64 = chunks.iter().map(|c| c.len as u64).sum();
        let accounted = self.heap.free_list_granules();
        if pooled != accounted {
            out.push(HeapViolation::FreePoolTotal {
                chunks: pooled,
                accounted,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use crate::stats::CycleKind;
    use otf_heap::ObjShape;

    fn setup() -> GcShared {
        GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        )
    }

    fn alloc(sh: &GcShared, refs: usize) -> ObjectRef {
        let shape = ObjShape::new(refs, 1);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap
            .install_object(c.start as usize, &shape, sh.colors.allocation_color())
    }

    #[test]
    fn clean_heap_verifies() {
        let sh = setup();
        let a = alloc(&sh, 2);
        let b = alloc(&sh, 0);
        sh.heap.arena().store_ref_slot(a, 0, b);
        assert!(sh.verify_heap().is_empty());
    }

    #[test]
    fn heap_verifies_after_cycles() {
        let sh = setup();
        let mut cx = CycleCx::new(&sh);
        let root = alloc(&sh, 1);
        sh.add_global_root(root);
        for _ in 0..50 {
            let o = alloc(&sh, 1);
            sh.heap.arena().store_ref_slot(o, 0, root);
        }
        sh.run_cycle(CycleKind::Partial, &mut cx);
        sh.run_cycle(CycleKind::Full, &mut cx);
        let violations = sh.verify_heap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn detects_dangling_reference() {
        let sh = setup();
        let a = alloc(&sh, 1);
        let b = alloc(&sh, 0);
        sh.heap.arena().store_ref_slot(a, 0, b);
        // Manually clobber b as if it were (wrongly) freed.
        sh.heap.colors().set(b.granule(), Color::Free);
        let v = sh.verify_heap();
        assert!(
            v.iter()
                .any(|x| matches!(x, HeapViolation::DanglingReference { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_missed_intergen_pointer() {
        let sh = setup();
        let old = alloc(&sh, 1);
        sh.heap.colors().set(old.granule(), Color::Black);
        let young = alloc(&sh, 0);
        sh.heap.arena().store_ref_slot(old, 0, young);
        // No card mark: the verifier must flag it...
        let v = sh.verify_heap();
        assert!(
            v.iter()
                .any(|x| matches!(x, HeapViolation::MissedIntergenPointer { .. })),
            "{v:?}"
        );
        // ...and marking the card fixes it.
        sh.cards.mark_byte(old.byte());
        assert!(sh.verify_heap().is_empty());
    }

    #[test]
    fn detects_free_chunk_over_object() {
        let sh = setup();
        let a = alloc(&sh, 0);
        // Lie to the pool: insert a "free" chunk right on top of a.
        sh.heap
            .free_chunk_batch(&[otf_heap::Chunk::new(a.raw() / 16, 1)]);
        let v = sh.verify_heap();
        assert!(
            v.iter()
                .any(|x| matches!(x, HeapViolation::FreeChunkOverObject { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_space_freed_twice() {
        let sh = setup();
        // Never installed on, so its granules are still `Free`.
        let c = sh.heap.alloc_chunk(4, 4).unwrap();
        sh.heap.free_chunk_batch(&[c]);
        sh.heap.free_chunk_batch(&[c]);
        let g = c.start as usize;
        let v = sh.verify_heap();
        assert_eq!(
            v,
            [HeapViolation::FreeChunksOverlap {
                first: g,
                second: g
            }]
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = HeapViolation::BadHeader { granule: 7 };
        assert!(v.to_string().contains("granule 7"));
    }
}
