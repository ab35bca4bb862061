//! Randomized tests for the heap substrate's core invariants, on the
//! deterministic `otf_support::check` harness (fixed seeds, shrink by
//! halving).

use otf_heap::{
    CardTable, Chunk, Color, ColorTable, FreeLists, Header, HeapSpace, ObjShape, GRANULE,
};
use otf_support::check::{run_cases, Gen};

const CASES: u64 = 256;

/// Header encode/decode is a bijection over the valid field ranges.
#[test]
fn header_round_trip() {
    run_cases("header_round_trip", 0x4EAD, CASES, |g| {
        let refs = g.usize_in(0..5000);
        let data = g.usize_in(0..5000);
        let class = g.u32_in(0..1_000_000);
        let shape = ObjShape::new(refs, data).with_class(class);
        let h = Header::decode(shape.encode_header());
        assert_eq!(h.ref_slots(), refs);
        assert_eq!(h.class_id(), class);
        assert_eq!(h.size_granules(), shape.size_granules());
        assert_eq!(h.size_granules(), (1 + refs + data).div_ceil(2));
    });
}

/// Shape sizes are monotone and granule-rounded.
#[test]
fn shape_size_invariants() {
    run_cases("shape_size_invariants", 0x5A47, CASES, |g| {
        let refs = g.usize_in(0..1000);
        let data = g.usize_in(0..1000);
        let s = ObjShape::new(refs, data);
        assert!(s.size_granules() >= 1);
        assert_eq!(s.size_bytes() % GRANULE, 0);
        assert!(s.size_bytes() >= (1 + refs + data) * 8);
        assert!(s.size_bytes() < (1 + refs + data) * 8 + GRANULE);
    });
}

/// Free lists conserve granules and never hand out overlapping chunks.
#[test]
fn freelist_no_overlap_and_conservation() {
    run_cases("freelist_no_overlap_and_conservation", 0xF4EE, 128, |g| {
        let ops = g.vec_of(1..120, |g| (g.u32_in(1..200), g.u32_in(1..400)));
        let f = FreeLists::new();
        // Seed with one large region [0, 100_000).
        let total = 100_000u64;
        f.insert(Chunk::new(0, total as u32));
        let mut held: Vec<Chunk> = Vec::new();
        let mut held_granules = 0u64;

        for (i, (min, pref)) in ops.into_iter().enumerate() {
            let (min, pref) = (min, min.max(pref));
            if i % 3 == 2 && !held.is_empty() {
                // Give one back.
                let c = held.swap_remove(i % held.len());
                held_granules -= c.len as u64;
                f.insert(c);
            } else if let Some(c) = f.alloc(min, pref) {
                assert!(c.len >= min && c.len <= pref);
                // No overlap with anything we already hold.
                for h in &held {
                    assert!(
                        c.end() <= h.start || h.end() <= c.start,
                        "overlap: {c:?} vs {h:?}"
                    );
                }
                held_granules += c.len as u64;
                held.push(c);
            }
            assert_eq!(f.free_granules() + held_granules, total);
        }
    });
}

/// Card geometry: every byte maps into exactly one card whose granule
/// range covers it.
#[test]
fn card_geometry() {
    run_cases("card_geometry", 0xCA4D, CASES, |g| {
        let shift = g.u32_in(4..13);
        let byte = g.usize_in(0..1 << 20);
        let card_size = 1usize << shift;
        let t = CardTable::new(1 << 20, card_size);
        let card = t.card_of_byte(byte);
        let (gs, ge) = t.granule_range(card);
        let granule = byte / GRANULE;
        assert!(gs <= granule && granule < ge);
        assert_eq!(ge - gs, card_size / GRANULE);
        // Marking the byte dirties exactly that card.
        t.mark_byte(byte);
        assert!(t.is_dirty(card));
        assert_eq!(t.count_dirty(t.len()), 1);
    });
}

/// The color table is a faithful parse map: installing random objects
/// back-to-back and walking the heap sees exactly those objects, in
/// address order, with correct headers.
#[test]
fn heap_parse_integrity() {
    run_cases("heap_parse_integrity", 0x9A45E, 128, |g| {
        let shapes = g.vec_of(1..60, |g| (g.usize_in(0..6), g.usize_in(0..10)));
        let heap = HeapSpace::new(1 << 20, 1 << 20);
        let mut installed = Vec::new();
        for (refs, data) in shapes {
            let shape = ObjShape::new(refs, data).with_class((refs * 16 + data) as u32);
            let n = shape.size_granules() as u32;
            let chunk = heap.alloc_chunk(n, n).unwrap();
            let obj = heap.install_object(chunk.start as usize, &shape, Color::White);
            installed.push((obj, shape));
        }
        let mut seen = Vec::new();
        heap.for_each_object_start(1, heap.frontier_granule(), |obj, color, header| {
            seen.push((obj, color, header.ref_slots(), header.class_id()));
        });
        assert_eq!(seen.len(), installed.len());
        for ((obj, shape), (sobj, scolor, srefs, sclass)) in installed.iter().zip(&seen) {
            assert_eq!(obj, sobj);
            assert_eq!(*scolor, Color::White);
            assert_eq!(shape.ref_slots(), *srefs);
            assert_eq!(shape.class_id(), *sclass);
        }
    });
}

// ---------------------------------------------------------------------
// Differential tests: the word-at-a-time table kernels against
// independent byte-loop oracles written on the tables' byte-level public
// API.  Table sizes and range endpoints are drawn so that scans start
// unaligned, end mid-word, and cross word boundaries inside runs.
// ---------------------------------------------------------------------

/// A color table populated with random object/interior/free runs —
/// including single-byte noise — so every kernel sees runs that straddle
/// `u64` boundaries as well as dense color churn.
fn random_color_table(g: &mut Gen) -> ColorTable {
    let len = g.usize_in(1..300);
    let t = ColorTable::new(len);
    let mut i = 0;
    while i < len {
        let run = g.usize_in(1..50).min(len - i);
        let color = match g.usize_in(0..6) {
            0 => Color::Free,
            1 => Color::Interior,
            2 => Color::White,
            3 => Color::Yellow,
            4 => Color::Gray,
            _ => Color::Black,
        };
        for k in 0..run {
            t.set(i + k, color);
        }
        i += run;
    }
    t
}

/// Word-kernel `next_color_above` / `object_end` / `count_matching` and
/// the sweep's counting scans `skip_survivors` / `dead_run_end` match
/// byte loops over `get_raw_relaxed`.
#[test]
fn color_kernels_match_byte_loops() {
    run_cases("color_kernels_match_byte_loops", 0x50AA, 256, |g| {
        let t = random_color_table(g);
        let to = g.usize_in(0..t.len() + 1);
        let from = g.usize_in(0..to + 1);

        let start_oracle = (from..to)
            .find(|&i| t.get_raw_relaxed(i) > Color::Interior as u8)
            .unwrap_or(to);
        assert_eq!(t.next_color_above(from, to, Color::Interior), start_oracle);

        // `Free` passes no object color; the others pass exactly one.
        for pass in [Color::Free, Color::White, Color::Yellow, Color::Black] {
            let stops = |b: u8| b > Color::Interior as u8 && b != pass as u8;
            let next = (from..to)
                .find(|&i| stops(t.get_raw_relaxed(i)))
                .unwrap_or(to);
            let skipped = || (from..next).map(|i| t.get_raw_relaxed(i));
            let objects = skipped().filter(|&b| b > Color::Interior as u8).count();
            let granules = skipped().filter(|&b| b != Color::Free as u8).count();
            assert_eq!(t.skip_survivors(from, to, pass), (next, objects, granules));
        }

        for clear in [Color::White, Color::Yellow] {
            let in_run = |b: u8| b == clear as u8 || b == Color::Interior as u8;
            let end = (from..to)
                .find(|&i| !in_run(t.get_raw_relaxed(i)))
                .unwrap_or(to);
            let objects = (from..end)
                .filter(|&i| t.get_raw_relaxed(i) == clear as u8)
                .count();
            assert_eq!(t.dead_run_end(from, to, clear), (end, objects));
        }

        let above_oracle = (from..to)
            .find(|&i| t.get_raw_relaxed(i) > Color::Yellow as u8)
            .unwrap_or(to);
        assert_eq!(t.next_color_above(from, to, Color::Yellow), above_oracle);

        if from < to {
            let end_oracle = (from + 1..to)
                .find(|&i| t.get_raw_relaxed(i) != Color::Interior as u8)
                .unwrap_or(to);
            assert_eq!(t.object_end(from, to), end_oracle);
        }

        for color in [Color::Free, Color::Interior, Color::Black] {
            let count_oracle = (from..to)
                .filter(|&i| t.get_raw_relaxed(i) == color as u8)
                .count();
            assert_eq!(t.count_matching(from, to, color), count_oracle);
        }
    });
}

/// Word-kernel `fill` writes exactly the requested range.
#[test]
fn color_fill_matches_byte_loop() {
    run_cases("color_fill_matches_byte_loop", 0x50AB, 256, |g| {
        let t = random_color_table(g);
        let before: Vec<u8> = (0..t.len()).map(|i| t.get_raw_relaxed(i)).collect();
        let to = g.usize_in(0..t.len() + 1);
        let from = g.usize_in(0..to + 1);
        let color = if g.bool() {
            Color::Free
        } else {
            Color::Interior
        };
        t.fill(from, to - from, color);
        for (i, &b) in before.iter().enumerate() {
            let expect = if (from..to).contains(&i) {
                color as u8
            } else {
                b
            };
            assert_eq!(t.get_raw_relaxed(i), expect, "byte {i} of [{from}, {to})");
        }
    });
}

/// Word-kernel `next_dirty` / `count_dirty` / `clear_range` match byte
/// loops over `is_dirty`.
#[test]
fn card_kernels_match_byte_loops() {
    run_cases("card_kernels_match_byte_loops", 0x50AC, 256, |g| {
        let cards = g.usize_in(1..400);
        let t = CardTable::new(cards * 16, 16);
        assert_eq!(t.len(), cards);
        // Sparse-to-dense random dirtying.
        let marks = g.usize_in(0..cards + 1);
        for _ in 0..marks {
            t.mark_card(g.usize_in(0..cards));
        }

        let to = g.usize_in(0..cards + 1);
        let from = g.usize_in(0..to + 1);
        let oracle = (from..to).find(|&c| t.is_dirty(c));
        assert_eq!(t.next_dirty(from, to), oracle);

        let count_oracle = (0..to).filter(|&c| t.is_dirty(c)).count();
        assert_eq!(t.count_dirty(to), count_oracle);

        let mut walked = Vec::new();
        t.for_each_dirty(cards, |c| walked.push(c));
        let walk_oracle: Vec<usize> = (0..cards).filter(|&c| t.is_dirty(c)).collect();
        assert_eq!(walked, walk_oracle);

        let kept_oracle = (to..cards).filter(|&c| t.is_dirty(c)).count();
        t.clear_range(0, to);
        assert_eq!(t.next_dirty(0, to), None);
        assert_eq!(t.count_dirty(cards), kept_oracle);
        t.clear_range(to, cards);
        assert_eq!(t.count_dirty(cards), 0);
    });
}

/// `object_end` (interior scanning) always agrees with the header.
#[test]
fn object_end_matches_header() {
    run_cases("object_end_matches_header", 0x0B1E, 128, |g| {
        let shapes = g.vec_of(1..40, |g| (g.usize_in(0..4), g.usize_in(0..12)));
        let heap = HeapSpace::new(1 << 20, 1 << 20);
        for (refs, data) in shapes {
            let shape = ObjShape::new(refs, data);
            let n = shape.size_granules() as u32;
            let chunk = heap.alloc_chunk(n, n).unwrap();
            let obj = heap.install_object(chunk.start as usize, &shape, Color::Yellow);
            let end = heap
                .colors()
                .object_end(obj.granule(), heap.frontier_granule());
            assert_eq!(end - obj.granule(), shape.size_granules());
        }
    });
}
