//! Dirty-card scanning (`ClearCards`) and full-collection initialization
//! (`InitFullCollection`) — Figures 3 and 6 of the paper.
//!
//! Both run as steps of the cycle (DESIGN.md §4.7): the card scan inside
//! the second handshake window (simple promotion before the color
//! toggle, aging after it — Figure 2 vs Figure 5 order), the
//! initialization pass in the init bucket of full collections.
//!
//! Like the sweep, both passes find objects through the color table
//! (DESIGN.md §4.17): a word skip to the next start byte above a floor,
//! never a header-driven parse.  An object belongs to the card its start
//! byte is on; a card holding only the tail of an object sees `Interior`
//! bytes there and skips them.

use otf_heap::{Color, ObjectRef, GRANULE};

use crate::cycle::CycleCx;
use crate::shared::GcShared;

impl GcShared {
    /// Number of cards covering the allocated extent of the heap.
    fn cards_in_use(&self) -> usize {
        let frontier_byte = self.heap.frontier_granule() * GRANULE;
        if frontier_byte == 0 {
            0
        } else {
            self.cards.card_of_byte(frontier_byte - 1) + 1
        }
    }

    /// `ClearCards` (Figures 3 and 6): for every dirty card in use, clear
    /// the mark and visit the objects starting on the card, found by a
    /// word skip to each start byte above a floor.  The promotion policy
    /// picks the floor, the per-object step and the re-mark:
    ///
    /// * **Simple promotion** (Figure 3): floor `Yellow`, so the skip lands
    ///   on `Gray`/`Black` (old) starts only.  A `Black → Gray` CAS
    ///   (AcqRel, licensing the header read after it) hands each black one
    ///   to the trace, which re-scans it for inter-generational pointers.
    ///   The scan runs before the toggle, while every mutator is in
    ///   `sync1`/`sync2` and marks no card (§7.1): clear-then-scan needs no
    ///   re-mark, and every young object a cleared card pointed at is
    ///   traced (and promoted) by this very cycle.  DESIGN.md §4.9 records
    ///   what goes wrong when the scan moves after the toggle.
    /// * **Aging** (Figure 6, in the §7.2 clear/check/re-mark order):
    ///   floor `Interior`, then an acquire re-read of the start byte
    ///   (pairing with the allocator's publication) before the header.
    ///   The mutator stores first and marks second, so either the check
    ///   sees its pointer or its mark survives the clear.  A tenured object
    ///   (black, age at the threshold) is an inter-generational root whose
    ///   sons are shaded under the clear-color rule.  The card is re-marked
    ///   if *any* object on it still references a young one: a young parent
    ///   of a young son may be tenured while its son is still young, and
    ///   Figure 6's literal condition, tenured parents only, would drop
    ///   that pointer (DESIGN.md §4).
    pub(crate) fn clear_cards(&self, cx: &mut CycleCx) {
        let threshold = self.config.aging_threshold();
        let floor = match threshold {
            None => Color::Yellow,
            Some(_) => Color::Interior,
        };
        let n_cards = self.cards_in_use();
        cx.stats.cards_in_use = n_cards as u64;
        cx.touch_card_range(0, n_cards);
        let colors = self.heap.colors();
        let ages = self.heap.ages();
        let arena = self.heap.arena();
        // Word-skip the (typically long) clean runs between dirty cards.
        // next_dirty's acquire re-read of the dirty byte pairs with the
        // mutator's release mark, so the pointer stores that preceded a
        // mark we observe are visible to the check.
        let mut from = 0;
        while let Some(card) = self.cards.next_dirty(from, n_cards) {
            from = card + 1;
            cx.stats.dirty_cards += 1;
            self.cards.clear(card);
            let (gs, ge) = self.cards.granule_range(card);
            let ge = ge.min(self.heap.frontier_granule());
            cx.touch_color_range(gs, ge);
            let mut remark = false;
            let mut g = gs;
            loop {
                g = colors.next_color_above(g, ge, floor);
                if g >= ge {
                    break;
                }
                let obj = ObjectRef::from_granule(g);
                match threshold {
                    None => {
                        if colors.cas(g, Color::Black, Color::Gray) {
                            let size = arena.header(obj).size_granules();
                            cx.mark_stack.push(obj);
                            cx.stats.intergen_objects += 1;
                            cx.stats.intergen_bytes += (size * GRANULE) as u64;
                            cx.touch_object_granules(g, size);
                        }
                    }
                    Some(threshold) => {
                        let color = colors.get(g); // acquire pairs with allocation
                        let header = arena.header(obj);
                        let ref_slots = header.ref_slots();
                        let is_young =
                            |son: ObjectRef| !son.is_null() && ages.get(son.granule()) < threshold;
                        if color == Color::Black && ages.get(g) >= threshold {
                            cx.stats.intergen_objects += 1;
                            cx.stats.intergen_bytes += (header.size_granules() * GRANULE) as u64;
                            cx.touch_object(obj, 1 + ref_slots);
                            for i in 0..ref_slots {
                                let son = arena.load_ref_slot(obj, i);
                                self.mark_gray_clear(son, |o| cx.mark_stack.push(o));
                                remark |= is_young(son);
                            }
                        } else if !remark {
                            remark = (0..ref_slots).any(|i| is_young(arena.load_ref_slot(obj, i)));
                        }
                    }
                }
                g += 1;
            }
            if remark {
                self.cards.mark_card(card);
            }
        }
    }

    /// `InitFullCollection` (Figures 3 and 6): recolor every black (and
    /// leaked gray) object to the current allocation color so the
    /// subsequent toggle makes the whole heap traceable, and — under
    /// simple promotion only — clear all card marks (aging keeps them:
    /// they may still describe inter-generational pointers relevant to
    /// later partial collections, §6).  The wipe covers the cards in use,
    /// not the whole table sized for `max_heap`.
    ///
    /// Runs before the first handshake, concurrently with fully-running
    /// mutators; this is safe because mutators never recolor black
    /// objects.
    ///
    /// The pass is one [`recolor_above`](otf_heap::ColorTable::recolor_above)
    /// with floor `Yellow`: `Gray` and `Black` are the only byte values
    /// above it, so the scan lands exactly on the start granules that need
    /// recoloring — no object parsing (headers, extents) at all.
    /// Concurrent allocation only publishes `White`/`Yellow` start bytes,
    /// which the scan passes over.
    pub(crate) fn init_full_collection(&self, cx: &mut CycleCx) {
        let end = self.heap.frontier_granule();
        cx.touch_color_range(1, end);
        self.heap
            .colors()
            .recolor_above(1, end, Color::Yellow, self.colors.allocation_color());
        // Only cards below the frontier can hold a mark: the frontier
        // never retreats, and a card marked past a frontier that moved on
        // after our read only costs the next card scan one extra card.
        if self.config.aging_threshold().is_none() {
            let n_cards = self.cards_in_use();
            self.cards.clear_range(0, n_cards);
            cx.touch_card_range(0, n_cards);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use otf_heap::ObjShape;

    fn setup(cfg: GcConfig) -> (GcShared, CycleCx) {
        let sh = GcShared::new(cfg.with_max_heap(1 << 20).with_initial_heap(1 << 20));
        let cx = CycleCx::new(&sh);
        (sh, cx)
    }

    fn alloc(sh: &GcShared, refs: usize, color: Color) -> ObjectRef {
        let shape = ObjShape::new(refs, 0);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap.install_object(c.start as usize, &shape, color)
    }

    #[test]
    fn clear_cards_simple_grays_black_objects() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let old = alloc(&sh, 2, Color::Black);
        let young = alloc(&sh, 0, Color::White);
        sh.heap.arena().store_ref_slot(old, 0, young);
        sh.cards.mark_byte(old.byte());
        sh.clear_cards(&mut cx);
        assert_eq!(sh.heap.colors().get(old.granule()), Color::Gray);
        assert_eq!(cx.mark_stack.pop(), Some(old));
        assert_eq!(cx.stats.dirty_cards, 1);
        assert_eq!(cx.stats.intergen_objects, 1);
        // Card got cleared and stays clear (simple variant).
        assert!(!sh.cards.is_dirty(sh.cards.card_of_byte(old.byte())));
    }

    #[test]
    fn clear_cards_simple_ignores_young_objects_on_dirty_cards() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let young = alloc(&sh, 1, Color::White);
        sh.cards.mark_byte(young.byte());
        sh.clear_cards(&mut cx);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::White);
        assert!(cx.mark_stack.is_empty());
        assert_eq!(cx.stats.intergen_objects, 0);
    }

    #[test]
    fn clear_cards_aging_roots_tenured_and_remarks() {
        let threshold = 4;
        let (sh, mut cx) = setup(GcConfig::aging(threshold));
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.ages().set(old.granule(), threshold);
        // Young son has the clear color so it must be grayed.
        let son = alloc(&sh, 0, sh.colors.clear_color());
        sh.heap.arena().store_ref_slot(old, 0, son);
        sh.cards.mark_byte(old.byte());

        sh.clear_cards(&mut cx);
        assert_eq!(sh.heap.colors().get(son.granule()), Color::Gray);
        assert_eq!(cx.mark_stack.pop(), Some(son));
        // Young son referenced => card re-marked (step 3).
        assert!(sh.cards.is_dirty(sh.cards.card_of_byte(old.byte())));
        assert_eq!(cx.stats.intergen_objects, 1);
    }

    #[test]
    fn clear_cards_aging_clears_when_sons_are_old() {
        let threshold = 4;
        let (sh, mut cx) = setup(GcConfig::aging(threshold));
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.ages().set(old.granule(), threshold);
        let son = alloc(&sh, 0, Color::Black);
        sh.heap.ages().set(son.granule(), threshold);
        sh.heap.arena().store_ref_slot(old, 0, son);
        sh.cards.mark_byte(old.byte());

        sh.clear_cards(&mut cx);
        // Old son: no young reference left, card cleared for good.
        assert!(!sh.cards.is_dirty(sh.cards.card_of_byte(old.byte())));
        // Black son is not grayed by mark_gray_clear.
        assert_eq!(sh.heap.colors().get(son.granule()), Color::Black);
    }

    #[test]
    fn clear_cards_aging_keeps_card_for_young_parent_with_young_son() {
        // The DESIGN.md §4 soundness widening: a young parent whose son is
        // young must keep the card dirty even though the parent is not yet
        // a tenured inter-generational root.
        let threshold = 4;
        let (sh, mut cx) = setup(GcConfig::aging(threshold));
        let parent = alloc(&sh, 1, Color::White);
        sh.heap.ages().set(parent.granule(), 2); // young
        let son = alloc(&sh, 0, Color::White);
        sh.heap.arena().store_ref_slot(parent, 0, son);
        sh.cards.mark_byte(parent.byte());

        sh.clear_cards(&mut cx);
        assert!(sh.cards.is_dirty(sh.cards.card_of_byte(parent.byte())));
        // But the son is NOT grayed from here: young parents are traced
        // through normal reachability.
        assert_eq!(sh.heap.colors().get(son.granule()), Color::White);
    }

    /// Both scans act only on objects *starting* on a dirty card: a
    /// tenured object spanning two cards, with only its second card
    /// dirty, is neither grayed (simple) nor a tenured root or re-mark
    /// source (aging) — though its young, clear-colored son would show
    /// either mistake.
    #[test]
    fn card_scans_skip_objects_starting_on_an_earlier_card() {
        let threshold = 4;
        for aging in [false, true] {
            let cfg = if aging {
                GcConfig::aging(threshold)
            } else {
                GcConfig::generational()
            };
            let (sh, mut cx) = setup(cfg);
            let old = alloc(&sh, 3, Color::Black); // 2 granules
            sh.heap.ages().set(old.granule(), threshold);
            let son = alloc(&sh, 0, sh.colors.clear_color());
            sh.heap.arena().store_ref_slot(old, 0, son);
            let first = sh.cards.card_of_byte(old.byte());
            let second = sh.cards.card_of_byte(old.byte() + GRANULE);
            assert_eq!(second, first + 1, "the object spans two cards");
            sh.cards.mark_card(second);

            sh.clear_cards(&mut cx);
            assert_eq!(cx.stats.dirty_cards, 1);
            assert_eq!(cx.stats.intergen_objects, 0, "aging={aging}");
            assert!(cx.mark_stack.is_empty(), "aging={aging}");
            assert_eq!(sh.heap.colors().get(old.granule()), Color::Black);
            assert_eq!(sh.heap.colors().get(son.granule()), sh.colors.clear_color());
            assert_eq!(sh.cards.count_dirty(sh.cards.len()), 0, "re-marked");
        }
    }

    #[test]
    fn init_full_recolors_black_and_gray() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let a = alloc(&sh, 0, Color::Black);
        let b = alloc(&sh, 0, Color::Gray);
        let c = alloc(&sh, 0, Color::White);
        sh.cards.mark_byte(a.byte());
        sh.init_full_collection(&mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::White);
        assert_eq!(sh.heap.colors().get(b.granule()), Color::White);
        assert_eq!(sh.heap.colors().get(c.granule()), Color::White);
        assert_eq!(sh.cards.count_dirty(sh.cards.len()), 0);
    }

    #[test]
    fn init_full_wipes_only_the_cards_below_the_frontier() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let objs: Vec<ObjectRef> = (0..40).map(|i| alloc(&sh, i % 3, Color::Black)).collect();
        for obj in &objs {
            sh.cards.mark_byte(obj.byte());
        }
        let in_use = sh.cards_in_use();
        assert!(in_use > 1 && in_use < sh.cards.len());
        let past = sh.cards.len() - 1;
        sh.cards.mark_card(in_use);
        sh.cards.mark_card(past);

        sh.init_full_collection(&mut cx);
        assert_eq!(sh.cards.next_dirty(0, in_use), None);
        assert!(sh.cards.is_dirty(in_use));
        assert!(sh.cards.is_dirty(past));
        assert_eq!(sh.cards.count_dirty(sh.cards.len()), 2);
    }

    #[test]
    fn init_full_aging_preserves_cards() {
        let (sh, mut cx) = setup(GcConfig::aging(4));
        let a = alloc(&sh, 0, Color::Black);
        sh.cards.mark_byte(a.byte());
        sh.init_full_collection(&mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::White);
        assert_eq!(sh.cards.count_dirty(sh.cards.len()), 1);
    }

    #[test]
    fn block_marking_card_covers_many_objects() {
        let (sh, mut cx) = setup(GcConfig::generational().with_card_size(4096));
        // Several black objects share the single 4096-byte card.
        let a = alloc(&sh, 0, Color::Black);
        let b = alloc(&sh, 0, Color::Black);
        let c = alloc(&sh, 0, Color::White);
        sh.cards.mark_byte(b.byte());
        sh.clear_cards(&mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(b.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(c.granule()), Color::White);
        assert_eq!(cx.stats.intergen_objects, 2);
    }
}
