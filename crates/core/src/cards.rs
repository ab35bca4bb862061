//! Dirty-card scanning (`ClearCards`) and full-collection initialization
//! (`InitFullCollection`) — Figures 3 and 6 of the paper.
//!
//! Both run as steps of the cycle (DESIGN.md §4.7): the card scan inside
//! the second handshake window (simple promotion before the color
//! toggle, aging after it — Figure 2 vs Figure 5 order), the
//! initialization pass in the init bucket of full collections.

use otf_heap::{Color, GRANULE};

use crate::cycle::CycleCx;
use crate::obs::EventKind;
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

    /// `ClearCards`, simple variant (Figure 3): for every dirty card,
    /// clear the mark and shade gray every *black* (old) object starting
    /// on the card, so the trace re-scans it and discovers any
    /// inter-generational pointers it holds.
    ///
    /// Runs between the first and second handshakes, when every mutator
    /// is in `sync1`/`sync2` and therefore performs no card marking
    /// (§7.1) — clear-then-scan needs no re-marking protocol, and the
    /// toggle has not happened yet, so every young object a cleared card
    /// pointed at is traced (and promoted) by this very cycle.  DESIGN.md
    /// §4.9 records what goes wrong when the scan is moved after the
    /// toggle.
    pub(crate) fn clear_cards_simple(&self, cx: &mut CycleCx) {
        let n_cards = self.cards_in_use();
        cx.counters.cards_in_use = n_cards as u64;
        cx.touch_card_range(0, n_cards);
        let dirty_before = cx.counters.dirty_cards;
        // The per-card list of black objects to gray lives on the cycle
        // context, reused across cards instead of allocated per card.
        let mut grayed = std::mem::take(&mut cx.scratch_grayed);
        // Word-skip the (typically long) clean runs between dirty cards.
        let mut from = 0;
        while let Some(card) = self.cards.next_dirty(from, n_cards) {
            from = card + 1;
            cx.counters.dirty_cards += 1;
            self.cards.clear(card);
            let (gs, ge) = self.cards.granule_range(card);
            cx.touch_color_range(gs, ge.min(self.heap.frontier_granule()));
            grayed.clear();
            self.heap
                .for_each_object_start(gs, ge, |obj, color, header| {
                    if color == Color::Black {
                        grayed.push((obj, header.size_granules()));
                    }
                });
            for &(obj, size) in &grayed {
                if self
                    .heap
                    .colors()
                    .cas(obj.granule(), Color::Black, Color::Gray)
                {
                    cx.mark_stack.push(obj);
                    cx.counters.intergen_objects += 1;
                    cx.counters.intergen_bytes += (size * GRANULE) as u64;
                    cx.touch_object_granules(obj.granule(), size);
                }
            }
        }
        cx.scratch_grayed = grayed;
        self.obs.event(
            EventKind::CardClear,
            cx.counters.dirty_cards - dirty_before,
            n_cards as u64,
        );
    }

    /// `ClearCards`, aging variant (Figure 6, with the §7.2 three-step
    /// clear/check/re-mark protocol): for every dirty card,
    ///
    /// 1. clear the mark,
    /// 2. scan the objects on the card: tenured objects (black with age at
    ///    the threshold) act as inter-generational roots — their sons are
    ///    shaded gray; and
    /// 3. re-mark the card if any object on it still references a young
    ///    object, so the inter-generational pointer is re-examined next
    ///    cycle.
    ///
    /// Step 3 deliberately considers *all* objects on the card, not only
    /// tenured ones: a young parent holding a young son will eventually be
    /// tenured while its son is still young, and the card mark must
    /// survive until then (see DESIGN.md §4 — this widens Figure 6's
    /// literal re-mark condition, which checks only tenured parents and
    /// would otherwise drop the pointer).
    pub(crate) fn clear_cards_aging(&self, threshold: u8, cx: &mut CycleCx) {
        let n_cards = self.cards_in_use();
        cx.counters.cards_in_use = n_cards as u64;
        cx.touch_card_range(0, n_cards);
        let dirty_before = cx.counters.dirty_cards;
        let ages = self.heap.ages();
        // Per-card tenured-root list, reused across cards (and cycles).
        let mut tenured_roots = std::mem::take(&mut cx.scratch_tenured);
        // Word-skip clean runs; next_dirty's acquire re-read of the dirty
        // byte pairs with the mutator's release mark, so the pointer
        // stores that preceded a mark we observe are visible to step 2.
        let mut from = 0;
        while let Some(card) = self.cards.next_dirty(from, n_cards) {
            from = card + 1;
            cx.counters.dirty_cards += 1;
            // Step 1: clear first (the mutator stores first and marks
            // second, so either we see its pointer in step 2 or its mark
            // survives our clear).
            self.cards.clear(card);
            let (gs, ge) = self.cards.granule_range(card);
            cx.touch_color_range(gs, ge.min(self.heap.frontier_granule()));
            // Step 2: scan.
            tenured_roots.clear();
            let mut remark = false;
            self.heap
                .for_each_object_start(gs, ge, |obj, color, header| {
                    let g = obj.granule();
                    let is_tenured = color == Color::Black && ages.get(g) >= threshold;
                    if is_tenured {
                        tenured_roots.push((obj, header.ref_slots(), header.size_granules()));
                    } else if !remark {
                        // A non-tenured object with any reference keeps the
                        // card dirty if one of its sons is young: once this
                        // parent is tenured the pointer becomes (or stays)
                        // inter-generational.
                        for i in 0..header.ref_slots() {
                            let son = self.heap.arena().load_ref_slot(obj, i);
                            if !son.is_null() && ages.get(son.granule()) < threshold {
                                remark = true;
                                break;
                            }
                        }
                    }
                });
            for &(obj, ref_slots, size) in &tenured_roots {
                cx.counters.intergen_objects += 1;
                cx.counters.intergen_bytes += (size * GRANULE) as u64;
                cx.touch_object(obj, 1 + ref_slots);
                for i in 0..ref_slots {
                    let son = self.heap.arena().load_ref_slot(obj, i);
                    if son.is_null() {
                        continue;
                    }
                    self.mark_gray_clear_local(son, &mut cx.mark_stack);
                    if ages.get(son.granule()) < threshold {
                        remark = true;
                    }
                }
            }
            // Step 3: re-mark if a young object is still referenced from
            // this card.
            if remark {
                self.cards.mark_card(card);
            }
        }
        cx.scratch_tenured = tenured_roots;
        self.obs.event(
            EventKind::CardClear,
            cx.counters.dirty_cards - dirty_before,
            n_cards as u64,
        );
    }

    /// `InitFullCollection` (Figures 3 and 6): recolor every black (and
    /// leaked gray) object to the current allocation color so the
    /// subsequent toggle makes the whole heap traceable, and — in the
    /// simple variant only — clear all card marks (the aging variant keeps
    /// them: they may still describe inter-generational pointers relevant
    /// to later partial collections, §6).  The wipe covers the cards in
    /// use, not the whole table sized for `max_heap`.
    ///
    /// Runs before the first handshake, concurrently with fully-running
    /// mutators; this is safe because mutators never recolor black
    /// objects.
    ///
    /// The pass is a single word-at-a-time skip: `Gray` and `Black` are
    /// the only byte values above `Yellow`, and interior granules always
    /// hold `Interior`, so scanning for "first byte > `Yellow`" lands
    /// exactly on the start granules that need recoloring — no object
    /// parsing (headers, extents) at all.  Concurrent allocation only
    /// publishes `White`/`Yellow` start bytes, which the scan correctly
    /// passes over, and no other thread writes `Black`/`Gray` while the
    /// collector is here, so a relaxed scan plus release recoloring
    /// store is sound.
    pub(crate) fn init_full_collection(&self, clear_cards: bool, cx: &mut CycleCx) {
        let alloc = self.colors.allocation_color();
        let colors = self.heap.colors();
        let end = self.heap.frontier_granule();
        cx.touch_color_range(1, end);
        let mut g = 1;
        loop {
            g = colors.next_color_above(g, end, Color::Yellow);
            if g >= end {
                break;
            }
            colors.set(g, alloc);
            g += 1;
        }
        // Only cards below the frontier can hold a mark: the frontier
        // never retreats, and a card marked past a frontier that moved on
        // after our read only costs the next card scan one extra card.
        if clear_cards {
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
    use otf_heap::{ObjShape, ObjectRef};

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
        sh.clear_cards_simple(&mut cx);
        assert_eq!(sh.heap.colors().get(old.granule()), Color::Gray);
        assert_eq!(cx.mark_stack.pop(), Some(old));
        assert_eq!(cx.counters.dirty_cards, 1);
        assert_eq!(cx.counters.intergen_objects, 1);
        // Card got cleared and stays clear (simple variant).
        assert!(!sh.cards.is_dirty(sh.cards.card_of_byte(old.byte())));
    }

    #[test]
    fn clear_cards_simple_ignores_young_objects_on_dirty_cards() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let young = alloc(&sh, 1, Color::White);
        sh.cards.mark_byte(young.byte());
        sh.clear_cards_simple(&mut cx);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::White);
        assert!(sh.gray.is_empty());
        assert_eq!(cx.counters.intergen_objects, 0);
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

        sh.clear_cards_aging(threshold, &mut cx);
        assert_eq!(sh.heap.colors().get(son.granule()), Color::Gray);
        assert_eq!(cx.mark_stack.pop(), Some(son));
        // Young son referenced => card re-marked (step 3).
        assert!(sh.cards.is_dirty(sh.cards.card_of_byte(old.byte())));
        assert_eq!(cx.counters.intergen_objects, 1);
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

        sh.clear_cards_aging(threshold, &mut cx);
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

        sh.clear_cards_aging(threshold, &mut cx);
        assert!(sh.cards.is_dirty(sh.cards.card_of_byte(parent.byte())));
        // But the son is NOT grayed from here: young parents are traced
        // through normal reachability.
        assert_eq!(sh.heap.colors().get(son.granule()), Color::White);
    }

    #[test]
    fn init_full_recolors_black_and_gray() {
        let (sh, mut cx) = setup(GcConfig::generational());
        let a = alloc(&sh, 0, Color::Black);
        let b = alloc(&sh, 0, Color::Gray);
        let c = alloc(&sh, 0, Color::White);
        sh.cards.mark_byte(a.byte());
        sh.init_full_collection(true, &mut cx);
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

        sh.init_full_collection(true, &mut cx);
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
        sh.init_full_collection(false, &mut cx);
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
        sh.clear_cards_simple(&mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(b.granule()), Color::Gray);
        assert_eq!(sh.heap.colors().get(c.granule()), Color::White);
        assert_eq!(cx.counters.intergen_objects, 2);
    }
}
