//! The transitive mark phase (`trace` in Figure 2) with sound on-the-fly
//! termination detection (DESIGN.md §4.7).

use otf_heap::{Color, ObjectRef};
use otf_support::sync::Backoff;

use crate::cycle::CycleCx;
use crate::shared::GcShared;

impl GcShared {
    /// `MarkBlack` (Figure 3): *claim* the object with a gray→target
    /// color CAS, then shade every son gray.
    ///
    /// Every enqueue site (write barrier, card scan, root marking, the
    /// collector's own son-shading) CASes the color to gray before
    /// pushing, so a popped object is gray unless a duplicate entry from
    /// a re-graying already claimed it.  The losing CAS returns without
    /// scanning or counting, so no object is traced or counted twice.
    /// Claiming *before* shading the sons is safe under the snapshot
    /// write barrier: a mutator racing this window grays the overwritten
    /// value regardless of the parent's color.
    pub(crate) fn mark_black(&self, obj: ObjectRef, target: Color, cx: &mut CycleCx) {
        let g = obj.granule();
        let colors = self.heap.colors();
        if !colors.cas(g, Color::Gray, target) {
            return; // a duplicate entry, already claimed
        }
        let ref_slots = self.heap.arena().header(obj).ref_slots();
        for i in 0..ref_slots {
            let son = self.heap.arena().load_ref_slot(obj, i);
            self.mark_gray_clear_local(son, &mut cx.mark_stack);
        }
        cx.counters.objects_traced += 1;
        cx.touch_object(obj, 1 + ref_slots);
        cx.touch_color(g);
    }

    /// The trace loop: pop gray objects and blacken them until no gray
    /// object exists.  The cycle's `trace` bucket runs it after the third
    /// handshake, with the card and root grays already on the mark stack.
    ///
    /// Termination is subtle on-the-fly: a mutator's write barrier first
    /// CASes a color to gray and *then* pushes the object on the queue, so
    /// an empty queue alone does not mean no gray objects.  Every
    /// gray-producing mutator operation is bracketed by an epoch counter
    /// (odd while inside); the collector believes an empty queue only
    /// after observing all epochs even *and then* the queue still empty.
    /// Any barrier that starts after that point can only shade objects the
    /// DLG invariants already guarantee are marked (see DESIGN.md §4.7).
    pub(crate) fn trace(&self, cx: &mut CycleCx) {
        let target = self.trace_target();
        let mut backoff = Backoff::new();
        loop {
            // Drain: the private stack first (hot, lock-free), then the
            // mutators' shared gray queue.
            while let Some(obj) = cx.mark_stack.pop().or_else(|| self.gray.pop()) {
                self.mark_black(obj, target, cx);
            }
            // §4.3 order: epochs even observed *before* the emptiness
            // re-check.
            let all_even = self.mutators_all_even();
            if !self.gray.is_empty() || !cx.mark_stack.is_empty() {
                backoff.reset();
            } else if !all_even {
                // A barrier is between its gray CAS and its push.
                backoff.snooze();
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use otf_heap::ObjShape;

    fn setup() -> (GcShared, CycleCx) {
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        );
        let cx = CycleCx::new(&sh);
        (sh, cx)
    }

    fn alloc(sh: &GcShared, refs: usize, color: Color) -> ObjectRef {
        let shape = ObjShape::new(refs, 1);
        let n = shape.size_granules() as u32;
        let c = sh.heap.alloc_chunk(n, n).unwrap();
        sh.heap.install_object(c.start as usize, &shape, color)
    }

    #[test]
    fn trace_marks_reachable_chain() {
        let (sh, mut cx) = setup();
        // Build a chain a -> b -> c, all clear-colored.
        sh.colors.toggle(); // clear color is now White (allocation Yellow)
        let c = alloc(&sh, 1, Color::White);
        let b = alloc(&sh, 1, Color::White);
        let a = alloc(&sh, 1, Color::White);
        sh.heap.arena().store_ref_slot(a, 0, b);
        sh.heap.arena().store_ref_slot(b, 0, c);
        let d = alloc(&sh, 0, Color::White); // unreachable

        sh.mark_gray_clear(a);
        sh.trace(&mut cx);

        for obj in [a, b, c] {
            assert_eq!(sh.heap.colors().get(obj.granule()), Color::Black);
        }
        assert_eq!(sh.heap.colors().get(d.granule()), Color::White);
        assert_eq!(cx.counters.objects_traced, 3);
        assert!(sh.gray.is_empty());
    }

    #[test]
    fn trace_does_not_traverse_old_generation() {
        let (sh, mut cx) = setup();
        sh.colors.toggle();
        // Black (old) object referencing a white object: trace must not
        // traverse it unless it was explicitly grayed via a dirty card.
        let young = alloc(&sh, 0, Color::White);
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.arena().store_ref_slot(old, 0, young);
        // No roots at all.
        sh.trace(&mut cx);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::White);
        assert_eq!(cx.counters.objects_traced, 0);
    }

    #[test]
    fn trace_through_regrayed_black_parent() {
        let (sh, mut cx) = setup();
        sh.colors.toggle();
        let young = alloc(&sh, 0, Color::White);
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.arena().store_ref_slot(old, 0, young);
        assert!(sh.mark_gray_from_black(old)); // as ClearCards would
        sh.trace(&mut cx);
        assert_eq!(sh.heap.colors().get(old.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::Black);
        assert_eq!(cx.counters.objects_traced, 2);
    }

    #[test]
    fn trace_ignores_allocation_colored_objects() {
        let (sh, mut cx) = setup();
        sh.colors.toggle(); // allocation = Yellow
        let infant = alloc(&sh, 0, Color::Yellow);
        let root = alloc(&sh, 1, Color::White);
        sh.heap.arena().store_ref_slot(root, 0, infant);
        sh.mark_gray_clear(root);
        sh.trace(&mut cx);
        // The yellow infant is not traced (not promoted, §4).
        assert_eq!(sh.heap.colors().get(infant.granule()), Color::Yellow);
        assert_eq!(sh.heap.colors().get(root.granule()), Color::Black);
    }

    #[test]
    fn trace_waits_for_in_flight_barrier() {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let (sh, mut cx) = setup();
        let sh = Arc::new(sh);
        sh.colors.toggle();
        let hidden = alloc(&sh, 0, Color::White);
        let m = sh.register_mutator();

        // Simulate a mutator stuck inside the write barrier: epoch odd,
        // color already CASed to gray, push not yet performed.
        m.epoch_enter();
        assert!(sh
            .heap
            .colors()
            .cas(hidden.granule(), Color::White, Color::Gray));

        let sh2 = Arc::clone(&sh);
        let m2 = Arc::clone(&m);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            sh2.gray.push(hidden);
            m2.epoch.fetch_add(1, Ordering::SeqCst); // epoch_exit
        });

        // Trace must not terminate before the delayed push arrives.
        sh.trace(&mut cx);
        pusher.join().unwrap();
        assert_eq!(sh.heap.colors().get(hidden.granule()), Color::Black);
        assert_eq!(cx.counters.objects_traced, 1);
    }

    #[test]
    fn non_generational_trace_uses_allocation_color() {
        let sh = GcShared::new(
            GcConfig::non_generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20),
        );
        let mut cx = CycleCx::new(&sh);
        sh.colors.toggle(); // allocation Yellow, clear White
        let a = alloc(&sh, 0, Color::White);
        sh.mark_gray_clear(a);
        sh.trace(&mut cx);
        // Marked with the allocation color, not literal black.
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Yellow);
    }
}
