//! The transitive mark phase (`trace` in Figure 2) with sound on-the-fly
//! termination detection (DESIGN.md §4.7).

use otf_heap::{Color, ObjectRef};
use otf_support::sync::Backoff;

use crate::cycle::CycleCx;
use crate::shared::GcShared;

impl GcShared {
    /// `MarkBlack` (Figure 3): *claim* the object by storing the target
    /// color over its gray, then shade every son gray.
    ///
    /// Every push site (write barrier, card scan, root marking, the
    /// collector's own son-shading) CASes the color to gray before
    /// pushing, so a popped object is gray unless a duplicate entry from
    /// a re-graying already claimed it.  Only this thread moves a gray
    /// object on, so a load and a store claim it: an entry that is no
    /// longer gray returns without scanning or counting, so no object is
    /// traced or counted twice.  Claiming *before* shading the sons is
    /// safe under the snapshot write barrier: a mutator racing this
    /// window grays the overwritten value regardless of the parent's
    /// color.
    pub(crate) fn mark_black(&self, obj: ObjectRef, target: Color, cx: &mut CycleCx) {
        let g = obj.granule();
        let colors = self.heap.colors();
        if colors.get(g) != Color::Gray {
            return; // a duplicate entry, already claimed
        }
        colors.set(g, target);
        let ref_slots = self.heap.arena().header(obj).ref_slots();
        for i in 0..ref_slots {
            let son = self.heap.arena().load_ref_slot(obj, i);
            self.mark_gray_clear(son, |o| cx.mark_stack.push(o));
        }
        cx.stats.objects_traced += 1;
        cx.touch_object(obj, 1 + ref_slots);
        cx.touch_color(g);
    }

    /// The trace loop: blacken gray objects until no gray object exists.
    /// The cycle's `trace` bucket runs it after the third handshake, with
    /// the card and root grays already on the mark stack.
    ///
    /// Each drain round moves the whole shared gray list onto the private
    /// mark stack under one lock, then drains the stack lock-free.
    ///
    /// Termination is subtle on-the-fly: a mutator's write barrier first
    /// CASes a color to gray and *then* pushes the object on the gray
    /// list, so an empty list alone does not mean no gray objects.  Every
    /// gray-producing mutator operation is bracketed by an epoch counter
    /// (odd while inside); the collector believes an empty list only
    /// after observing all epochs even *and then* the list still empty.
    /// Any barrier that starts after that point can only shade objects the
    /// DLG invariants already guarantee are marked (see DESIGN.md §4.7).
    pub(crate) fn trace(&self, cx: &mut CycleCx) {
        let target = self.trace_target();
        let mut backoff = Backoff::new();
        loop {
            cx.mark_stack.append(&mut self.gray.lock());
            while let Some(obj) = cx.mark_stack.pop() {
                self.mark_black(obj, target, cx);
            }
            // §4.3 order: epochs even observed *before* the emptiness
            // re-check (the mark stack is empty after the drain).
            let all_even = self.mutators_all_even();
            let pushed = !self.gray.lock().is_empty();
            if pushed {
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

        sh.mark_gray_clear(a, |o| sh.gray.lock().push(o));
        sh.trace(&mut cx);

        for obj in [a, b, c] {
            assert_eq!(sh.heap.colors().get(obj.granule()), Color::Black);
        }
        assert_eq!(sh.heap.colors().get(d.granule()), Color::White);
        assert_eq!(cx.stats.objects_traced, 3);
        assert!(sh.gray.lock().is_empty());
    }

    /// A duplicate mark-stack entry is scanned and counted once: the
    /// second pop finds the object no longer gray.
    #[test]
    fn duplicate_entry_is_traced_once() {
        let (sh, mut cx) = setup();
        sh.colors.toggle(); // clear color is now White
        let son = alloc(&sh, 0, Color::White);
        let a = alloc(&sh, 1, Color::White);
        sh.heap.arena().store_ref_slot(a, 0, son);
        sh.mark_gray_clear(a, |o| sh.gray.lock().push(o));
        sh.gray.lock().push(a);
        sh.trace(&mut cx);
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(son.granule()), Color::Black);
        assert_eq!(cx.stats.objects_traced, 2);
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
        assert_eq!(cx.stats.objects_traced, 0);
    }

    #[test]
    fn trace_through_regrayed_black_parent() {
        let (sh, mut cx) = setup();
        sh.colors.toggle();
        let young = alloc(&sh, 0, Color::White);
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.arena().store_ref_slot(old, 0, young);
        sh.cards.mark_byte(old.byte());
        sh.clear_cards_simple(&mut cx); // grays the black parent
        sh.trace(&mut cx);
        assert_eq!(sh.heap.colors().get(old.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(young.granule()), Color::Black);
        assert_eq!(cx.stats.objects_traced, 2);
    }

    #[test]
    fn trace_ignores_allocation_colored_objects() {
        let (sh, mut cx) = setup();
        sh.colors.toggle(); // allocation = Yellow
        let infant = alloc(&sh, 0, Color::Yellow);
        let root = alloc(&sh, 1, Color::White);
        sh.heap.arena().store_ref_slot(root, 0, infant);
        sh.mark_gray_clear(root, |o| sh.gray.lock().push(o));
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
            sh2.gray.lock().push(hidden);
            m2.epoch.fetch_add(1, Ordering::SeqCst); // epoch_exit
        });

        // Trace must not terminate before the delayed push arrives.
        sh.trace(&mut cx);
        pusher.join().unwrap();
        assert_eq!(sh.heap.colors().get(hidden.granule()), Color::Black);
        assert_eq!(cx.stats.objects_traced, 1);
    }

    #[test]
    fn trace_takes_every_gray_pushed_while_it_drains() {
        use std::sync::Arc;
        const N: usize = 2_000;
        let (sh, mut cx) = setup();
        let sh = Arc::new(sh);
        sh.colors.toggle(); // clear color is now White
        let batches: Vec<Vec<ObjectRef>> = (0..2)
            .map(|_| (0..N).map(|_| alloc(&sh, 0, Color::White)).collect())
            .collect();
        // Each pusher is a mutator inside one epoch bracket for its whole
        // batch, entered before the trace starts, so the trace cannot
        // terminate until both have pushed everything.
        let pushers: Vec<_> = batches
            .iter()
            .cloned()
            .map(|batch| {
                let m = sh.register_mutator();
                m.epoch_enter();
                let sh = Arc::clone(&sh);
                std::thread::spawn(move || {
                    for (i, obj) in batch.into_iter().enumerate() {
                        sh.mark_gray_clear(obj, |o| sh.gray.lock().push(o));
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    m.epoch_exit();
                })
            })
            .collect();
        sh.trace(&mut cx);
        for p in pushers {
            p.join().unwrap();
        }
        for obj in batches.iter().flatten() {
            assert_eq!(sh.heap.colors().get(obj.granule()), Color::Black);
        }
        assert_eq!(cx.stats.objects_traced, 2 * N as u64);
        assert!(sh.gray.lock().is_empty());
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
        sh.mark_gray_clear(a, |o| sh.gray.lock().push(o));
        sh.trace(&mut cx);
        // Marked with the allocation color, not literal black.
        assert_eq!(sh.heap.colors().get(a.granule()), Color::Yellow);
    }
}
