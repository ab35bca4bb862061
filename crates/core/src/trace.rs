//! The transitive mark phase (`trace` in Figure 2) with sound on-the-fly
//! termination detection, expressed as trace-drain work packets over the
//! packet scheduler's trace bucket (DESIGN.md §4.4, §4.7): serial
//! (`gc_threads = 1`, the paper's configuration) the single lane drains
//! byte-for-byte the §4.3 protocol; parallel, lanes steal from sibling
//! deques and the shared gray queue, and the §4.4 termination check is
//! the bucket's closing condition.

use otf_heap::{Color, ObjectRef};
use otf_support::fault;
use otf_support::packet::Schedule;
use otf_support::steal::WorkerDeque;

use crate::cycle::CycleCx;
use crate::plan::CycleFrame;
use crate::shared::GcShared;

/// A worker publishes the older half of its private mark stack to its
/// deque once the stack grows past this many entries (and its deque is
/// empty) — the work-packet idea: the hot path stays a plain `Vec`,
/// thieves only see batched excess.
const PUBLISH_MIN: usize = 64;

impl GcShared {
    /// `MarkBlack` (Figure 3): *claim* the object with a gray→target
    /// color CAS, then shade every son gray.
    ///
    /// Every enqueue site (write barrier, card scan, root marking, the
    /// collector's own son-shading) CASes the color to gray before
    /// pushing, so a popped object is gray unless another worker — or a
    /// duplicate entry from a re-graying — already claimed it.  The
    /// losing CAS returns without scanning or counting, which is what
    /// makes parallel marking sound: two workers can never double-trace
    /// or double-count one object.  Claiming *before* shading the sons
    /// is safe under the snapshot write barrier: a mutator racing this
    /// window grays the overwritten value regardless of the parent's
    /// color (DESIGN.md §4.4).
    pub(crate) fn mark_black(&self, obj: ObjectRef, target: Color, cx: &mut CycleCx) {
        let g = obj.granule();
        let colors = self.heap.colors();
        if !colors.cas(g, Color::Gray, target) {
            return; // another worker claimed it, or a duplicate entry
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
    /// object exists, run as a standalone one-bucket schedule (the full
    /// cycle builds this same bucket via
    /// [`GcShared::build_cycle_schedule`]; this entry point exists for
    /// the mark-phase tests).
    ///
    /// Termination is subtle on-the-fly: a mutator's write barrier first
    /// CASes a color to gray and *then* pushes the object on the queue, so
    /// an empty queue alone does not mean no gray objects.  Every
    /// gray-producing mutator operation is bracketed by an epoch counter
    /// (odd while inside); the collector believes an empty queue only
    /// after observing all epochs even *and then* the queue still empty.
    /// Any barrier that starts after that point can only shade objects the
    /// DLG invariants already guarantee are marked (see DESIGN.md §4.3).
    /// With `gc_threads > 1` the check additionally covers the worker
    /// deques and in-flight packets — it is the trace bucket's closing
    /// condition (DESIGN.md §4.4, §4.7).
    #[allow(dead_code)]
    pub(crate) fn trace(&self, cx: &mut CycleCx) {
        let workers = self.config.gc_threads;
        let frame = CycleFrame::new(workers);
        frame.seeds.lock().append(&mut cx.mark_stack);
        let mut sched = Schedule::new();
        self.add_trace_bucket(&mut sched, &frame, workers, false);
        self.run_schedule(&sched, cx, workers);
        debug_assert!(frame.deques.iter().all(|d| d.is_empty()));
    }

    /// One trace-drain run (the body of a `TraceDrain` packet): drain
    /// the private stack and the own deque (publishing excess), then
    /// steal from sibling deques and the shared gray queue until no work
    /// is visible.  Returns the number of successful steals.
    ///
    /// Returning with everything empty does **not** end the trace — the
    /// bucket's drained hook re-checks §4.4 (all packets returned, all
    /// mutator epochs even, all queues still empty) and refills the
    /// bucket if work reappeared.  A packet never parks: going idle
    /// *is* returning to the scheduler, so the bucket's `in_flight`
    /// count plays the role of §4.4's `active` set.
    pub(crate) fn trace_drain(
        &self,
        lane: usize,
        workers: usize,
        deques: &[WorkerDeque<ObjectRef>],
        cx: &mut CycleCx,
    ) -> u64 {
        let target = self.trace_target();
        let my = &deques[lane];
        let mut steals = 0u64;
        loop {
            // Drain local work: private stack (hot, lock-free), then the
            // own deque.  Publish the older half of an overgrown private
            // stack so idle siblings have something to steal.
            loop {
                if workers > 1 && cx.mark_stack.len() >= PUBLISH_MIN && my.is_empty() {
                    let split = cx.mark_stack.len() / 2;
                    my.push_batch(cx.mark_stack.drain(..split));
                }
                match cx.mark_stack.pop().or_else(|| my.pop()) {
                    Some(obj) => self.mark_black(obj, target, cx),
                    None => break,
                }
            }
            if workers > 1 {
                // Out of local work: steal from a sibling deque, then
                // the shared gray queue.  The fault point models a
                // stalled or refused steal (chaos tests delay/fail
                // here); a refused attempt returns to the scheduler,
                // whose drained hook re-tries via a refill.
                if fault::point("collector.worker") {
                    return steals;
                }
                let stolen = deques
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != lane)
                    .find_map(|(_, d)| d.steal())
                    .or_else(|| self.gray.pop());
                match stolen {
                    Some(obj) => {
                        steals += 1;
                        self.mark_black(obj, target, cx);
                    }
                    None => return steals,
                }
            } else {
                // Serial lane: the shared gray queue is the only other
                // source, and popping it is not a steal.
                match self.gray.pop() {
                    Some(obj) => self.mark_black(obj, target, cx),
                    None => return 0,
                }
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

    fn setup_threads(n: usize) -> (GcShared, CycleCx) {
        let sh = GcShared::new(
            GcConfig::generational()
                .with_max_heap(1 << 20)
                .with_initial_heap(1 << 20)
                .with_gc_threads(n),
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

    /// Builds a wide two-level tree (fanout² + fanout + 1 objects) and
    /// returns the root plus the total object count.
    fn build_tree(sh: &GcShared, fanout: usize) -> (ObjectRef, u64) {
        let root = alloc(sh, fanout, Color::White);
        let mut count = 1u64;
        for i in 0..fanout {
            let mid = alloc(sh, fanout, Color::White);
            sh.heap.arena().store_ref_slot(root, i, mid);
            count += 1;
            for j in 0..fanout {
                let leaf = alloc(sh, 0, Color::White);
                sh.heap.arena().store_ref_slot(mid, j, leaf);
                count += 1;
            }
        }
        (root, count)
    }

    #[test]
    fn parallel_trace_marks_everything_exactly_once() {
        let (sh, mut cx) = setup_threads(4);
        sh.colors.toggle();
        let (root, count) = build_tree(&sh, 24);
        let dead = alloc(&sh, 0, Color::White);
        sh.mark_gray_clear(root);
        sh.trace(&mut cx);
        // CAS-claimed marking counts every reachable object exactly once
        // even with 4 workers racing over shared subtrees.
        assert_eq!(cx.counters.objects_traced, count);
        assert_eq!(sh.heap.colors().get(root.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::White);
        assert!(sh.gray.is_empty());
    }

    #[test]
    fn parallel_counters_match_serial_on_identical_heap() {
        // Satellite: merged per-worker counters must equal the
        // single-threaded totals on an identical heap.
        let build = |sh: &GcShared| {
            sh.colors.toggle();
            let (root, _) = build_tree(sh, 16);
            sh.mark_gray_clear(root);
        };
        let (serial_sh, mut serial_cx) = setup_threads(1);
        build(&serial_sh);
        serial_sh.trace(&mut serial_cx);
        let (par_sh, mut par_cx) = setup_threads(4);
        build(&par_sh);
        par_sh.trace(&mut par_cx);
        assert_eq!(
            serial_cx.counters.objects_traced,
            par_cx.counters.objects_traced
        );
        // Both observe identical page touch-sets (same addresses).
        assert_eq!(serial_cx.pages.touched(), par_cx.pages.touched());
    }

    #[test]
    fn parallel_trace_waits_for_in_flight_barrier() {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        // The §4.4 termination protocol at N=4 must not terminate while
        // a mutator's delayed gray push is in flight, even with every
        // worker idle and all deques empty.
        let (sh, mut cx) = setup_threads(4);
        let sh = Arc::new(sh);
        sh.colors.toggle();
        let hidden = alloc(&sh, 0, Color::White);
        let m = sh.register_mutator();
        m.epoch_enter();
        assert!(sh
            .heap
            .colors()
            .cas(hidden.granule(), Color::White, Color::Gray));
        let sh2 = Arc::clone(&sh);
        let m2 = Arc::clone(&m);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            sh2.gray.push(hidden);
            m2.epoch.fetch_add(1, Ordering::SeqCst);
        });
        sh.trace(&mut cx);
        pusher.join().unwrap();
        assert_eq!(sh.heap.colors().get(hidden.granule()), Color::Black);
        assert_eq!(cx.counters.objects_traced, 1);
    }

    #[test]
    fn parallel_workers_record_observability() {
        let (sh, mut cx) = setup_threads(2);
        sh.colors.toggle();
        let (root, _) = build_tree(&sh, 8);
        sh.mark_gray_clear(root);
        sh.trace(&mut cx);
        assert_eq!(sh.obs.workers.len(), 2);
        // Every worker records one mark-phase sample per trace.
        for w in &sh.obs.workers {
            assert_eq!(w.mark_ns.count(), 1);
        }
    }
}
