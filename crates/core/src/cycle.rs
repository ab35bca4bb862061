//! Per-cycle collector context: raw counters, page-touch tracking and
//! phase timing, threaded through every collection phase.

use otf_heap::{ObjectRef, PageTracker, Space, GRANULE};

use crate::shared::GcShared;
use crate::stats::PhaseTimes;

/// Raw per-cycle counters (assembled into [`CycleStats`] at cycle end).
///
/// [`CycleStats`]: crate::stats::CycleStats
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    pub objects_traced: u64,
    pub intergen_objects: u64,
    pub intergen_bytes: u64,
    pub dirty_cards: u64,
    pub cards_in_use: u64,
    pub objects_freed: u64,
    pub bytes_freed: u64,
    pub objects_survived: u64,
    pub bytes_survived: u64,
    /// Survivors that carried the allocation color (created during the
    /// cycle): not live-set members yet, just allocation that raced the
    /// collection.
    pub bytes_alloc_colored: u64,
}

/// Collector-thread-private context for one cycle.
#[derive(Debug)]
pub(crate) struct CycleCx {
    pub counters: Counters,
    pub pages: PageTracker,
    pub phases: PhaseTimes,
    /// The collector's private mark stack.  Only gray objects discovered
    /// *by the collector* go here (a plain `Vec` is an order of magnitude
    /// cheaper than the shared queue); mutator-barrier grays still arrive
    /// through the shared gray queue.
    pub mark_stack: Vec<ObjectRef>,
    /// Scratch buffer for `clear_cards_simple`'s per-card list of black
    /// objects to gray — reused across cards (and cycles) instead of
    /// allocating a fresh `Vec` per dirty card.
    pub scratch_grayed: Vec<(ObjectRef, usize)>,
    /// Scratch buffer for `clear_cards_aging`'s per-card list of tenured
    /// roots `(object, ref_slots, size_granules)` — reused likewise.
    pub scratch_tenured: Vec<(ObjectRef, usize, usize)>,
}

impl CycleCx {
    /// Creates a context sized for `shared`'s heap and tables.
    pub(crate) fn new(shared: &GcShared) -> CycleCx {
        CycleCx {
            counters: Counters::default(),
            pages: PageTracker::new(
                shared.heap.max_bytes(),
                shared.heap.colors().table_bytes(),
                shared.cards.table_bytes(),
                shared.heap.ages().table_bytes(),
            ),
            phases: PhaseTimes::default(),
            mark_stack: Vec::with_capacity(1024),
            scratch_grayed: Vec::new(),
            scratch_tenured: Vec::new(),
        }
    }

    /// Resets all per-cycle state.
    pub(crate) fn reset(&mut self) {
        self.counters = Counters::default();
        self.pages.reset();
        self.phases = PhaseTimes::default();
        self.mark_stack.clear();
        self.scratch_grayed.clear();
        self.scratch_tenured.clear();
    }

    /// Records that the collector read an object's header and its first
    /// `words` words.
    #[inline]
    pub(crate) fn touch_object(&mut self, obj: ObjectRef, words: usize) {
        let start = obj.byte();
        self.pages
            .touch_range(Space::Arena, start, start + words * otf_heap::WORD);
    }

    /// Records a color-table access for `granule`.
    #[inline]
    pub(crate) fn touch_color(&mut self, granule: usize) {
        self.pages.touch_byte(Space::ColorTable, granule);
    }

    /// Records a color-table scan over a granule range.
    #[inline]
    pub(crate) fn touch_color_range(&mut self, start: usize, end: usize) {
        self.pages.touch_range(Space::ColorTable, start, end);
    }

    /// Records a card-table scan over a card index range.
    #[inline]
    pub(crate) fn touch_card_range(&mut self, start: usize, end: usize) {
        self.pages.touch_range(Space::CardTable, start, end);
    }

    /// Records that the collector visited a whole object (e.g. freed it),
    /// in granules.
    #[inline]
    pub(crate) fn touch_object_granules(&mut self, start_granule: usize, granules: usize) {
        let start = start_granule * GRANULE;
        self.pages
            .touch_range(Space::Arena, start, start + granules * GRANULE);
    }
}
