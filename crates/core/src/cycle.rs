//! Per-cycle collector context: the cycle's record, page-touch tracking
//! and the mark stack, threaded through every collection phase.

use otf_heap::{ObjectRef, PageTracker, Space, GRANULE};

use crate::control::Cause;
use crate::shared::GcShared;
use crate::stats::{CycleKind, CycleStats};

/// Collector-thread-private context for one cycle.
#[derive(Debug)]
pub(crate) struct CycleCx {
    /// The cycle's record: every phase adds its counters and timings
    /// here in place, and `run_cycle` returns it.
    pub stats: CycleStats,
    pub pages: PageTracker,
    /// The collector's private mark stack: gray objects the collector
    /// discovers (sons, cards, global roots) go straight here, and each
    /// trace round moves the shared gray list onto it whole, so every pop
    /// is lock-free.
    pub mark_stack: Vec<ObjectRef>,
    /// What requested the cycle about to run: the collector loop sets
    /// it from the request it takes, and the cycle's `CycleBegin` event
    /// records it.  A cycle run directly (the unit tests) reads
    /// `Requested`.
    pub cause: Cause,
}

impl CycleCx {
    /// Creates a context sized for `shared`'s heap and tables.
    pub(crate) fn new(shared: &GcShared) -> CycleCx {
        CycleCx {
            stats: CycleStats::default(),
            pages: PageTracker::new(
                shared.heap.max_bytes(),
                shared.heap.colors().table_bytes(),
                shared.cards.table_bytes(),
                shared.heap.ages().table_bytes(),
            ),
            mark_stack: Vec::with_capacity(1024),
            cause: Cause::Requested,
        }
    }

    /// Resets all per-cycle state for a cycle of `kind`.
    pub(crate) fn reset(&mut self, kind: CycleKind) {
        self.stats = CycleStats {
            kind,
            ..CycleStats::default()
        };
        self.pages.reset();
        self.mark_stack.clear();
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
