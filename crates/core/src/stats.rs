//! Collection statistics — every quantity the paper's evaluation reports
//! (Figures 10–15 and 21–23), plus the pause-time histograms the paper's
//! §8.2 latency discussion calls for.

use std::time::Duration;

use otf_support::hist::Snapshot;

/// Kind of a collection cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CycleKind {
    /// Collection of the young generation only (§3.2).
    #[default]
    Partial,
    /// Collection of the entire heap.  Every non-generational cycle is
    /// `Full`.
    Full,
}

impl std::fmt::Display for CycleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CycleKind::Partial => "partial",
            CycleKind::Full => "full",
        })
    }
}

/// Per-phase timing breakdown of one cycle.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimes {
    /// `InitFullCollection` heap pass (full collections only).
    pub init: Duration,
    /// Handshake latency (all three handshakes).
    pub handshakes: Duration,
    /// Dirty-card scanning (`ClearCards`).
    pub cards: Duration,
    /// Global-root marking inside the third handshake window (trace
    /// work, not handshake latency — its own slot so handshake SLOs
    /// aren't inflated by root-set size).
    pub roots: Duration,
    /// Transitive marking (the trace bucket's wall span).
    pub trace: Duration,
    /// The sweep pass.
    pub sweep: Duration,
    /// Vestige: always zero.  It was the wall time of the overlapped
    /// cards∥roots∥trace window, which is gone (DESIGN.md §4.9); the
    /// field stays only because `benchmark/src/ledger.rs` still reads
    /// it, and goes when a `[benchmark]` PR drops that arm.
    pub mark_wall: Duration,
}

/// Everything measured about one collection cycle.
#[derive(Copy, Clone, Debug, Default)]
pub struct CycleStats {
    /// Partial or full.
    pub kind: CycleKind,
    /// Wall-clock duration of the whole cycle (the paper's "time active
    /// GC", Figure 13 — on-the-fly, so mutators keep running meanwhile).
    pub duration: Duration,
    /// Phase breakdown.
    pub phases: PhaseTimes,
    /// Objects traced (marked) during the cycle — the paper's "objects
    /// scanned in collection" (Figure 11).
    pub objects_traced: u64,
    /// Old objects scanned *because they sat on dirty cards* — the paper's
    /// "objects scanned for inter-generational pointers" (Figure 11).
    pub intergen_objects: u64,
    /// Bytes of old objects scanned on dirty cards — the paper's "area
    /// scanned for dirty cards" (Figure 23).
    pub intergen_bytes: u64,
    /// Dirty cards found at the start of the cycle (Figure 22).
    pub dirty_cards: u64,
    /// Cards covering the allocated part of the heap (denominator for the
    /// percentage of dirty cards, Figure 22).
    pub cards_in_use: u64,
    /// Objects reclaimed by sweep (Figure 14).
    pub objects_freed: u64,
    /// Bytes reclaimed by sweep (Figure 14).
    pub bytes_freed: u64,
    /// Live objects that survived the sweep.
    pub objects_survived: u64,
    /// Bytes of surviving objects.
    pub bytes_survived: u64,
    /// Distinct 4 KB pages the collector touched (arena + side tables) —
    /// Figure 15.
    pub pages_touched: u64,
    /// Heap bytes in use when the cycle began.
    pub used_before: usize,
    /// Heap bytes in use when the cycle finished.
    pub used_after: usize,
    /// Bytes allocated since the previous cycle (the §3.3 trigger input).
    pub allocated_since_last: u64,
    /// Full collections: the live set the heap was sized from, in bytes
    /// (`bytes_survived` less what was allocated after the toggle
    /// handshake).  Zero on partials.
    pub live_bytes: u64,
    /// Full collections: the committed size the sizing rule asked for
    /// (before the `max_heap` cap and the thrash backstop).  Zero on
    /// partials.
    pub target_bytes: u64,
}

impl CycleStats {
    /// Fraction of young objects reclaimed this cycle:
    /// freed / (freed + survived-young).  For partial collections this is
    /// the paper's "percentage of objects freed in partial collections"
    /// (Figure 12).
    pub fn percent_objects_freed(&self) -> f64 {
        let survivors = match self.kind {
            // The young generation of a partial collection is what it
            // freed plus what it promoted (newly traced objects, minus
            // old objects re-scanned off dirty cards); old-generation
            // bystanders don't belong in the denominator.
            CycleKind::Partial => self.objects_traced.saturating_sub(self.intergen_objects),
            CycleKind::Full => self.objects_survived,
        };
        let total = self.objects_freed + survivors;
        if total == 0 {
            0.0
        } else {
            100.0 * self.objects_freed as f64 / total as f64
        }
    }

    /// Fraction of bytes reclaimed this cycle (Figure 12, bytes column).
    pub fn percent_bytes_freed(&self) -> f64 {
        let total = self.bytes_freed + self.bytes_survived;
        if total == 0 {
            0.0
        } else {
            100.0 * self.bytes_freed as f64 / total as f64
        }
    }

    /// Percentage of in-use cards that were dirty (Figure 22).
    pub fn percent_dirty_cards(&self) -> f64 {
        if self.cards_in_use == 0 {
            0.0
        } else {
            100.0 * self.dirty_cards as f64 / self.cards_in_use as f64
        }
    }
}

/// A point-in-time snapshot of all collector statistics, returned by
/// [`Gc::stats`](crate::Gc::stats).
#[derive(Clone, Debug, Default)]
pub struct GcStats {
    /// Per-cycle records, oldest first.
    pub cycles: Vec<CycleStats>,
    /// Total objects ever allocated.
    pub objects_allocated: u64,
    /// Total bytes ever allocated (granule-rounded).
    pub bytes_allocated: u64,
    /// Wall-clock time since the collector was created.
    pub elapsed: Duration,
    /// Total time a collection cycle was active (sum of cycle durations).
    pub gc_active: Duration,
    /// Histogram of every GC-induced mutator pause, in nanoseconds: the
    /// `cooperate` slow path (handshake adoption, including root marking
    /// on the third handshake) and allocation stalls.  The paper's
    /// central claim is that these stay bounded by handshake response
    /// time rather than heap size.
    pub pause: Snapshot,
    /// Histogram of handshake response latency (`postHandshake` → a
    /// mutator's adoption in `cooperate`), in nanoseconds.
    pub handshake: Snapshot,
    /// Histogram of allocation stalls (mutator blocked on a full
    /// collection), in nanoseconds.  Also folded into [`pause`].
    ///
    /// [`pause`]: GcStats::pause
    pub alloc_stall: Snapshot,
    /// Write-barrier slow-path hits: barriers that took a graying branch
    /// rather than a plain store (+ card mark).
    pub barrier_slow_hits: u64,
    /// Trace-ring events overwritten before they could be drained.
    /// Nonzero means any drained event trace is truncated at its old end
    /// (the ring keeps only the most recent 2¹⁴ events).
    pub dropped_events: u64,
    /// Handshake-watchdog trips: times a handshake stalled past a report
    /// deadline (1 s, then 3 s and 7 s after it was posted; the third
    /// aborts the cycle) and the collector reported the unresponsive
    /// mutators instead of hanging silently.
    pub watchdog_trips: u64,
    /// Whether the collector is permanently gone (poisoned shutdown):
    /// no further collection will run; allocation continues in grow-only
    /// mode and fails with `AllocError::CollectorUnavailable`.  A panic
    /// only poisons once [`MAX_COLLECTOR_RESTARTS`](crate::MAX_COLLECTOR_RESTARTS)
    /// restarts in a row have failed to complete a cycle, or when the
    /// abort protocol itself panics; until then the supervisor recovers
    /// and this stays `false`.
    pub collector_poisoned: bool,
    /// Times the supervisor respawned the collector thread after a panic,
    /// over the collector's lifetime (only runs of consecutive restarts
    /// are bounded; DESIGN.md §4.8).
    pub collector_restarts: u64,
    /// Collection cycles aborted mid-flight by the safe abort protocol
    /// and rolled forward to a no-op.  An aborted cycle frees nothing —
    /// its garbage floats to the next completed collection.
    pub cycles_aborted: u64,
    /// Histogram of safe cycle-abort durations (handshake restore +
    /// live repaint), in nanoseconds.
    pub recovery: Snapshot,
    /// Histogram of LAB-refill latency, in nanoseconds.  One sample is
    /// one *exchange* with the pool — the previous queue's leftovers
    /// back, up to 64 holes out (DESIGN.md §4.13) — not one hole, so its
    /// quantiles are those of a whole queue: the count, and count × mean
    /// as a share of mutator time, are what compare across a change.  A
    /// refill that has to wait for a full collection is timed whole.
    pub lab_refill: Snapshot,
    /// Heap bytes in use at snapshot time (object bytes plus leased
    /// LABs).  In a post-shutdown snapshot every LAB has been retired,
    /// so this counts object bytes only.
    pub used_bytes: usize,
}

impl GcStats {
    /// Cycles of the given kind.
    pub fn cycles_of(&self, kind: CycleKind) -> impl Iterator<Item = &CycleStats> {
        self.cycles.iter().filter(move |c| c.kind == kind)
    }

    /// Number of partial collections.
    pub fn partial_count(&self) -> usize {
        self.cycles_of(CycleKind::Partial).count()
    }

    /// Number of full collections.
    pub fn full_count(&self) -> usize {
        self.cycles_of(CycleKind::Full).count()
    }

    /// Mean of `f` over cycles of `kind`; `None` if there were none.
    /// The figures' per-kind averages are this over one field, e.g.
    /// `mean_over(kind, |c| c.objects_freed as f64)` (Figure 14) or
    /// `mean_over(kind, CycleStats::percent_dirty_cards)` (Figure 22).
    pub fn mean_over<F: Fn(&CycleStats) -> f64>(&self, kind: CycleKind, f: F) -> Option<f64> {
        let mut n = 0u64;
        let mut sum = 0.0;
        for c in self.cycles_of(kind) {
            n += 1;
            sum += f(c);
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// The longest GC-induced mutator pause observed.
    pub fn max_pause(&self) -> Duration {
        Duration::from_nanos(self.pause.max())
    }

    /// The `q`-quantile (`0.0..=1.0`) of GC-induced mutator pauses.
    pub fn pause_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.pause.quantile(q))
    }

    /// The `q`-quantile (`0.0..=1.0`) of handshake response latency.
    pub fn handshake_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.handshake.quantile(q))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A cycle record with `freed` objects freed and `survived` traced
    /// and surviving (32 bytes each); the other counts are fixed.
    pub(crate) fn cycle(kind: CycleKind, freed: u64, survived: u64) -> CycleStats {
        CycleStats {
            kind,
            duration: Duration::from_millis(10),
            phases: PhaseTimes::default(),
            objects_traced: survived,
            intergen_objects: 1,
            intergen_bytes: 64,
            dirty_cards: 5,
            cards_in_use: 50,
            objects_freed: freed,
            bytes_freed: freed * 32,
            objects_survived: survived,
            bytes_survived: survived * 32,
            pages_touched: 7,
            used_before: 1000,
            used_after: 500,
            allocated_since_last: 4096,
            live_bytes: 0,
            target_bytes: 0,
        }
    }

    #[test]
    fn percentages() {
        // Partial: denominator is the young generation = freed + newly
        // promoted (traced − intergen re-scans): 75 / (75 + 25 - 1).
        let c = cycle(CycleKind::Partial, 75, 25);
        assert!((c.percent_objects_freed() - 100.0 * 75.0 / 99.0).abs() < 1e-9);
        assert!((c.percent_bytes_freed() - 75.0).abs() < 1e-9);
        assert!((c.percent_dirty_cards() - 10.0).abs() < 1e-9);
        // Full: denominator is everything allocated = freed + survivors.
        let c = cycle(CycleKind::Full, 75, 25);
        assert!((c.percent_objects_freed() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cycle_percentages_are_zero() {
        let mut c = cycle(CycleKind::Full, 0, 0);
        c.cards_in_use = 0;
        assert_eq!(c.percent_objects_freed(), 0.0);
        assert_eq!(c.percent_bytes_freed(), 0.0);
        assert_eq!(c.percent_dirty_cards(), 0.0);
    }

    #[test]
    fn aggregation_by_kind() {
        let stats = GcStats {
            cycles: vec![
                cycle(CycleKind::Partial, 10, 10),
                cycle(CycleKind::Partial, 30, 10),
                cycle(CycleKind::Full, 100, 100),
            ],
            objects_allocated: 260,
            bytes_allocated: 260 * 32,
            elapsed: Duration::from_millis(100),
            gc_active: Duration::from_millis(30),
            ..GcStats::default()
        };
        assert_eq!(stats.partial_count(), 2);
        assert_eq!(stats.full_count(), 1);
        let freed = |c: &CycleStats| c.objects_freed as f64;
        assert_eq!(stats.mean_over(CycleKind::Partial, freed), Some(20.0));
        assert_eq!(stats.mean_over(CycleKind::Full, freed), Some(100.0));
    }

    #[test]
    fn pause_helpers_read_histograms() {
        let h = otf_support::hist::Histogram::new();
        h.record(1_000);
        h.record(2_000);
        let stats = GcStats {
            pause: h.snapshot(),
            ..GcStats::default()
        };
        assert_eq!(stats.max_pause(), Duration::from_nanos(2_000));
        assert!(stats.pause_quantile(0.5) <= stats.pause_quantile(1.0));
        assert_eq!(stats.pause_quantile(1.0), stats.max_pause());
        // Empty histograms answer zero, not garbage.
        assert_eq!(stats.handshake_quantile(0.99), Duration::ZERO);
    }

    #[test]
    fn means_over_empty_are_none() {
        let stats = GcStats::default();
        let ms = |c: &CycleStats| c.duration.as_secs_f64() * 1e3;
        assert_eq!(stats.mean_over(CycleKind::Partial, ms), None);
        assert_eq!(
            stats.mean_over(CycleKind::Full, |c| c.pages_touched as f64),
            None
        );
    }
}
