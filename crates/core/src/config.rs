//! Collector configuration (the paper's tuning parameters, §8.3/§8.5).

use otf_heap::{GRANULE, MAX_CARD_SIZE, MAX_HEAP_GRANULES, MIN_CARD_SIZE};

/// How surviving objects are promoted to the old generation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Promotion {
    /// Promote after surviving a single collection (§3): black ⇔ old.
    /// The paper's best-performing policy.
    Simple,
    /// The aging mechanism (§6): objects are tenured only after surviving
    /// `threshold` collections, tracked in a separate age table.
    Aging {
        /// Tenuring threshold ("age N is old").  The paper evaluates
        /// 2, 4, 6, 8 and 10 (Figures 18–20).
        threshold: u8,
    },
}

/// Collector mode: the non-generational DLG baseline or the paper's
/// generational extension.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The original on-the-fly collector, *with* the color toggle
    /// (Remark 5.1: the baseline also gets the toggle so the comparison
    /// isolates generations).  Every collection is a full collection and
    /// the write barrier never touches the card table.
    NonGenerational,
    /// The generational collector with the given promotion policy.
    Generational(Promotion),
}

/// Configuration for [`Gc::new`](crate::Gc::new).
///
/// The defaults are the paper's chosen parameters: 1 MB initial / 32 MB
/// maximum heap, a 4 MB young generation, 16-byte cards ("object
/// marking"), and simple promotion.
///
/// # Examples
///
/// ```
/// use otf_gc::{GcConfig, Promotion};
/// let cfg = GcConfig::generational()
///     .with_young_size(8 << 20)
///     .with_card_size(4096) // block marking
///     .with_promotion(Promotion::Aging { threshold: 4 });
/// assert_eq!(cfg.card_size, 4096);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct GcConfig {
    /// Maximum heap size in bytes (reserved up front).
    pub max_heap: usize,
    /// Initially committed heap size in bytes.
    pub initial_heap: usize,
    /// Young-generation size in bytes, non-zero: a partial collection is
    /// triggered once this much has been allocated since the last
    /// collection (§3.3).
    pub young_size: usize,
    /// Card size in bytes; power of two in `[16, 4096]` (§8.5.3).
    pub card_size: usize,
    /// Generational or baseline mode.
    pub mode: Mode,
    /// Whether to record structured GC events into the trace ring
    /// (drainable as JSONL; see `Gc::events`).  Latency histograms are
    /// always on; only event tracing is gated.
    pub trace_events: bool,
    /// Vestige: recorded, never read.  The allocation-time sweep it used
    /// to select is gone (DESIGN.md §4.6); the collector always sweeps
    /// at the end of its cycle.  The field stays only because
    /// `benchmark/src/cli.rs:60` (`--lazy`) sets it through
    /// [`GcConfig::with_lazy_sweep`], `cli.rs:197` asserts it, and
    /// `benchmark/tests/smoke.rs:75` looks for `lazy_sweep: false` in
    /// this struct's `Debug` output; field and builder go when a
    /// `[benchmark]` PR drops those lines.
    pub lazy_sweep: bool,
}

impl GcConfig {
    /// The paper's best generational configuration: simple promotion,
    /// 4 MB young generation, 16-byte cards.
    pub fn generational() -> GcConfig {
        GcConfig {
            max_heap: 32 << 20,
            initial_heap: 1 << 20,
            young_size: 4 << 20,
            card_size: 16,
            mode: Mode::Generational(Promotion::Simple),
            trace_events: false,
            lazy_sweep: false,
        }
    }

    /// The non-generational DLG baseline (with the color toggle).
    pub fn non_generational() -> GcConfig {
        GcConfig {
            mode: Mode::NonGenerational,
            ..GcConfig::generational()
        }
    }

    /// Generational with the aging promotion policy.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 2` (age 1 is the infant age, so a threshold
    /// of 2 is the earliest possible tenuring — the paper's Figure 20).
    pub fn aging(threshold: u8) -> GcConfig {
        assert!(threshold >= 2, "aging threshold must be at least 2");
        GcConfig {
            mode: Mode::Generational(Promotion::Aging { threshold }),
            ..GcConfig::generational()
        }
    }

    /// Sets the maximum heap size in bytes.
    pub fn with_max_heap(mut self, bytes: usize) -> GcConfig {
        self.max_heap = bytes;
        self
    }

    /// Sets the initially committed heap size in bytes.
    pub fn with_initial_heap(mut self, bytes: usize) -> GcConfig {
        self.initial_heap = bytes;
        self
    }

    /// Sets the young-generation size in bytes.
    pub fn with_young_size(mut self, bytes: usize) -> GcConfig {
        self.young_size = bytes;
        self
    }

    /// Sets the card size in bytes (power of two in `[16, 4096]`).
    pub fn with_card_size(mut self, bytes: usize) -> GcConfig {
        self.card_size = bytes;
        self
    }

    /// Sets the promotion policy (switches to generational mode).
    pub fn with_promotion(mut self, promotion: Promotion) -> GcConfig {
        self.mode = Mode::Generational(promotion);
        self
    }

    /// Enables (or disables) structured GC event tracing.
    pub fn with_event_trace(mut self, enabled: bool) -> GcConfig {
        self.trace_events = enabled;
        self
    }

    /// Sets [`GcConfig::lazy_sweep`], which nothing reads: the
    /// configuration runs exactly as without the call.
    pub fn with_lazy_sweep(mut self, enabled: bool) -> GcConfig {
        self.lazy_sweep = enabled;
        self
    }

    /// Vestige: does nothing and returns `self`.  The sharded heap
    /// back-end it used to select is gone (DESIGN.md §4.5); the method
    /// stays only because `benchmark/src/cli.rs:57` (`--shards`, which
    /// `benchmark/tests/smoke.rs:187` runs) still calls it, and goes when
    /// a `[benchmark]` PR drops that flag.
    pub fn with_alloc_shards(self, _n: usize) -> GcConfig {
        self
    }

    /// Vestige: does nothing and returns `self`.  The overlapped mark
    /// pipeline it used to select is gone (DESIGN.md §4.9); the method
    /// stays only because `benchmark/src/cli.rs:63` (`--overlap`) still
    /// calls it, and goes when a `[benchmark]` PR drops that flag.
    pub fn with_overlap_phases(self, _enabled: bool) -> GcConfig {
        self
    }

    /// Vestige: does nothing and returns `self`.  The parallel collector
    /// it used to size is gone (DESIGN.md §4.4); one collector thread
    /// runs every cycle.  The method stays only because
    /// `benchmark/src/cli.rs:54` (`--gc-threads`) still calls it, and
    /// goes when a `[benchmark]` PR drops that flag.
    pub fn with_gc_threads(self, _n: usize) -> GcConfig {
        self
    }

    /// Whether this configuration is generational.
    pub fn is_generational(&self) -> bool {
        matches!(self.mode, Mode::Generational(_))
    }

    /// The name of the plan this configuration selects — the mode that
    /// picks the cycle's init and card steps (DESIGN.md §4.7).
    pub fn plan_name(&self) -> &'static str {
        match self.mode {
            Mode::Generational(Promotion::Simple) => "gen",
            Mode::Generational(Promotion::Aging { .. }) => "aging",
            Mode::NonGenerational => "nogen",
        }
    }

    /// The aging threshold, if the aging policy is selected.
    pub fn aging_threshold(&self) -> Option<u8> {
        match self.mode {
            Mode::Generational(Promotion::Aging { threshold }) => Some(threshold),
            _ => None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_heap == 0 || self.initial_heap == 0 {
            return Err("heap sizes must be non-zero".into());
        }
        if self.initial_heap > self.max_heap {
            return Err("initial heap exceeds maximum heap".into());
        }
        if self.young_size == 0 {
            return Err("young generation size must be non-zero".into());
        }
        if !self.card_size.is_power_of_two()
            || !(MIN_CARD_SIZE..=MAX_CARD_SIZE).contains(&self.card_size)
        {
            return Err(format!(
                "card size {} not a power of two in [16, 4096]",
                self.card_size
            ));
        }
        if let Some(t) = self.aging_threshold() {
            if t < 2 {
                return Err("aging threshold must be at least 2".into());
            }
        }
        if self.max_heap.div_ceil(GRANULE) > MAX_HEAP_GRANULES {
            return Err(format!(
                "max_heap {} exceeds the u32 object-offset space ({} bytes)",
                self.max_heap,
                MAX_HEAP_GRANULES as u64 * GRANULE as u64,
            ));
        }
        Ok(())
    }
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig::generational()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_names_cover_every_mode() {
        assert_eq!(GcConfig::generational().plan_name(), "gen");
        assert_eq!(GcConfig::aging(3).plan_name(), "aging");
        assert_eq!(GcConfig::non_generational().plan_name(), "nogen");
    }

    #[test]
    fn defaults_match_paper() {
        let c = GcConfig::default();
        assert_eq!(c.max_heap, 32 << 20);
        assert_eq!(c.initial_heap, 1 << 20);
        assert_eq!(c.young_size, 4 << 20);
        assert_eq!(c.card_size, 16);
        assert!(c.is_generational());
        assert!(!c.lazy_sweep);
        assert!(c.validate().is_ok());
    }

    /// Pins the vestiges: `benchmark -- --shards N`, `-- --overlap`,
    /// `-- --lazy` and `-- --gc-threads N` are the baseline run — same
    /// configuration (up to the recorded field) and same plan.
    #[test]
    fn vestige_builders_are_no_ops() {
        let base = GcConfig::generational;
        for (name, built) in [
            ("with_alloc_shards", base().with_alloc_shards(2)),
            ("with_overlap_phases", base().with_overlap_phases(true)),
            ("with_lazy_sweep", base().with_lazy_sweep(true)),
            ("with_gc_threads", base().with_gc_threads(2)),
        ] {
            let debug = format!("{built:?}").replace("lazy_sweep: true", "lazy_sweep: false");
            assert_eq!(debug, format!("{:?}", base()), "{name}");
            assert_eq!(built.plan_name(), base().plan_name(), "{name}");
        }
    }

    #[test]
    fn builder_chains() {
        let c = GcConfig::non_generational()
            .with_max_heap(8 << 20)
            .with_initial_heap(1 << 20);
        assert!(!c.is_generational());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn aging_threshold_accessor() {
        assert_eq!(GcConfig::generational().aging_threshold(), None);
        assert_eq!(GcConfig::aging(6).aging_threshold(), Some(6));
    }

    #[test]
    fn validation_catches_bad_cards() {
        let c = GcConfig::generational().with_card_size(100);
        assert!(c.validate().is_err());
        let c = GcConfig::generational().with_card_size(8192);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_heaps() {
        let c = GcConfig::generational().with_initial_heap(64 << 20);
        assert!(c.validate().is_err());
        // A zero young generation reads every trigger check as past its
        // budget: a partial after every cycle, allocation or not.
        let c = GcConfig::generational().with_young_size(0);
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn aging_threshold_one_panics() {
        let _ = GcConfig::aging(1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_max_heap_rejected() {
        let c = GcConfig::generational()
            .with_max_heap(1usize << 33)
            .with_initial_heap(1 << 20);
        assert!(c.validate().is_err());
    }
}
