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

/// What the handshake watchdog does once a stalled handshake has climbed
/// the escalation ladder (DESIGN.md §4.8).
///
/// The first stall report is always a warning and the second always adds
/// an event-trace dump; the policy decides whether the third rung aborts
/// the wedged cycle by panicking the collector thread into its
/// supervisor, which runs the safe cycle-abort protocol and (when
/// restarts remain) respawns the collector.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StallPolicy {
    /// Keep warning (rate-limited) and wait forever — the protocol
    /// cannot proceed without the ack, but every report names the
    /// culprits.  The default.
    Warn,
    /// Stop at the trace-dump rung: warn, then dump, then keep waiting
    /// with rate-limited reports.
    TraceDump,
    /// After warning and dumping, abort the wedged cycle: panic the
    /// collector into its supervisor so the safe abort protocol runs.
    /// With `max_collector_restarts == 0` this degrades to the permanent
    /// poison fallback.
    AbortCycle,
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
    /// Young-generation size in bytes: a partial collection is triggered
    /// once this much has been allocated since the last collection (§3.3).
    pub young_size: usize,
    /// Card size in bytes; power of two in `[16, 4096]` (§8.5.3).
    pub card_size: usize,
    /// Generational or baseline mode.
    pub mode: Mode,
    /// A full collection is triggered when the heap is "almost full":
    /// used ≥ `full_trigger_fraction · committed` (§3.3).
    pub full_trigger_fraction: f64,
    /// Post-full-collection occupancy target: the committed heap grows
    /// until live data occupies at most this fraction of it (the paper's
    /// JVM grew its heap toward 32 MB under pressure the same way).
    pub grow_fraction: f64,
    /// LAB (thread-local allocation buffer) size in granules.
    pub lab_granules: u32,
    /// Whether to record structured GC events into the trace ring
    /// (drainable as JSONL; see `Gc::events`).  Also enabled by setting
    /// the `OTF_GC_TRACE` environment variable.  Latency histograms are
    /// always on; only event tracing is gated.
    pub trace_events: bool,
    /// Handshake-watchdog stall threshold in milliseconds: when a
    /// handshake has been outstanding this long, the collector names the
    /// non-cooperating mutators on stderr (and dumps the event-trace
    /// ring, when tracing is on) instead of hanging silently, then keeps
    /// waiting — the protocol cannot proceed without the ack, but the
    /// hang is now diagnosable.  `0` disables the watchdog.
    pub handshake_stall_ms: u64,
    /// Number of collector worker threads for the trace and sweep phases
    /// (§4.4).  `1` (the default) is the paper's single-collector
    /// configuration — the verified DLG protocol with no parallel-
    /// termination machinery on the hot path.  `N > 1` runs mark with
    /// per-worker work-stealing deques and sweep over page-partitioned
    /// segments.  The constructors read the `OTF_GC_THREADS` environment
    /// variable as the default, so test matrices can parallelize every
    /// collector without code changes.
    pub gc_threads: usize,
    /// Opt-in lazy (allocation-time) sweep, Nofl/Immix-style (DESIGN.md
    /// §4.6).  `false` (the default) keeps the eager serial/parallel
    /// sweep byte-for-byte.  `true` turns the collector's cycle
    /// mark-only: where the sweep phase used to run, the collector
    /// finalizes the previous sweep epoch and publishes a new one; the
    /// actual reclamation is done by mutators at LAB-refill time
    /// (sweep-to-allocate) and by the collector draining leftover
    /// segments between cycles.  The constructors read the
    /// `OTF_GC_LAZY_SWEEP` environment variable (`1` enables) as the
    /// default, mirroring `OTF_GC_THREADS`.
    pub lazy_sweep: bool,
    /// How many times the collector supervisor may respawn the collector
    /// thread after a panic (DESIGN.md §4.8).  `0` (the default) keeps
    /// the PR-4 behavior byte-for-byte: the first panic permanently
    /// poisons the collector and blocked allocations fail with
    /// `AllocError::CollectorUnavailable`.  `N > 0` lets the supervisor
    /// run the safe cycle-abort protocol and restart the collector up to
    /// `N` times, with exponential backoff between attempts.  The
    /// constructors read the `OTF_GC_MAX_RESTARTS` environment variable
    /// as the default.
    pub max_collector_restarts: u32,
    /// Base delay in milliseconds between a cycle abort and the next
    /// collector incarnation; doubled per restart already consumed
    /// (capped at one second).  Only meaningful with
    /// `max_collector_restarts > 0`.
    pub collector_restart_backoff_ms: u64,
    /// What the handshake watchdog escalates to once a stalled handshake
    /// has been reported twice (see [`StallPolicy`]).  The constructors
    /// read the `OTF_GC_STALL_POLICY` environment variable
    /// (`warn` / `trace-dump` / `abort-cycle`) as the default.
    pub handshake_stall_policy: StallPolicy,
}

/// Reads the `OTF_GC_THREADS` default for the constructors (falls back
/// to 1 — the single-collector configuration — when unset or invalid).
fn gc_threads_from_env() -> usize {
    std::env::var("OTF_GC_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| (1..=MAX_GC_THREADS).contains(&n))
        .unwrap_or(1)
}

/// Upper bound on [`GcConfig::gc_threads`] — far above any sensible
/// worker count, present so a typo'd configuration fails validation
/// instead of spawning thousands of threads per cycle.
pub const MAX_GC_THREADS: usize = 64;

/// Reads the `OTF_GC_LAZY_SWEEP` default for the constructors (any
/// nonzero integer enables; falls back to `false` — the eager sweep —
/// when unset or invalid).
fn lazy_sweep_from_env() -> bool {
    std::env::var("OTF_GC_LAZY_SWEEP")
        .ok()
        .and_then(|v| v.trim().parse::<u8>().ok())
        .map(|v| v != 0)
        .unwrap_or(false)
}

/// Reads the `OTF_GC_MAX_RESTARTS` default for the constructors (falls
/// back to 0 — the permanent-poison fallback — when unset or invalid).
fn max_restarts_from_env() -> u32 {
    std::env::var("OTF_GC_MAX_RESTARTS")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .unwrap_or(0)
}

/// Reads the `OTF_GC_STALL_POLICY` default for the constructors (falls
/// back to [`StallPolicy::Warn`] when unset or invalid).
fn stall_policy_from_env() -> StallPolicy {
    match std::env::var("OTF_GC_STALL_POLICY").as_deref() {
        Ok("warn") => StallPolicy::Warn,
        Ok("trace-dump") => StallPolicy::TraceDump,
        Ok("abort-cycle") => StallPolicy::AbortCycle,
        _ => StallPolicy::Warn,
    }
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
            full_trigger_fraction: 0.75,
            grow_fraction: 0.55,
            lab_granules: otf_heap::DEFAULT_LAB_GRANULES,
            trace_events: false,
            handshake_stall_ms: 1000,
            gc_threads: gc_threads_from_env(),
            lazy_sweep: lazy_sweep_from_env(),
            max_collector_restarts: max_restarts_from_env(),
            collector_restart_backoff_ms: 10,
            handshake_stall_policy: stall_policy_from_env(),
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

    /// Sets the LAB size in granules.
    pub fn with_lab_granules(mut self, granules: u32) -> GcConfig {
        self.lab_granules = granules.max(1);
        self
    }

    /// Enables (or disables) structured GC event tracing.
    pub fn with_event_trace(mut self, enabled: bool) -> GcConfig {
        self.trace_events = enabled;
        self
    }

    /// Sets the handshake-watchdog stall threshold in milliseconds
    /// (`0` disables the watchdog).
    pub fn with_handshake_stall_ms(mut self, ms: u64) -> GcConfig {
        self.handshake_stall_ms = ms;
        self
    }

    /// Sets the number of collector worker threads (clamped to at least
    /// 1; see [`GcConfig::gc_threads`]).
    pub fn with_gc_threads(mut self, n: usize) -> GcConfig {
        self.gc_threads = n.max(1);
        self
    }

    /// Enables (or disables) the lazy allocation-time sweep (see
    /// [`GcConfig::lazy_sweep`]).
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

    /// Sets how many times the supervisor may restart a panicked
    /// collector (`0` = permanent poison on the first panic; see
    /// [`GcConfig::max_collector_restarts`]).
    pub fn with_max_collector_restarts(mut self, n: u32) -> GcConfig {
        self.max_collector_restarts = n;
        self
    }

    /// Sets the base restart backoff in milliseconds (see
    /// [`GcConfig::collector_restart_backoff_ms`]).
    pub fn with_collector_restart_backoff_ms(mut self, ms: u64) -> GcConfig {
        self.collector_restart_backoff_ms = ms;
        self
    }

    /// Sets the watchdog escalation policy (see [`StallPolicy`]).
    pub fn with_handshake_stall_policy(mut self, policy: StallPolicy) -> GcConfig {
        self.handshake_stall_policy = policy;
        self
    }

    /// Whether this configuration is generational.
    pub fn is_generational(&self) -> bool {
        matches!(self.mode, Mode::Generational(_))
    }

    /// The name of the plan this configuration selects — the
    /// (mode × sweep-backend) combination whose packet sets the cycle
    /// schedule is built from (DESIGN.md §4.7).
    pub fn plan_name(&self) -> &'static str {
        match (self.mode, self.lazy_sweep) {
            (Mode::Generational(Promotion::Simple), false) => "gen-eager",
            (Mode::Generational(Promotion::Simple), true) => "gen-lazy",
            (Mode::Generational(Promotion::Aging { .. }), false) => "aging-eager",
            (Mode::Generational(Promotion::Aging { .. }), true) => "aging-lazy",
            (Mode::NonGenerational, false) => "nogen-eager",
            (Mode::NonGenerational, true) => "nogen-lazy",
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
        if !self.card_size.is_power_of_two()
            || !(MIN_CARD_SIZE..=MAX_CARD_SIZE).contains(&self.card_size)
        {
            return Err(format!(
                "card size {} not a power of two in [16, 4096]",
                self.card_size
            ));
        }
        if !(0.0..=1.0).contains(&self.full_trigger_fraction)
            || !(0.0..=1.0).contains(&self.grow_fraction)
        {
            return Err("trigger fractions must be in [0, 1]".into());
        }
        if let Some(t) = self.aging_threshold() {
            if t < 2 {
                return Err("aging threshold must be at least 2".into());
            }
        }
        if !(1..=MAX_GC_THREADS).contains(&self.gc_threads) {
            return Err(format!(
                "gc_threads {} not in [1, {MAX_GC_THREADS}]",
                self.gc_threads
            ));
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
    fn plan_names_cover_mode_and_backend() {
        assert_eq!(GcConfig::generational().plan_name(), "gen-eager");
        assert_eq!(
            GcConfig::generational().with_lazy_sweep(true).plan_name(),
            "gen-lazy"
        );
        assert_eq!(GcConfig::aging(3).plan_name(), "aging-eager");
        assert_eq!(
            GcConfig::aging(3).with_lazy_sweep(true).plan_name(),
            "aging-lazy"
        );
        assert_eq!(GcConfig::non_generational().plan_name(), "nogen-eager");
        assert_eq!(
            GcConfig::non_generational()
                .with_lazy_sweep(true)
                .plan_name(),
            "nogen-lazy"
        );
    }

    #[test]
    fn defaults_match_paper() {
        let c = GcConfig::default();
        assert_eq!(c.max_heap, 32 << 20);
        assert_eq!(c.initial_heap, 1 << 20);
        assert_eq!(c.young_size, 4 << 20);
        assert_eq!(c.card_size, 16);
        assert!(c.is_generational());
        assert!(c.validate().is_ok());
        assert_eq!(c.handshake_stall_policy, stall_policy_from_env());
        assert_eq!(c.collector_restart_backoff_ms, 10);
    }

    #[test]
    fn supervision_builders_chain() {
        let c = GcConfig::generational()
            .with_max_collector_restarts(3)
            .with_collector_restart_backoff_ms(1)
            .with_handshake_stall_policy(StallPolicy::AbortCycle);
        assert_eq!(c.max_collector_restarts, 3);
        assert_eq!(c.collector_restart_backoff_ms, 1);
        assert_eq!(c.handshake_stall_policy, StallPolicy::AbortCycle);
        assert!(c.validate().is_ok());
    }

    /// Pins the vestiges: `benchmark -- --shards N` and `-- --overlap`
    /// are the baseline run — same configuration, same schedule.
    #[test]
    fn vestige_builders_are_no_ops() {
        use crate::plan::CycleFrame;
        use crate::shared::GcShared;
        use crate::stats::CycleKind;
        use otf_support::packet::Schedule;

        let buckets = |cfg: GcConfig| {
            let sh = GcShared::new(cfg);
            let frame = CycleFrame::new(1);
            let mut sched = Schedule::new();
            sh.build_cycle_schedule(&mut sched, CycleKind::Partial, &frame, 1);
            sched.bucket_names()
        };
        let base = GcConfig::generational;
        for (name, built) in [
            ("with_alloc_shards", base().with_alloc_shards(2)),
            ("with_overlap_phases", base().with_overlap_phases(true)),
        ] {
            assert_eq!(format!("{built:?}"), format!("{:?}", base()), "{name}");
            assert_eq!(buckets(built), buckets(base()), "{name}");
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
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn aging_threshold_one_panics() {
        let _ = GcConfig::aging(1);
    }

    #[test]
    fn gc_threads_clamped_and_validated() {
        assert_eq!(GcConfig::generational().with_gc_threads(0).gc_threads, 1);
        let c = GcConfig::generational().with_gc_threads(4);
        assert_eq!(c.gc_threads, 4);
        assert!(c.validate().is_ok());
        let mut c = GcConfig::generational();
        c.gc_threads = MAX_GC_THREADS + 1;
        assert!(c.validate().is_err());
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
