//! Deterministic fault injection: named injection points threaded through
//! the collector's race windows.
//!
//! The on-the-fly protocol (paper §7) is correct only if every mutator
//! eventually answers each soft handshake and the collector thread never
//! dies — liveness properties ordinary tests exercise only on the happy
//! schedule.  This module lets a chaos harness *drive* the system into
//! the narrow interleaving windows instead of waiting for the scheduler
//! to stumble into them:
//!
//! * **Injection points** are named call sites (`fault::point("...")`)
//!   placed inside the race windows: the handshake ack, the write-barrier
//!   window between the status read and the card mark, LAB refill, chunk
//!   allocation, collector phase transitions.
//! * **Actions** are *yield* (hand the CPU to another thread right inside
//!   the window), *delay* (sleep a bounded, seeded number of
//!   microseconds — widens the window so a racing thread can land in
//!   it), and *fail* (the call site turns the hit into an injected
//!   failure: a refused chunk allocation, a collector panic).
//! * **Determinism**: the decision for the `k`-th hit of a point is a
//!   pure function of `(plan seed, point name, k)` — no hidden RNG
//!   state, no locks on the decision path.  Per point, the same seed
//!   produces the same action sequence byte-for-byte regardless of
//!   thread interleaving; a single-threaded schedule reproduces the
//!   whole log exactly.
//!
//! ## Cost when disabled
//!
//! The registry is process-global and off by default.  A disabled
//! [`point`] is **one relaxed atomic load and one predictable branch** —
//! it never touches the plan, the log, or any lock — so the hooks can
//! stay compiled into release binaries (the collector's tier-1 pause
//! benchmarks run with the hooks in place).
//!
//! ## Usage
//!
//! ```
//! use otf_support::fault::{self, FaultPlan, FaultRule};
//!
//! let _serial = fault::exclusive(); // serialize chaos tests per process
//! fault::install(
//!     FaultPlan::new(42)
//!         .rule(FaultRule::at("mutator.cooperate").yielding(0.5))
//!         .rule(FaultRule::at("heap.alloc_chunk").failing(0.1).max_fires(3)),
//! );
//! // ... run the system; call sites consult the plan ...
//! assert!(!fault::point("unlisted.point"));
//! let log = fault::uninstall();
//! // Same seed ⇒ same per-point decision sequence.
//! # let _ = log;
//! ```
//!
//! The global registry is shared by every collector in the process, so
//! concurrent tests that install plans must serialize via
//! [`exclusive`]; the chaos harnesses in this workspace do.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an injection point did for one hit.  `None` decisions (the
/// overwhelming majority under small probabilities) are not logged.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// `std::thread::yield_now()` inside the window.
    Yield,
    /// Slept for the given number of microseconds inside the window.
    Delay {
        /// Injected sleep, in microseconds (deterministic per hit).
        micros: u64,
    },
    /// The call site was told to fail (refuse an allocation, panic the
    /// collector, ...).  At sites that cannot fail the action is a no-op
    /// but still logged.
    Fail,
}

/// One fired injection: point name, per-point hit index, action taken.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// The injection point's name.
    pub point: &'static str,
    /// Which hit of this point fired (0-based, counted per point).
    pub hit: u64,
    /// The action performed.
    pub action: FaultAction,
}

/// Injection behaviour for one named point.
///
/// Probabilities are evaluated in the order fail → delay → yield from a
/// single uniform draw, so their sum should stay ≤ 1 (excess is clamped
/// by construction of the comparison, not an error).
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// The exact point name this rule applies to.
    pub point: String,
    /// Probability a hit fails.
    pub fail: f64,
    /// Probability a hit delays.
    pub delay: f64,
    /// Upper bound (exclusive is fine) for injected delays, microseconds.
    pub max_delay_us: u64,
    /// Probability a hit yields.
    pub yield_p: f64,
    /// Maximum number of hits allowed to fire (further hits are no-ops).
    pub max_fires: u64,
    /// Hits with index `< after` never fire (the decision function is
    /// not consulted).  Combined with `max_fires`, this pins a rule to an
    /// exact window of hits — e.g. `.failing(1.0).after(3).max_fires(1)`
    /// fires precisely at the fourth hit of the point, which is how the
    /// chaos suite kills the collector at one chosen phase of a cycle.
    pub after: u64,
}

impl FaultRule {
    /// A rule for the named point that never fires until given
    /// probabilities.
    pub fn at(point: &str) -> FaultRule {
        FaultRule {
            point: point.to_string(),
            fail: 0.0,
            delay: 0.0,
            max_delay_us: 100,
            yield_p: 0.0,
            max_fires: u64::MAX,
            after: 0,
        }
    }

    /// Sets the failure probability.
    pub fn failing(mut self, p: f64) -> FaultRule {
        self.fail = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the delay probability and the delay bound in microseconds.
    pub fn delaying(mut self, p: f64, max_us: u64) -> FaultRule {
        self.delay = p.clamp(0.0, 1.0);
        self.max_delay_us = max_us.max(1);
        self
    }

    /// Sets the yield probability.
    pub fn yielding(mut self, p: f64) -> FaultRule {
        self.yield_p = p.clamp(0.0, 1.0);
        self
    }

    /// Caps how many hits of this point may fire.
    pub fn max_fires(mut self, n: u64) -> FaultRule {
        self.max_fires = n;
        self
    }

    /// Skips the first `n` hits of this point (they never fire).
    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = n;
        self
    }
}

/// A seeded set of [`FaultRule`]s: everything a chaos schedule injects.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The seed every per-hit decision derives from.
    pub seed: u64,
    /// The rules, matched by exact point name.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule.
    pub fn rule(mut self, r: FaultRule) -> FaultPlan {
        self.rules.push(r);
        self
    }
}

/// Per-rule mutable state: hit and fire counters.
#[derive(Debug)]
struct PointState {
    /// FNV-1a hash of the point name (decision-function input).
    name_hash: u64,
    hits: AtomicU64,
    fires: AtomicU64,
}

/// The installed plan plus its counters and log.
#[derive(Debug)]
struct Active {
    plan: FaultPlan,
    states: Vec<PointState>,
    log: std::sync::Mutex<Vec<FaultEvent>>,
}

/// Fast gate: the only state a disabled [`point`] reads.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan.  Read-locked per *enabled* hit only.
static ACTIVE: std::sync::RwLock<Option<Arc<Active>>> = std::sync::RwLock::new(None);

/// Serializes chaos schedules within a process (the registry is global).
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// FNV-1a, the point-name half of the decision function's input.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: one round of strong mixing.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pure decision function: what hit `k` of a point does under `rule`.
///
/// Deterministic in `(seed, name_hash, k)` alone — the property the
/// same-seed-same-sequence chaos tests assert.
fn decide(seed: u64, name_hash: u64, k: u64, rule: &FaultRule) -> Option<FaultAction> {
    let h = mix(seed ^ name_hash.rotate_left(17) ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D));
    // 53 mantissa bits give a uniform f64 in [0, 1).
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if unit < rule.fail {
        Some(FaultAction::Fail)
    } else if unit < rule.fail + rule.delay {
        let micros = 1 + mix(h) % rule.max_delay_us.max(1);
        Some(FaultAction::Delay { micros })
    } else if unit < rule.fail + rule.delay + rule.yield_p {
        Some(FaultAction::Yield)
    } else {
        None
    }
}

fn read_active() -> Option<Arc<Active>> {
    ACTIVE
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// Installs `plan` as the process-wide fault plan and enables injection.
/// Replaces any previous plan (its log is discarded).
pub fn install(plan: FaultPlan) {
    let states = plan
        .rules
        .iter()
        .map(|r| PointState {
            name_hash: fnv1a(&r.point),
            hits: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        })
        .collect();
    let active = Arc::new(Active {
        plan,
        states,
        log: std::sync::Mutex::new(Vec::new()),
    });
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(active);
    ENABLED.store(true, Ordering::Release);
}

/// Disables injection, removes the plan, and returns the log of every
/// fired injection.  A no-op empty log if nothing was installed.
pub fn uninstall() -> Vec<FaultEvent> {
    ENABLED.store(false, Ordering::Release);
    let active = ACTIVE.write().unwrap_or_else(|e| e.into_inner()).take();
    match active {
        Some(a) => std::mem::take(&mut *a.log.lock().unwrap_or_else(|e| e.into_inner())),
        None => Vec::new(),
    }
}

/// Total injections fired so far under the installed plan.
pub fn fires() -> u64 {
    match read_active() {
        Some(a) => a
            .states
            .iter()
            .map(|s| s.fires.load(Ordering::Relaxed))
            .sum(),
        None => 0,
    }
}

/// Guard serializing chaos schedules: the registry is process-global, so
/// tests that install plans take this first.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// An injection point.  Returns `true` when the installed plan injects a
/// *failure* at this hit — the call site decides what failing means (a
/// refused allocation, a panic).  Delays and yields are performed inside
/// this call, right in the caller's race window.
///
/// With no plan installed this is one relaxed load and one branch.
#[inline]
pub fn point(name: &'static str) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    point_slow(name)
}

#[cold]
fn point_slow(name: &'static str) -> bool {
    let Some(active) = read_active() else {
        return false;
    };
    let Some(idx) = active.plan.rules.iter().position(|r| r.point == name) else {
        return false;
    };
    let rule = &active.plan.rules[idx];
    let st = &active.states[idx];
    let k = st.hits.fetch_add(1, Ordering::Relaxed);
    if k < rule.after {
        return false;
    }
    let Some(action) = decide(active.plan.seed, st.name_hash, k, rule) else {
        return false;
    };
    // The fire cap counts only hits whose decision fired; the fired-hit
    // sequence is deterministic per point, so the cap is too.
    if st.fires.fetch_add(1, Ordering::Relaxed) >= rule.max_fires {
        return false;
    }
    active
        .log
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(FaultEvent {
            point: name,
            hit: k,
            action,
        });
    match action {
        FaultAction::Yield => {
            std::thread::yield_now();
            false
        }
        FaultAction::Delay { micros } => {
            std::thread::sleep(Duration::from_micros(micros));
            false
        }
        FaultAction::Fail => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_point_is_inert() {
        let _g = exclusive();
        assert!(!point("anything.at.all"));
        assert_eq!(fires(), 0);
        assert!(uninstall().is_empty());
    }

    #[test]
    fn decision_is_pure_in_seed_name_hit() {
        let rule = FaultRule::at("x")
            .failing(0.2)
            .delaying(0.3, 500)
            .yielding(0.3);
        let h = fnv1a("x");
        for k in 0..1000 {
            assert_eq!(decide(7, h, k, &rule), decide(7, h, k, &rule));
        }
        // Different seeds give a different sequence somewhere.
        let a: Vec<_> = (0..256).map(|k| decide(1, h, k, &rule)).collect();
        let b: Vec<_> = (0..256).map(|k| decide(2, h, k, &rule)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let rule = FaultRule::at("p").failing(0.25);
        let h = fnv1a("p");
        let fails = (0..10_000)
            .filter(|&k| decide(9, h, k, &rule) == Some(FaultAction::Fail))
            .count();
        assert!(
            (2_000..3_000).contains(&fails),
            "p=0.25 fired {fails}/10000"
        );
    }

    #[test]
    fn install_point_uninstall_round_trip() {
        let _g = exclusive();
        install(FaultPlan::new(3).rule(FaultRule::at("t.always").failing(1.0)));
        assert!(point("t.always"));
        assert!(point("t.always"));
        assert!(!point("t.unlisted"));
        assert_eq!(fires(), 2);
        let log = uninstall();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].point, "t.always");
        assert_eq!(log[0].hit, 0);
        assert_eq!(log[1].hit, 1);
        assert!(log.iter().all(|e| e.action == FaultAction::Fail));
        assert!(!point("t.always"));
    }

    #[test]
    fn max_fires_caps_injections() {
        let _g = exclusive();
        install(FaultPlan::new(5).rule(FaultRule::at("t.cap").failing(1.0).max_fires(3)));
        let fired = (0..10).filter(|_| point("t.cap")).count();
        let log = uninstall();
        assert_eq!(fired, 3);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn after_skips_leading_hits() {
        let _g = exclusive();
        install(
            FaultPlan::new(5).rule(FaultRule::at("t.after").failing(1.0).after(3).max_fires(1)),
        );
        let fired: Vec<bool> = (0..6).map(|_| point("t.after")).collect();
        let log = uninstall();
        assert_eq!(fired, [false, false, false, true, false, false]);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].hit, 3);
        assert_eq!(log[0].action, FaultAction::Fail);
    }

    #[test]
    fn same_seed_same_log_single_threaded() {
        let _g = exclusive();
        let plan = || {
            FaultPlan::new(99)
                .rule(FaultRule::at("t.a").delaying(0.4, 3).yielding(0.3))
                .rule(FaultRule::at("t.b").failing(0.2))
        };
        let mut logs = Vec::new();
        for _ in 0..2 {
            install(plan());
            for _ in 0..200 {
                let _ = point("t.a");
                let _ = point("t.b");
            }
            logs.push(uninstall());
        }
        assert_eq!(logs[0], logs[1]);
        assert!(!logs[0].is_empty());
    }

    #[test]
    fn delays_actually_sleep() {
        let _g = exclusive();
        install(FaultPlan::new(1).rule(FaultRule::at("t.d").delaying(1.0, 200)));
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let _ = point("t.d");
        }
        assert!(start.elapsed() >= Duration::from_micros(20));
        uninstall();
    }
}
