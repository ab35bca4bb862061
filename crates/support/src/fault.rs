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
//! * **Injection points** are named call sites (`faults.point("...")`)
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
//! ## Ownership
//!
//! A [`Faults`] is a value: one armed plan with its hit counters and its
//! log.  A collector holds at most one (`otf_gc::Gc::with_faults`), and
//! only its own threads consult it, so independent collectors in one
//! process never share hits.  A collector that holds none pays one field
//! load and one predictable branch per point and never reaches this
//! module, so the hooks stay compiled into release binaries.
//!
//! ## Usage
//!
//! ```
//! use otf_support::fault::{FaultPlan, FaultRule, Faults};
//!
//! let faults = Faults::new(
//!     FaultPlan::new(42)
//!         .rule(FaultRule::at("mutator.cooperate").yielding(0.5))
//!         .rule(FaultRule::at("heap.alloc_chunk").failing(1.0).max_fires(3)),
//! );
//! // ... run the system; its call sites consult the plan ...
//! assert!(!faults.point("unlisted.point"));
//! assert!(faults.point("heap.alloc_chunk"));
//! // Every fired injection; the same seed gives the same log.
//! assert_eq!(faults.log().len(), 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::sync::Mutex;

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

/// An armed [`FaultPlan`]: the plan, per-rule counters and the log of
/// every fired injection.  Hand it to the collector it is meant for and
/// keep a clone of the `Arc` to read [`log`](Faults::log) afterwards.
#[derive(Debug)]
pub struct Faults {
    plan: FaultPlan,
    states: Vec<PointState>,
    log: Mutex<Vec<FaultEvent>>,
}

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

impl Faults {
    /// Arms `plan`: every counter at zero, the log empty.
    pub fn new(plan: FaultPlan) -> Faults {
        let states = plan
            .rules
            .iter()
            .map(|r| PointState {
                name_hash: fnv1a(&r.point),
                hits: AtomicU64::new(0),
                fires: AtomicU64::new(0),
            })
            .collect();
        Faults {
            plan,
            states,
            log: Mutex::new(Vec::new()),
        }
    }

    /// An injection point.  Returns `true` when the plan injects a
    /// *failure* at this hit — the call site decides what failing means
    /// (a refused allocation, a panic).  Delays and yields are performed
    /// inside this call, right in the caller's race window.
    ///
    /// Every rule that names the point counts the hit; the first of them
    /// that fires acts, so several rules on one point are several windows.
    #[cold]
    pub fn point(&self, name: &'static str) -> bool {
        let mut fired = None;
        for (rule, st) in self.plan.rules.iter().zip(&self.states) {
            if rule.point != name {
                continue;
            }
            let k = st.hits.fetch_add(1, Ordering::Relaxed);
            if fired.is_some() || k < rule.after {
                continue;
            }
            let Some(action) = decide(self.plan.seed, st.name_hash, k, rule) else {
                continue;
            };
            // The fire cap counts only hits whose decision fired; the
            // fired-hit sequence is deterministic per point, so the cap is
            // too.
            if st.fires.fetch_add(1, Ordering::Relaxed) < rule.max_fires {
                fired = Some((k, action));
            }
        }
        let Some((hit, action)) = fired else {
            return false;
        };
        self.log.lock().push(FaultEvent {
            point: name,
            hit,
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

    /// Every injection fired so far, in the order it was logged.
    pub fn log(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn point_fails_logs_and_ignores_unlisted_points() {
        let faults = Faults::new(FaultPlan::new(3).rule(FaultRule::at("t.always").failing(1.0)));
        assert!(faults.point("t.always"));
        assert!(faults.point("t.always"));
        assert!(!faults.point("t.unlisted"));
        let log = faults.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].point, "t.always");
        assert_eq!(log[0].hit, 0);
        assert_eq!(log[1].hit, 1);
        assert!(log.iter().all(|e| e.action == FaultAction::Fail));
    }

    #[test]
    fn max_fires_caps_injections() {
        let faults =
            Faults::new(FaultPlan::new(5).rule(FaultRule::at("t.cap").failing(1.0).max_fires(3)));
        let fired = (0..10).filter(|_| faults.point("t.cap")).count();
        assert_eq!(fired, 3);
        assert_eq!(faults.log().len(), 3);
    }

    #[test]
    fn after_skips_leading_hits() {
        let faults = Faults::new(
            FaultPlan::new(5).rule(FaultRule::at("t.after").failing(1.0).after(3).max_fires(1)),
        );
        let fired: Vec<bool> = (0..6).map(|_| faults.point("t.after")).collect();
        let log = faults.log();
        assert_eq!(fired, [false, false, false, true, false, false]);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].hit, 3);
        assert_eq!(log[0].action, FaultAction::Fail);
    }

    /// Two rules on one point are two windows: both count every hit, and
    /// the second acts once the first has spent its cap.
    #[test]
    fn every_rule_on_a_point_counts_its_hits() {
        let faults = Faults::new(
            FaultPlan::new(5)
                .rule(FaultRule::at("t.two").failing(1.0).after(2).max_fires(1))
                .rule(FaultRule::at("t.two").failing(1.0).after(5).max_fires(1)),
        );
        let fired: Vec<bool> = (0..8).map(|_| faults.point("t.two")).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false]
        );
        let hits: Vec<u64> = faults.log().iter().map(|e| e.hit).collect();
        assert_eq!(hits, [2, 5]);
    }

    #[test]
    fn same_seed_same_log_single_threaded() {
        let plan = || {
            FaultPlan::new(99)
                .rule(FaultRule::at("t.a").delaying(0.4, 3).yielding(0.3))
                .rule(FaultRule::at("t.b").failing(0.2))
        };
        let mut logs = Vec::new();
        for _ in 0..2 {
            let faults = Faults::new(plan());
            for _ in 0..200 {
                let _ = faults.point("t.a");
                let _ = faults.point("t.b");
            }
            logs.push(faults.log());
        }
        assert_eq!(logs[0], logs[1]);
        assert!(!logs[0].is_empty());
    }

    #[test]
    fn delays_actually_sleep() {
        let faults = Faults::new(FaultPlan::new(1).rule(FaultRule::at("t.d").delaying(1.0, 200)));
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let _ = faults.point("t.d");
        }
        assert!(start.elapsed() >= Duration::from_micros(20));
    }
}
