//! # otf-workloads — the paper's benchmark programs, rebuilt
//!
//! Synthetic re-creations of the benchmarks evaluated in *"A Generational
//! On-the-fly Garbage Collector for Java"* (PLDI 2000, §8.2): six SPECjvm98
//! programs, the IBM-internal *Anagram*, and the paper's *multithreaded
//! Ray Tracer*.  We obviously cannot run Java bytecode; instead each
//! workload reproduces its original's **generational signature** — the
//! properties the paper itself identifies as deciding generational
//! performance, calibrated against the paper's own characterization
//! tables (Figures 10–12, 22, 23):
//!
//! | workload | allocation rate | lifetime distribution | old-gen writes |
//! |---|---|---|---|
//! | [`Anagram`] | extreme | dies immediately | none |
//! | [`RayTracer`] | high | per-pixel temporaries | none |
//! | [`Compress`] | minimal | long-lived buffers | none |
//! | [`Db`] | low | long-lived index + young temps | concentrated |
//! | [`Jess`] | high | dies *right after tenuring* | heavy, spread |
//! | [`Javac`] | high | medium ASTs + growing symtab | many inter-gen |
//! | [`Jack`] | high | pass-local, tenured then dead | moderate |
//!
//! Every workload verifies payload checksums as it runs, so each doubles
//! as a heap-integrity test of the collector underneath it.
//!
//! ## Example
//!
//! ```no_run
//! use otf_gc::GcConfig;
//! use otf_workloads::{driver, Anagram, Workload};
//!
//! let w = Anagram::new().scaled(0.1);
//! let gen = driver::run_workload(&w, GcConfig::generational(), 42);
//! let nogen = driver::run_workload(&w, GcConfig::non_generational(), 42);
//! println!("improvement: {:.1}%",
//!          driver::percent_improvement(nogen.elapsed, gen.elapsed));
//! ```

#![warn(missing_docs)]

mod anagram;
mod chaos;
mod compress;
mod db;
pub mod driver;
mod jack;
mod javac;
mod jess;
mod raytracer;
pub mod toolkit;

pub use anagram::Anagram;
pub use chaos::Chaos;
pub use compress::Compress;
pub use db::Db;
pub use jack::Jack;
pub use javac::Javac;
pub use jess::Jess;
pub use raytracer::RayTracer;

use otf_gc::Mutator;

/// A benchmark program that runs against the collector through the
/// mutator API.
pub trait Workload: Sync {
    /// The benchmark's name (matching the paper's tables, e.g.
    /// `_202_jess`).
    fn name(&self) -> &'static str;

    /// Number of mutator threads this workload uses.
    fn threads(&self) -> usize {
        1
    }

    /// Runs thread `thread` of the workload.  Must be deterministic for a
    /// given `(thread, seed)` pair.
    fn run(&self, thread: usize, seed: u64, m: &mut Mutator);
}

/// The paper's benchmark suite at the given scale: the six SPECjvm
/// programs of Figure 9 plus Anagram (`_200_check` and `_222_mpegaudio`
/// are omitted exactly as in the paper — "they do not perform many
/// garbage collections and their performance is indifferent to the
/// collection method").
pub fn suite(scale: f64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(RayTracer::mtrt().scaled(scale)),
        Box::new(Compress::new().scaled(scale)),
        Box::new(Db::new().scaled(scale)),
        Box::new(Jess::new().scaled(scale)),
        Box::new(Javac::new().scaled(scale)),
        Box::new(Jack::new().scaled(scale)),
        Box::new(Anagram::new().scaled(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use otf_gc::{Gc, GcConfig};

    /// Each workload runs correctly (its internal checksum assertions
    /// pass) under every collector variant at a small scale, AND leaves a
    /// structurally consistent heap: after the run a settling full
    /// collection quiesces the heap and `Gc::verify_heap` must report
    /// zero violations — invariant drift is caught here, not only under
    /// chaos schedules.
    #[test]
    fn all_workloads_verify_clean_under_all_variants() {
        let scale = 0.02;
        for cfg in [
            GcConfig::generational().with_young_size(256 << 10),
            GcConfig::non_generational(),
            GcConfig::aging(3).with_young_size(256 << 10),
        ] {
            for w in suite(scale) {
                let (r, violations) = driver::run_workload_verified(w.as_ref(), Gc::new(cfg), 7);
                assert!(r.elapsed.as_nanos() > 0, "{} did not run", w.name());
                assert!(
                    violations.is_empty(),
                    "{} under {:?} left heap violations: {:?}",
                    w.name(),
                    cfg.mode,
                    violations
                );
            }
        }
    }

    /// The chaos workload itself is a well-behaved citizen with no fault
    /// plan armed: it runs to completion and verifies clean.
    #[test]
    fn chaos_workload_verifies_clean_without_faults() {
        let w = Chaos::new().scaled(0.2);
        for cfg in [
            GcConfig::generational().with_young_size(256 << 10),
            GcConfig::non_generational(),
            GcConfig::aging(3).with_young_size(256 << 10),
        ] {
            let (_, violations) = driver::run_workload_verified(&w, Gc::new(cfg), 11);
            assert!(
                violations.is_empty(),
                "chaos left violations: {violations:?}"
            );
        }
    }

    #[test]
    fn suite_matches_paper_composition() {
        let names: Vec<&str> = suite(1.0).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "_227_mtrt",
                "_201_compress",
                "_209_db",
                "_202_jess",
                "_213_javac",
                "_228_jack",
                "anagram"
            ]
        );
    }

    #[test]
    fn raytracer_thread_counts() {
        assert_eq!(RayTracer::mtrt().threads(), 2);
        assert_eq!(RayTracer::multithreaded(8).threads(), 8);
        assert_eq!(RayTracer::multithreaded(8).name(), "mtrt");
    }

    #[test]
    fn improvement_math() {
        use std::time::Duration;
        let i = driver::percent_improvement(Duration::from_secs(4), Duration::from_secs(3));
        assert!((i - 25.0).abs() < 1e-9);
        assert_eq!(
            driver::percent_improvement(Duration::ZERO, Duration::ZERO),
            0.0
        );
    }

    #[test]
    fn run_copies_runs_each_copy() {
        let w = Anagram::new().scaled(0.01);
        let (total, results) = driver::run_copies(&w, GcConfig::generational(), 3, 2);
        assert_eq!(results.len(), 2);
        assert!(total >= results.iter().map(|r| r.elapsed).max().unwrap());
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn scaled_reduces_work_not_live_sets() {
        let full = Jess::new();
        let half = Jess::new().scaled(0.5);
        assert_eq!(half.buckets, full.buckets, "live-set size must not scale");
        assert_eq!(half.rounds, full.rounds / 2);

        let j = Jack::new().scaled(0.5);
        assert_eq!(j.tokens_per_pass, Jack::new().tokens_per_pass);
        assert_eq!(j.passes, Jack::new().passes / 2);

        let v = Javac::new().scaled(0.5);
        assert_eq!(v.library_nodes, Javac::new().library_nodes);

        let d = Db::new().scaled(0.5);
        assert_eq!(d.records, Db::new().records);
        assert_eq!(d.operations, Db::new().operations / 2);

        let a = Anagram::new().scaled(0.5);
        assert_eq!(a.dict_size, Anagram::new().dict_size);
    }

    #[test]
    fn scaling_never_hits_zero() {
        for w in suite(0.0001) {
            // A degenerate scale must still produce a runnable workload.
            let _ = w.name();
        }
        assert!(Jess::new().scaled(0.0).rounds >= 1);
        assert!(Jack::new().scaled(0.0).passes >= 1);
    }

    #[test]
    fn raytracer_scaling_adjusts_frames_then_rows() {
        let r = RayTracer::mtrt(); // 8 frames
        assert_eq!(r.scaled(0.5).frames, 4);
        let tiny = RayTracer::mtrt().scaled(0.05); // 0.4 frames -> 1 frame, fewer rows
        assert_eq!(tiny.frames, 1);
        assert!(tiny.height < 200);
    }
}
