//! # otf-support — the collector's zero-dependency substrate
//!
//! Everything in this workspace builds offline against `std` alone; this
//! crate supplies the few primitives the collector and its harnesses used
//! to pull from external crates:
//!
//! * [`sync`] — poison-free [`Mutex`](sync::Mutex)/[`Condvar`](sync::Condvar)
//!   wrappers over `std::sync` with the `parking_lot`-style guard API (no
//!   `.unwrap()` at every lock site), plus [`Backoff`](sync::Backoff),
//!   the exponential spin/yield/park ramp for the trace's termination
//!   wait.
//! * [`rand`] — a seedable SplitMix64-seeded xoshiro256++ PRNG,
//!   [`StdRng`](rand::StdRng), with the few draws the workloads make.
//! * [`check`] — deterministic randomized testing: a seeded case
//!   generator plus shrink-by-halving, replacing `proptest`.
//! * [`hist`] — a log-bucketed concurrent latency histogram
//!   with a lock-free, allocation-free record path, replacing
//!   `hdrhistogram` (the substrate of the collector's pause-time
//!   observability).
//! * [`tablescan`] — SWAR word-at-a-time scanning kernels over
//!   `[AtomicU8]` side tables (skip, run-end, count, bulk fill), the
//!   substrate under the collector's sweep and card scans.
//! * [`fault`] — deterministic, seeded fault injection: a plan armed on
//!   one collector whose named injection points, threaded through its
//!   race windows, delay, yield, or fail on a reproducible schedule; a
//!   collector without a plan pays one field load and a branch per point.
//! * [`zeroed`] — zero-initialised atomic tables, each on a private
//!   anonymous mapping of its own: the heap's arena and side tables are
//!   reserved at their maximum size, mapped a page at a time on first
//!   touch, and unmapped on drop.
//!
//! The paper's own system (Domani, Kolodner & Petrank, PLDI 2000) was
//! self-contained inside the JVM, and the DLG lineage it extends needs
//! nothing beyond native synchronization primitives — this crate keeps
//! the reproduction equally self-contained.

#![warn(missing_docs)]

pub mod check;
pub mod fault;
pub mod hist;
pub mod rand;
pub mod sync;
pub mod tablescan;
pub mod zeroed;
