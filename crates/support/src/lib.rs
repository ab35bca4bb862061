//! # otf-support — the collector's zero-dependency substrate
//!
//! Everything in this workspace builds offline against `std` alone; this
//! crate supplies the few primitives the collector and its harnesses used
//! to pull from external crates:
//!
//! * [`sync`] — poison-free [`Mutex`](sync::Mutex)/[`Condvar`](sync::Condvar)/
//!   [`RwLock`](sync::RwLock) wrappers over `std::sync` with the
//!   `parking_lot`-style guard API (no `.unwrap()` at every lock site),
//!   plus [`Backoff`](sync::Backoff), the exponential spin/yield/park
//!   ramp for the collector's quiescence loops.
//! * [`queue`] — [`SegQueue`](queue::SegQueue), a mutex-sharded MPMC
//!   injector queue for the gray-object work list.
//! * [`steal`] — [`WorkerDeque`](steal::WorkerDeque), the per-worker
//!   work-stealing deque (owner LIFO / thief FIFO, Chase–Lev access
//!   pattern) under the parallel mark phase, with the same
//!   conservative-length emptiness discipline as `SegQueue`.
//! * [`packet`] — the work-packet scheduler: typed [`Packet`](packet::Packet)s
//!   drained from phase buckets that open in a declared order
//!   ([`Schedule`](packet::Schedule)), with per-bucket closing conditions
//!   — the MMTk-style frame the collector's plans enqueue into.
//! * [`rand`] — a seedable SplitMix64-seeded xoshiro256++ PRNG behind the
//!   small [`RngExt`](rand::RngExt)/[`SeedableRng`](rand::SeedableRng)
//!   API the workloads consume.
//! * [`check`] — deterministic randomized testing: a seeded case
//!   generator plus shrink-by-halving, replacing `proptest`.
//! * [`hist`] — a mergeable, log-bucketed concurrent latency histogram
//!   with a lock-free, allocation-free record path, replacing
//!   `hdrhistogram` (the substrate of the collector's pause-time
//!   observability).
//! * [`tablescan`] — SWAR word-at-a-time scanning kernels over
//!   `[AtomicU8]` side tables (skip, run-end, count, bulk fill), the
//!   substrate under the collector's sweep and card scans.
//! * [`fault`] — deterministic, seeded fault injection: named injection
//!   points threaded through the collector's race windows that can
//!   delay, yield, or fail on a reproducible schedule; one relaxed load
//!   and a branch when disabled.
//! * [`zeroed`] — zero-initialised atomic tables from the allocator's
//!   zeroed path: the heap's arena and side tables are reserved at their
//!   maximum size and mapped a page at a time on first touch.
//!
//! The paper's own system (Domani, Kolodner & Petrank, PLDI 2000) was
//! self-contained inside the JVM, and the DLG lineage it extends needs
//! nothing beyond native synchronization primitives — this crate keeps
//! the reproduction equally self-contained.

#![warn(missing_docs)]

pub mod check;
pub mod fault;
pub mod hist;
pub mod packet;
pub mod queue;
pub mod rand;
pub mod steal;
pub mod sync;
pub mod tablescan;
pub mod zeroed;
