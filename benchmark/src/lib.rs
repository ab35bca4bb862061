//! One benchmark for the whole collector (see `../README.md`).
//!
//! End to end it reports what the paper's §8.1 judges a collector by:
//! application elapsed time and total CPU work (mutator + collector),
//! generational against non-generational, plus the heap each needs.
//! Underneath, a traced run fills a per-layer ledger (mutator, heap,
//! collector, tablescan, obs) so that a change to one layer can be
//! followed to the end-to-end number it should move.
//!
//! Everything here drives the collector from outside, through the
//! public API of `otf-gc`, `otf-heap`, `otf-support` and
//! `otf-workloads` only.

pub mod cli;
pub mod json;
pub mod ledger;
pub mod probes;
pub mod procstat;
pub mod rep;
pub mod report;
pub mod spans;
pub mod suite;
