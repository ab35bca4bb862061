//! # otf-gengc — umbrella crate
//!
//! A from-scratch Rust reproduction of *"A Generational On-the-fly Garbage
//! Collector for Java"* (Domani, Kolodner & Petrank, PLDI 2000).
//!
//! This crate simply re-exports the workspace members:
//!
//! * [`heap`] — the non-moving heap substrate (arena, free lists, LABs,
//!   color/card/age side tables, page-touch accounting);
//! * [`gc`] — the collector itself: the DLG on-the-fly mark-sweep collector
//!   and the paper's generational extensions (simple promotion, yellow
//!   color, color toggle, aging);
//! * [`workloads`] — synthetic re-creations of the paper's benchmarks
//!   (SPECjvm-like programs, Anagram, the multithreaded Ray Tracer);
//! * [`support`] — dependency-free utilities, including the
//!   [`support::fault`] deterministic fault plans the chaos harness arms,
//!   one per collector ([`gc::Gc::with_faults`]).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use otf_gengc::gc::{Gc, GcConfig};
//! use otf_gengc::heap::ObjShape;
//!
//! let gc = Gc::new(GcConfig::generational());
//! let mut m = gc.mutator();
//! let node = ObjShape::new(1, 2);
//! let head = m.alloc(&node).unwrap();
//! m.root_push(head);
//! let next = m.alloc(&node).unwrap();
//! m.write_ref(head, 0, next); // goes through the DLG write barrier
//! m.root_pop();
//! drop(m);
//! gc.shutdown();
//! ```

pub use otf_gc as gc;
pub use otf_heap as heap;
pub use otf_support as support;
pub use otf_workloads as workloads;
