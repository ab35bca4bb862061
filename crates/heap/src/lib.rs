//! # otf-heap — heap substrate for the on-the-fly generational collector
//!
//! This crate is the memory-management substrate underneath `otf-gc`, the
//! Rust reproduction of *"A Generational On-the-fly Garbage Collector for
//! Java"* (Domani, Kolodner & Petrank, PLDI 2000).  It provides everything
//! the paper's collector assumes from the JVM heap manager:
//!
//! * a **non-moving heap**: one contiguous word-atomic [`Arena`] carved by
//!   segregated [`FreeLists`] (size-class bins over a coalescing pool, all
//!   operations O(1)) and a bump frontier, with mutator-private [`Lab`]s
//!   (thread-local allocation buffers);
//! * the **side tables**: a [`ColorTable`] (one byte per 16-byte granule —
//!   doubling as a race-free heap parse map), a [`CardTable`] (one byte per
//!   card, card sizes 16..4096, §3.1/§8.5.3), and an [`AgeTable`] (one age
//!   byte per object in a separate table, §6);
//! * **page-touch accounting** ([`PageTracker`]) for the paper's Figure 15.
//!
//! The collector itself (handshakes, write barriers, trace, sweep) lives in
//! the `otf-gc` crate; typical users interact with that crate's `Gc` and
//! `Mutator` types rather than with this substrate directly.
//!
//! ## Example
//!
//! ```
//! use otf_heap::{HeapSpace, ObjShape, Color};
//!
//! let heap = HeapSpace::new(1 << 20, 1 << 16);
//! let shape = ObjShape::new(2, 4); // 2 reference slots, 4 data words
//! let chunk = heap.alloc_chunk(shape.size_granules() as u32,
//!                              shape.size_granules() as u32).unwrap();
//! let obj = heap.install_object(chunk.start as usize, &shape, Color::White);
//! assert_eq!(heap.arena().header(obj).ref_slots(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod age;
mod arena;
mod card;
mod color;
mod freelist;
mod page;
mod space;

pub use addr::{
    granules_for_bytes, granules_for_words, ObjectRef, GRANULE, GRANULE_LOG2, MAX_HEAP_GRANULES,
    PAGE, WORD, WORDS_PER_GRANULE,
};
pub use age::{AgeTable, INFANT_AGE};
pub use arena::Arena;
pub use card::{CardTable, MAX_CARD_SIZE, MIN_CARD_SIZE};
pub use color::{Color, ColorTable};
pub use freelist::{Chunk, FreeLists, LAB_MAX_HOLES};
pub use layout::{Header, ObjShape, MAX_CLASS_ID, MAX_REF_SLOTS, MAX_SIZE_GRANULES};
pub use page::{PageTracker, Space};
pub use space::{HeapSpace, Lab, ParseStep, DEFAULT_LAB_GRANULES};

mod layout;
