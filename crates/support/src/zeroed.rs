//! Zero-initialised atomic tables that are reserved, not written.
//!
//! The collector's arena and side tables are sized for the *maximum*
//! heap, but a run only ever touches the part below the bump frontier.
//! [`zeroed_slice`] gets such a table from the allocator's zeroed path
//! (`calloc` under the system allocator), which for a large request is
//! normally a fresh anonymous mapping: the kernel hands out zero pages on
//! first touch, so building the table writes nothing and resident memory
//! follows what the heap actually uses — the way a production collector
//! reserves its address range up front and commits it as the heap grows.
//! (A request the allocator serves from memory it has used before is
//! zeroed with a `memset` instead; DESIGN.md §4.14 says when.)
//!
//! Only types whose all-zero bit pattern is a valid value may be built
//! this way; the sealed [`Zeroable`] trait names them.

use std::sync::atomic::{AtomicU64, AtomicU8};

mod sealed {
    pub trait Sealed {}
}

/// Types for which all-zero bytes are a valid value: the atomic integers
/// the tables are made of, and arrays of them.  Sealed, so no type
/// outside this module can claim it.
pub trait Zeroable: sealed::Sealed {}

impl sealed::Sealed for AtomicU8 {}
impl Zeroable for AtomicU8 {}
impl sealed::Sealed for AtomicU64 {}
impl Zeroable for AtomicU64 {}
impl<T: Zeroable, const N: usize> sealed::Sealed for [T; N] {}
impl<T: Zeroable, const N: usize> Zeroable for [T; N] {}

/// A boxed slice of `n` zero values, allocated zeroed instead of being
/// written element by element: its pages are mapped on first touch.
pub fn zeroed_slice<T: Zeroable>(n: usize) -> Box<[T]> {
    let table = Box::<[T]>::new_zeroed_slice(n);
    // SAFETY: `T: Zeroable` is sealed to `AtomicU8`, `AtomicU64` and
    // arrays of them; each has the size and bit validity of its integer,
    // so all-zero bytes are a valid, initialised value (the integer 0).
    unsafe { table.assume_init() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn every_element_reads_zero() {
        let bytes: Box<[AtomicU8]> = zeroed_slice(4097);
        assert_eq!(bytes.len(), 4097);
        assert!(bytes.iter().all(|b| b.load(Ordering::Relaxed) == 0));
        let rows: Box<[[AtomicU64; 5]]> = zeroed_slice(100);
        assert!(rows
            .iter()
            .flatten()
            .all(|w| w.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn empty_table_is_fine() {
        let words: Box<[AtomicU64]> = zeroed_slice(0);
        assert!(words.is_empty());
    }
}
