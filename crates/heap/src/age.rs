//! The age table for the aging mechanism (§6).
//!
//! The paper keeps one byte of age per object *in a separate table* rather
//! than in headers: "sweep goes through the ages of all objects to increase
//! them; thus, for reasons of locality, it is better to go through a
//! separate table than to touch all the objects in the heap."  We index the
//! table by start granule, like the color table.
//!
//! An object is allocated with age 1 (§8.5.2: "an object is allocated with
//! age 1, and its age gets increased for each collection it survives") and
//! sweep stops incrementing once the age reaches the tenuring threshold.
//! The incrementing pass is part of the shared sweep kernel, so under the
//! lazy back-end (DESIGN.md §4.6) the bytes are bumped by whichever
//! mutator claims the segment — still exactly once per object per cycle,
//! because segments partition the heap and an epoch is finalized before
//! the next cycle begins.

use std::sync::atomic::{AtomicU8, Ordering};

use otf_support::zeroed::zeroed_slice;

/// Age assigned to an object at allocation.
pub const INFANT_AGE: u8 = 1;

// A never-written age byte reads as age 0 (free), never as an allocated
// object's age.
const _: () = assert!(INFANT_AGE > 0);

/// One age byte per granule; only start granules are meaningful.
#[derive(Debug)]
pub struct AgeTable {
    bytes: Box<[AtomicU8]>,
}

impl AgeTable {
    /// Creates a table covering `granules` granules, all age 0 (free;
    /// zero pages, mapped on first touch).
    pub fn new(granules: usize) -> AgeTable {
        AgeTable {
            bytes: zeroed_slice(granules),
        }
    }

    /// Number of granules covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the table covers zero granules.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Size of the table itself in bytes (for page-touch accounting).
    #[inline]
    pub fn table_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The age of the object starting at `granule`.
    #[inline]
    pub fn get(&self, granule: usize) -> u8 {
        self.bytes[granule].load(Ordering::Relaxed)
    }

    /// Sets the age of the object starting at `granule`.  Only the
    /// allocating mutator (at creation) and the sweeping collector write
    /// ages, and never concurrently for the same live object, so no
    /// compare-and-swap is needed — the paper makes the same observation
    /// when arguing the age byte must not share a synchronized word with
    /// the card mark (§6).
    #[inline]
    pub fn set(&self, granule: usize, age: u8) {
        self.bytes[granule].store(age, Ordering::Relaxed);
    }

    /// Zeroes the ages of `[start, start + len)` — the sweep clearing a
    /// whole reclaimed run at once (word-wide stores; only the sweeper
    /// owns these granules, as for [`set`](AgeTable::set)).
    #[inline]
    pub fn clear(&self, start: usize, len: usize) {
        otf_support::tablescan::bulk_zero(&self.bytes, start, start + len);
    }

    /// Increments the age at `granule`, saturating at `cap` (the tenuring
    /// threshold).  Returns the new age.
    #[inline]
    pub fn increment_capped(&self, granule: usize, cap: u8) -> u8 {
        let cur = self.get(granule);
        if cur < cap {
            self.set(granule, cur + 1);
            cur + 1
        } else {
            cur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let t = AgeTable::new(4);
        assert_eq!(t.get(2), 0);
        let len = (32 << 20) / crate::addr::GRANULE;
        let t = AgeTable::new(len);
        for g in [0, len / 2, len - 1] {
            assert_eq!(t.get(g), 0);
        }
    }

    #[test]
    fn set_get() {
        let t = AgeTable::new(4);
        t.set(1, INFANT_AGE);
        assert_eq!(t.get(1), 1);
    }

    #[test]
    fn clear_zeroes_exactly_the_range() {
        let t = AgeTable::new(40);
        for g in 0..40 {
            t.set(g, 3);
        }
        t.clear(5, 30);
        for g in 0..40 {
            assert_eq!(t.get(g), if (5..35).contains(&g) { 0 } else { 3 });
        }
    }

    #[test]
    fn increment_saturates_at_cap() {
        let t = AgeTable::new(2);
        t.set(0, INFANT_AGE);
        assert_eq!(t.increment_capped(0, 3), 2);
        assert_eq!(t.increment_capped(0, 3), 3);
        assert_eq!(t.increment_capped(0, 3), 3);
        assert_eq!(t.get(0), 3);
    }
}
