//! Collector page-touch accounting (paper Figure 15).
//!
//! The paper measures "the number of pages touched by the collector during
//! the various collections ... including all the tables the collector uses
//! (such as the card table)".  `PageTracker` is a per-cycle bitmap over
//! four address spaces — the arena, the color table, the card table and
//! the age table — at 4 KB page granularity.  The collector calls the
//! `touch_*` helpers from its trace/sweep/card-scan loops and reads the
//! count at the end of the cycle.
//!
//! The tracker is private to the one collector thread, so it needs no
//! atomics.

use crate::addr::PAGE;

/// Identifies which address space a touch falls in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Space {
    /// The object heap itself.
    Arena,
    /// The color side table.
    ColorTable,
    /// The card table.
    CardTable,
    /// The age side table.
    AgeTable,
}

/// A per-cycle bitmap of touched 4 KB pages.
#[derive(Debug)]
pub struct PageTracker {
    bits: Vec<u64>,
    // Page-index bases of each space within the combined bitmap.
    base_color: usize,
    base_card: usize,
    base_age: usize,
    touched: usize,
    /// One-entry cache: the most recently touched page (collectors touch
    /// long runs of the same page).
    last: usize,
}

impl PageTracker {
    /// Creates a tracker for a heap of `arena_bytes` with side tables of
    /// the given byte sizes.
    pub fn new(
        arena_bytes: usize,
        color_bytes: usize,
        card_bytes: usize,
        age_bytes: usize,
    ) -> PageTracker {
        let arena_pages = arena_bytes.div_ceil(PAGE);
        let color_pages = color_bytes.div_ceil(PAGE);
        let card_pages = card_bytes.div_ceil(PAGE);
        let age_pages = age_bytes.div_ceil(PAGE);
        let total = arena_pages + color_pages + card_pages + age_pages;
        PageTracker {
            bits: vec![0u64; total.div_ceil(64)],
            base_color: arena_pages,
            base_card: arena_pages + color_pages,
            base_age: arena_pages + color_pages + card_pages,
            touched: 0,
            last: usize::MAX,
        }
    }

    #[inline]
    fn set(&mut self, page: usize) {
        if page == self.last {
            return;
        }
        self.last = page;
        let (w, b) = (page / 64, page % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask == 0 {
            self.bits[w] |= mask;
            self.touched += 1;
        }
    }

    #[inline]
    fn base(&self, space: Space) -> usize {
        match space {
            Space::Arena => 0,
            Space::ColorTable => self.base_color,
            Space::CardTable => self.base_card,
            Space::AgeTable => self.base_age,
        }
    }

    /// Records a touch of the byte range `[start, end)` in `space`.
    #[inline]
    pub fn touch_range(&mut self, space: Space, start: usize, end: usize) {
        if end <= start {
            return;
        }
        let base = self.base(space);
        for p in start / PAGE..=(end - 1) / PAGE {
            self.set(base + p);
        }
    }

    /// Records a touch of a single byte offset in `space`.
    #[inline]
    pub fn touch_byte(&mut self, space: Space, byte: usize) {
        let base = self.base(space);
        self.set(base + byte / PAGE);
    }

    /// Number of distinct pages touched since the last [`reset`].
    ///
    /// [`reset`]: PageTracker::reset
    #[inline]
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Clears the bitmap for the next cycle.
    pub fn reset(&mut self) {
        self.bits.fill(0);
        self.touched = 0;
        self.last = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_distinct_pages() {
        let mut t = PageTracker::new(64 * PAGE, PAGE, PAGE, PAGE);
        t.touch_byte(Space::Arena, 0);
        t.touch_byte(Space::Arena, 100); // same page
        t.touch_byte(Space::Arena, PAGE); // next page
        assert_eq!(t.touched(), 2);
    }

    #[test]
    fn spaces_do_not_collide() {
        let mut t = PageTracker::new(PAGE, PAGE, PAGE, PAGE);
        t.touch_byte(Space::Arena, 0);
        t.touch_byte(Space::ColorTable, 0);
        t.touch_byte(Space::CardTable, 0);
        t.touch_byte(Space::AgeTable, 0);
        assert_eq!(t.touched(), 4);
    }

    #[test]
    fn range_spans_pages() {
        let mut t = PageTracker::new(64 * PAGE, PAGE, PAGE, PAGE);
        t.touch_range(Space::Arena, PAGE - 1, PAGE + 1);
        assert_eq!(t.touched(), 2);
        t.touch_range(Space::Arena, 0, 0); // empty range
        assert_eq!(t.touched(), 2);
    }

    #[test]
    fn reset_clears() {
        let mut t = PageTracker::new(4 * PAGE, PAGE, PAGE, PAGE);
        t.touch_byte(Space::Arena, 0);
        assert_eq!(t.touched(), 1);
        t.reset();
        assert_eq!(t.touched(), 0);
        t.touch_byte(Space::Arena, 0);
        assert_eq!(t.touched(), 1);
    }
}
