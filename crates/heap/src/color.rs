//! The color table: one atomic byte per granule.
//!
//! The paper's collector colors every object white, yellow, gray, black or
//! blue (free).  We keep the color in a side table rather than the object
//! header so the concurrent sweep can *parse the heap from the table alone*:
//!
//! * the byte of an object's **start granule** holds its color,
//! * the bytes of its interior granules hold [`Color::Interior`],
//! * unallocated granules hold [`Color::Free`] (the paper's *blue*).
//!
//! This makes a linear left-to-right scan of the table a race-free heap
//! walk even while mutators allocate concurrently: an allocating mutator
//! publishes the header and interior bytes first and the start-granule
//! color last (release store), so a scanner that still sees `Free` or
//! `Interior` at an in-flight object's granules simply skips one granule —
//! which is always safe, because a freshly allocated object carries the
//! allocation color and is never a reclamation candidate.
//!
//! Nothing here assumes *who* performs the sweep-side scan: in the lazy
//! back-end (DESIGN.md §4.6) it is mutators, not collector workers, that
//! walk the table and fill reclaimed runs with `Free` — but they do so
//! only between cycles under the epoch's pinned clear color, so every
//! ordering argument above is unchanged.

use std::sync::atomic::{AtomicU8, Ordering};

use otf_support::tablescan;
use otf_support::zeroed::zeroed_slice;

// A never-written table byte reads as `Free`.
const _: () = assert!(Color::Free as u8 == 0);

/// Object colors, including the two table-only pseudo-colors `Free` (the
/// paper's blue) and `Interior`.
///
/// `White` and `Yellow` do not have fixed meanings: the *color toggle* (§5)
/// swaps which of them is the allocation color and which is the clear
/// color each cycle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Color {
    /// Unallocated space (the paper's *blue*).
    Free = 0,
    /// A non-start granule of a live object.
    Interior = 1,
    /// One of the two toggled young colors.
    White = 2,
    /// The other toggled young color (allocated-during-collection, §4).
    Yellow = 3,
    /// Traced but sons not yet scanned.
    Gray = 4,
    /// Traced, sons scanned; in the simple generational variant black also
    /// means *old* (§3).
    Black = 5,
}

impl Color {
    /// All real object colors (excludes `Free`/`Interior`).
    pub const OBJECT_COLORS: [Color; 4] = [Color::White, Color::Yellow, Color::Gray, Color::Black];

    /// Decodes a raw table byte.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is not a valid color encoding.
    #[inline]
    pub fn from_byte(byte: u8) -> Color {
        match byte {
            0 => Color::Free,
            1 => Color::Interior,
            2 => Color::White,
            3 => Color::Yellow,
            4 => Color::Gray,
            5 => Color::Black,
            other => panic!("invalid color byte {other}"),
        }
    }

    /// Whether the byte denotes the start granule of an object (any real
    /// object color).
    #[inline]
    pub fn is_object(self) -> bool {
        matches!(
            self,
            Color::White | Color::Yellow | Color::Gray | Color::Black
        )
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Color::Free => "free",
            Color::Interior => "interior",
            Color::White => "white",
            Color::Yellow => "yellow",
            Color::Gray => "gray",
            Color::Black => "black",
        };
        f.write_str(name)
    }
}

/// One atomic color byte per granule of the arena.
#[derive(Debug)]
pub struct ColorTable {
    bytes: Box<[AtomicU8]>,
}

impl ColorTable {
    /// Creates a table covering `granules` granules, all `Free` (zero
    /// pages, mapped on first touch).
    pub fn new(granules: usize) -> ColorTable {
        ColorTable {
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

    /// Reads the color of `granule` with acquire ordering (pairs with the
    /// release publication store in the allocator).
    #[inline]
    pub fn get(&self, granule: usize) -> Color {
        Color::from_byte(self.bytes[granule].load(Ordering::Acquire))
    }

    /// Stores a color with release ordering.
    #[inline]
    pub fn set(&self, granule: usize, color: Color) {
        self.bytes[granule].store(color as u8, Ordering::Release);
    }

    /// Atomically recolors `granule` from `from` to `to`.  Returns `true`
    /// on success.  This is the mutator/collector graying primitive: only
    /// the winner of the race pushes the object on the gray queue.
    #[inline]
    pub fn cas(&self, granule: usize, from: Color, to: Color) -> bool {
        self.bytes[granule]
            .compare_exchange(from as u8, to as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Fills `[start, start + len)` with `color` (used for interiors at
    /// allocation and for freeing at sweep) — word-wide release stores.
    ///
    /// The word stores alone do not *publish* an object: the allocator's
    /// protocol still ends with the release store of the start-granule
    /// color ([`set`](ColorTable::set)), which orders the whole fill
    /// before the object becomes visible.
    #[inline]
    pub fn fill(&self, start: usize, len: usize, color: Color) {
        // Shorter than a word (the interior of nearly every new object):
        // the word kernel's call and alignment prologue would cost more.
        if len < 8 {
            for b in &self.bytes[start..start + len] {
                b.store(color as u8, Ordering::Release);
            }
            return;
        }
        tablescan::bulk_fill(&self.bytes, start, start + len, color as u8);
    }

    /// Relaxed raw read of the color byte.  A non-object byte read relaxed
    /// is definitive (granules only leave the `Free`/`Interior` states
    /// through this same collector thread or through an allocation the
    /// sweep may legitimately miss); before reading an object's *header*
    /// the caller must re-load the byte with [`get`](ColorTable::get)
    /// (acquire) to pair with the allocator's publication store.  The
    /// word-at-a-time scans ([`next_color_above`](ColorTable::next_color_above),
    /// [`object_end`](ColorTable::object_end)) are the same protocol eight
    /// bytes at a time; `otf_support::tablescan` documents the mixed-size
    /// memory-model argument.
    #[inline]
    pub fn get_raw_relaxed(&self, granule: usize) -> u8 {
        self.bytes[granule].load(Ordering::Relaxed)
    }

    /// Returns the first granule in `[from, to)` whose byte encodes a
    /// color strictly above `floor` (or `to`).  `floor = Interior` finds
    /// the next object start; `floor = Yellow` finds black/gray bytes
    /// directly — the whole of `InitFullCollection`'s search, since
    /// `Gray` and `Black` are the only byte values above `Yellow` and
    /// interior granules always hold `Interior`.  A word-at-a-time
    /// relaxed scan (see [`get_raw_relaxed`](ColorTable::get_raw_relaxed)
    /// for why relaxed suffices; the caller re-loads the found byte with
    /// acquire before touching the object).
    #[inline]
    pub fn next_color_above(&self, from: usize, to: usize, floor: Color) -> usize {
        tablescan::find_byte_not_in(&self.bytes, from, to, floor as u8)
    }

    /// Returns one-past-the-end of the object starting at `start`, found
    /// by scanning its `Interior` bytes word-at-a-time — the color table
    /// alone encodes object extents, so a sweep never needs to read
    /// headers out of the arena.  `start`'s own byte is not examined.
    #[inline]
    pub fn object_end(&self, start: usize, to: usize) -> usize {
        tablescan::find_run_end(&self.bytes, (start + 1).min(to), to, Color::Interior as u8)
    }

    /// The sweep's survivor skip (DESIGN.md §4.12): returns
    /// `(next, objects, granules)`, where `next` is the first granule in
    /// `[from, to)` holding an object color other than `pass` (or `to`),
    /// and the skipped stretch `[from, next)` held `objects` starts of
    /// color `pass` and `granules` non-`Free` bytes.  `pass = Free` passes
    /// no object color, so every object start stops the skip.
    #[inline]
    pub fn skip_survivors(&self, from: usize, to: usize, pass: Color) -> (usize, usize, usize) {
        tablescan::skip_and_count(&self.bytes, from, to, Color::Interior as u8, pass as u8)
    }

    /// The sweep's dead-run scan (DESIGN.md §4.12): returns
    /// `(end, objects)`, where `[from, end)` is the longest stretch of
    /// `[from, to)` holding only `clear` and `Interior` bytes and
    /// `objects` is the number of `clear` start bytes in it.
    #[inline]
    pub fn dead_run_end(&self, from: usize, to: usize, clear: Color) -> (usize, usize) {
        tablescan::pair_run_end(&self.bytes, from, to, clear as u8, Color::Interior as u8)
    }

    /// Number of granules in `[from, to)` holding exactly `color`
    /// (diagnostics and differential tests).
    pub fn count_matching(&self, from: usize, to: usize, color: Color) -> usize {
        tablescan::count_matching(&self.bytes, from, to, color as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_free() {
        let t = ColorTable::new(8);
        assert_eq!(t.len(), 8);
        for g in 0..8 {
            assert_eq!(t.get(g), Color::Free);
        }
        // A table the size of a 32 MB heap's: first, middle and last byte
        // read `Free`, and the word scan finds nothing above it.
        let len = (32 << 20) / crate::addr::GRANULE;
        let t = ColorTable::new(len);
        for g in [0, len / 2, len - 1] {
            assert_eq!(t.get(g), Color::Free);
        }
        assert_eq!(t.next_color_above(1, len, Color::Free), len);
    }

    #[test]
    fn set_get_round_trip() {
        let t = ColorTable::new(4);
        for c in Color::OBJECT_COLORS {
            t.set(2, c);
            assert_eq!(t.get(2), c);
        }
    }

    #[test]
    fn cas_only_succeeds_from_expected() {
        let t = ColorTable::new(2);
        t.set(0, Color::White);
        assert!(!t.cas(0, Color::Yellow, Color::Gray));
        assert_eq!(t.get(0), Color::White);
        assert!(t.cas(0, Color::White, Color::Gray));
        assert_eq!(t.get(0), Color::Gray);
        // Second gray attempt loses.
        assert!(!t.cas(0, Color::White, Color::Gray));
    }

    #[test]
    fn fill_covers_range() {
        let t = ColorTable::new(10);
        t.fill(3, 4, Color::Interior);
        assert_eq!(t.get(2), Color::Free);
        for g in 3..7 {
            assert_eq!(t.get(g), Color::Interior);
        }
        assert_eq!(t.get(7), Color::Free);
    }

    #[test]
    fn object_color_predicate() {
        assert!(!Color::Free.is_object());
        assert!(!Color::Interior.is_object());
        for c in Color::OBJECT_COLORS {
            assert!(c.is_object());
        }
    }

    #[test]
    fn color_byte_round_trip() {
        for c in [
            Color::Free,
            Color::Interior,
            Color::White,
            Color::Yellow,
            Color::Gray,
            Color::Black,
        ] {
            assert_eq!(Color::from_byte(c as u8), c);
        }
    }

    #[test]
    #[should_panic(expected = "invalid color byte")]
    fn bad_byte_panics() {
        let _ = Color::from_byte(17);
    }
}
