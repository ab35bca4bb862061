//! The card table (§3.1, §8.5.3): one dedicated byte per card.
//!
//! The heap is partitioned into power-of-two *cards*; a mutator marks a
//! card dirty when it stores a pointer into an object whose header lies on
//! that card (the pseudo-code's `MarkCard(x)` takes the object `x`, so the
//! card of the *object start* is marked, and the collector's dirty-card
//! scan likewise enumerates objects *starting* on the card).
//!
//! The paper keeps "a table with a designated byte for each card holding
//! the card mark; the byte does not have any other use" (§7) — exactly this
//! type.  Card sizes from 16 bytes ("object marking") to 4096 bytes
//! ("block marking") are supported, the range swept in Figure 21.

use std::sync::atomic::{AtomicU8, Ordering};

use otf_support::tablescan;
use otf_support::zeroed::{zeroed_slice, Zeroed};

use crate::addr::{GRANULE, GRANULE_LOG2};

/// Smallest supported card size in bytes (object marking).
pub const MIN_CARD_SIZE: usize = 16;
/// Largest supported card size in bytes (block marking).
pub const MAX_CARD_SIZE: usize = 4096;

const CLEAN: u8 = 0;
const DIRTY: u8 = 1;

// A never-written card byte reads as clean.
const _: () = assert!(CLEAN == 0);

/// One atomic mark byte per card of the arena.
#[derive(Debug)]
pub struct CardTable {
    bytes: Zeroed<AtomicU8>,
    shift: u32,
}

impl CardTable {
    /// Creates a table for a heap of `heap_bytes` bytes with the given
    /// `card_size`, every card clean (zero pages, mapped on first touch).
    ///
    /// # Panics
    ///
    /// Panics if `card_size` is not a power of two in
    /// `[MIN_CARD_SIZE, MAX_CARD_SIZE]`.
    pub fn new(heap_bytes: usize, card_size: usize) -> CardTable {
        assert!(
            card_size.is_power_of_two()
                && (MIN_CARD_SIZE..=MAX_CARD_SIZE).contains(&card_size),
            "card size must be a power of two in [{MIN_CARD_SIZE}, {MAX_CARD_SIZE}], got {card_size}"
        );
        CardTable {
            bytes: zeroed_slice(heap_bytes.div_ceil(card_size)),
            shift: card_size.trailing_zeros(),
        }
    }

    /// Number of cards.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the table has zero cards.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Size of the table itself in bytes (for page-touch accounting).
    #[inline]
    pub fn table_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The card index covering byte offset `byte`.
    #[inline]
    pub fn card_of_byte(&self, byte: usize) -> usize {
        byte >> self.shift
    }

    /// Marks dirty the card containing byte offset `byte` (the mutator's
    /// `MarkCard`).  A `Release` store, paired with the `Acquire` re-read
    /// of the dirty byte in [`next_dirty`](CardTable::next_dirty) (and in
    /// [`is_dirty`](CardTable::is_dirty)): a collector that sees the mark
    /// also sees every store the mutator made before it.  The aging
    /// barrier stores the pointer first and marks second, so that is the
    /// pointer the §7.2 clear/check/re-mark scan has to find.
    #[inline]
    pub fn mark_byte(&self, byte: usize) {
        self.bytes[byte >> self.shift].store(DIRTY, Ordering::Release);
    }

    /// Whether card `card` is dirty.
    #[inline]
    pub fn is_dirty(&self, card: usize) -> bool {
        self.bytes[card].load(Ordering::Acquire) == DIRTY
    }

    /// Clears card `card` (collector only).
    #[inline]
    pub fn clear(&self, card: usize) {
        self.bytes[card].store(CLEAN, Ordering::Release);
    }

    /// Re-marks card `card` dirty (step 3 of the §7.2 protocol).
    #[inline]
    pub fn mark_card(&self, card: usize) {
        self.bytes[card].store(DIRTY, Ordering::Release);
    }

    /// Clears cards `[from, to)` with word-wide stores (used by
    /// `InitFullCollection` in the simple variant, Figure 3, over the
    /// cards below the heap frontier).  A mutator concurrently re-marking
    /// a card in the same word is linearized per byte by coherence —
    /// either its mark lands after the wipe and survives, or before and
    /// is cleared, exactly as with the byte-at-a-time loop (safe here
    /// because a full collection traces everything, so a wiped mark loses
    /// no inter-generational pointer).
    ///
    /// # Panics
    ///
    /// Panics if `to` is past the table's end.
    pub fn clear_range(&self, from: usize, to: usize) {
        tablescan::bulk_zero(&self.bytes, from, to);
    }

    /// The granule range `[start, end)` covered by card `card`.
    #[inline]
    pub fn granule_range(&self, card: usize) -> (usize, usize) {
        let granules_per_card = (1usize << self.shift) / GRANULE;
        let start = card << (self.shift - GRANULE_LOG2);
        (start, start + granules_per_card)
    }

    /// Returns the first dirty card in `[from, to)`, or `None` if every
    /// card in the range is clean — the card scan's word-at-a-time skip
    /// over clean runs (typically the vast majority of the table).
    ///
    /// The skip itself uses relaxed word loads; before returning, the
    /// found card's byte is re-loaded with acquire, pairing with the
    /// mutator's release [`mark_byte`](CardTable::mark_byte) so the
    /// pointer store that preceded the mark is visible to the caller's
    /// subsequent object scan (the same re-load-before-acting protocol
    /// the color table uses).  Only mutators dirty cards and only the
    /// collector — the caller — cleans them, so the re-read cannot
    /// observe the card clean again.
    #[inline]
    pub fn next_dirty(&self, from: usize, to: usize) -> Option<usize> {
        let to = to.min(self.bytes.len());
        let i = tablescan::find_byte_not_in(&self.bytes, from.min(to), to, CLEAN);
        if i < to {
            let _ = self.bytes[i].load(Ordering::Acquire);
            Some(i)
        } else {
            None
        }
    }

    /// Number of dirty cards among the first `cards` cards.
    pub fn count_dirty(&self, cards: usize) -> usize {
        tablescan::count_matching(&self.bytes, 0, cards.min(self.bytes.len()), DIRTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let t = CardTable::new(1 << 20, 512);
        assert_eq!(t.len(), 2048);
        assert_eq!(t.card_of_byte(0), 0);
        assert_eq!(t.card_of_byte(511), 0);
        assert_eq!(t.card_of_byte(512), 1);
    }

    #[test]
    fn mark_clear_cycle() {
        let t = CardTable::new(4096, 16);
        assert!(!t.is_dirty(3));
        t.mark_byte(3 * 16 + 5);
        assert!(t.is_dirty(3));
        t.clear(3);
        assert!(!t.is_dirty(3));
        t.mark_card(3);
        assert!(t.is_dirty(3));
    }

    #[test]
    fn granule_range_for_object_marking() {
        // 16-byte cards: one granule per card.
        let t = CardTable::new(1024, 16);
        assert_eq!(t.granule_range(5), (5, 6));
    }

    #[test]
    fn granule_range_for_block_marking() {
        // 4096-byte cards: 256 granules per card.
        let t = CardTable::new(1 << 16, 4096);
        assert_eq!(t.granule_range(2), (512, 768));
    }

    #[test]
    fn clear_range_and_count() {
        let t = CardTable::new(4096, 256);
        t.mark_byte(0);
        t.mark_byte(300);
        t.mark_byte(4000);
        assert_eq!(t.count_dirty(t.len()), 3);
        t.clear_range(1, t.len());
        assert_eq!(t.count_dirty(t.len()), 1);
        assert!(t.is_dirty(0));
        t.clear_range(0, 1);
        assert_eq!(t.count_dirty(t.len()), 0);
    }

    #[test]
    fn new_table_is_clean_everywhere() {
        let t = CardTable::new(32 << 20, 16);
        let len = t.len();
        for card in [0, len / 2, len - 1] {
            assert!(!t.is_dirty(card));
        }
        assert_eq!(t.count_dirty(len), 0);
        assert_eq!(t.next_dirty(0, len), None);
    }

    #[test]
    fn next_dirty_skips_clean_runs() {
        let t = CardTable::new(1 << 16, 16); // 4096 cards
        assert_eq!(t.next_dirty(0, t.len()), None);
        t.mark_card(0);
        t.mark_card(1234);
        t.mark_card(4095);
        assert_eq!(t.next_dirty(0, t.len()), Some(0));
        assert_eq!(t.next_dirty(1, t.len()), Some(1234));
        assert_eq!(t.next_dirty(1235, t.len()), Some(4095));
        assert_eq!(t.next_dirty(4096, t.len()), None);
        // Range end caps the scan, and an out-of-range `from` is safe.
        assert_eq!(t.next_dirty(1235, 4095), None);
        assert_eq!(t.next_dirty(9999, 99999), None);
    }

    #[test]
    #[should_panic(expected = "card size")]
    fn rejects_non_power_of_two() {
        let _ = CardTable::new(4096, 48);
    }

    #[test]
    #[should_panic(expected = "card size")]
    fn rejects_too_large() {
        let _ = CardTable::new(1 << 20, 8192);
    }
}
