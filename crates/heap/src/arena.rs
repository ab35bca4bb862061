//! The arena: one contiguous, word-atomic memory reservation.
//!
//! The whole maximum heap is reserved up front as an array of `AtomicU64`
//! words (so every slot access is naturally atomic, which the fine-grained
//! DLG collector requires — mutators and the collector read and write
//! reference slots concurrently without locks).  Reserved means zero pages
//! the OS maps on first touch ([`otf_support::zeroed`]): creating the
//! arena writes nothing, and resident memory follows the bump frontier,
//! not `max_heap`.  A soft *committed* watermark models the paper's
//! growing heap: runs start at 1 MB committed and may grow up to the
//! 32 MB maximum.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use otf_support::zeroed::{zeroed_slice, Zeroed};

use crate::addr::{ObjectRef, GRANULE, MAX_HEAP_GRANULES, WORD};
use crate::layout::Header;

// A never-written arena word reads as the null reference.
const _: () = assert!(ObjectRef::NULL.to_slot() == 0);

/// The word-addressed heap memory: `max_bytes` reserved as zero pages,
/// of which a run makes resident only the pages it allocates into.
#[derive(Debug)]
pub struct Arena {
    words: Zeroed<AtomicU64>,
    bytes: usize,
    committed: AtomicUsize,
}

impl Arena {
    /// Reserves an arena of `max_bytes` (rounded up to a granule) with
    /// `initial_bytes` committed.
    ///
    /// # Panics
    ///
    /// Panics if `initial_bytes > max_bytes`, `max_bytes` is zero, or
    /// `max_bytes` exceeds the `u32` object-offset address space
    /// ([`MAX_HEAP_GRANULES`] granules) — beyond it, `ObjectRef` and
    /// `Chunk` offsets would wrap silently.  Checked before the backing
    /// memory is reserved so an oversized request fails fast.
    pub fn new(max_bytes: usize, initial_bytes: usize) -> Arena {
        assert!(max_bytes > 0, "arena must be non-empty");
        assert!(initial_bytes <= max_bytes, "initial exceeds maximum");
        assert!(
            max_bytes.div_ceil(GRANULE) <= MAX_HEAP_GRANULES,
            "arena of {max_bytes} bytes exceeds the u32 object-offset space \
             ({} bytes max)",
            MAX_HEAP_GRANULES as u64 * GRANULE as u64,
        );
        let bytes = max_bytes.div_ceil(GRANULE) * GRANULE;
        Arena {
            words: zeroed_slice(bytes / WORD),
            bytes,
            committed: AtomicUsize::new(initial_bytes.div_ceil(GRANULE) * GRANULE),
        }
    }

    /// Total reserved size in bytes.
    #[inline]
    pub fn max_bytes(&self) -> usize {
        self.bytes
    }

    /// Total reserved size in granules.
    #[inline]
    pub fn max_granules(&self) -> usize {
        self.bytes / GRANULE
    }

    /// Currently committed size in bytes (the soft heap limit used by the
    /// triggering policy).
    #[inline]
    pub fn committed_bytes(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Currently committed size in granules.
    #[inline]
    pub fn committed_granules(&self) -> usize {
        self.committed_bytes() / GRANULE
    }

    /// Grows the committed watermark to exactly `min(target, max)` (no-op
    /// if already at least that big).  Returns the new committed size.
    /// Exact-size growth keeps the almost-full trigger's gap at its
    /// intended width; doubling would overshoot it.
    pub fn grow_to(&self, target: usize) -> usize {
        let goal = target.div_ceil(GRANULE) * GRANULE;
        let goal = goal.min(self.bytes);
        loop {
            let cur = self.committed.load(Ordering::Acquire);
            if cur >= goal {
                return cur;
            }
            if self
                .committed
                .compare_exchange(cur, goal, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return goal;
            }
        }
    }

    /// Grows the committed watermark to `min(committed * 2, max)`.
    /// Returns the new committed size, or `None` if already at maximum.
    pub fn grow(&self) -> Option<usize> {
        loop {
            let cur = self.committed.load(Ordering::Acquire);
            if cur >= self.bytes {
                return None;
            }
            let next = (cur * 2).min(self.bytes);
            if self
                .committed
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(next);
            }
        }
    }

    /// Loads the raw word at word index `idx`.
    #[inline]
    pub fn load_word(&self, idx: usize, order: Ordering) -> u64 {
        self.words[idx].load(order)
    }

    /// Zeroes `n` words from word index `first` (one bounds check for the
    /// whole range, not one per word).
    #[inline]
    pub fn zero_words(&self, first: usize, n: usize) {
        for w in &self.words[first..first + n] {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Reads and decodes the header of `obj` (acquire: pairs with the
    /// allocation publication).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the word is not a valid header.
    #[inline]
    pub fn header(&self, obj: ObjectRef) -> Header {
        Header::decode(self.words[obj.word()].load(Ordering::Acquire))
    }

    /// Writes the header word for a new object (release).
    #[inline]
    pub fn write_header(&self, obj: ObjectRef, header_word: u64) {
        self.words[obj.word()].store(header_word, Ordering::Release);
    }

    /// Loads reference slot `slot` of `obj` as a raw slot value.
    #[inline]
    pub fn load_ref_slot(&self, obj: ObjectRef, slot: usize) -> ObjectRef {
        ObjectRef::from_slot(self.words[obj.word() + 1 + slot].load(Ordering::Acquire))
    }

    /// Stores reference slot `slot` of `obj`.
    #[inline]
    pub fn store_ref_slot(&self, obj: ObjectRef, slot: usize, value: ObjectRef) {
        self.words[obj.word() + 1 + slot].store(value.to_slot(), Ordering::Release);
    }

    /// Loads data word `idx` (indexed after the reference slots) of an
    /// object with `ref_slots` reference slots.
    #[inline]
    pub fn load_data_word(&self, obj: ObjectRef, ref_slots: usize, idx: usize) -> u64 {
        self.words[obj.word() + 1 + ref_slots + idx].load(Ordering::Relaxed)
    }

    /// Stores data word `idx` of an object with `ref_slots` reference slots.
    #[inline]
    pub fn store_data_word(&self, obj: ObjectRef, ref_slots: usize, idx: usize, value: u64) {
        self.words[obj.word() + 1 + ref_slots + idx].store(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ObjShape;

    #[test]
    fn sizes_and_commit() {
        let a = Arena::new(1 << 20, 1 << 16);
        assert_eq!(a.max_bytes(), 1 << 20);
        assert_eq!(a.committed_bytes(), 1 << 16);
        assert_eq!(a.grow(), Some(1 << 17));
        assert_eq!(a.committed_bytes(), 1 << 17);
    }

    #[test]
    fn fresh_arena_reads_zero() {
        let a = Arena::new(32 << 20, 1 << 20);
        let words = a.max_bytes() / WORD;
        for idx in [0, words / 2, words - 1] {
            assert_eq!(a.load_word(idx, Ordering::Relaxed), 0);
        }
        let last = ObjectRef::from_granule(a.max_granules() - 1);
        assert!(a.load_ref_slot(last, 0).is_null());
    }

    #[test]
    fn grow_saturates_at_max() {
        let a = Arena::new(4096, 4096);
        assert_eq!(a.grow(), None);
        let b = Arena::new(4096, 1024);
        assert_eq!(b.grow(), Some(2048));
        assert_eq!(b.grow(), Some(4096));
        assert_eq!(b.grow(), None);
    }

    #[test]
    fn header_and_slots_round_trip() {
        let a = Arena::new(4096, 4096);
        let obj = ObjectRef::from_granule(2);
        let shape = ObjShape::new(2, 1).with_class(9);
        a.write_header(obj, shape.encode_header());
        let h = a.header(obj);
        assert_eq!(h.ref_slots(), 2);
        assert_eq!(h.class_id(), 9);

        let target = ObjectRef::from_granule(5);
        a.store_ref_slot(obj, 0, target);
        a.store_ref_slot(obj, 1, ObjectRef::NULL);
        assert_eq!(a.load_ref_slot(obj, 0), target);
        assert!(a.load_ref_slot(obj, 1).is_null());

        a.store_data_word(obj, 2, 0, 0xDEAD_BEEF);
        assert_eq!(a.load_data_word(obj, 2, 0), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "initial exceeds maximum")]
    fn initial_larger_than_max_panics() {
        let _ = Arena::new(1024, 2048);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 object-offset space")]
    #[cfg(target_pointer_width = "64")]
    fn oversized_arena_rejected_before_reservation() {
        // 8 GiB of granules cannot be addressed by u32 byte offsets; the
        // assert fires before any backing memory is allocated.
        let _ = Arena::new(1usize << 33, 1 << 20);
    }
}
