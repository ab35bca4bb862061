//! Addresses, object references and granule arithmetic.
//!
//! The heap is one contiguous arena addressed by byte offsets.  All objects
//! start on a *granule* boundary.  A granule is 16 bytes — the paper's
//! minimum card size ("object marking", §8.5.3) and the unit at which the
//! side tables (color, age) keep one byte per granule.
//!
//! Granule 0 of the arena is never allocated, so the byte offset `0` can be
//! used as the null reference.

/// Size of a granule in bytes.  Objects are granule-aligned and sized.
pub const GRANULE: usize = 16;

/// Log2 of [`GRANULE`].
pub const GRANULE_LOG2: u32 = 4;

/// Size of a heap word (one slot) in bytes.
pub const WORD: usize = 8;

/// Largest heap size, in granules, that the `u32` byte offsets inside
/// [`ObjectRef`] and [`crate::Chunk`] can address: granule index
/// `MAX_HEAP_GRANULES - 1` shifts to exactly `u32::MAX & !0xF`.  Arenas
/// (and `GcConfig::max_heap`) beyond this would silently wrap at the
/// `usize -> u32` conversion sites, so `Arena::new` rejects them up
/// front.
pub const MAX_HEAP_GRANULES: usize = (u32::MAX as usize >> GRANULE_LOG2) + 1;

/// Number of words per granule.
pub const WORDS_PER_GRANULE: usize = GRANULE / WORD;

/// Size of a tracked page in bytes (for the page-touch accounting of the
/// paper's Figure 15).
pub const PAGE: usize = 4096;

/// A reference to a heap object: the byte offset of the object's header
/// within the arena.  Always granule-aligned and never zero for a real
/// object; the all-zero value is the null reference.
///
/// `ObjectRef` is the value stored in reference slots and handed out by the
/// allocator.  It is `Copy` and plain data — keeping a copy does **not**
/// keep the object alive; the collector only honours references found in
/// shadow stacks, global roots, and reachable objects.
///
/// # Examples
///
/// ```
/// use otf_heap::ObjectRef;
/// let r = ObjectRef::from_raw(32);
/// assert!(!r.is_null());
/// assert_eq!(r.granule(), 2);
/// assert_eq!(ObjectRef::NULL.granule(), 0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ObjectRef(u32);

impl ObjectRef {
    /// The null reference (byte offset zero, which is never an object).
    pub const NULL: ObjectRef = ObjectRef(0);

    /// Builds a reference from a raw byte offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `byte` is not granule-aligned.
    #[inline]
    pub fn from_raw(byte: u32) -> ObjectRef {
        debug_assert_eq!(byte as usize % GRANULE, 0, "unaligned object ref {byte:#x}");
        ObjectRef(byte)
    }

    /// Builds a reference from a granule index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `granule` is outside the `u32` byte
    /// address space (see [`MAX_HEAP_GRANULES`]) — in release builds the
    /// offset would wrap silently, which `Arena::new`'s size validation
    /// makes unreachable.
    #[inline]
    pub fn from_granule(granule: usize) -> ObjectRef {
        debug_assert!(
            granule < MAX_HEAP_GRANULES,
            "granule {granule} beyond the u32 offset space"
        );
        ObjectRef((granule << GRANULE_LOG2) as u32)
    }

    /// The raw byte offset of the object header in the arena.
    #[inline]
    pub fn byte(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` representation (byte offset).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The granule index of the object start (used to index color and age
    /// tables).
    #[inline]
    pub fn granule(self) -> usize {
        self.0 as usize >> GRANULE_LOG2
    }

    /// The word index of the object header in the arena.
    #[inline]
    pub fn word(self) -> usize {
        self.0 as usize / WORD
    }

    /// Whether this is the null reference.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Decodes a slot value (as stored in the heap) into a reference.
    /// Slots store the raw byte offset zero-extended to 64 bits.
    #[inline]
    pub fn from_slot(value: u64) -> ObjectRef {
        ObjectRef(value as u32)
    }

    /// Encodes this reference as a 64-bit slot value.
    #[inline]
    pub const fn to_slot(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else {
            write!(f, "obj@{:#x}", self.0)
        }
    }
}

/// Rounds `bytes` up to a whole number of granules.
#[inline]
pub fn granules_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(GRANULE)
}

/// Rounds `words` up to a whole number of granules.
#[inline]
pub fn granules_for_words(words: usize) -> usize {
    words.div_ceil(WORDS_PER_GRANULE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_zero_and_default() {
        assert!(ObjectRef::NULL.is_null());
        assert_eq!(ObjectRef::default(), ObjectRef::NULL);
        assert_eq!(ObjectRef::NULL.to_slot(), 0);
        assert!(ObjectRef::from_slot(0).is_null());
    }

    #[test]
    fn granule_round_trips() {
        for g in [1usize, 2, 7, 1000, 123_456] {
            let r = ObjectRef::from_granule(g);
            assert_eq!(r.granule(), g);
            assert_eq!(r.byte(), g * GRANULE);
            assert_eq!(ObjectRef::from_raw(r.raw()), r);
            assert_eq!(ObjectRef::from_slot(r.to_slot()), r);
        }
    }

    #[test]
    fn word_index_matches_byte() {
        let r = ObjectRef::from_granule(3);
        assert_eq!(r.word(), 3 * GRANULE / WORD);
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(granules_for_bytes(0), 0);
        assert_eq!(granules_for_bytes(1), 1);
        assert_eq!(granules_for_bytes(16), 1);
        assert_eq!(granules_for_bytes(17), 2);
        assert_eq!(granules_for_words(1), 1);
        assert_eq!(granules_for_words(2), 1);
        assert_eq!(granules_for_words(3), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ObjectRef::NULL.to_string(), "null");
        assert_eq!(ObjectRef::from_granule(1).to_string(), "obj@0x10");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_ref_panics() {
        let _ = ObjectRef::from_raw(7);
    }

    #[test]
    fn max_granule_still_fits_u32() {
        let r = ObjectRef::from_granule(MAX_HEAP_GRANULES - 1);
        assert_eq!(r.granule(), MAX_HEAP_GRANULES - 1);
    }

    #[test]
    #[should_panic(expected = "beyond the u32 offset space")]
    #[cfg(all(debug_assertions, target_pointer_width = "64"))]
    fn overflowing_granule_panics() {
        let _ = ObjectRef::from_granule(MAX_HEAP_GRANULES);
    }
}
