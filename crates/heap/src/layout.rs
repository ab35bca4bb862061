//! Object layout: header encoding and slot geometry.
//!
//! Every object occupies a whole number of granules and begins with a
//! one-word header followed by `ref_slots` reference slots (one word each)
//! and then `data_words` words of non-reference payload:
//!
//! ```text
//! granule-aligned start
//! +-----------+-----------+-----+-----------+-----------+-----+---------+
//! |  header   | ref slot 0| ... | ref slot R| data word0| ... | padding |
//! +-----------+-----------+-----+-----------+-----------+-----+---------+
//! ```
//!
//! The header packs the object's size (in granules), its number of
//! reference slots, and a client-chosen class id.  The collector reads
//! headers to parse the heap during trace, sweep and card scanning, exactly
//! like the JVM heap manager the paper's collector was embedded in.

use crate::addr::granules_for_words;

/// Maximum object size in granules (20-bit field: 16 MB objects).
pub const MAX_SIZE_GRANULES: usize = (1 << 20) - 1;
/// Maximum number of reference slots per object (20-bit field).
pub const MAX_REF_SLOTS: usize = (1 << 20) - 1;
/// Maximum class id (20-bit field).
pub const MAX_CLASS_ID: u32 = (1 << 20) - 1;

const MAGIC: u64 = 0xA;
const MAGIC_SHIFT: u32 = 60;
const CLASS_SHIFT: u32 = 40;
const REFS_SHIFT: u32 = 20;
const FIELD_MASK: u64 = (1 << 20) - 1;

/// The shape of an object to allocate: how many reference slots and data
/// words it has, plus a free-form class id the client can use to tag object
/// kinds (workloads use it to label node types).
///
/// # Examples
///
/// ```
/// use otf_heap::ObjShape;
/// let pair = ObjShape::new(2, 0);
/// assert_eq!(pair.ref_slots(), 2);
/// assert_eq!(pair.size_granules(), 2); // header + 2 slots = 3 words -> 2 granules
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjShape {
    ref_slots: u32,
    data_words: u32,
    class_id: u32,
}

impl ObjShape {
    /// Creates a shape with `ref_slots` reference slots and `data_words`
    /// words of data payload, class id 0.
    ///
    /// # Panics
    ///
    /// Panics if the resulting object would exceed [`MAX_SIZE_GRANULES`] or
    /// `ref_slots` exceeds [`MAX_REF_SLOTS`].
    pub fn new(ref_slots: usize, data_words: usize) -> ObjShape {
        assert!(ref_slots <= MAX_REF_SLOTS, "too many reference slots");
        let total_words = 1 + ref_slots + data_words;
        assert!(
            granules_for_words(total_words) <= MAX_SIZE_GRANULES,
            "object too large: {total_words} words"
        );
        ObjShape {
            ref_slots: ref_slots as u32,
            data_words: data_words as u32,
            class_id: 0,
        }
    }

    /// Returns the same shape with the given class id.
    ///
    /// # Panics
    ///
    /// Panics if `class_id` exceeds [`MAX_CLASS_ID`].
    pub fn with_class(mut self, class_id: u32) -> ObjShape {
        assert!(class_id <= MAX_CLASS_ID, "class id out of range");
        self.class_id = class_id;
        self
    }

    /// Number of reference slots.
    #[inline]
    pub fn ref_slots(&self) -> usize {
        self.ref_slots as usize
    }

    /// Number of data payload words.
    #[inline]
    pub fn data_words(&self) -> usize {
        self.data_words as usize
    }

    /// The class id tag.
    #[inline]
    pub fn class_id(&self) -> u32 {
        self.class_id
    }

    /// Total size in words including the header (before granule rounding).
    #[inline]
    pub fn size_words(&self) -> usize {
        1 + self.ref_slots as usize + self.data_words as usize
    }

    /// Total size in granules (header + slots + data, rounded up).
    #[inline]
    pub fn size_granules(&self) -> usize {
        granules_for_words(self.size_words())
    }

    /// Total size in bytes (granule-rounded).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.size_granules() * crate::addr::GRANULE
    }

    /// Encodes this shape as a header word.
    #[inline]
    pub fn encode_header(&self) -> u64 {
        Header::encode(self.size_granules(), self.ref_slots as usize, self.class_id)
    }
}

/// A decoded object header.
///
/// # Examples
///
/// ```
/// use otf_heap::{Header, ObjShape};
/// let shape = ObjShape::new(3, 5).with_class(7);
/// let h = Header::decode(shape.encode_header());
/// assert_eq!(h.ref_slots(), 3);
/// assert_eq!(h.class_id(), 7);
/// assert_eq!(h.size_granules(), shape.size_granules());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Header {
    size_granules: u32,
    ref_slots: u32,
    class_id: u32,
}

impl Header {
    /// Packs size, ref-slot count and class id into a header word.
    #[inline]
    pub fn encode(size_granules: usize, ref_slots: usize, class_id: u32) -> u64 {
        debug_assert!(size_granules <= MAX_SIZE_GRANULES);
        debug_assert!(ref_slots <= MAX_REF_SLOTS);
        debug_assert!(class_id <= MAX_CLASS_ID);
        (MAGIC << MAGIC_SHIFT)
            | ((class_id as u64) << CLASS_SHIFT)
            | ((ref_slots as u64) << REFS_SHIFT)
            | size_granules as u64
    }

    /// Decodes a header word.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the magic tag is missing (i.e. the word is
    /// not a valid object header), which catches heap-parse bugs early.
    #[inline]
    pub fn decode(word: u64) -> Header {
        debug_assert_eq!(word >> MAGIC_SHIFT, MAGIC, "bad header word {word:#x}");
        Header {
            size_granules: (word & FIELD_MASK) as u32,
            ref_slots: ((word >> REFS_SHIFT) & FIELD_MASK) as u32,
            class_id: ((word >> CLASS_SHIFT) & FIELD_MASK) as u32,
        }
    }

    /// Whether a raw word carries the header magic tag.
    #[inline]
    pub fn is_valid(word: u64) -> bool {
        word >> MAGIC_SHIFT == MAGIC
    }

    /// Object size in granules.
    #[inline]
    pub fn size_granules(&self) -> usize {
        self.size_granules as usize
    }

    /// Object size in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.size_granules as usize * crate::addr::GRANULE
    }

    /// Number of reference slots.
    #[inline]
    pub fn ref_slots(&self) -> usize {
        self.ref_slots as usize
    }

    /// The class id recorded at allocation.
    #[inline]
    pub fn class_id(&self) -> u32 {
        self.class_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_object_is_one_granule() {
        // header alone: 1 word -> 1 granule
        assert_eq!(ObjShape::new(0, 0).size_granules(), 1);
        // header + 1 slot: 2 words -> 1 granule
        assert_eq!(ObjShape::new(1, 0).size_granules(), 1);
        // header + 2 slots: 3 words -> 2 granules
        assert_eq!(ObjShape::new(2, 0).size_granules(), 2);
    }

    #[test]
    fn header_round_trip() {
        for (refs, data, class) in [(0, 0, 0), (1, 1, 1), (5, 100, 42), (1000, 0, MAX_CLASS_ID)] {
            let s = ObjShape::new(refs, data).with_class(class);
            let h = Header::decode(s.encode_header());
            assert_eq!(h.ref_slots(), refs);
            assert_eq!(h.class_id(), class);
            assert_eq!(h.size_granules(), s.size_granules());
        }
    }

    #[test]
    fn magic_detection() {
        assert!(Header::is_valid(ObjShape::new(2, 2).encode_header()));
        assert!(!Header::is_valid(0));
        assert!(!Header::is_valid(u64::MAX >> 8));
    }

    #[test]
    fn size_bytes_is_granule_rounded() {
        let s = ObjShape::new(2, 0); // 3 words = 24 bytes -> 32
        assert_eq!(s.size_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "too many reference slots")]
    fn too_many_refs_panics() {
        let _ = ObjShape::new(MAX_REF_SLOTS + 1, 0);
    }
}
