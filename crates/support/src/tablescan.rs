//! Word-at-a-time scanning kernels over atomic byte tables.
//!
//! The collector's concurrent phases are dominated by linear walks over
//! its side tables — the sweep parses the whole heap from the color
//! table, `ClearCards` scans the card table, and `InitFullCollection`
//! recolors every black object.  All of those tables are `[AtomicU8]`
//! and all of those walks ask byte-wise questions ("first byte that is
//! not `Free`/`Interior`", "first clean byte after this dirty run",
//! "how many dirty bytes").  Answering them one `AtomicU8` load at a
//! time wastes ~7/8 of every cache line the scan already paid for.
//!
//! This module supplies SWAR (*SIMD within a register*) kernels that
//! answer the same questions eight table bytes per `u64` load, with
//! byte-at-a-time handling of the unaligned head and tail of each range.
//! Production collectors do exactly this over their side metadata
//! (MMTk's bulk side-metadata scans, Nofl's word-level sweeps over
//! per-granule mark bytes); these kernels are the same idea reduced to
//! the operations our tables need: two searches, a count, a fill, and
//! the two counting scans ([`skip_and_count`], [`pair_run_end`]) that let
//! the sweep work a run at a time.
//!
//! # Memory model
//!
//! The word kernels read the table through `AtomicU64` loads at the same
//! addresses other threads access through `AtomicU8` — *mixed-size
//! atomic access*.  The Rust/C++ abstract machine does not assign this a
//! semantics, but every supported target does: the word load compiles to
//! a plain aligned load, and cache coherence guarantees each of its
//! eight lanes observes *some* value actually stored to that byte by an
//! atomic byte store (never an out-of-thin-air or torn-within-a-byte
//! value).  This is the established side-metadata idiom of production
//! collectors (MMTk's side-metadata bytespaces, crossbeam's utilities);
//! we adopt it deliberately and confine every mixed-size access to this
//! module.
//!
//! What the kernels **do not** provide is any ordering: all word loads
//! are `Relaxed`.  Soundness therefore rests on the same protocol the
//! byte-level scan already documented in `otf-heap`'s `color.rs`:
//!
//! * A **non-object byte** (`Free`/`Interior`, or a clean card) read
//!   relaxed is definitive or stale-in-a-safe-direction: granules leave
//!   those states only through the scanning thread itself or through a
//!   concurrent allocation the scan may legitimately miss (skipping an
//!   in-flight object is always safe — it carries the allocation color
//!   and is never a reclamation candidate).
//! * Before acting on an **object byte** — i.e. before touching the
//!   object's header or slots — the caller must *re-load that byte with
//!   `Acquire`*, pairing with the allocator's `Release` publication
//!   store.  The word scan only *finds* candidates; the acquire byte
//!   re-read is what licenses dereferencing them.  `CardTable::next_dirty`
//!   performs the equivalent acquire re-read of the dirty byte it
//!   returns, pairing with the mutator's release card mark.
//!
//! The write kernels ([`bulk_fill`], [`bulk_zero`]) store whole words
//! with `Release`.  A concurrent byte store into the same word (e.g. a
//! mutator re-dirtying a card while `clear_range` wipes the table) is
//! linearized per byte by coherence: each byte ends up with one of the
//! two written values, exactly the outcome the byte-at-a-time loop
//! already had.  When a fill must be *published* (an allocator coloring
//! interior granules before releasing the start byte), the caller's
//! subsequent release store of the start byte orders the whole fill, as
//! before.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Bytes per scan word.
const WORD: usize = 8;
/// Every byte lane = `0x01`.
const ONES: u64 = 0x0101_0101_0101_0101;
/// Every byte lane = `0x80` (the SWAR per-byte flag bit).
const HIGH: u64 = 0x8080_8080_8080_8080;
/// Every byte lane = `0x7f`.
const LOW7: u64 = !HIGH;

/// Adaptive byte/word mode for the two *search* kernels.
///
/// Word scans win on sparse tables (long clean runs) and lose on dense
/// ones: when nearly every call hits within its first few bytes, the
/// alignment setup and mask work are pure overhead and the plain byte
/// loop is faster (PR 2's kernel microbench measured the word path at
/// 0.77x on dense color- and card-table walks).  Both search kernels
/// therefore byte-scan a head covering the first full word *before
/// touching any per-thread state* — the dense regime resolves there at
/// byte-loop cost, with zero thread-local traffic.  Scans that survive the head consult a
/// per-thread mode: after **two consecutive** such scans hit on their
/// very first byte past the head, the kernel falls back to the byte loop;
/// once the byte loop has seen a **full clean word's worth** of bytes
/// without a hit, it re-enters word mode.  The mode changes only *which
/// loop* runs — the returned index is identical in both, so the
/// differential oracles hold regardless of mode history.
#[derive(Clone, Copy)]
struct Adapt {
    /// True in the dense regime (pure byte loop).
    byte_mode: bool,
    /// Word mode: consecutive scans that hit on their first byte.
    first_hits: u8,
    /// Byte mode: consecutive clean bytes since the last hit.
    clean_run: u8,
}

impl Adapt {
    const WORD_MODE: Adapt = Adapt {
        byte_mode: false,
        first_hits: 0,
        clean_run: 0,
    };
    const BYTE_MODE: Adapt = Adapt {
        byte_mode: true,
        first_hits: 0,
        clean_run: 0,
    };
}

/// Consecutive first-word hits that demote a kernel to byte mode.
const FIRST_HITS_TO_BYTE: u8 = 2;

thread_local! {
    /// [`find_byte_not_in`]'s mode (the color table's `next_color_above`,
    /// the card scan's `next_dirty`).
    static ADAPT_SKIP: Cell<Adapt> = const { Cell::new(Adapt::WORD_MODE) };
    /// [`find_run_end`]'s mode (the color table's `object_end`).
    static ADAPT_RUN: Cell<Adapt> = const { Cell::new(Adapt::WORD_MODE) };
}

/// Updates `st` after a scan over `[from, to)` returned `found`.  Only a
/// hit on the *first byte* counts toward demotion: a hit deeper in the
/// first word still cost just one word load, which the byte loop cannot
/// beat.
#[inline]
fn note_scan_result(st: &mut Adapt, from: usize, to: usize, found: usize) {
    if found < to && found == from {
        st.first_hits += 1;
        if st.first_hits >= FIRST_HITS_TO_BYTE {
            *st = Adapt::BYTE_MODE;
        }
    } else {
        st.first_hits = 0;
    }
}

/// Splats `b` into every byte lane.
#[inline]
const fn splat(b: u8) -> u64 {
    ONES * b as u64
}

/// First index >= `i` whose *address* is word-aligned (the table's base
/// address need not be aligned — `[AtomicU8]` has alignment 1).
#[inline]
fn align_up(bytes: &[AtomicU8], i: usize) -> usize {
    let addr = bytes.as_ptr() as usize + i;
    i + (addr.wrapping_neg() & (WORD - 1))
}

/// Relaxed word load of `bytes[i..i + 8]`, byte 0 in the low lane.
///
/// # Safety
///
/// `i + 8 <= bytes.len()` and `bytes.as_ptr() + i` must be 8-aligned.
#[inline]
unsafe fn load_word(bytes: &[AtomicU8], i: usize) -> u64 {
    debug_assert!(i + WORD <= bytes.len());
    let p = bytes.as_ptr().add(i) as *const AtomicU64;
    debug_assert_eq!(p as usize % WORD, 0);
    // to_le(): make "memory byte k" = "integer byte k" on any endianness,
    // so trailing_zeros()/8 is a memory offset.
    (*p).load(Ordering::Relaxed).to_le()
}

/// Release word store of `value` to `bytes[i..i + 8]`.
///
/// # Safety
///
/// Same contract as [`load_word`].
#[inline]
unsafe fn store_word(bytes: &[AtomicU8], i: usize, value: u64) {
    debug_assert!(i + WORD <= bytes.len());
    let p = bytes.as_ptr().add(i) as *const AtomicU64;
    debug_assert_eq!(p as usize % WORD, 0);
    // Splatted values are endianness-invariant, so no to_le() needed.
    (*p).store(value, Ordering::Release);
}

/// Per-byte flag mask: `0x80` in every lane whose byte is `> max`.
/// Requires `max < 0x80`; byte values are unrestricted (lanes >= `0x80`
/// are flagged via their own high bit).
#[inline]
fn gt_mask(word: u64, max: u8) -> u64 {
    debug_assert!(max < 0x80);
    // (b & 0x7f) + (0x7f - max) carries into bit 7 iff (b & 0x7f) > max;
    // the addition cannot carry across lanes (max sum 0xfe).  OR-ing the
    // original word flags lanes with their high bit already set.
    (((word & LOW7) + splat(0x7f - max)) | word) & HIGH
}

/// Per-byte flag mask: `0x80` in every lane whose byte is zero (exact —
/// no false positives, unlike the borrow-propagating `haszero` trick).
#[inline]
fn zero_mask(word: u64) -> u64 {
    // (b & 0x7f) + 0x7f carries into bit 7 iff the low 7 bits are
    // nonzero; OR the original word to catch the high bit.  A byte is
    // zero iff its flag is still clear — so XOR with HIGH.
    ((((word & LOW7) + LOW7) | word) & HIGH) ^ HIGH
}

/// Memory byte offset of the lowest flagged lane of `mask`.
#[inline]
fn first_flag(mask: u64) -> usize {
    debug_assert!(mask != 0);
    mask.trailing_zeros() as usize / WORD
}

/// Returns the first index in `[from, to)` whose byte is **not** in
/// `0..=max`, or `to` if every byte is.  `max` must be `< 0x80`.
///
/// This is the SWAR "memchr-style" skip: the sweep's fast-forward over
/// `Free`/`Interior` runs (`max = Interior`), the card scan's skip over
/// clean cards (`max = CLEAN`), and `InitFullCollection`'s search for
/// black/gray bytes (`max = Yellow`) are all instances.  Dispatches
/// adaptively between the word path and a plain byte loop (a per-thread
/// mode, demoted after repeated first-byte hits) so dense tables are not
/// taxed with word-path setup.
///
/// # Panics
///
/// Panics if `to > bytes.len()` or `max >= 0x80`.
pub fn find_byte_not_in(bytes: &[AtomicU8], from: usize, to: usize, max: u8) -> usize {
    assert!(to <= bytes.len());
    assert!(max < 0x80, "find_byte_not_in requires max < 0x80");
    // Byte-scan the unaligned head *plus* the first full word before
    // touching any per-thread state: on dense tables the hit is almost
    // always within the first few bytes, and for such tiny scans even
    // the thread-local round-trip is measurable overhead.
    let mut g = from;
    let head_end = align_up(bytes, from + WORD).min(to);
    while g < head_end {
        if bytes[g].load(Ordering::Relaxed) > max {
            return g;
        }
        g += 1;
    }
    if g == to {
        return to;
    }
    skip_tail(bytes, g, to, max)
}

/// Cold continuation of [`find_byte_not_in`] past the head.  Outlined so
/// the dense-regime hot path stays a tiny leaf function — keeping the
/// TLS access and word machinery here keeps them off the common path's
/// prologue entirely.
#[cold]
#[inline(never)]
fn skip_tail(bytes: &[AtomicU8], from: usize, to: usize, max: u8) -> usize {
    ADAPT_SKIP.with(|cell| {
        let mut st = cell.get();
        let found = scan_not_in(bytes, from, to, max, &mut st);
        cell.set(st);
        found
    })
}

/// [`find_byte_not_in`] body past the head, threading the adaptive mode
/// through `st`.  `from` is word-aligned on entry (the caller byte-scanned
/// up to an alignment boundary).
fn scan_not_in(bytes: &[AtomicU8], from: usize, to: usize, max: u8, st: &mut Adapt) -> usize {
    let mut g = from;
    // Dense regime: pure byte loop — no alignment, no masks.
    if st.byte_mode {
        while g < to {
            if bytes[g].load(Ordering::Relaxed) > max {
                st.clean_run = 0;
                return g;
            }
            g += 1;
            st.clean_run += 1;
            if st.clean_run >= WORD as u8 {
                // A full clean word's worth of bytes: sparse again.
                *st = Adapt::WORD_MODE;
                break;
            }
        }
        if st.byte_mode {
            return to; // range exhausted while still dense
        }
    }
    let found = 'scan: {
        // Re-align after a byte-mode exit at an arbitrary index (no-op
        // straight off the aligned head).
        let head_end = align_up(bytes, g).min(to);
        while g < head_end {
            if bytes[g].load(Ordering::Relaxed) > max {
                break 'scan g;
            }
            g += 1;
        }
        // Aligned body, one word at a time.
        while g + WORD <= to {
            // SAFETY: g is address-aligned (align_up above, then += WORD)
            // and g + WORD <= to <= bytes.len().
            let w = unsafe { load_word(bytes, g) };
            let m = gt_mask(w, max);
            if m != 0 {
                break 'scan g + first_flag(m);
            }
            g += WORD;
        }
        // Tail.
        while g < to {
            if bytes[g].load(Ordering::Relaxed) > max {
                break 'scan g;
            }
            g += 1;
        }
        to
    };
    note_scan_result(st, from, to, found);
    found
}

/// Returns the first index in `[from, to)` whose byte differs from
/// `value`, or `to` if the whole range is a `value`-run.
///
/// This finds the end of a homogeneous run — the sweep's object-extent
/// scan over `Interior` bytes is the canonical caller.  Adaptive like
/// [`find_byte_not_in`]: a table of short runs (small objects) demotes
/// the kernel to the byte loop until runs lengthen again.
///
/// # Panics
///
/// Panics if `to > bytes.len()`.
pub fn find_run_end(bytes: &[AtomicU8], from: usize, to: usize, value: u8) -> usize {
    assert!(to <= bytes.len());
    // Head before any thread-local traffic — see find_byte_not_in: short
    // runs (small objects) resolve here at plain byte-loop cost.
    let mut g = from;
    let head_end = align_up(bytes, from + WORD).min(to);
    while g < head_end {
        if bytes[g].load(Ordering::Relaxed) != value {
            return g;
        }
        g += 1;
    }
    if g == to {
        return to;
    }
    run_tail(bytes, g, to, value)
}

/// Cold continuation of [`find_run_end`] past the head — see
/// [`skip_tail`].
#[cold]
#[inline(never)]
fn run_tail(bytes: &[AtomicU8], from: usize, to: usize, value: u8) -> usize {
    ADAPT_RUN.with(|cell| {
        let mut st = cell.get();
        let found = scan_run_end(bytes, from, to, value, &mut st);
        cell.set(st);
        found
    })
}

/// [`find_run_end`] body past the head, threading the adaptive mode
/// through `st`.  `from` is word-aligned on entry.
fn scan_run_end(bytes: &[AtomicU8], from: usize, to: usize, value: u8, st: &mut Adapt) -> usize {
    let mut g = from;
    if st.byte_mode {
        while g < to {
            if bytes[g].load(Ordering::Relaxed) != value {
                st.clean_run = 0;
                return g;
            }
            g += 1;
            st.clean_run += 1;
            if st.clean_run >= WORD as u8 {
                *st = Adapt::WORD_MODE;
                break;
            }
        }
        if st.byte_mode {
            return to;
        }
    }
    let found = 'scan: {
        // Re-align after a byte-mode exit (no-op off the aligned head).
        let head_end = align_up(bytes, g).min(to);
        while g < head_end {
            if bytes[g].load(Ordering::Relaxed) != value {
                break 'scan g;
            }
            g += 1;
        }
        let v = splat(value);
        while g + WORD <= to {
            // SAFETY: as in find_byte_not_in.
            let x = unsafe { load_word(bytes, g) } ^ v;
            if x != 0 {
                // Lowest nonzero lane = first byte differing from `value`.
                break 'scan g + x.trailing_zeros() as usize / WORD;
            }
            g += WORD;
        }
        while g < to {
            if bytes[g].load(Ordering::Relaxed) != value {
                break 'scan g;
            }
            g += 1;
        }
        to
    };
    note_scan_result(st, from, to, found);
    found
}

/// Number of bytes in `[from, to)` equal to `value`.
///
/// # Panics
///
/// Panics if `to > bytes.len()`.
pub fn count_matching(bytes: &[AtomicU8], from: usize, to: usize, value: u8) -> usize {
    assert!(to <= bytes.len());
    let mut count = 0;
    let mut g = from;
    let head_end = align_up(bytes, g).min(to);
    while g < head_end {
        count += usize::from(bytes[g].load(Ordering::Relaxed) == value);
        g += 1;
    }
    let v = splat(value);
    while g + WORD <= to {
        // SAFETY: as in find_byte_not_in.
        let x = unsafe { load_word(bytes, g) } ^ v;
        count += zero_mask(x).count_ones() as usize;
        g += WORD;
    }
    while g < to {
        count += usize::from(bytes[g].load(Ordering::Relaxed) == value);
        g += 1;
    }
    count
}

/// Shared body of the two counting scans: walks `[from, to)` to the
/// first byte that stops the scan and sums `N` per-byte counts over the
/// bytes before it.  `flags` maps a word to its `(stops, counts)` flag
/// masks, lane for lane (the masks above are exact per lane); the
/// unaligned head and the sub-word tail run it on a one-byte word, so a
/// kernel has a single definition.
#[inline(always)]
fn scan_counting<const N: usize>(
    bytes: &[AtomicU8],
    from: usize,
    to: usize,
    flags: impl Fn(u64) -> (u64, [u64; N]),
) -> (usize, [usize; N]) {
    let mut counts = [0; N];
    if from >= to {
        return (to, counts);
    }
    // Scans `word` (its lanes above `live` are padding); on a stop,
    // counts only the lanes below the stopping one.
    let mut scan = |word: u64, live: u64| {
        let (stops, c) = flags(word);
        let stop = (stops & live != 0).then(|| first_flag(stops & live));
        let below = stop.map_or(live, |k| (1u64 << (k * WORD)) - 1);
        for i in 0..N {
            counts[i] += (c[i] & below).count_ones() as usize;
        }
        stop
    };
    let mut g = from;
    let mut byte_end = align_up(bytes, g).min(to);
    loop {
        // Unaligned head on the first pass, sub-word tail on the second.
        while g < byte_end {
            if scan(u64::from(bytes[g].load(Ordering::Relaxed)), 0xff).is_some() {
                return (g, counts);
            }
            g += 1;
        }
        if g == to {
            return (to, counts);
        }
        while g + WORD <= to {
            // SAFETY: as in find_byte_not_in.
            if let Some(k) = scan(unsafe { load_word(bytes, g) }, u64::MAX) {
                return (g + k, counts);
            }
            g += WORD;
        }
        byte_end = to;
    }
}

/// Skip-and-count: returns `(index, above, nonzero)`, where `index` is
/// the first position in `[from, to)` whose byte is `> max` **and**
/// `!= pass` (or `to`), `above` is how many of the bytes skipped on the
/// way were `> max` (so equal to `pass`), and `nonzero` how many were
/// not `0`.  `max` must be `< 0x80`; a `pass <= max` passes nothing
/// extra and the search degenerates to [`find_byte_not_in`].
///
/// The run-at-a-time sweep's survivor skip: with `max = Interior` and
/// `pass` the one object color the sweep leaves alone, `above` counts
/// the survivors skipped and `nonzero` the granules they occupy — the
/// objects are counted without being parsed.
///
/// # Panics
///
/// Panics if `to > bytes.len()` or `max >= 0x80`.
pub fn skip_and_count(
    bytes: &[AtomicU8],
    from: usize,
    to: usize,
    max: u8,
    pass: u8,
) -> (usize, usize, usize) {
    assert!(to <= bytes.len());
    assert!(max < 0x80, "skip_and_count requires max < 0x80");
    let vp = splat(pass);
    let (index, [above, nonzero]) = scan_counting(bytes, from, to, |w| {
        let gt = gt_mask(w, max);
        (gt & !zero_mask(w ^ vp), [gt, gt_mask(w, 0)])
    });
    (index, above, nonzero)
}

/// Two-value run end: returns `(end, count_a)`, where `end` is the first
/// index in `[from, to)` whose byte is neither `a` nor `b` (or `to`) and
/// `count_a` is the number of `a` bytes in `[from, end)`.
///
/// The run-at-a-time sweep's dead-run scan: `a` is the cycle's clear
/// color and `b` is `Interior`, so one call measures a whole run of dead
/// objects and counts them by their start bytes.
///
/// # Panics
///
/// Panics if `to > bytes.len()`.
pub fn pair_run_end(bytes: &[AtomicU8], from: usize, to: usize, a: u8, b: u8) -> (usize, usize) {
    assert!(to <= bytes.len());
    let (va, vb) = (splat(a), splat(b));
    let (end, [count_a]) = scan_counting(bytes, from, to, |w| {
        let is_a = zero_mask(w ^ va);
        ((is_a | zero_mask(w ^ vb)) ^ HIGH, [is_a])
    });
    (end, count_a)
}

/// Fills `[from, to)` with `value` (release stores, word-wide in the
/// aligned body).  See the module docs for when a fill additionally
/// needs a caller-side publication store.
///
/// # Panics
///
/// Panics if `to > bytes.len()`.
pub fn bulk_fill(bytes: &[AtomicU8], from: usize, to: usize, value: u8) {
    assert!(to <= bytes.len());
    let mut g = from;
    let head_end = align_up(bytes, g).min(to);
    while g < head_end {
        bytes[g].store(value, Ordering::Release);
        g += 1;
    }
    let v = splat(value);
    while g + WORD <= to {
        // SAFETY: as in find_byte_not_in.
        unsafe { store_word(bytes, g, v) };
        g += WORD;
    }
    while g < to {
        bytes[g].store(value, Ordering::Release);
        g += 1;
    }
}

/// Zeroes `[from, to)` — [`bulk_fill`] with `0` (the card table's
/// `clear_range`).
pub fn bulk_zero(bytes: &[AtomicU8], from: usize, to: usize) {
    bulk_fill(bytes, from, to, 0);
}

/// Byte-at-a-time reference implementations of every kernel.
///
/// These are the loops the word kernels replaced, kept as the oracle of
/// the differential property tests.  Semantics (including ordering)
/// match the word kernels byte for byte.
#[cfg(test)]
mod reference {
    use super::*;

    /// Byte-loop [`find_byte_not_in`](super::find_byte_not_in).
    pub fn find_byte_not_in(bytes: &[AtomicU8], from: usize, to: usize, max: u8) -> usize {
        assert!(to <= bytes.len());
        let mut g = from;
        while g < to && bytes[g].load(Ordering::Relaxed) <= max {
            g += 1;
        }
        g.min(to)
    }

    /// Byte-loop [`find_run_end`](super::find_run_end).
    pub fn find_run_end(bytes: &[AtomicU8], from: usize, to: usize, value: u8) -> usize {
        assert!(to <= bytes.len());
        let mut g = from;
        while g < to && bytes[g].load(Ordering::Relaxed) == value {
            g += 1;
        }
        g.min(to)
    }

    /// Byte-loop [`count_matching`](super::count_matching).
    pub fn count_matching(bytes: &[AtomicU8], from: usize, to: usize, value: u8) -> usize {
        assert!(to <= bytes.len());
        bytes[from..to]
            .iter()
            .filter(|b| b.load(Ordering::Relaxed) == value)
            .count()
    }

    /// Byte-loop [`skip_and_count`](super::skip_and_count).
    pub fn skip_and_count(
        bytes: &[AtomicU8],
        from: usize,
        to: usize,
        max: u8,
        pass: u8,
    ) -> (usize, usize, usize) {
        assert!(to <= bytes.len());
        let byte = |g: usize| bytes[g].load(Ordering::Relaxed);
        let end = (from..to)
            .find(|&g| byte(g) > max && byte(g) != pass)
            .unwrap_or(to);
        let skipped = from..end;
        let above = skipped.clone().filter(|&g| byte(g) > max).count();
        (end, above, skipped.filter(|&g| byte(g) != 0).count())
    }

    /// Byte-loop [`pair_run_end`](super::pair_run_end).
    pub fn pair_run_end(
        bytes: &[AtomicU8],
        from: usize,
        to: usize,
        a: u8,
        b: u8,
    ) -> (usize, usize) {
        assert!(to <= bytes.len());
        let byte = |g: usize| bytes[g].load(Ordering::Relaxed);
        let end = (from..to)
            .find(|&g| byte(g) != a && byte(g) != b)
            .unwrap_or(to);
        (end, (from..end).filter(|&g| byte(g) == a).count())
    }

    /// Byte-loop [`bulk_fill`](super::bulk_fill).
    pub fn bulk_fill(bytes: &[AtomicU8], from: usize, to: usize, value: u8) {
        assert!(to <= bytes.len());
        for b in &bytes[from..to] {
            b.store(value, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{run_cases, Gen};

    fn table(contents: &[u8]) -> Vec<AtomicU8> {
        contents.iter().map(|&b| AtomicU8::new(b)).collect()
    }

    fn snapshot(bytes: &[AtomicU8]) -> Vec<u8> {
        bytes.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn swar_masks_are_exact() {
        // Every (byte value, threshold) pair, one lane at a time.
        for b in 0..=255u8 {
            let w = splat(b);
            for max in [0u8, 1, 3, 5, 0x7f] {
                let expect = if b > max { HIGH } else { 0 };
                assert_eq!(gt_mask(w, max), expect, "b={b} max={max}");
            }
            let expect = if b == 0 { HIGH } else { 0 };
            assert_eq!(zero_mask(w), expect, "b={b}");
        }
    }

    #[test]
    fn finds_across_word_boundaries() {
        // 0..=1 run of 29 bytes, then a 2 at index 29 (straddles words
        // for every alignment of the base pointer).
        let mut v = vec![0u8; 40];
        v[13] = 1;
        v[29] = 2;
        let t = table(&v);
        assert_eq!(find_byte_not_in(&t, 0, 40, 1), 29);
        assert_eq!(find_byte_not_in(&t, 30, 40, 1), 40);
        assert_eq!(find_run_end(&t, 0, 40, 0), 13);
        assert_eq!(find_run_end(&t, 14, 40, 0), 29);
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let t = table(&[5; 16]);
        assert_eq!(find_byte_not_in(&t, 7, 7, 1), 7);
        assert_eq!(find_run_end(&t, 16, 16, 5), 16);
        assert_eq!(count_matching(&t, 3, 3, 5), 0);
        // The counting scans agree with their references on an empty
        // range and on `from > to` (both return `to`, nothing counted).
        for (from, to) in [(7, 7), (16, 16), (9, 7), (16, 0)] {
            assert_eq!(skip_and_count(&t, from, to, 1, 5), (to, 0, 0));
            assert_eq!(pair_run_end(&t, from, to, 5, 1), (to, 0));
            assert_eq!(reference::skip_and_count(&t, from, to, 1, 5), (to, 0, 0));
            assert_eq!(reference::pair_run_end(&t, from, to, 5, 1), (to, 0));
        }
        bulk_fill(&t, 9, 9, 1); // no-op
        assert_eq!(snapshot(&t), vec![5; 16]);
    }

    #[test]
    fn high_bit_bytes_are_not_in_any_set() {
        let t = table(&[0, 1, 0x80, 0, 0xff, 1, 0, 0, 0, 0]);
        assert_eq!(find_byte_not_in(&t, 0, 10, 1), 2);
        assert_eq!(find_byte_not_in(&t, 3, 10, 0x7f), 4);
        assert_eq!(count_matching(&t, 0, 10, 0xff), 1);
    }

    #[test]
    #[should_panic(expected = "max < 0x80")]
    fn rejects_high_threshold() {
        let t = table(&[0; 8]);
        let _ = find_byte_not_in(&t, 0, 8, 0x80);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_bounds_range() {
        let t = table(&[0; 8]);
        let _ = find_run_end(&t, 0, 9, 0);
    }

    /// Draws a table whose contents exercise both long runs and noise —
    /// the two regimes the kernels optimize for — plus occasional
    /// high-bit bytes to check full-value-range behavior.
    fn random_table(g: &mut Gen) -> Vec<AtomicU8> {
        let len = g.usize_in(1..200);
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            if g.bool() {
                // A run of one value (possibly straddling word limits).
                let run = g.usize_in(1..40).min(len - v.len());
                let b = g.usize_in(0..7) as u8;
                v.extend(std::iter::repeat_n(b, run));
            } else {
                let b = if g.usize_in(0..16) == 0 {
                    g.usize_in(0x80..0x100) as u8
                } else {
                    g.usize_in(0..7) as u8
                };
                v.push(b);
            }
        }
        table(&v)
    }

    #[test]
    fn differential_find_byte_not_in() {
        run_cases("diff_find_byte_not_in", 0x5CA4, 512, |g| {
            let t = random_table(g);
            let to = g.usize_in(0..t.len() + 1);
            let from = g.usize_in(0..to + 1);
            let max = g.usize_in(0..7) as u8;
            assert_eq!(
                find_byte_not_in(&t, from, to, max),
                reference::find_byte_not_in(&t, from, to, max),
                "from={from} to={to} max={max} table={:?}",
                snapshot(&t)
            );
        });
    }

    #[test]
    fn differential_find_run_end() {
        run_cases("diff_find_run_end", 0x5CA5, 512, |g| {
            let t = random_table(g);
            let to = g.usize_in(0..t.len() + 1);
            let from = g.usize_in(0..to + 1);
            let value = g.usize_in(0..7) as u8;
            assert_eq!(
                find_run_end(&t, from, to, value),
                reference::find_run_end(&t, from, to, value),
                "from={from} to={to} value={value} table={:?}",
                snapshot(&t)
            );
        });
    }

    #[test]
    fn differential_count_matching() {
        run_cases("diff_count_matching", 0x5CA6, 512, |g| {
            let t = random_table(g);
            let to = g.usize_in(0..t.len() + 1);
            let from = g.usize_in(0..to + 1);
            let value = g.usize_in(0..0x100) as u8;
            assert_eq!(
                count_matching(&t, from, to, value),
                reference::count_matching(&t, from, to, value),
                "from={from} to={to} value={value} table={:?}",
                snapshot(&t)
            );
        });
    }

    #[test]
    fn differential_skip_and_count() {
        run_cases("diff_skip_and_count", 0x5CA8, 1024, |g| {
            let t = random_table(g);
            let to = g.usize_in(0..t.len() + 1);
            let from = g.usize_in(0..to + 1);
            let max = g.usize_in(0..4) as u8;
            // pass <= max (passes nothing extra) as well as pass > max.
            let pass = g.usize_in(0..7) as u8;
            assert_eq!(
                skip_and_count(&t, from, to, max, pass),
                reference::skip_and_count(&t, from, to, max, pass),
                "from={from} to={to} max={max} pass={pass} table={:?}",
                snapshot(&t)
            );
        });
    }

    #[test]
    fn differential_pair_run_end() {
        run_cases("diff_pair_run_end", 0x5CA9, 1024, |g| {
            let t = random_table(g);
            let to = g.usize_in(0..t.len() + 1);
            let from = g.usize_in(0..to + 1);
            let a = g.usize_in(0..7) as u8;
            let b = g.usize_in(0..7) as u8;
            assert_eq!(
                pair_run_end(&t, from, to, a, b),
                reference::pair_run_end(&t, from, to, a, b),
                "from={from} to={to} a={a} b={b} table={:?}",
                snapshot(&t)
            );
        });
    }

    /// The counting kernels stop in every lane of a word, from every
    /// start alignment, on ranges shorter than a word as well as longer,
    /// and report the counts of exactly the bytes before the stop.
    #[test]
    fn counting_kernels_stop_in_every_lane() {
        for hit in 0..24 {
            // Survivors (5, with interiors 1) and free space (0) up to
            // the hit; a 2 is the visited color / the run terminator.
            let mut v: Vec<u8> = (0..32).map(|i| [5, 1, 1, 0][i % 4]).collect();
            v[hit] = 2;
            let t = table(&v);
            // Dead objects (2, with interiors 1) up to a terminator 0.
            let mut d: Vec<u8> = (0..32).map(|i| [2, 1, 1][i % 3]).collect();
            d[hit] = 0;
            let dt = table(&d);
            for from in 0..=hit {
                for to in [hit, hit + 1, hit + 3, 32] {
                    assert_eq!(
                        skip_and_count(&t, from, to, 1, 5),
                        reference::skip_and_count(&t, from, to, 1, 5),
                        "hit={hit} from={from} to={to}"
                    );
                    assert_eq!(
                        pair_run_end(&dt, from, to, 2, 1),
                        reference::pair_run_end(&dt, from, to, 2, 1),
                        "hit={hit} from={from} to={to}"
                    );
                }
            }
            let (idx, above, nonzero) = skip_and_count(&t, 0, 32, 1, 5);
            assert_eq!(idx, hit);
            assert_eq!(above, v[..hit].iter().filter(|&&b| b == 5).count());
            assert_eq!(nonzero, v[..hit].iter().filter(|&&b| b != 0).count());
            let (end, dead) = pair_run_end(&dt, 0, 32, 2, 1);
            assert_eq!(end, hit);
            assert_eq!(dead, d[..hit].iter().filter(|&&b| b == 2).count());
        }
    }

    #[test]
    fn differential_bulk_fill() {
        run_cases("diff_bulk_fill", 0x5CA7, 512, |g| {
            let a = random_table(g);
            let b = table(&snapshot(&a));
            let to = g.usize_in(0..a.len() + 1);
            let from = g.usize_in(0..to + 1);
            let value = g.usize_in(0..0x100) as u8;
            bulk_fill(&a, from, to, value);
            reference::bulk_fill(&b, from, to, value);
            assert_eq!(
                snapshot(&a),
                snapshot(&b),
                "from={from} to={to} value={value}"
            );
        });
    }

    #[test]
    fn bulk_zero_is_fill_zero() {
        let t = table(&[7; 30]);
        bulk_zero(&t, 5, 27);
        let s = snapshot(&t);
        assert!(s[..5].iter().all(|&b| b == 7));
        assert!(s[5..27].iter().all(|&b| b == 0));
        assert!(s[27..].iter().all(|&b| b == 7));
    }

    #[test]
    fn adaptive_modes_agree_with_reference_across_regime_changes() {
        // A dense prefix (hit every byte) demotes both search kernels to
        // byte mode after two calls; the long clean run then promotes
        // them back.  Every call in the churn must still agree with the
        // byte-loop oracle — the mode changes cost, never results.
        let mut v = vec![0u8; 256];
        for (i, b) in v.iter_mut().enumerate().take(64) {
            *b = if i % 2 == 0 { 2 } else { 1 }; // dense: hit at every even index
        }
        // v[64..] stays 0: one long sparse run.
        let t = table(&v);
        for from in 0..80 {
            assert_eq!(
                find_byte_not_in(&t, from, 256, 1),
                reference::find_byte_not_in(&t, from, 256, 1),
                "from={from}"
            );
            assert_eq!(
                find_run_end(&t, from, 256, 1),
                reference::find_run_end(&t, from, 256, 1),
                "from={from}"
            );
        }
        // And again starting sparse (byte mode left over from the dense
        // churn must re-promote and still agree).
        for from in [64, 100, 200, 255, 256] {
            assert_eq!(
                find_byte_not_in(&t, from, 256, 1),
                reference::find_byte_not_in(&t, from, 256, 1),
                "from={from}"
            );
        }
    }
}
