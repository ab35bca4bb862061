//! A heap built after another was dropped is as unwritten as the first:
//! its arena and side tables come from fresh zero pages, not from reused
//! memory that building would have to clear.  Its own test binary, so no
//! concurrently running test moves the process's resident set while it
//! is measured.

use otf_heap::{CardTable, Color, HeapSpace, ObjShape, GRANULE};

/// Resident set size in bytes, from `VmRSS` in `/proc/self/status`, or
/// `None` where that file is unreadable (not Linux, `/proc` unmounted).
fn resident_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

const HEAP_BYTES: usize = 32 << 20;

/// A 32 MiB heap and its 16-byte card table, with one object installed
/// and its card dirtied, so every table has a touched page.
fn build_and_touch() -> (HeapSpace, CardTable) {
    let heap = HeapSpace::new(HEAP_BYTES, 1 << 20);
    let cards = CardTable::new(HEAP_BYTES, 16);
    let chunk = heap.alloc_chunk(4, 4).expect("a fresh heap has room");
    let start = chunk.start as usize;
    heap.install_object(start, &ObjShape::new(1, 1), Color::White);
    cards.mark_byte(start * GRANULE);
    (heap, cards)
}

#[test]
fn a_rebuilt_heap_is_not_written() {
    if resident_bytes().is_none() {
        eprintln!("skipped: /proc/self/status is unreadable");
        return;
    }
    drop(build_and_touch());
    let before = resident_bytes().expect("/proc/self/status readable a moment ago");
    let heap = HeapSpace::new(HEAP_BYTES, 1 << 20);
    let cards = CardTable::new(HEAP_BYTES, 16);
    let after = resident_bytes().expect("/proc/self/status readable a moment ago");
    let grown = after.saturating_sub(before);
    assert!(
        grown < 128 << 10,
        "rebuilding a 32 MiB heap made {} KiB resident",
        grown >> 10
    );
    assert_eq!(heap.max_bytes(), HEAP_BYTES);
    assert_eq!(cards.len(), HEAP_BYTES / 16);
}
