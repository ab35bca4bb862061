//! The heap's maximum size is reserved, not written: building a 1 GiB
//! heap and its 16-byte card table must leave nearly all of the ~1.2 GiB
//! they span non-resident.  Its own test binary, so no concurrently
//! running test moves the process's resident set while it is measured.

use otf_heap::{CardTable, HeapSpace};

/// Resident set size in bytes, from `VmRSS` in `/proc/self/status`, or
/// `None` where that file is unreadable (not Linux, `/proc` unmounted).
fn resident_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn a_reserved_heap_is_not_resident() {
    let Some(before) = resident_bytes() else {
        eprintln!("skipped: /proc/self/status is unreadable");
        return;
    };
    let heap = HeapSpace::new(1 << 30, 1 << 20);
    let cards = CardTable::new(1 << 30, 16);
    let after = resident_bytes().expect("/proc/self/status readable a moment ago");
    let grown = after.saturating_sub(before);
    assert!(
        grown < 64 << 20,
        "building a 1 GiB heap made {} MiB resident",
        grown >> 20
    );
    // The reservation is usable: the first allocation lands past the
    // null granule, and the card table covers the whole heap.
    assert_eq!(heap.alloc_chunk(4, 4).map(|c| c.start), Some(1));
    assert_eq!(cards.len(), (1 << 30) / 16);
}
