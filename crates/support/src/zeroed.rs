//! Zero-initialised atomic tables that are reserved, not written.
//!
//! The collector's arena and side tables are sized for the *maximum*
//! heap, but a run only ever touches the part below the bump frontier.
//! [`zeroed_slice`] gives each such table a private anonymous mapping of
//! its own (`mmap`): the kernel hands out zero pages on first touch, so
//! building a table writes nothing and resident memory follows what the
//! heap actually uses — the way a production collector reserves its
//! address range up front and commits it as the heap grows.  Dropping
//! the table unmaps it, so its pages go back to the system, and the next
//! table built in the same process again starts from zero pages rather
//! than from reused memory that would have to be cleared.
//!
//! Only types whose all-zero bit pattern is a valid value may be built
//! this way; the sealed [`Zeroable`] trait names them.

use std::alloc::{handle_alloc_error, Layout};
use std::fmt;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicU64, AtomicU8};

#[cfg(not(unix))]
compile_error!("otf-support maps its tables with mmap and builds only on unix targets");

mod sealed {
    pub trait Sealed {}
}

/// Types for which all-zero bytes are a valid value: the atomic integers
/// the tables are made of, and arrays of them.  Sealed, so no type
/// outside this module can claim it.
pub trait Zeroable: sealed::Sealed + Sync + Send {}

impl sealed::Sealed for AtomicU8 {}
impl Zeroable for AtomicU8 {}
impl sealed::Sealed for AtomicU64 {}
impl Zeroable for AtomicU64 {}
impl<T: Zeroable, const N: usize> sealed::Sealed for [T; N] {}
impl<T: Zeroable, const N: usize> Zeroable for [T; N] {}

/// The two calls of the C library a table needs.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const MAP_ANONYMOUS: c_int = 0x1000;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    /// `off_t`: a C `long` on Linux, 64 bits on macOS and the BSDs.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type OffT = std::ffi::c_long;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type OffT = i64;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: OffT,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A table of zero-initialised values on a private anonymous mapping of
/// its own, unmapped on drop.  Reads as a `[T]`.
pub struct Zeroed<T: Zeroable> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: a `Zeroed` owns its mapping as a `Box<[T]>` owns its buffer,
// and every `Zeroable` type is `Send + Sync` (the trait requires it).
unsafe impl<T: Zeroable> Send for Zeroed<T> {}
// SAFETY: as above; shared access only ever hands out `&[T]`.
unsafe impl<T: Zeroable> Sync for Zeroed<T> {}

/// A table of `n` zero values on fresh zero pages, mapped on first touch.
///
/// # Panics
///
/// Panics if `n` elements of `T` overflow the address space; aborts via
/// [`handle_alloc_error`] if the system refuses the mapping.
pub fn zeroed_slice<T: Zeroable>(n: usize) -> Zeroed<T> {
    let layout = Layout::array::<T>(n).expect("table size overflows the address space");
    if layout.size() == 0 {
        return Zeroed {
            ptr: NonNull::dangling(),
            len: n,
        };
    }
    // SAFETY: a request for a fresh private anonymous mapping: it aliases
    // no memory the program already uses.
    let p = unsafe {
        sys::mmap(
            ptr::null_mut(),
            layout.size(),
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    match NonNull::new(p) {
        // A mapping is page aligned, so aligned for any `T`.
        Some(p) if p.as_ptr() != sys::MAP_FAILED => Zeroed {
            ptr: p.cast(),
            len: n,
        },
        _ => handle_alloc_error(layout),
    }
}

impl<T: Zeroable> Deref for Zeroed<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is either a live mapping of `len` elements or
        // dangling with a size of zero; its bytes start as zero, a valid
        // value of every `Zeroable` type (the atomic integers and arrays
        // of them, whose all-zero value is the integer 0), and the
        // atomics are only ever changed through shared references.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Drop for Zeroed<T> {
    fn drop(&mut self) {
        // Cannot overflow: `zeroed_slice` sized this very layout.
        let size = std::mem::size_of::<T>() * self.len;
        if size != 0 {
            // SAFETY: the mapping is this table's own, of exactly this
            // size, and no borrow of it outlives `self`.
            let rc = unsafe { sys::munmap(self.ptr.as_ptr().cast(), size) };
            debug_assert_eq!(rc, 0, "munmap of a table failed");
        }
    }
}

/// The length only: a table can be a 32 MiB arena.
impl<T: Zeroable> fmt::Debug for Zeroed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zeroed").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn every_element_reads_zero() {
        let bytes: Zeroed<AtomicU8> = zeroed_slice(4097);
        assert_eq!(bytes.len(), 4097);
        assert!(bytes.iter().all(|b| b.load(Ordering::Relaxed) == 0));
        let rows: Zeroed<[AtomicU64; 5]> = zeroed_slice(100);
        assert!(rows
            .iter()
            .flatten()
            .all(|w| w.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn empty_table_is_fine() {
        let words: Zeroed<AtomicU64> = zeroed_slice(0);
        assert!(words.is_empty());
        assert_eq!(format!("{words:?}"), "Zeroed { len: 0 }");
    }

    /// Whether some line of `/proc/self/maps` covers `addr`, or `None`
    /// where that file is unreadable.
    fn mapped(addr: usize) -> Option<bool> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        Some(maps.lines().any(|line| {
            let range = line.split_whitespace().next().unwrap_or("");
            let (lo, hi) = range.split_once('-').unwrap_or(("0", "0"));
            let lo = usize::from_str_radix(lo, 16).unwrap_or(0);
            let hi = usize::from_str_radix(hi, 16).unwrap_or(0);
            (lo..hi).contains(&addr)
        }))
    }

    #[test]
    fn a_dropped_table_leaves_no_mapping() {
        // 16 MiB, and its lowest page is checked: a mapping another test
        // thread makes meanwhile lands at the top of the freed gap.
        let words: Zeroed<AtomicU64> = zeroed_slice(2 << 20);
        words[0].store(7, Ordering::Relaxed);
        let addr = words.as_ptr() as usize;
        let Some(live) = mapped(addr) else {
            eprintln!("skipped: /proc/self/maps is unreadable");
            return;
        };
        assert!(live, "a live table is not mapped");
        drop(words);
        assert_eq!(mapped(addr), Some(false), "a dropped table is still mapped");
    }
}
