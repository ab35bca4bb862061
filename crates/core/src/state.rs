//! Shared collector/mutator state primitives: handshake statuses, the
//! color toggle, and the per-mutator shared record.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use otf_heap::{Color, ObjectRef};
use otf_support::sync::Mutex;

/// Handshake statuses (§7): `sync1` between the first and second
/// handshake, `sync2` between the second and third, `async` otherwise.
/// Each mutator has its own perception of the current period.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Status {
    /// After the third handshake, up to the start of the next cycle.
    Async = 0,
    /// Between the first and second handshakes.
    Sync1 = 1,
    /// Between the second and third handshakes.
    Sync2 = 2,
}

impl Status {
    /// Decodes a raw status byte.
    #[inline]
    pub fn from_byte(b: u8) -> Status {
        match b {
            0 => Status::Async,
            1 => Status::Sync1,
            2 => Status::Sync2,
            other => unreachable!("invalid status byte {other}"),
        }
    }
}

/// The color toggle (§5): which of the two young colors is currently the
/// *allocation* color and which is the *clear* color.  Encoded in a single
/// atomic byte so mutators always observe a consistent pair.
#[derive(Debug)]
pub struct ColorState {
    /// 0 ⇒ allocation = White, clear = Yellow; 1 ⇒ swapped.
    flipped: AtomicU8,
}

impl ColorState {
    /// Initial state: allocation color White, clear color Yellow (§5).
    pub fn new() -> ColorState {
        ColorState {
            flipped: AtomicU8::new(0),
        }
    }

    /// The current allocation color.
    #[inline]
    pub fn allocation_color(&self) -> Color {
        if self.flipped.load(Ordering::Acquire) == 0 {
            Color::White
        } else {
            Color::Yellow
        }
    }

    /// The current clear color (reclaimed by sweep).
    #[inline]
    pub fn clear_color(&self) -> Color {
        if self.flipped.load(Ordering::Acquire) == 0 {
            Color::Yellow
        } else {
            Color::White
        }
    }

    /// `SwitchAllocationClearColors` (Figure 3): exchanges the meanings of
    /// the two young colors.  Called only by the collector, between the
    /// first and third handshakes.
    pub fn toggle(&self) {
        self.flipped.fetch_xor(1, Ordering::AcqRel);
    }
}

impl Default for ColorState {
    fn default() -> Self {
        Self::new()
    }
}

/// Park-state of a mutator: while parked (blocked on allocation, in a long
/// non-heap computation, or already dropped) the collector performs
/// handshake responses on the mutator's behalf using the published root
/// snapshot.  Both parties act under the same lock, so a response can
/// never race an unpark.
#[derive(Debug, Default)]
pub struct ParkState {
    /// Whether the mutator is currently parked.
    pub parked: bool,
    /// Snapshot of the mutator's shadow stack taken when it parked.
    pub roots: Vec<ObjectRef>,
}

/// The collector-visible half of a mutator.
#[derive(Debug)]
pub struct MutatorShared {
    /// Registration id, unique per collector instance — the name the
    /// handshake watchdog uses to identify a non-cooperating mutator.
    pub id: u64,
    /// The mutator's handshake status (its "perception of the period").
    pub status: AtomicU8,
    /// Write-barrier epoch: odd while the mutator is inside an operation
    /// that may produce a gray (root marking, or a barrier outside the
    /// idle period — DESIGN.md §4.10).  The collector's trace-termination
    /// check only believes an empty gray list after observing every epoch
    /// even (closing the CAS-color-then-push window).
    pub epoch: AtomicUsize,
    /// Park state (see [`ParkState`]).
    pub park: Mutex<ParkState>,
}

impl MutatorShared {
    /// Creates the shared record with the given initial status and id.
    pub fn new(status: Status, id: u64) -> MutatorShared {
        MutatorShared {
            id,
            status: AtomicU8::new(status as u8),
            epoch: AtomicUsize::new(0),
            park: Mutex::new(ParkState::default()),
        }
    }

    /// The mutator's current status.
    #[cfg(test)]
    pub fn status(&self) -> Status {
        Status::from_byte(self.status.load(Ordering::Acquire))
    }

    /// Recovery: force-adopts `Async` on the mutator's behalf.  Used by
    /// the supervisor's cycle abort to complete an in-flight handshake by
    /// fiat — the collector that posted it is gone, so waiting for a
    /// voluntary ack could hang on a mutator that is itself parked on
    /// the aborted collection.  Safe at any point: a mutator that still
    /// holds a stale `Sync` view acts more conservatively than `Async`
    /// requires (its barrier grays both young colors), which at worst
    /// floats garbage into the next cycle.
    pub fn force_async(&self) {
        self.status.store(Status::Async as u8, Ordering::Release);
    }

    /// Enters a gray-producing region (graying barrier / root marking).
    #[inline]
    pub fn epoch_enter(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Leaves a gray-producing region.
    #[inline]
    pub fn epoch_exit(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether the mutator is currently outside any gray-producing region.
    #[inline]
    pub fn epoch_is_even(&self) -> bool {
        self.epoch.load(Ordering::SeqCst).is_multiple_of(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_swaps_roles() {
        let s = ColorState::new();
        assert_eq!(s.allocation_color(), Color::White);
        assert_eq!(s.clear_color(), Color::Yellow);
        s.toggle();
        assert_eq!(s.allocation_color(), Color::Yellow);
        assert_eq!(s.clear_color(), Color::White);
        s.toggle();
        assert_eq!(s.allocation_color(), Color::White);
    }

    #[test]
    fn roles_always_distinct() {
        let s = ColorState::new();
        for _ in 0..5 {
            assert_ne!(s.allocation_color(), s.clear_color());
            s.toggle();
        }
    }

    #[test]
    fn status_round_trip() {
        for s in [Status::Async, Status::Sync1, Status::Sync2] {
            assert_eq!(Status::from_byte(s as u8), s);
        }
    }

    #[test]
    fn epoch_parity() {
        let m = MutatorShared::new(Status::Async, 0);
        assert!(m.epoch_is_even());
        m.epoch_enter();
        assert!(!m.epoch_is_even());
        m.epoch_exit();
        assert!(m.epoch_is_even());
    }

    #[test]
    fn park_state_default_unparked() {
        let m = MutatorShared::new(Status::Async, 0);
        assert!(!m.park.lock().parked);
        assert_eq!(m.status(), Status::Async);
    }
}
