//! Pause-time observability: latency histograms for every
//! latency-bearing mutator path, and a bounded ring of structured GC
//! events drainable as JSONL.
//!
//! The paper's headline property is that an on-the-fly collector bounds
//! mutator pauses by **handshake response time**, not heap size.  This
//! module is how the reproduction measures that claim:
//!
//! * [`Obs::pause`] — every GC-induced mutator pause: the
//!   [`cooperate`](crate::Mutator::cooperate) slow path (adopting a
//!   posted handshake, including third-handshake root marking) and
//!   allocation stalls (blocked on a full collection).
//! * [`Obs::handshake`] — handshake **response latency**: from the
//!   collector's `postHandshake` to each mutator's adoption in
//!   `cooperate` (the quantity §7 argues stays small).
//! * [`Obs::alloc_stall`] — allocation stalls alone (also folded into
//!   `pause`), the only path where a mutator waits for the collector.
//! * [`Obs::barrier_slow`] — write-barrier slow-path hits (barriers that
//!   took a graying branch rather than a plain store + card mark); each
//!   mutator adds its own count at its flush boundaries (DESIGN.md
//!   §4.10), so it is exact once every mutator is parked or dropped.
//!
//! Histogram recording is always on: the record path is lock-free and
//! allocation-free (see [`otf_support::hist`]) and only runs on paths
//! that are already slow (a handshake transition, a blocking
//! allocation), never on the per-store barrier path, where a graying
//! branch costs one increment of a mutator-private counter.
//!
//! Events carry only what a cycle's record cannot: when cycles and
//! phases begin and end, handshake posts and acks, and recovery.  What a
//! cycle counted lives in its [`CycleStats`](crate::CycleStats) alone.
//!
//! Event tracing is off by default.  [`Obs::event`] costs exactly one
//! predictable branch on a plain `bool` loaded from the `Obs` struct
//! when disabled; when enabled (`GcConfig::trace_events`) events go
//! into a fixed ring of 2¹⁴ slots via a wait-free claimed-slot protocol
//! (`fetch_add` on the head, fields written, then a sequence stamp
//! released).  The ring keeps the most
//! recent events; draining skips any slot whose stamp does not match,
//! so a drain racing active recording yields only whole events.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Saturating nanoseconds of a `Duration` (for histograms and events).
#[inline]
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

use otf_support::hist::Histogram;
use otf_support::zeroed::{zeroed_slice, Zeroed};

use crate::control::Cause;
use crate::state::Status;
use crate::stats::CycleKind;

/// Phase identifiers used in [`EventKind::PhaseBegin`]/`PhaseEnd` events
/// (the `a` field).
pub mod phase {
    /// `InitFullCollection` (full collections of the generational modes).
    pub const INIT: u64 = 0;
    /// A handshake window (posted status → all mutators responded).
    pub const HANDSHAKE: u64 = 1;
    /// Dirty-card scanning (`ClearCards`).
    pub const CARDS: u64 = 2;
    /// Transitive marking.
    pub const TRACE: u64 = 3;
    /// The sweep pass.
    pub const SWEEP: u64 = 4;
    /// Global-root marking (between the third post and its wait).
    pub const ROOTS: u64 = 5;

    /// Human-readable phase name (for the JSONL trace).
    pub fn name(p: u64) -> &'static str {
        match p {
            INIT => "init",
            HANDSHAKE => "handshake",
            CARDS => "cards",
            TRACE => "trace",
            SWEEP => "sweep",
            ROOTS => "roots",
            _ => "unknown",
        }
    }
}

/// What a [`GcEvent`] describes.  The meaning of the event's `a`/`b`
/// payload words depends on the kind (documented per variant).
///
/// Codes 6 and 7 are retired, not reused: they were the card-clear
/// event, which repeated [`CycleStats`](crate::CycleStats)' `dirty_cards`
/// and `cards_in_use`, and the sweep-progress event, which nothing read.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// A collection cycle began.  `a` = 0 for partial, 1 for full; `b`
    /// = what requested it: 0 the young-generation budget, 1 an almost
    /// full heap, 2 a stalled allocation, 3 a `Gc` request, 4 recovery
    /// from an aborted cycle (JSON `cause`: `young_budget`,
    /// `almost_full`, `alloc_stall`, `requested`, `recovery`).
    CycleBegin = 0,
    /// A collection cycle finished.  `a` = 0/1 as above, `b` = cycle
    /// duration in nanoseconds.
    CycleEnd = 1,
    /// A collector phase began.  `a` = phase id (see [`phase`]).
    PhaseBegin = 2,
    /// A collector phase finished.  `a` = phase id, `b` = phase duration
    /// in nanoseconds.
    PhaseEnd = 3,
    /// The collector posted a handshake.  `a` = posted status
    /// (0 = async, 1 = sync1, 2 = sync2).
    HandshakePost = 4,
    /// A mutator adopted a posted handshake in `cooperate`.  `a` = the
    /// adopted status, `b` = response latency in nanoseconds.
    HandshakeAck = 5,
    /// The collector supervisor caught a panic and began the safe
    /// cycle-abort + restart protocol (DESIGN.md §4.8).  `a` = the code
    /// of the cycle bucket open when the panic unwound (0 = none; the
    /// JSONL trace names it: `init`, `handshake-1` … `reclaim`).
    RecoveryBegin = 8,
    /// Recovery finished and the collector is about to respawn.  `a` =
    /// restarts consumed so far (including this one), `b` = recovery
    /// duration in nanoseconds.
    RecoveryEnd = 9,
    /// A collection cycle was aborted mid-flight and rolled forward to a
    /// no-op (garbage floats; nothing was freed).  `a` = the open bucket
    /// when the cycle died (0 = none).
    CycleAborted = 10,
}

impl EventKind {
    /// The kind whose code is `w`; `None` for a retired or unknown code.
    fn from_word(w: u64) -> Option<EventKind> {
        Some(match w {
            0 => EventKind::CycleBegin,
            1 => EventKind::CycleEnd,
            2 => EventKind::PhaseBegin,
            3 => EventKind::PhaseEnd,
            4 => EventKind::HandshakePost,
            5 => EventKind::HandshakeAck,
            8 => EventKind::RecoveryBegin,
            9 => EventKind::RecoveryEnd,
            10 => EventKind::CycleAborted,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            EventKind::CycleBegin => "cycle_begin",
            EventKind::CycleEnd => "cycle_end",
            EventKind::PhaseBegin => "phase_begin",
            EventKind::PhaseEnd => "phase_end",
            EventKind::HandshakePost => "handshake_post",
            EventKind::HandshakeAck => "handshake_ack",
            EventKind::RecoveryBegin => "recovery_begin",
            EventKind::RecoveryEnd => "recovery_end",
            EventKind::CycleAborted => "cycle_aborted",
        }
    }
}

fn status_name(s: u64) -> &'static str {
    match s {
        0 => "async",
        1 => "sync1",
        2 => "sync2",
        _ => "unknown",
    }
}

fn cycle_name(k: u64) -> &'static str {
    if k == 0 {
        "partial"
    } else {
        "full"
    }
}

/// One structured GC event from the trace ring.
#[derive(Copy, Clone, Debug)]
pub struct GcEvent {
    /// Nanoseconds since the collector was created.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

impl GcEvent {
    /// The event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let head = format!("{{\"t_ns\":{},\"ev\":\"{}\"", self.t_ns, self.kind.name());
        let tail = match self.kind {
            EventKind::CycleBegin => format!(
                ",\"cycle\":\"{}\",\"cause\":\"{}\"}}",
                cycle_name(self.a),
                Cause::name(self.b)
            ),
            EventKind::CycleEnd => {
                format!(
                    ",\"cycle\":\"{}\",\"dur_ns\":{}}}",
                    cycle_name(self.a),
                    self.b
                )
            }
            EventKind::PhaseBegin => format!(",\"phase\":\"{}\"}}", phase::name(self.a)),
            EventKind::PhaseEnd => {
                format!(
                    ",\"phase\":\"{}\",\"dur_ns\":{}}}",
                    phase::name(self.a),
                    self.b
                )
            }
            EventKind::HandshakePost => format!(",\"status\":\"{}\"}}", status_name(self.a)),
            EventKind::HandshakeAck => format!(
                ",\"status\":\"{}\",\"latency_ns\":{}}}",
                status_name(self.a),
                self.b
            ),
            EventKind::RecoveryBegin => {
                format!(",\"bucket\":\"{}\"}}", crate::shared::bucket_label(self.a))
            }
            EventKind::RecoveryEnd => {
                format!(",\"restarts\":{},\"dur_ns\":{}}}", self.a, self.b)
            }
            EventKind::CycleAborted => {
                format!(",\"bucket\":\"{}\"}}", crate::shared::bucket_label(self.a))
            }
        };
        head + &tail
    }
}

/// Ring capacity in events (a power of two).  The ring keeps the most
/// recent `RING_CAP` events; older ones are overwritten.
const RING_CAP: usize = 1 << 14;

/// One ring slot: five words, indexed by the constants below.  `SEQ` is
/// stored *last* with release ordering and holds `position + 1`; a
/// reader accepts the slot only when the sequence matches the position
/// it expects, so overwritten or in-flight slots are skipped rather than
/// torn (and a never-written slot, `SEQ` 0, matches no position).
type Slot = [AtomicU64; 5];
const SEQ: usize = 0;
const T_NS: usize = 1;
const KIND: usize = 2;
const ARG_A: usize = 3;
const ARG_B: usize = 4;

#[derive(Debug)]
struct EventRing {
    head: AtomicU64,
    slots: Zeroed<Slot>,
}

impl EventRing {
    /// An empty ring on a mapping of its own: zero pages, mapped as
    /// events first reach them, so a `Gc` that never traces never
    /// touches its 640 KiB.
    fn new() -> EventRing {
        EventRing {
            head: AtomicU64::new(0),
            slots: zeroed_slice(RING_CAP),
        }
    }

    /// Events pushed out of the ring by newer ones: everything recorded
    /// beyond the ring's capacity has overwritten an older event.
    fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(RING_CAP as u64)
    }

    /// Wait-free multi-producer record.  The clock is read *after* the
    /// slot is claimed, so a thread cannot sit on an old timestamp while
    /// later events take earlier slots; what reordering remains (two
    /// claims racing to their clock reads) `drain` sorts out.
    fn record(&self, now_ns: impl FnOnce() -> u64, kind: EventKind, a: u64, b: u64) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[pos as usize & (RING_CAP - 1)];
        slot[T_NS].store(now_ns(), Ordering::Relaxed);
        slot[KIND].store(kind as u64, Ordering::Relaxed);
        slot[ARG_A].store(a, Ordering::Relaxed);
        slot[ARG_B].store(b, Ordering::Relaxed);
        slot[SEQ].store(pos + 1, Ordering::Release);
    }

    /// Snapshot of the retained events, oldest first by timestamp (slot
    /// order breaks ties).  Slots being overwritten concurrently are
    /// skipped (sequence mismatch), and so is a slot whose kind word
    /// names no kind (none does: only `record` writes slots).
    fn drain(&self) -> Vec<GcEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(RING_CAP as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for pos in start..head {
            let slot = &self.slots[pos as usize & (RING_CAP - 1)];
            if slot[SEQ].load(Ordering::Acquire) != pos + 1 {
                continue;
            }
            let Some(kind) = EventKind::from_word(slot[KIND].load(Ordering::Relaxed)) else {
                continue;
            };
            out.push(GcEvent {
                t_ns: slot[T_NS].load(Ordering::Relaxed),
                kind,
                a: slot[ARG_A].load(Ordering::Relaxed),
                b: slot[ARG_B].load(Ordering::Relaxed),
            });
        }
        out.sort_by_key(|e| e.t_ns);
        out
    }
}

/// The collector's observability state, owned by `GcShared`.
#[derive(Debug)]
pub(crate) struct Obs {
    /// All GC-induced mutator pauses (cooperate slow path + alloc
    /// stalls), in nanoseconds.
    pub pause: Histogram,
    /// Handshake response latency: `postHandshake` → `cooperate`
    /// adoption, in nanoseconds.
    pub handshake: Histogram,
    /// Allocation stalls: time a mutator spent blocked on a full
    /// collection, in nanoseconds.
    pub alloc_stall: Histogram,
    /// LAB refill latency (chunk acquisition at the refill slow path),
    /// in nanoseconds.
    pub lab_refill: Histogram,
    /// Write-barrier slow-path hits (graying branches), as flushed so far.
    pub barrier_slow: AtomicU64,
    /// Handshake-watchdog trips: times a handshake stalled past the
    /// configured threshold and the collector reported instead of hanging
    /// silently.
    pub watchdog_trips: AtomicU64,
    /// Times the supervisor respawned the collector thread after a panic
    /// (DESIGN.md §4.8).
    pub collector_restarts: AtomicU64,
    /// Collection cycles that were aborted mid-flight and rolled forward
    /// to a no-op by the safe abort protocol.
    pub cycles_aborted: AtomicU64,
    /// Duration of each safe cycle-abort (handshake restore + repaint),
    /// in nanoseconds.
    pub recovery: Histogram,
    /// Whether event tracing is enabled.  Plain bool fixed at
    /// construction: the disabled cost of [`Obs::event`] is one
    /// predictable load + branch.
    enabled: bool,
    /// Timestamp origin for `t_ns`.
    start: Instant,
    /// When the collector last posted a handshake (ns since `start`).
    hs_posted_ns: AtomicU64,
    ring: EventRing,
}

impl Obs {
    pub(crate) fn new(enabled: bool) -> Obs {
        Obs {
            pause: Histogram::new(),
            handshake: Histogram::new(),
            alloc_stall: Histogram::new(),
            lab_refill: Histogram::new(),
            barrier_slow: AtomicU64::new(0),
            watchdog_trips: AtomicU64::new(0),
            collector_restarts: AtomicU64::new(0),
            cycles_aborted: AtomicU64::new(0),
            recovery: Histogram::new(),
            enabled,
            start: Instant::now(),
            hs_posted_ns: AtomicU64::new(0),
            ring: EventRing::new(),
        }
    }

    /// Whether event tracing is on.
    pub(crate) fn tracing_enabled(&self) -> bool {
        self.enabled
    }

    /// Time since collector creation: the origin of every `t_ns` and of
    /// `GcStats::elapsed`.
    #[inline]
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Nanoseconds since collector creation (saturating).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        dur_ns(self.elapsed())
    }

    /// Emits a trace event.  When tracing is disabled this is a single
    /// predictable load-and-branch.
    #[inline]
    pub(crate) fn event(&self, kind: EventKind, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        self.ring.record(|| self.now_ns(), kind, a, b);
    }

    /// Collector side: a handshake was posted.  Must be called *before*
    /// the status store so every mutator that observes the new status
    /// also observes a post timestamp at least this fresh.
    pub(crate) fn note_handshake_post(&self, s: Status) {
        self.hs_posted_ns.store(self.now_ns(), Ordering::Relaxed);
        self.event(EventKind::HandshakePost, s as u64, 0);
    }

    /// Mutator side: `cooperate` adopted status `s` after `pause_ns`
    /// nanoseconds of safe-point work.  Records the handshake response
    /// latency (post → now) and the pause itself.
    pub(crate) fn note_handshake_ack(&self, s: Status, pause_ns: u64) {
        let latency = self
            .now_ns()
            .saturating_sub(self.hs_posted_ns.load(Ordering::Relaxed));
        self.handshake.record(latency);
        self.pause.record(pause_ns);
        self.event(EventKind::HandshakeAck, s as u64, latency);
    }

    /// Mutator side: an allocation blocked on a full collection for
    /// `stall_ns` nanoseconds.
    pub(crate) fn note_alloc_stall(&self, stall_ns: u64) {
        self.alloc_stall.record(stall_ns);
        self.pause.record(stall_ns);
    }

    /// Mutator side: a LAB refill took `ns` nanoseconds — one sample per
    /// exchange (up to 64 holes from the pool, or the blocking path),
    /// not per hole.
    pub(crate) fn note_lab_refill(&self, ns: u64) {
        self.lab_refill.record(ns);
    }

    /// Collector side: a cycle began, requested by `cause`.
    pub(crate) fn note_cycle_begin(&self, kind: CycleKind, cause: Cause) {
        self.event(EventKind::CycleBegin, cycle_word(kind), cause as u64);
    }

    /// Collector side: a cycle finished after `dur_ns` nanoseconds.
    pub(crate) fn note_cycle_end(&self, kind: CycleKind, dur_ns: u64) {
        self.event(EventKind::CycleEnd, cycle_word(kind), dur_ns);
    }

    /// The retained trace events, oldest first.
    pub(crate) fn events(&self) -> Vec<GcEvent> {
        self.ring.drain()
    }

    /// Events that were overwritten before they could be drained (the
    /// ring keeps only the most recent 2¹⁴): nonzero means a drained
    /// trace is truncated at its old end.
    pub(crate) fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Writes the retained events as JSON lines.
    pub(crate) fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for e in self.events() {
            writeln!(w, "{}", e.to_json())?;
        }
        Ok(())
    }
}

fn cycle_word(kind: CycleKind) -> u64 {
    match kind {
        CycleKind::Partial => 0,
        CycleKind::Full => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let obs = Obs::new(false);
        obs.event(EventKind::CycleBegin, 1, 0);
        obs.note_cycle_begin(CycleKind::Full, Cause::Requested);
        assert!(obs.events().is_empty());
        // Histograms still record regardless of the tracing flag.
        obs.note_alloc_stall(500);
        assert_eq!(obs.alloc_stall.snapshot().count(), 1);
        assert_eq!(obs.pause.snapshot().count(), 1);
    }

    #[test]
    fn enabled_ring_round_trips_events() {
        let obs = Obs::new(true);
        obs.note_cycle_begin(CycleKind::Full, Cause::Requested);
        obs.event(EventKind::PhaseBegin, phase::SWEEP, 0);
        obs.event(EventKind::PhaseEnd, phase::SWEEP, 1234);
        obs.note_cycle_end(CycleKind::Full, 9999);
        let evs = obs.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, EventKind::CycleBegin);
        assert_eq!(evs[0].a, 1);
        assert_eq!(evs[2].b, 1234);
        assert_eq!(evs[3].kind, EventKind::CycleEnd);
        // Timestamps never go backwards for single-threaded recording.
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    /// Two threads record at once: the drain is in timestamp order, loses
    /// nothing, and keeps each thread's own events in program order.
    #[test]
    fn concurrent_events_drain_in_timestamp_order() {
        const PER_THREAD: u64 = RING_CAP as u64 / 4;
        let obs = Obs::new(true);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (obs, start) = (&obs, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        obs.event(EventKind::HandshakeAck, i, t);
                    }
                });
            }
        });
        let evs = obs.events();
        assert_eq!(evs.len() as u64, 2 * PER_THREAD);
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        for t in 0..2 {
            let own: Vec<u64> = evs.iter().filter(|e| e.b == t).map(|e| e.a).collect();
            assert_eq!(own, (0..PER_THREAD).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ring_keeps_most_recent_on_overflow() {
        let obs = Obs::new(true);
        let total = RING_CAP as u64 + 100;
        for i in 0..total {
            obs.event(EventKind::HandshakeAck, i, total);
        }
        let evs = obs.events();
        assert_eq!(evs.len(), RING_CAP);
        assert_eq!(evs.first().unwrap().a, 100);
        assert_eq!(evs.last().unwrap().a, total - 1);
        // The 100 overwritten events are accounted, not silently lost.
        assert_eq!(obs.events_dropped(), 100);
    }

    #[test]
    fn no_drops_below_capacity() {
        let obs = Obs::new(true);
        for i in 0..100 {
            obs.event(EventKind::HandshakeAck, i, 100);
        }
        assert_eq!(obs.events_dropped(), 0);
    }

    /// Every live kind round-trips through its word; the retired codes
    /// 6 and 7, and any unknown word, name no kind.
    #[test]
    fn retired_and_unknown_words_name_no_kind() {
        use EventKind::*;
        for k in [
            CycleBegin,
            CycleEnd,
            PhaseBegin,
            PhaseEnd,
            HandshakePost,
            HandshakeAck,
            RecoveryBegin,
            RecoveryEnd,
            CycleAborted,
        ] {
            assert_eq!(EventKind::from_word(k as u64), Some(k));
        }
        for w in [6, 7, 11, u64::MAX] {
            assert_eq!(EventKind::from_word(w), None);
        }
    }

    #[test]
    fn handshake_latency_measured_from_post() {
        let obs = Obs::new(false);
        obs.note_handshake_post(Status::Sync1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.note_handshake_ack(Status::Sync1, 10);
        let handshake = obs.handshake.snapshot();
        assert_eq!(handshake.count(), 1);
        assert!(
            handshake.max() >= 1_000_000,
            "latency {} ns should cover the 2 ms sleep",
            handshake.max()
        );
        assert_eq!(obs.pause.snapshot().max(), 10);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let obs = Obs::new(true);
        obs.note_handshake_post(Status::Sync2);
        obs.note_handshake_ack(Status::Sync2, 77);
        obs.event(EventKind::RecoveryEnd, 5, 300);
        let mut buf = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("{\"t_ns\":"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
            // Balanced quotes: an even count of '"'.
            assert_eq!(line.matches('"').count() % 2, 0);
        }
        assert!(lines[0].contains("\"ev\":\"handshake_post\""));
        assert!(lines[0].contains("\"status\":\"sync2\""));
        assert!(lines[1].contains("\"latency_ns\":"));
        assert!(lines[2].contains("\"restarts\":5"));
    }

    #[test]
    fn recovery_events_round_trip() {
        let obs = Obs::new(true);
        obs.event(EventKind::RecoveryBegin, 6, 0);
        obs.event(EventKind::CycleAborted, 6, 0);
        obs.event(EventKind::RecoveryEnd, 1, 1234);
        let evs = obs.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::RecoveryBegin);
        assert_eq!(evs[1].kind, EventKind::CycleAborted);
        assert_eq!(evs[2].kind, EventKind::RecoveryEnd);
        assert!(evs[0].to_json().contains("\"ev\":\"recovery_begin\""));
        assert!(evs[1].to_json().contains("\"bucket\":\"trace\""));
        assert!(evs[2].to_json().contains("\"restarts\":1"));
        assert!(evs[2].to_json().contains("\"dur_ns\":1234"));
    }

    #[test]
    fn concurrent_recording_yields_whole_events() {
        let obs = std::sync::Arc::new(Obs::new(true));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let obs = std::sync::Arc::clone(&obs);
                s.spawn(move || {
                    for i in 0..5000u64 {
                        obs.event(EventKind::HandshakeAck, t, i);
                    }
                });
            }
        });
        let evs = obs.events();
        assert_eq!(evs.len(), RING_CAP.min(20_000));
        // Every drained event is one that some thread actually wrote.
        assert!(evs.iter().all(|e| e.a < 4 && e.b < 5000));
    }
}
