//! The concurrent sweep (Figures 2 and 5), run at a time.
//!
//! Sweep reads the color table linearly from the first granule to the
//! allocation frontier.  Its unit of work is the **run**, not the object
//! (DESIGN.md §4.12), so a sweep costs O(table bytes / 8 + runs + chunks
//! freed) — it follows what dies, not what lives:
//!
//! * a stretch of **survivors the sweep has no business with** — free
//!   space, and objects of the one color the cycle leaves untouched — is
//!   crossed by one word-at-a-time `skip_survivors` scan that counts the
//!   object starts and occupied granules it passes.  That color is
//!   `Black` in the simple generational variant (black stays black: this
//!   *is* promotion, §3) and the pinned mark/allocation color in the
//!   non-generational baseline.  `objects_survived`, `bytes_survived`
//!   and (non-generational) `bytes_alloc_colored` are those counts;
//! * a **dead run** — a clear-colored start and everything up to the
//!   first byte that is neither clear nor `Interior` — is measured by one
//!   `dead_run_end` scan, which also counts its start bytes, then filled
//!   `Free`, age-zeroed and turned into one chunk for the free lists;
//! * every other object start is **visited** singly, as before:
//!   allocation-colored objects in the generational variants (created
//!   during the cycle — the paper's yellow; counted, left untouched, so
//!   *not* promoted, §4; the color toggle spares them a recoloring, §5),
//!   a leaked `Gray` (kept, conservatively, as marked), and under
//!   **aging** every survivor, since each needs its age touched:
//!   survivors below the tenuring threshold are recolored to the
//!   allocation color with one more birthday (Figure 5), so only objects
//!   that reach the threshold stay black.
//!
//! Races with concurrent allocation are benign by construction.  Every
//! `Interior` byte inside a dead run belongs to a dead object, because
//! the last start byte before it is clear-colored; an object being
//! installed shows a `Free` start byte until it is published with the
//! allocation color, and either byte ends the run.  Sweep never
//! re-inserts already-free space into the free lists (see
//! `otf_heap::freelist`).  The one thing a race can touch is a
//! statistic: the `Interior` tail of an in-flight object is crossed as
//! if it were a survivor's and adds to `bytes_survived`.
//!
//! With `gc_threads > 1` the sweep is **page-partitioned** (DESIGN.md
//! §4.4): `[1, frontier)` is cut into page-aligned segments claimed from a
//! shared cursor.  An object belongs to the segment its *start* granule
//! falls in: a sweeper begins at the first start byte of its segment (a
//! leading `Interior` run is the tail of an object the previous segment's
//! owner accounts for whole), searches for starts only below its
//! segment's end, and follows only the `Interior` tail of its last
//! object beyond it, up to the frontier.
//! Reclaimed runs never coalesce across a segment boundary, and each
//! worker flushes its own chunk batches to the free lists independently
//! (one pool lock per batch; the pool joins runs that meet at a
//! boundary).  Colors are filled `Free` *before* a chunk enters a batch,
//! so every pooled chunk covers only `Free` granules (the `verify_heap`
//! free-list pass relies on it).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use otf_heap::{Chunk, Color, PageTracker, GRANULE};
use otf_support::fault;

use crate::config::{Mode, Promotion};
use crate::cycle::{Counters, CycleCx};
use crate::obs::{dur_ns, EventKind};
use crate::shared::GcShared;

/// Reclaimed chunks accumulate in a batch and are published to the free
/// lists whenever this many are pending, so concurrent allocation never
/// starves behind a long sweep.  The batch is pre-sized to this
/// threshold.
pub(crate) const SWEEP_FLUSH_CHUNKS: usize = 256;

/// Emit a `SweepProgress` event every time the sweep cursor advances this
/// many granules, independent of chunk-batch flushes, so the event ring
/// can reconstruct the sweep rate even on a heap that frees little.
pub(crate) const SWEEP_PROGRESS_STRIDE: usize = 1 << 15;

/// Parallel sweep segment size in granules: 64 pages of arena
/// (16 KiB-granule heap pages × 256 granules/page), which is also
/// page-aligned in the color table (one byte per granule).  The lazy
/// (allocation-time) sweep claims the same segments from its epoch
/// cursor (`crate::lazy`).
pub(crate) const SWEEP_SEGMENT_GRANULES: usize = 64 * 256;

/// Sweep configuration pinned once per sweep epoch: the cycle's clear /
/// allocation colors and promotion policy.  The eager sweep captures it
/// at sweep start; the lazy back-end captures it when the collector
/// publishes a sweep epoch and keeps using the *pinned* copy even after
/// the next cycle's color toggle — re-reading `ColorState` mid-epoch
/// would reclaim the wrong color (DESIGN.md §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepParams {
    /// The color being reclaimed (the dead color of the finished trace).
    pub clear: Color,
    /// The epoch's allocation color (left untouched / re-applied to
    /// young survivors under aging).
    pub alloc: Color,
    /// `Some(threshold)` in the aging variant (Figure 5).
    pub aging: Option<u8>,
    /// The color a leaked gray is conservatively promoted to in the
    /// non-aging arms (pinned: for the non-generational baseline this is
    /// the epoch's mark color, which toggles).
    pub trace_target: Color,
}

/// Per-sweeper scratch threaded through [`GcShared::sweep_range`]: the
/// open reclaimed run, the pending chunk batch, and the granule mark for
/// the next stride `SweepProgress` event.
pub(crate) struct SweepBuf {
    pub run: Option<Chunk>,
    pub batch: Vec<Chunk>,
    pub next_mark: usize,
}

impl SweepBuf {
    pub(crate) fn new(next_mark: usize) -> SweepBuf {
        SweepBuf {
            run: None,
            batch: Vec::with_capacity(SWEEP_FLUSH_CHUNKS),
            next_mark,
        }
    }
}

impl GcShared {
    /// Captures the current cycle's sweep configuration (see
    /// [`SweepParams`]).  Both sweep back-ends call this at the same
    /// protocol point — after the trace, before any reclamation — so the
    /// pinned copy is identical to what the eager sweep used to re-read
    /// per range.
    pub(crate) fn sweep_params(&self) -> SweepParams {
        SweepParams {
            clear: self.colors.clear_color(),
            alloc: self.colors.allocation_color(),
            aging: match self.config.mode {
                Mode::Generational(Promotion::Aging { threshold }) => Some(threshold),
                _ => None,
            },
            trace_target: self.trace_target(),
        }
    }

    /// Runs the sweep for the current cycle: serial at `gc_threads == 1`
    /// (the verified-default DLG configuration), page-partitioned
    /// parallel otherwise — run as a standalone one-bucket schedule (the
    /// full cycle builds this same bucket via
    /// [`GcShared::build_cycle_schedule`]; this entry point exists for
    /// the sweep-phase tests).
    #[allow(dead_code)]
    pub(crate) fn sweep(&self, cx: &mut CycleCx) {
        let workers = self.config.gc_threads;
        if workers > 1 {
            let frame = crate::plan::CycleFrame::new(workers);
            let mut sched = otf_support::packet::Schedule::new();
            self.add_reclaim_bucket(&mut sched, &frame, workers, false, false);
            self.run_schedule(&sched, cx, workers);
        } else {
            self.sweep_serial(cx);
        }
    }

    /// The serial sweep kernel: one pass over `[1, frontier)`, emitting
    /// its own final `SweepProgress` event.
    pub(crate) fn sweep_serial(&self, cx: &mut CycleCx) {
        let t0 = Instant::now();
        let end = self.heap.frontier_granule();
        let params = self.sweep_params();

        // Sweep reads every color byte up to the frontier.
        cx.touch_color_range(1, end);

        let mut buf = SweepBuf::new(1 + SWEEP_PROGRESS_STRIDE);
        self.sweep_range(
            &params,
            1,
            end,
            end,
            &mut cx.counters,
            Some(&mut cx.pages),
            &mut buf,
        );
        Self::flush_run(&mut buf.run, &mut buf.batch);
        self.heap.free_chunk_batch(&buf.batch);
        self.obs
            .event(EventKind::SweepProgress, end as u64, end as u64);
        self.obs.note_worker_sweep(0, dur_ns(t0.elapsed()));
    }

    /// One page-partitioned sweep lane (the body of a `SweepLane`
    /// packet): claim segments from the shared cursor until the frontier
    /// is reached.
    pub(crate) fn sweep_worker(
        &self,
        w: usize,
        frontier: usize,
        cursor: &AtomicUsize,
        params: &SweepParams,
        cx: &mut CycleCx,
    ) {
        let t0 = Instant::now();
        let mut buf = SweepBuf::new(SWEEP_PROGRESS_STRIDE);
        loop {
            let seg_start = cursor.fetch_add(SWEEP_SEGMENT_GRANULES, Ordering::SeqCst);
            if seg_start >= frontier {
                break;
            }
            // Delay/yield injection at segment claims.  A "failing" rule
            // cannot skip the segment — every claimed segment must be
            // swept exactly once — so the verdict is ignored.
            let _ = fault::point("collector.worker");
            let seg_stop = (seg_start + SWEEP_SEGMENT_GRANULES).min(frontier);
            self.sweep_range(
                params,
                seg_start,
                seg_stop,
                frontier,
                &mut cx.counters,
                Some(&mut cx.pages),
                &mut buf,
            );
            // Never coalesce a reclaimed run across a segment boundary —
            // the adjacent segment may belong to another worker.
            Self::flush_run(&mut buf.run, &mut buf.batch);
        }
        self.heap.free_chunk_batch(&buf.batch);
        self.obs.note_worker_sweep(w, dur_ns(t0.elapsed()));
    }

    /// Sweeps every object whose start granule lies in `[start, stop)`,
    /// a run at a time (module docs; DESIGN.md §4.12).  `frontier` bounds
    /// the *extent* scans, so an object straddling `stop` is still
    /// processed whole by this call; a leading `Interior` run at a
    /// segment start (`start > 1`) is the tail of such a straddler and
    /// is the previous segment's owner's to free or count.
    ///
    /// This is the kernel shared by both sweep back-ends.  The eager
    /// collector paths pass their `CycleCx` split into `counters` +
    /// `Some(pages)`; the lazy allocation-time path (`crate::lazy`)
    /// passes standalone counters and `None` for the page tracker — a
    /// `PageTracker` is a heap-sized bitmap far too heavy to build per
    /// LAB refill, so lazy sweeps are simply absent from the page-touch
    /// figures (documented in DESIGN.md §4.6).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_range(
        &self,
        params: &SweepParams,
        start: usize,
        stop: usize,
        frontier: usize,
        counters: &mut Counters,
        mut pages: Option<&mut PageTracker>,
        buf: &mut SweepBuf,
    ) {
        let SweepParams {
            clear,
            alloc,
            aging,
            trace_target,
        } = *params;
        let colors = self.heap.colors();
        let ages = self.heap.ages();
        // The one survivor color that needs nothing from this sweep: it
        // is counted on the way past, never visited.  Under aging every
        // survivor needs its age touched, so no color passes.
        let pass = if aging.is_some() {
            Color::Free
        } else {
            trace_target
        };
        // Granules crossed by the survivor skip: `pass`-colored objects
        // and their interiors (plus, stats-only, the interior of an
        // object caught mid-installation).
        let survived = |counters: &mut Counters, granules: usize| {
            let bytes = (granules * GRANULE) as u64;
            counters.bytes_survived += bytes;
            if pass == alloc {
                counters.bytes_alloc_colored += bytes;
            }
        };

        let mut g = if start == 1 {
            start
        } else {
            colors.next_color_above(start, stop, Color::Interior)
        };
        if g >= stop {
            // No object starts in this segment.  Not the same as falling
            // through the loop below: a giant filling the whole segment
            // had its tail counted by its own segment's sweeper, and the
            // straddler rule after the loop would count it again.
            return;
        }
        while g < stop {
            if g >= buf.next_mark {
                self.obs
                    .event(EventKind::SweepProgress, g as u64, frontier as u64);
                buf.next_mark = g + SWEEP_PROGRESS_STRIDE;
            }
            // Each scan stops at the next progress mark as well as at
            // `stop`, so a heap that frees nothing still reports its
            // sweep rate on the stride.
            let lim = stop.min(buf.next_mark);
            let (next, objects, granules) = colors.skip_survivors(g, lim, pass);
            if next != g {
                // Space that is never reclaimed (again) by this sweep was
                // crossed, so the pending run ends here: chunks must not
                // merge into space someone else may own.
                counters.objects_survived += objects as u64;
                survived(counters, granules);
                self.close_run(buf, g, frontier);
                g = next;
                if g == lim {
                    continue;
                }
            }
            // The color table alone drives the parse: extents are runs
            // of Interior bytes, so sweep never touches the arena at all
            // (headers included) — the non-moving free-chunk records
            // live in side storage too.
            let color = colors.get(g); // acquire pairs with allocation
            if color == clear {
                // Reclaim the whole dead run: free ← free ∪ run;
                // color(run) ← blue.  Start bytes are searched for below
                // `lim` only; the Interior tail of the run's last object
                // is followed beyond it.
                let (mut end, objects) = colors.dead_run_end(g, lim, clear);
                if end == lim {
                    end = colors.object_end(lim - 1, frontier);
                }
                counters.objects_freed += objects as u64;
                counters.bytes_freed += ((end - g) * GRANULE) as u64;
                colors.fill(g, end - g, Color::Free);
                // Zeroes interior ages as well as the starts': harmless,
                // ages are read at start bytes only (DESIGN.md §4.12).
                ages.clear(g, end - g);
                // A run cut at a progress mark resumes where it stopped.
                let begin = match buf.run {
                    Some(r) if r.end() as usize == g => r.start as usize,
                    _ => {
                        Self::flush_run(&mut buf.run, &mut buf.batch);
                        g
                    }
                };
                buf.run = Some(Chunk::new(begin as u32, (end - begin) as u32));
                g = end;
                continue;
            }
            // A visited survivor: created during the cycle, below the
            // tenuring threshold, or — for robustness — a leaked gray,
            // treated as live.
            self.close_run(buf, g, frontier);
            let obj_end = colors.object_end(g, frontier);
            counters.objects_survived += 1;
            counters.bytes_survived += ((obj_end - g) * GRANULE) as u64;
            if color == alloc {
                counters.bytes_alloc_colored += ((obj_end - g) * GRANULE) as u64;
            }
            match aging {
                Some(threshold) => {
                    if let Some(p) = pages.as_mut() {
                        p.touch_byte(otf_heap::Space::AgeTable, g);
                    }
                    let age = ages.get(g);
                    if age < threshold {
                        // Young survivor: stays in the young
                        // generation with one more birthday.
                        colors.set(g, alloc);
                        ages.set(g, age + 1);
                    } else if color == Color::Gray {
                        colors.set(g, Color::Black);
                    }
                }
                None => {
                    if color == Color::Gray {
                        // A gray that escaped the trace: keep it
                        // conservatively as marked.
                        colors.set(g, trace_target);
                    }
                    // Simple variant: allocation color untouched.
                }
            }
            g = obj_end;
        }
        // A skipped survivor straddling `stop`: its tail is this call's
        // to count (the next segment's owner starts past it).
        if g == stop && stop < frontier {
            survived(counters, colors.object_end(stop - 1, frontier) - stop);
        }
    }

    /// Ends the pending reclaimed run before the sweep crosses space it
    /// does not reclaim, and publishes the batch to the free lists once
    /// it is full, so concurrent allocation never starves behind a long
    /// sweep.
    fn close_run(&self, buf: &mut SweepBuf, g: usize, frontier: usize) {
        Self::flush_run(&mut buf.run, &mut buf.batch);
        if buf.batch.len() >= SWEEP_FLUSH_CHUNKS {
            self.heap.free_chunk_batch(&buf.batch);
            buf.batch.clear();
            self.obs
                .event(EventKind::SweepProgress, g as u64, frontier as u64);
        }
    }

    /// Moves a finished reclaimed run into the pending batch (inserted
    /// into the free lists in bulk at the end of the sweep).
    pub(crate) fn flush_run(run: &mut Option<Chunk>, batch: &mut Vec<Chunk>) {
        if let Some(r) = run.take() {
            batch.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use otf_heap::{ObjShape, ObjectRef};
    use otf_support::check::{run_cases, Gen};

    fn setup(cfg: GcConfig) -> (GcShared, CycleCx) {
        let sh = GcShared::new(cfg.with_max_heap(1 << 20).with_initial_heap(1 << 20));
        let cx = CycleCx::new(&sh);
        (sh, cx)
    }

    fn alloc(sh: &GcShared, granules: usize, color: Color) -> ObjectRef {
        // granules*2 - 1 words total => exactly `granules` granules.
        let shape = ObjShape::new(0, granules * 2 - 1);
        assert_eq!(shape.size_granules(), granules);
        let c = sh
            .heap
            .alloc_chunk(granules as u32, granules as u32)
            .unwrap();
        sh.heap.install_object(c.start as usize, &shape, color)
    }

    #[test]
    fn sweep_frees_clear_colored_only() {
        let (sh, mut cx) = setup(GcConfig::generational());
        sh.colors.toggle(); // clear = White, allocation = Yellow
        let dead = alloc(&sh, 2, Color::White);
        let black = alloc(&sh, 2, Color::Black);
        let infant = alloc(&sh, 2, Color::Yellow);
        sh.sweep(&mut cx);
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);
        assert_eq!(sh.heap.colors().get(black.granule()), Color::Black);
        assert_eq!(sh.heap.colors().get(infant.granule()), Color::Yellow);
        assert_eq!(cx.counters.objects_freed, 1);
        assert_eq!(cx.counters.bytes_freed, 32);
        assert_eq!(cx.counters.objects_survived, 2);
    }

    #[test]
    fn sweep_coalesces_adjacent_dead_objects() {
        let (sh, mut cx) = setup(GcConfig::generational());
        sh.colors.toggle();
        let a = alloc(&sh, 2, Color::White);
        let _b = alloc(&sh, 3, Color::White);
        let _c = alloc(&sh, 1, Color::White);
        let live = alloc(&sh, 1, Color::Black);
        sh.sweep(&mut cx);
        assert_eq!(cx.counters.objects_freed, 3);
        // One coalesced chunk of 6 granules is available again.
        let chunk = sh.heap.alloc_chunk(6, 6).expect("coalesced chunk");
        assert_eq!(chunk.start as usize, a.granule());
        assert_eq!(chunk.len, 6);
        assert_eq!(sh.heap.colors().get(live.granule()), Color::Black);
    }

    #[test]
    fn sweep_run_not_merged_across_live_object() {
        let (sh, mut cx) = setup(GcConfig::generational());
        sh.colors.toggle();
        let _a = alloc(&sh, 2, Color::White);
        let _live = alloc(&sh, 1, Color::Black);
        let _b = alloc(&sh, 2, Color::White);
        sh.sweep(&mut cx);
        // Two separate 2-granule chunks, not one 4-granule chunk.
        assert!(sh.heap.alloc_chunk(4, 4).is_none() || sh.heap.frontier_granule() > 6);
        assert!(sh.heap.alloc_chunk(2, 2).is_some());
        assert!(sh.heap.alloc_chunk(2, 2).is_some());
    }

    #[test]
    fn sweep_promotes_gray_leak() {
        let (sh, mut cx) = setup(GcConfig::generational());
        sh.colors.toggle();
        let gray = alloc(&sh, 1, Color::Gray);
        sh.sweep(&mut cx);
        assert_eq!(sh.heap.colors().get(gray.granule()), Color::Black);
    }

    #[test]
    fn aging_sweep_ages_and_demotes_young_survivors() {
        let threshold = 3;
        let (sh, mut cx) = setup(GcConfig::aging(threshold));
        sh.colors.toggle(); // allocation = Yellow, clear = White
                            // A traced (black) object of age 1: young survivor.
        let young = alloc(&sh, 1, Color::Black);
        sh.heap.ages().set(young.granule(), 1);
        // A traced object at the threshold: tenured, stays black.
        let old = alloc(&sh, 1, Color::Black);
        sh.heap.ages().set(old.granule(), threshold);
        // An infant created during the cycle.
        let infant = alloc(&sh, 1, Color::Yellow);
        assert_eq!(sh.heap.ages().get(infant.granule()), 1);

        sh.sweep(&mut cx);

        assert_eq!(sh.heap.colors().get(young.granule()), Color::Yellow);
        assert_eq!(sh.heap.ages().get(young.granule()), 2);
        assert_eq!(sh.heap.colors().get(old.granule()), Color::Black);
        assert_eq!(sh.heap.ages().get(old.granule()), threshold);
        // The infant also ages (Figure 5 increments every non-tenured
        // survivor) and keeps the allocation color.
        assert_eq!(sh.heap.colors().get(infant.granule()), Color::Yellow);
        assert_eq!(sh.heap.ages().get(infant.granule()), 2);
    }

    #[test]
    fn aging_sweep_tenures_at_threshold() {
        let threshold = 2;
        let (sh, mut cx) = setup(GcConfig::aging(threshold));
        sh.colors.toggle();
        let obj = alloc(&sh, 1, Color::Black);
        sh.heap.ages().set(obj.granule(), 1);
        sh.sweep(&mut cx);
        // age 1 -> 2 == threshold, but recolored young this time.
        assert_eq!(sh.heap.ages().get(obj.granule()), 2);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Yellow);
        // Next cycle it is traced black again and now stays black.
        sh.colors.toggle();
        sh.heap.colors().set(obj.granule(), Color::Black);
        let mut cx2 = CycleCx::new(&sh);
        sh.sweep(&mut cx2);
        assert_eq!(sh.heap.colors().get(obj.granule()), Color::Black);
        assert_eq!(sh.heap.ages().get(obj.granule()), threshold);
    }

    #[test]
    fn sweep_clears_age_of_freed_objects() {
        let (sh, mut cx) = setup(GcConfig::aging(4));
        sh.colors.toggle();
        let dead = alloc(&sh, 1, Color::White);
        sh.heap.ages().set(dead.granule(), 3);
        sh.sweep(&mut cx);
        assert_eq!(sh.heap.ages().get(dead.granule()), 0);
    }

    #[test]
    fn non_generational_sweep_keeps_marked() {
        let (sh, mut cx) = setup(GcConfig::non_generational());
        sh.colors.toggle(); // allocation (= mark) Yellow, clear White
        let marked = alloc(&sh, 1, Color::Yellow);
        let dead = alloc(&sh, 1, Color::White);
        sh.sweep(&mut cx);
        assert_eq!(sh.heap.colors().get(marked.granule()), Color::Yellow);
        assert_eq!(sh.heap.colors().get(dead.granule()), Color::Free);
    }

    #[test]
    fn reclaimed_space_is_reusable() {
        let (sh, mut cx) = setup(GcConfig::generational());
        sh.colors.toggle();
        let dead = alloc(&sh, 4, Color::White);
        sh.sweep(&mut cx);
        let c = sh.heap.alloc_chunk(4, 4).unwrap();
        assert_eq!(c.start as usize, dead.granule());
    }

    /// Deterministically fills a heap with a color-mixed population that
    /// spans several sweep segments, including one huge dead object that
    /// straddles segment boundaries.  Returns `(object, color)` pairs.
    fn build_mixed_heap(sh: &GcShared) -> Vec<(ObjectRef, Color)> {
        sh.colors.toggle(); // clear = White, allocation = Yellow
        let mut objs = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4000usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let granules = 1 + (r % 9) as usize;
            let color = match r % 3 {
                0 => Color::White,
                1 => Color::Black,
                _ => Color::Yellow,
            };
            objs.push((alloc(sh, granules, color), color));
            if i == 2000 {
                // Dead giant spanning more than one 16384-granule segment.
                objs.push((alloc(sh, 18_000, Color::White), Color::White));
            }
        }
        assert!(
            sh.heap.frontier_granule() > 2 * SWEEP_SEGMENT_GRANULES,
            "population must span several segments"
        );
        objs
    }

    #[test]
    fn parallel_sweep_matches_serial_on_identical_heap() {
        let (serial, mut scx) = setup(GcConfig::generational());
        let (parallel, mut pcx) = setup(GcConfig::generational().with_gc_threads(4));
        let sobjs = build_mixed_heap(&serial);
        let pobjs = build_mixed_heap(&parallel);

        serial.sweep(&mut scx);
        parallel.sweep(&mut pcx);

        assert_eq!(scx.counters.objects_freed, pcx.counters.objects_freed);
        assert_eq!(scx.counters.bytes_freed, pcx.counters.bytes_freed);
        assert_eq!(scx.counters.objects_survived, pcx.counters.objects_survived);
        assert_eq!(scx.counters.bytes_survived, pcx.counters.bytes_survived);
        assert_eq!(
            scx.counters.bytes_alloc_colored,
            pcx.counters.bytes_alloc_colored
        );
        // Identical allocation sequences place objects identically, so
        // the post-sweep color of every object must agree byte-for-byte.
        for ((so, _), (po, pc)) in sobjs.iter().zip(pobjs.iter()) {
            assert_eq!(so.granule(), po.granule());
            let sc = serial.heap.colors().get(so.granule());
            let pcolor = parallel.heap.colors().get(po.granule());
            assert_eq!(sc, pcolor, "color mismatch at granule {}", po.granule());
            if *pc == Color::White {
                assert_eq!(pcolor, Color::Free);
            }
        }
        // Freed space totals agree (chunk boundaries may differ at
        // segment edges, but not the amount reclaimed).
        assert_eq!(
            serial.heap.free_list_granules(),
            parallel.heap.free_list_granules()
        );
    }

    #[test]
    fn parallel_sweep_frees_segment_straddler_exactly_once() {
        let (sh, mut cx) = setup(GcConfig::generational().with_gc_threads(4));
        sh.colors.toggle();
        // Pad so the straddler starts just before a segment boundary.
        let pad = SWEEP_SEGMENT_GRANULES - 1 - 4;
        let _live = alloc(&sh, pad, Color::Black);
        let dead = alloc(&sh, 3 * SWEEP_SEGMENT_GRANULES, Color::White);
        let tail = alloc(&sh, 2, Color::Black);
        sh.sweep(&mut cx);
        assert_eq!(cx.counters.objects_freed, 1);
        assert_eq!(
            cx.counters.bytes_freed,
            (3 * SWEEP_SEGMENT_GRANULES * GRANULE) as u64
        );
        // Every granule of the straddler is Free, and the space comes
        // back as one chunk covering the full extent.
        let colors = sh.heap.colors();
        assert_eq!(colors.get(dead.granule()), Color::Free);
        assert_eq!(
            colors.object_end(dead.granule() - 1, sh.heap.frontier_granule()),
            dead.granule()
        );
        assert_eq!(colors.get(tail.granule()), Color::Black);
        let c = sh
            .heap
            .alloc_chunk(
                3 * SWEEP_SEGMENT_GRANULES as u32,
                3 * SWEEP_SEGMENT_GRANULES as u32,
            )
            .expect("straddler reclaimed as one chunk");
        assert_eq!(c.start as usize, dead.granule());
    }

    #[test]
    fn sweep_emits_stride_progress_events_without_flushes() {
        // All-survivor heap: no chunk batches ever flush, yet the sweep
        // must still report progress on the granule stride.
        let (sh, mut cx) = setup(GcConfig::generational().with_event_trace(true));
        sh.colors.toggle();
        while sh.heap.frontier_granule() < SWEEP_PROGRESS_STRIDE + 64 {
            alloc(&sh, 512, Color::Black);
        }
        sh.sweep(&mut cx);
        let end = sh.heap.frontier_granule() as u64;
        let mid_sweep = sh
            .obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SweepProgress) && e.a < end)
            .count();
        assert!(
            mid_sweep >= 1,
            "expected at least one stride progress event before the end"
        );
    }

    #[test]
    fn parallel_aging_sweep_matches_serial() {
        let (serial, mut scx) = setup(GcConfig::aging(3));
        let (parallel, mut pcx) = setup(GcConfig::aging(3).with_gc_threads(3));
        let sobjs = build_mixed_heap(&serial);
        let pobjs = build_mixed_heap(&parallel);
        for (o, c) in &sobjs {
            if *c == Color::Black {
                serial.heap.ages().set(o.granule(), 2);
            }
        }
        for (o, c) in &pobjs {
            if *c == Color::Black {
                parallel.heap.ages().set(o.granule(), 2);
            }
        }

        serial.sweep(&mut scx);
        parallel.sweep(&mut pcx);

        assert_eq!(scx.counters.objects_survived, pcx.counters.objects_survived);
        assert_eq!(scx.counters.bytes_freed, pcx.counters.bytes_freed);
        for ((so, _), (po, _)) in sobjs.iter().zip(pobjs.iter()) {
            assert_eq!(
                serial.heap.colors().get(so.granule()),
                parallel.heap.colors().get(po.granule())
            );
            assert_eq!(
                serial.heap.ages().get(so.granule()),
                parallel.heap.ages().get(po.granule())
            );
        }
    }

    /// The object-at-a-time sweep the run kernels replaced, kept as the
    /// differential oracle: one skip, one acquire load and one extent
    /// scan per object start, serially over `[1, frontier)`.
    fn sweep_oracle(sh: &GcShared, counters: &mut Counters) {
        let SweepParams {
            clear,
            alloc,
            aging,
            trace_target,
        } = sh.sweep_params();
        let colors = sh.heap.colors();
        let ages = sh.heap.ages();
        let frontier = sh.heap.frontier_granule();
        let mut run: Option<Chunk> = None;
        let mut batch = Vec::new();
        let mut g = 1;
        while g < frontier {
            let next = colors.next_color_above(g, frontier, Color::Interior);
            if next != g {
                GcShared::flush_run(&mut run, &mut batch);
                g = next;
                continue;
            }
            let color = colors.get(g);
            let obj_end = colors.object_end(g, frontier);
            let size = obj_end - g;
            if color == clear {
                counters.objects_freed += 1;
                counters.bytes_freed += (size * GRANULE) as u64;
                colors.fill(g, size, Color::Free);
                ages.set(g, 0);
                run = Some(match run.take() {
                    Some(r) if r.end() as usize == g => Chunk::new(r.start, r.len + size as u32),
                    Some(r) => {
                        batch.push(r);
                        Chunk::new(g as u32, size as u32)
                    }
                    None => Chunk::new(g as u32, size as u32),
                });
            } else {
                GcShared::flush_run(&mut run, &mut batch);
                counters.objects_survived += 1;
                counters.bytes_survived += (size * GRANULE) as u64;
                if color == alloc {
                    counters.bytes_alloc_colored += (size * GRANULE) as u64;
                }
                match aging {
                    Some(threshold) => {
                        let age = ages.get(g);
                        if age < threshold {
                            colors.set(g, alloc);
                            ages.set(g, age + 1);
                        } else if color == Color::Gray {
                            colors.set(g, Color::Black);
                        }
                    }
                    None => {
                        if color == Color::Gray {
                            colors.set(g, trace_target);
                        }
                    }
                }
            }
            g = obj_end;
        }
        GcShared::flush_run(&mut run, &mut batch);
        sh.heap.free_chunk_batch(&batch);
    }

    /// A generated heap image: color and age bytes for granules
    /// `1..colors.len()`, plus how many `Interior` granules belong to
    /// objects caught mid-installation (`Free` start byte) — the only
    /// bytes the run sweep may count that the oracle does not.
    struct Image {
        colors: Vec<u8>,
        ages: Vec<u8>,
        inflight: u64,
    }

    impl Image {
        fn push_object(&mut self, start: Color, granules: usize, age: u8) {
            self.colors.push(start as u8);
            self.ages.push(age);
            self.colors
                .extend(std::iter::repeat_n(Color::Interior as u8, granules - 1));
            // Interior ages are never read; give them the start's value
            // so the comparison below sees who writes them.
            self.ages.extend(std::iter::repeat_n(age, granules - 1));
        }

        /// Installs the image on a fresh heap: one frontier bump covers
        /// it, so the free lists start empty.
        fn install(&self, sh: &GcShared) {
            let n = (self.colors.len() - 1) as u32;
            let c = sh.heap.alloc_chunk(n, n).expect("image fits the heap");
            assert_eq!(c.start, 1);
            for g in 1..self.colors.len() {
                sh.heap.colors().set(g, Color::from_byte(self.colors[g]));
                sh.heap.ages().set(g, self.ages[g]);
            }
        }
    }

    /// Draws an image of roughly `target` granules under the given clear
    /// color: small and 1-granule objects of every color, free gaps,
    /// in-flight objects, rare `Gray` leaks, and — wherever a sweep
    /// segment boundary comes within reach — a giant that straddles it or
    /// a dead run that ends exactly on it.  The last object is dead or
    /// live at random, so dead runs also end exactly at the frontier.
    fn random_image(g: &mut Gen, target: usize, clear: Color, alloc: Color) -> Image {
        let mut im = Image {
            colors: vec![Color::Free as u8],
            ages: vec![0],
            inflight: 0,
        };
        while im.colors.len() < target {
            let at = im.colors.len();
            let to_boundary = SWEEP_SEGMENT_GRANULES - (at - 1) % SWEEP_SEGMENT_GRANULES;
            let color = match g.usize_in(0..16) {
                0..=5 => clear,
                6..=10 => Color::Black,
                11..=13 => alloc,
                14 => Color::Gray,
                _ => Color::Free,
            };
            let age = g.usize_in(0..5) as u8;
            if to_boundary <= 64 && g.bool() {
                // Boundary cases: end exactly on the boundary, or
                // straddle it (by a little, or by more than a segment).
                let granules = match g.usize_in(0..3) {
                    0 => to_boundary,
                    1 => to_boundary + g.usize_in(1..40),
                    _ => to_boundary + SWEEP_SEGMENT_GRANULES + g.usize_in(0..40),
                };
                let color = if color == Color::Free { clear } else { color };
                im.push_object(color, granules, age);
            } else if color == Color::Free {
                if g.bool() {
                    // Mid-installation: interiors written, start not yet.
                    let tail = g.usize_in(1..6);
                    im.push_object(Color::Free, 1 + tail, 0);
                    im.inflight += tail as u64;
                } else {
                    let gap = g.usize_in(1..20);
                    im.colors
                        .extend(std::iter::repeat_n(Color::Free as u8, gap));
                    im.ages.extend(std::iter::repeat_n(0, gap));
                }
            } else {
                let granules = match g.usize_in(0..8) {
                    0..=2 => 1,
                    3..=6 => g.usize_in(2..7),
                    _ => g.usize_in(7..60),
                };
                im.push_object(color, granules, age);
            }
        }
        im
    }

    fn sweep_counters(c: &Counters) -> [u64; 5] {
        [
            c.objects_freed,
            c.bytes_freed,
            c.objects_survived,
            c.bytes_survived,
            c.bytes_alloc_colored,
        ]
    }

    fn table_bytes(sh: &GcShared, len: usize) -> (Vec<u8>, Vec<u8>) {
        (
            (0..len)
                .map(|g| sh.heap.colors().get_raw_relaxed(g))
                .collect(),
            (0..len).map(|g| sh.heap.ages().get(g)).collect(),
        )
    }

    /// The run-at-a-time sweep against the object-at-a-time oracle, on
    /// generated tables: all three modes × both toggle states, through
    /// the serial sweep, the page-partitioned sweep and the lazy segment
    /// path.  Colors, ages and the five sweep counters must agree; the
    /// serial free lists chunk for chunk, the partitioned ones in total.
    #[test]
    fn run_sweep_matches_object_sweep_oracle() {
        let modes: [fn() -> GcConfig; 3] = [
            GcConfig::generational,
            || GcConfig::aging(3),
            GcConfig::non_generational,
        ];
        run_cases("run_sweep_matches_oracle", 0x5EE9, 24, |g| {
            let target = if g.usize_in(0..4) == 0 {
                g.usize_in(20_000..44_000)
            } else {
                g.usize_in(2..3_000)
            };
            for (mode, toggled) in (0..3).flat_map(|m| [(m, false), (m, true)]) {
                let build = |cfg: GcConfig| {
                    let (sh, cx) = setup(cfg);
                    if toggled {
                        sh.colors.toggle();
                    }
                    (sh, cx)
                };
                let (oracle, _) = build(modes[mode]());
                let clear = oracle.colors.clear_color();
                let alloc = oracle.colors.allocation_color();
                let image = random_image(g, target, clear, alloc);
                let len = image.colors.len();
                image.install(&oracle);
                let mut expect = Counters::default();
                sweep_oracle(&oracle, &mut expect);
                let mut expect_tables = table_bytes(&oracle, len);
                // The one deliberate difference in the tables: the oracle
                // zeroes a freed object's age at its start byte, the run
                // sweep over the whole freed run (interiors included).
                for g in 1..len {
                    if image.colors[g] != expect_tables.0[g]
                        && expect_tables.0[g] == Color::Free as u8
                    {
                        expect_tables.1[g] = 0;
                    }
                }
                let expect = sweep_counters(&expect);
                // Stats-only fuzz: in-flight interiors count as survived
                // (and, where survivors are all allocation-colored, as
                // that too).  A partitioned sweep drops the ones leading
                // a segment, so there the fuzz is only an upper bound.
                let fuzz = image.inflight * GRANULE as u64;
                let check = |what: &str, got: [u64; 5], exact: bool| {
                    let ctx = format!("{what} mode={mode} toggled={toggled} len={len}");
                    assert_eq!(got[..3], expect[..3], "{ctx}");
                    let alloc_fuzz = if mode == 2 { fuzz } else { 0 };
                    for (i, fuzz) in [(3, fuzz), (4, alloc_fuzz)] {
                        let over = got[i].checked_sub(expect[i]).expect(&ctx);
                        assert!(over <= fuzz && (!exact || over == fuzz), "{ctx} [{i}]");
                    }
                };

                let (serial, mut cx) = build(modes[mode]().with_gc_threads(1));
                image.install(&serial);
                serial.sweep(&mut cx);
                check("serial", sweep_counters(&cx.counters), true);
                assert_eq!(table_bytes(&serial, len), expect_tables, "serial");
                assert_eq!(
                    serial.heap.free_list_snapshot(),
                    oracle.heap.free_list_snapshot()
                );

                let (parallel, mut cx) = build(modes[mode]().with_gc_threads(3));
                image.install(&parallel);
                parallel.sweep(&mut cx);
                check("parallel", sweep_counters(&cx.counters), false);
                assert_eq!(table_bytes(&parallel, len), expect_tables, "parallel");
                assert_eq!(
                    parallel.heap.free_list_granules(),
                    oracle.heap.free_list_granules()
                );

                let (lazy, _) = build(modes[mode]().with_lazy_sweep(true));
                image.install(&lazy);
                lazy.lazy_publish(0);
                lazy.lazy_finalize(crate::lazy::LazyWho::Collector);
                check("lazy", sweep_counters(&lazy.lazy_take_counters()), false);
                assert_eq!(table_bytes(&lazy, len), expect_tables, "lazy");
                assert_eq!(
                    lazy.heap.free_list_granules(),
                    oracle.heap.free_list_granules()
                );
            }
        });
    }
}
