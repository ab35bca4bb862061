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
//!   `Free`, age-zeroed and turned into one chunk for the free lists.
//!   The run is maximal, so no two chunks of one sweep touch;
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
//! Reclaimed chunks reach the free lists in batches, and the sweep ends
//! with one merge of the pool into maximal runs
//! (`HeapSpace::merge_free_lists`, DESIGN.md §4.11).  Colors are filled
//! `Free` *before* a chunk enters a batch, so every pooled chunk covers
//! only `Free` granules (the `verify_heap` free-list pass relies on it).

use otf_heap::{Chunk, Color, GRANULE};

use crate::config::{Mode, Promotion};
use crate::cycle::CycleCx;
use crate::shared::GcShared;

/// Reclaimed chunks accumulate in a batch and are published to the free
/// lists whenever this many are pending, so concurrent allocation never
/// starves behind a long sweep.  The batch is pre-sized to this
/// threshold.
const SWEEP_FLUSH_CHUNKS: usize = 256;

/// The cycle's sweep configuration: its clear / allocation colors and
/// promotion policy, read once after the trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepParams {
    /// The color being reclaimed (the dead color of the finished trace).
    pub clear: Color,
    /// The cycle's allocation color (left untouched / re-applied to
    /// young survivors under aging).
    pub alloc: Color,
    /// `Some(threshold)` in the aging variant (Figure 5).
    pub aging: Option<u8>,
    /// The color a leaked gray is conservatively promoted to in the
    /// non-aging arms (for the non-generational baseline this is the
    /// cycle's mark color, which toggles).
    pub trace_target: Color,
}

impl GcShared {
    /// Captures the current cycle's sweep configuration (see
    /// [`SweepParams`]), after the trace and before any reclamation.
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

    /// The sweep (the cycle's `reclaim` bucket): one pass over
    /// `[1, frontier)`, a run at a time (module docs; DESIGN.md §4.12),
    /// ending in one merge of the free pool.
    pub(crate) fn sweep(&self, cx: &mut CycleCx) {
        let frontier = self.heap.frontier_granule();
        // Sweep reads every color byte up to the frontier.
        cx.touch_color_range(1, frontier);
        let SweepParams {
            clear,
            alloc,
            aging,
            trace_target,
        } = self.sweep_params();
        let mut batch = Vec::with_capacity(SWEEP_FLUSH_CHUNKS);
        let colors = self.heap.colors();
        let ages = self.heap.ages();
        let CycleCx { stats, pages, .. } = cx;
        // The one survivor color that needs nothing from this sweep: it
        // is counted on the way past, never visited.  Under aging every
        // survivor needs its age touched, so no color passes.
        let pass = if aging.is_some() {
            Color::Free
        } else {
            trace_target
        };
        let mut g = 1;
        while g < frontier {
            let (next, objects, granules) = colors.skip_survivors(g, frontier, pass);
            if next != g {
                // The granules crossed are `pass`-colored objects and
                // their interiors (plus, stats-only, the interior of an
                // object caught mid-installation).
                let bytes = (granules * GRANULE) as u64;
                stats.objects_survived += objects as u64;
                stats.bytes_survived += bytes;
                if pass == alloc {
                    stats.bytes_alloc_colored += bytes;
                }
                g = next;
                if g == frontier {
                    break;
                }
            }
            // The color table alone drives the parse: extents are runs
            // of Interior bytes, so sweep never touches the arena at all
            // (headers included) — the non-moving free-chunk records
            // live in side storage too.
            let color = colors.get(g); // acquire pairs with allocation
            if color == clear {
                // Reclaim the whole dead run: free ← free ∪ run;
                // color(run) ← blue.  The run is maximal — it ends at a
                // byte that is neither clear nor `Interior` — so it never
                // touches the next one and goes to the batch as it is.
                let (end, objects) = colors.dead_run_end(g, frontier, clear);
                stats.objects_freed += objects as u64;
                stats.bytes_freed += ((end - g) * GRANULE) as u64;
                colors.fill(g, end - g, Color::Free);
                // Zeroes interior ages as well as the starts': harmless,
                // ages are read at start bytes only (DESIGN.md §4.12).
                ages.clear(g, end - g);
                batch.push(Chunk::new(g as u32, (end - g) as u32));
                if batch.len() >= SWEEP_FLUSH_CHUNKS {
                    self.heap.free_chunk_batch(&batch);
                    batch.clear();
                }
                g = end;
                continue;
            }
            // A visited survivor: created during the cycle, below the
            // tenuring threshold, or — for robustness — a leaked gray,
            // treated as live.
            let obj_end = colors.object_end(g, frontier);
            stats.objects_survived += 1;
            stats.bytes_survived += ((obj_end - g) * GRANULE) as u64;
            if color == alloc {
                stats.bytes_alloc_colored += ((obj_end - g) * GRANULE) as u64;
            }
            match aging {
                Some(threshold) => {
                    pages.touch_byte(otf_heap::Space::AgeTable, g);
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
        self.heap.free_chunk_batch(&batch);
        self.heap.merge_free_lists();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;
    use crate::cycle::CycleCx;
    use crate::stats::CycleStats;
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
        assert_eq!(cx.stats.objects_freed, 1);
        assert_eq!(cx.stats.bytes_freed, 32);
        assert_eq!(cx.stats.objects_survived, 2);
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
        assert_eq!(cx.stats.objects_freed, 3);
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

    /// The object-at-a-time sweep the run kernels replaced, kept as the
    /// differential oracle: one skip, one acquire load and one extent
    /// scan per object start, serially over `[1, frontier)`.
    fn sweep_oracle(sh: &GcShared, stats: &mut CycleStats) {
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
        let flush_run = |run: &mut Option<Chunk>, batch: &mut Vec<Chunk>| batch.extend(run.take());
        let mut g = 1;
        while g < frontier {
            let next = colors.next_color_above(g, frontier, Color::Interior);
            if next != g {
                flush_run(&mut run, &mut batch);
                g = next;
                continue;
            }
            let color = colors.get(g);
            let obj_end = colors.object_end(g, frontier);
            let size = obj_end - g;
            if color == clear {
                stats.objects_freed += 1;
                stats.bytes_freed += (size * GRANULE) as u64;
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
                flush_run(&mut run, &mut batch);
                stats.objects_survived += 1;
                stats.bytes_survived += (size * GRANULE) as u64;
                if color == alloc {
                    stats.bytes_alloc_colored += (size * GRANULE) as u64;
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
        flush_run(&mut run, &mut batch);
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

    /// The granule offset (`1 + MARK_STRIDE`) at which `random_image`
    /// places a giant that straddles it or a dead run that ends exactly
    /// on it.  It is the stride at which the sweep once stopped to report
    /// progress; the images keep it so their draws stay as they were.
    const MARK_STRIDE: usize = 1 << 15;

    /// Draws an image of roughly `target` granules under the given clear
    /// color: small and 1-granule objects of every color, free gaps,
    /// in-flight objects, rare `Gray` leaks, and — where the mark at
    /// `1 + MARK_STRIDE` comes within reach — a giant that straddles it or
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
            let to_mark = (1 + MARK_STRIDE).saturating_sub(at);
            let color = match g.usize_in(0..16) {
                0..=5 => clear,
                6..=10 => Color::Black,
                11..=13 => alloc,
                14 => Color::Gray,
                _ => Color::Free,
            };
            let age = g.usize_in(0..5) as u8;
            if (1..=64).contains(&to_mark) && g.bool() {
                // Mark cases: end exactly on the mark, or straddle it
                // (by a little, or by a giant).
                let granules = match g.usize_in(0..3) {
                    0 => to_mark,
                    1 => to_mark + g.usize_in(1..40),
                    _ => to_mark + g.usize_in(4_000..12_000),
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

    fn sweep_counters(c: &CycleStats) -> [u64; 5] {
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
    /// generated tables: all three modes × both toggle states.  Colors,
    /// ages, the five sweep counters and the free lists (chunk for
    /// chunk) must agree.
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
                let mut expect = CycleStats::default();
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
                // that too).
                let fuzz = image.inflight * GRANULE as u64;
                let alloc_fuzz = if mode == 2 { fuzz } else { 0 };
                let ctx = format!("mode={mode} toggled={toggled} len={len}");

                let (swept, mut cx) = build(modes[mode]());
                image.install(&swept);
                swept.sweep(&mut cx);
                let got = sweep_counters(&cx.stats);
                assert_eq!(got[..3], expect[..3], "{ctx}");
                assert_eq!(got[3], expect[3] + fuzz, "{ctx}");
                assert_eq!(got[4], expect[4] + alloc_fuzz, "{ctx}");
                assert_eq!(table_bytes(&swept, len), expect_tables, "{ctx}");
                assert_eq!(
                    swept.heap.free_list_snapshot(),
                    oracle.heap.free_list_snapshot()
                );
            }
        });
    }
}
