//! One function per figure of the paper's evaluation section (§8).
//!
//! Each function returns a rendered [`Table`] whose rows mirror the
//! corresponding figure.  Measurements are memoized inside a [`Ctx`] so
//! that `figall` (and figures sharing a baseline) never repeat a run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Duration;

use otf_gc::{CycleKind, CycleStats, GcConfig, GcStats};
use otf_workloads::driver::{percent_improvement, RunResult};
use otf_workloads::{suite, Anagram, RayTracer, Workload};

use crate::measure::{median_copies, median_run, Options};
use crate::table::{f0_opt, f1, f1_opt, pct, Table};

/// Memoizing measurement context shared by all figures.
#[derive(Debug)]
pub struct Ctx {
    /// Harness options.
    pub o: Options,
    runs: RefCell<HashMap<String, RunResult>>,
    copy_times: RefCell<HashMap<String, Duration>>,
}

impl Ctx {
    /// Creates a context.
    pub fn new(o: Options) -> Ctx {
        Ctx {
            o,
            runs: RefCell::new(HashMap::new()),
            copy_times: RefCell::new(HashMap::new()),
        }
    }

    fn cfg_key(cfg: &GcConfig) -> String {
        format!(
            "{:?}-y{}-c{}",
            cfg.mode,
            cfg.young_size >> 20,
            cfg.card_size
        )
    }

    /// Median single-copy run of `w` under `cfg`, memoized by
    /// `(label, cfg)`.
    pub fn run(&self, label: &str, w: &dyn Workload, cfg: GcConfig) -> RunResult {
        let key = format!("{label}|{}", Self::cfg_key(&cfg));
        if let Some(r) = self.runs.borrow().get(&key) {
            return r.clone();
        }
        eprintln!("  [run] {key}");
        let r = median_run(w, cfg, &self.o);
        self.runs.borrow_mut().insert(key, r.clone());
        r
    }

    /// Median concurrent-copies elapsed time (multiprocessor metric),
    /// memoized.
    pub fn copies(&self, label: &str, w: &dyn Workload, cfg: GcConfig) -> Duration {
        let key = format!("{label}|copies|{}", Self::cfg_key(&cfg));
        if let Some(t) = self.copy_times.borrow().get(&key) {
            return *t;
        }
        eprintln!("  [run x{}] {key}", self.o.copies);
        let t = median_copies(w, cfg, &self.o);
        self.copy_times.borrow_mut().insert(key, t);
        t
    }

    /// `(multi, uni)` improvement of `gen_cfg` over `nogen_cfg` on `w`.
    pub fn improvements(
        &self,
        label: &str,
        w: &dyn Workload,
        gen_cfg: GcConfig,
        nogen_cfg: GcConfig,
    ) -> (f64, f64) {
        let multi_n = self.copies(label, w, nogen_cfg);
        let multi_g = self.copies(label, w, gen_cfg);
        let uni_n = self.run(label, w, nogen_cfg).elapsed;
        let uni_g = self.run(label, w, gen_cfg).elapsed;
        (
            percent_improvement(multi_n, multi_g),
            percent_improvement(uni_n, uni_g),
        )
    }

    /// Uniprocessor-only improvement.
    pub fn uni_improvement(
        &self,
        label: &str,
        w: &dyn Workload,
        gen_cfg: GcConfig,
        nogen_cfg: GcConfig,
    ) -> f64 {
        let n = self.run(label, w, nogen_cfg).elapsed;
        let g = self.run(label, w, gen_cfg).elapsed;
        percent_improvement(n, g)
    }
}

fn gen_cfg() -> GcConfig {
    GcConfig::generational()
}

fn nogen_cfg() -> GcConfig {
    GcConfig::non_generational()
}

/// Figure 7: percentage improvement (elapsed time) for the multithreaded
/// Ray Tracer with 2–10 application threads.
pub fn fig07(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 7: % improvement for multithreaded Ray Tracer (2-10 threads)");
    t.header(["No. of threads", "2", "4", "6", "8", "10"]);
    let mut row = vec!["Improvement".to_string()];
    for threads in [2usize, 4, 6, 8, 10] {
        let w = RayTracer::multithreaded(threads).scaled(ctx.o.scale);
        let label = format!("mtrt-t{threads}");
        let imp = ctx.uni_improvement(&label, &w, gen_cfg(), nogen_cfg());
        row.push(format!("{}%", pct(imp)));
    }
    t.row(row);
    t
}

/// Figure 8: percentage improvement for Anagram (multiprocessor proxy and
/// uniprocessor).
pub fn fig08(ctx: &Ctx) -> Table {
    let w = Anagram::new().scaled(ctx.o.scale);
    let (multi, uni) = ctx.improvements("anagram", &w, gen_cfg(), nogen_cfg());
    let mut t = Table::new("Figure 8: % improvement for Anagram");
    t.header(["Benchmark", "Multiprocessor", "Uniprocessor"]);
    t.row([
        "Anagram".into(),
        format!("{}%", pct(multi)),
        format!("{}%", pct(uni)),
    ]);
    t
}

/// Figure 9: percentage improvement for the SPECjvm benchmarks.
pub fn fig09(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 9: % improvement for SPECjvm benchmarks");
    t.header(["Benchmark", "Multiprocessor", "Uniprocessor"]);
    for w in suite(ctx.o.scale) {
        if w.name() == "anagram" {
            continue; // Figure 8's subject
        }
        let (multi, uni) = ctx.improvements(w.name(), w.as_ref(), gen_cfg(), nogen_cfg());
        t.row([
            w.name().to_string(),
            format!("{}%", pct(multi)),
            format!("{}%", pct(uni)),
        ]);
    }
    t
}

fn stats_pair(ctx: &Ctx, w: &dyn Workload) -> (GcStats, GcStats, RunResult, RunResult) {
    let g = ctx.run(w.name(), w, gen_cfg());
    let n = ctx.run(w.name(), w, nogen_cfg());
    (g.stats.clone(), n.stats.clone(), g, n)
}

/// Figure 10: use of garbage collection in the applications.
pub fn fig10(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 10: use of garbage collection in application");
    t.header([
        "Benchmark",
        "% time GC active",
        "No. partial GC",
        "No. full GC",
        "% time GC w/o gen",
        "No. GC w/o gen",
    ]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, g, n) = stats_pair(ctx, w.as_ref());
        t.row([
            w.name().to_string(),
            format!("{}%", f1(g.percent_gc_active())),
            gs.partial_count().to_string(),
            gs.full_count().to_string(),
            format!("{}%", f1(n.percent_gc_active())),
            ns.cycles.len().to_string(),
        ]);
    }
    t
}

/// Figure 11: generational characterization, part 1 (objects scanned).
pub fn fig11(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 11: generational characterization - objects scanned");
    t.header([
        "Benchmark",
        "Avg old objs scanned (inter-gen)",
        "Avg objs scanned partial",
        "Avg objs scanned full",
        "Avg objs scanned w/o gen",
    ]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, _, _) = stats_pair(ctx, w.as_ref());
        let traced = |c: &CycleStats| c.objects_traced as f64;
        t.row([
            w.name().to_string(),
            f0_opt(gs.mean_over(CycleKind::Partial, |c| c.intergen_objects as f64)),
            f0_opt(gs.mean_over(CycleKind::Partial, traced)),
            f0_opt(gs.mean_over(CycleKind::Full, traced)),
            f0_opt(ns.mean_over(CycleKind::Full, traced)),
        ]);
    }
    t
}

/// Figure 12: generational characterization, part 2 (percent freed).
pub fn fig12(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 12: generational characterization - percent freed");
    t.header([
        "Benchmark",
        "% bytes freed partial",
        "% objs freed partial",
        "% objs freed full",
        "% objs freed w/o gen",
    ]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, _, _) = stats_pair(ctx, w.as_ref());
        let bytes = CycleStats::percent_bytes_freed;
        let objects = CycleStats::percent_objects_freed;
        t.row([
            w.name().to_string(),
            format!("{}%", f1_opt(gs.mean_over(CycleKind::Partial, bytes))),
            format!("{}%", f1_opt(gs.mean_over(CycleKind::Partial, objects))),
            format!("{}%", f1_opt(gs.mean_over(CycleKind::Full, objects))),
            format!("{}%", f1_opt(ns.mean_over(CycleKind::Full, objects))),
        ]);
    }
    t
}

/// Figure 13: elapsed time of collection cycles.
pub fn fig13(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 13: elapsed time of collection cycles (ms)");
    t.header([
        "Benchmark",
        "Avg time partial GC (ms)",
        "Avg time full GC (ms)",
        "Avg time GC w/o gen (ms)",
    ]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, _, _) = stats_pair(ctx, w.as_ref());
        let ms = |c: &CycleStats| c.duration.as_secs_f64() * 1e3;
        t.row([
            w.name().to_string(),
            f1_opt(gs.mean_over(CycleKind::Partial, ms)),
            f1_opt(gs.mean_over(CycleKind::Full, ms)),
            f1_opt(ns.mean_over(CycleKind::Full, ms)),
        ]);
    }
    t
}

/// Figure 14: average gain from collections.
pub fn fig14(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 14: average gain from collections");
    t.header([
        "Benchmark",
        "Avg objs freed partial",
        "Avg objs freed full",
        "Avg objs freed w/o gen",
        "Avg bytes freed partial",
        "Avg bytes freed full",
        "Avg bytes freed w/o gen",
    ]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, _, _) = stats_pair(ctx, w.as_ref());
        let objects = |c: &CycleStats| c.objects_freed as f64;
        let bytes = |c: &CycleStats| c.bytes_freed as f64;
        t.row([
            w.name().to_string(),
            f0_opt(gs.mean_over(CycleKind::Partial, objects)),
            f0_opt(gs.mean_over(CycleKind::Full, objects)),
            f0_opt(ns.mean_over(CycleKind::Full, objects)),
            f0_opt(gs.mean_over(CycleKind::Partial, bytes)),
            f0_opt(gs.mean_over(CycleKind::Full, bytes)),
            f0_opt(ns.mean_over(CycleKind::Full, bytes)),
        ]);
    }
    t
}

/// Figure 15: average number of pages touched by a collection.
pub fn fig15(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 15: average no. of pages touched by a GC");
    t.header(["Benchmark", "Partial", "Full", "w/o generations"]);
    for w in suite(ctx.o.scale) {
        let (gs, ns, _, _) = stats_pair(ctx, w.as_ref());
        let pages = |c: &CycleStats| c.pages_touched as f64;
        t.row([
            w.name().to_string(),
            f0_opt(gs.mean_over(CycleKind::Partial, pages)),
            f0_opt(gs.mean_over(CycleKind::Full, pages)),
            f0_opt(ns.mean_over(CycleKind::Full, pages)),
        ]);
    }
    t
}

const YOUNG_SIZES_MB: [usize; 4] = [1, 2, 4, 8];

/// Figure 16: young-generation size tuning for the multithreaded Ray
/// Tracer (block and object marking × 1/2/4/8 MB young).
pub fn fig16(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "Figure 16: tuning young-generation size - % improvement, multithreaded Ray Tracer",
    );
    t.header(["Configuration", "2", "4", "6", "8", "10"]);
    for (mark, card) in [("Block marking", 4096usize), ("Object marking", 16)] {
        for young_mb in YOUNG_SIZES_MB {
            let mut row = vec![format!("{mark} with {young_mb}m young generation")];
            for threads in [2usize, 4, 6, 8, 10] {
                let w = RayTracer::multithreaded(threads).scaled(ctx.o.scale);
                let label = format!("mtrt-t{threads}");
                let cfg = gen_cfg()
                    .with_card_size(card)
                    .with_young_size(young_mb << 20);
                let imp = ctx.uni_improvement(&label, &w, cfg, nogen_cfg());
                row.push(pct(imp));
            }
            t.row(row);
        }
    }
    t
}

/// Figure 17: young-generation size tuning for the SPECjvm benchmarks.
pub fn fig17(ctx: &Ctx) -> Table {
    let mut t =
        Table::new("Figure 17: tuning young-generation size - % improvement, SPECjvm benchmarks");
    let mut header = vec!["Benchmark".to_string()];
    for mark in ["block", "object"] {
        for y in YOUNG_SIZES_MB {
            header.push(format!("{mark} {y}m"));
        }
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for card in [4096usize, 16] {
            for young_mb in YOUNG_SIZES_MB {
                let cfg = gen_cfg()
                    .with_card_size(card)
                    .with_young_size(young_mb << 20);
                let imp = ctx.uni_improvement(w.name(), w.as_ref(), cfg, nogen_cfg());
                row.push(pct(imp));
            }
        }
        t.row(row);
    }
    t
}

/// Figures 18 and 19: the aging mechanism versus the non-generational
/// collector, for tenuring thresholds in `thresholds` and young sizes
/// 1/2/4/8 MB (object marking).
pub fn fig18_19(ctx: &Ctx, thresholds: [u8; 2], figure: &str) -> Table {
    let mut t = Table::new(format!(
        "Figure {figure}: % improvement of aging over non-generational (object marking)"
    ));
    let mut header = vec!["Benchmark".to_string()];
    for th in thresholds {
        for y in YOUNG_SIZES_MB {
            header.push(format!("age{th} {y}m"));
        }
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for th in thresholds {
            for young_mb in YOUNG_SIZES_MB {
                let cfg = GcConfig::aging(th).with_young_size(young_mb << 20);
                let imp = ctx.uni_improvement(w.name(), w.as_ref(), cfg, nogen_cfg());
                row.push(pct(imp));
            }
        }
        t.row(row);
    }
    t
}

/// Figure 20: the cost of the aging mechanism itself — aging with
/// threshold 2 versus the simple promotion method.
pub fn fig20(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 20: % improvement of aging (threshold 2) over simple promotion");
    let mut header = vec!["Benchmark".to_string()];
    for y in YOUNG_SIZES_MB {
        header.push(format!("{y}m"));
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for young_mb in YOUNG_SIZES_MB {
            let aging = GcConfig::aging(2).with_young_size(young_mb << 20);
            let simple = gen_cfg().with_young_size(young_mb << 20);
            let imp = ctx.uni_improvement(w.name(), w.as_ref(), aging, simple);
            row.push(pct(imp));
        }
        t.row(row);
    }
    t
}

const CARD_SIZES: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Figure 21: percentage improvement for the various card sizes (4 MB
/// young generation).
pub fn fig21(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 21: % improvement for the various card sizes (4m young)");
    let mut header = vec!["Benchmark".to_string()];
    for c in CARD_SIZES {
        header.push(format!("{c}B"));
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for card in CARD_SIZES {
            let cfg = gen_cfg().with_card_size(card);
            let imp = ctx.uni_improvement(w.name(), w.as_ref(), cfg, nogen_cfg());
            row.push(pct(imp));
        }
        t.row(row);
    }
    t
}

/// Figure 22: percentage of dirty cards (of cards in use) per card size.
pub fn fig22(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 22: card size - % of dirty cards from allocated cards");
    let mut header = vec!["Benchmark".to_string()];
    for c in CARD_SIZES {
        header.push(format!("{c}B"));
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for card in CARD_SIZES {
            let cfg = gen_cfg().with_card_size(card);
            let r = ctx.run(w.name(), w.as_ref(), cfg);
            row.push(f1_opt(
                r.stats
                    .mean_over(CycleKind::Partial, CycleStats::percent_dirty_cards),
            ));
        }
        t.row(row);
    }
    t
}

/// Figure 23: area scanned for dirty cards (KB per partial collection).
pub fn fig23(ctx: &Ctx) -> Table {
    let mut t = Table::new("Figure 23: card size - area scanned for dirty cards (KB)");
    let mut header = vec!["Benchmark".to_string()];
    for c in CARD_SIZES {
        header.push(format!("{c}B"));
    }
    t.header(header);
    for w in suite(ctx.o.scale) {
        let mut row = vec![w.name().to_string()];
        for card in CARD_SIZES {
            let cfg = gen_cfg().with_card_size(card);
            let r = ctx.run(w.name(), w.as_ref(), cfg);
            row.push(f0_opt(
                r.stats
                    .mean_over(CycleKind::Partial, |c| c.intergen_bytes as f64)
                    .map(|b| b / 1024.0),
            ));
        }
        t.row(row);
    }
    t
}
