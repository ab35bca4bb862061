//! Cycle inspector: runs a benchmark under a chosen collector variant and
//! prints a per-phase breakdown of every collection cycle — the tool used
//! to calibrate this reproduction against the paper's Figures 10–15.
//!
//! Usage:
//! `cargo run --release --example cycle_inspector -- [workload] [gen|nogen|aging] [scale]`

use otf_gengc::gc::{CycleKind, CycleStats, GcConfig};
use otf_gengc::workloads::driver::run_workload;
use otf_gengc::workloads::{Anagram, Compress, Db, Jack, Javac, Jess, RayTracer, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("jess");
    let variant = args.get(2).map(String::as_str).unwrap_or("gen");
    let scale: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.5);

    let w: Box<dyn Workload> = match name {
        "anagram" => Box::new(Anagram::new().scaled(scale)),
        "mtrt" => Box::new(RayTracer::mtrt().scaled(scale)),
        "compress" => Box::new(Compress::new().scaled(scale)),
        "db" => Box::new(Db::new().scaled(scale)),
        "jess" => Box::new(Jess::new().scaled(scale)),
        "javac" => Box::new(Javac::new().scaled(scale)),
        "jack" => Box::new(Jack::new().scaled(scale)),
        other => panic!("unknown workload {other}"),
    };
    let cfg = match variant {
        "gen" => GcConfig::generational(),
        "nogen" => GcConfig::non_generational(),
        "aging" => GcConfig::aging(4),
        other => panic!("unknown variant {other} (gen|nogen|aging)"),
    };

    let r = run_workload(w.as_ref(), cfg, 42);
    println!(
        "{} under {variant}: elapsed {:?}, GC active {:.1}%, allocated {} MB\n",
        w.name(),
        r.elapsed,
        r.percent_gc_active(),
        r.stats.bytes_allocated >> 20
    );
    println!(
        "{:>3} {:>7} {:>8} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8} {:>7} {:>7}",
        "#",
        "kind",
        "dur ms",
        "init",
        "hshk",
        "cards",
        "sweep",
        "traced",
        "igen",
        "freed",
        "usedMB",
        "pages"
    );
    for (i, c) in r.stats.cycles.iter().enumerate() {
        println!(
            "{:>3} {:>7} {:>8.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>8} {:>8} {:>8} {:>7.1} {:>7}",
            i,
            c.kind.to_string(),
            c.duration.as_secs_f64() * 1e3,
            c.phases.init.as_secs_f64() * 1e3,
            c.phases.handshakes.as_secs_f64() * 1e3,
            c.phases.cards.as_secs_f64() * 1e3,
            c.phases.sweep.as_secs_f64() * 1e3,
            c.objects_traced,
            c.intergen_objects,
            c.objects_freed,
            c.used_before as f64 / 1048576.0,
            c.pages_touched,
        );
    }
    for kind in [CycleKind::Partial, CycleKind::Full] {
        let mean = |f: fn(&CycleStats) -> f64| r.stats.mean_over(kind, f);
        if let Some(ms) = mean(|c| c.duration.as_secs_f64() * 1e3) {
            println!(
                "\navg {kind}: {ms:.2} ms, {:.0} objects traced, {:.0} freed, {:.0} pages",
                mean(|c| c.objects_traced as f64).unwrap_or(0.0),
                mean(|c| c.objects_freed as f64).unwrap_or(0.0),
                mean(|c| c.pages_touched as f64).unwrap_or(0.0)
            );
        }
    }
}
