//! Compare the three collector variants on one of the paper's benchmarks.
//!
//! Usage:
//! `cargo run --release --example compare_collectors -- [workload] [scale]`
//! where `workload` is one of `anagram`, `mtrt`, `compress`, `db`, `jess`,
//! `javac`, `jack` (default `anagram`) and `scale` is a work multiplier
//! (default `0.5`).
//!
//! Prints the paper's headline comparison — elapsed time and GC activity
//! under the non-generational DLG baseline, the simple generational
//! collector, and the aging variant.

use otf_gengc::gc::{CycleKind, CycleStats, GcConfig};
use otf_gengc::workloads::driver::{percent_improvement, run_workload};
use otf_gengc::workloads::{Anagram, Compress, Db, Jack, Javac, Jess, RayTracer, Workload};

fn pick_workload(name: &str, scale: f64) -> Box<dyn Workload> {
    match name {
        "anagram" => Box::new(Anagram::new().scaled(scale)),
        "mtrt" => Box::new(RayTracer::mtrt().scaled(scale)),
        "compress" => Box::new(Compress::new().scaled(scale)),
        "db" => Box::new(Db::new().scaled(scale)),
        "jess" => Box::new(Jess::new().scaled(scale)),
        "javac" => Box::new(Javac::new().scaled(scale)),
        "jack" => Box::new(Jack::new().scaled(scale)),
        other => panic!("unknown workload {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("anagram");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let w = pick_workload(name, scale);

    println!("workload: {} (scale {scale})\n", w.name());
    println!(
        "{:<26} {:>10} {:>7} {:>9} {:>7} {:>9}",
        "collector", "elapsed", "GC %", "partials", "fulls", "vs nogen"
    );

    let mut nogen_elapsed = None;
    for (label, cfg) in [
        ("non-generational (DLG)", GcConfig::non_generational()),
        ("generational (simple)", GcConfig::generational()),
        ("generational (aging, 4)", GcConfig::aging(4)),
    ] {
        let r = run_workload(w.as_ref(), cfg, 42);
        let improvement = match nogen_elapsed {
            None => {
                nogen_elapsed = Some(r.elapsed);
                "—".to_string()
            }
            Some(base) => format!("{:+.1}%", percent_improvement(base, r.elapsed)),
        };
        println!(
            "{:<26} {:>10.3?} {:>6.1}% {:>9} {:>7} {:>9}",
            label,
            r.elapsed,
            r.percent_gc_active(),
            r.stats.partial_count(),
            r.stats.full_count(),
            improvement,
        );
        let cycle_ms = |c: &CycleStats| c.duration.as_secs_f64() * 1e3;
        if let Some(ms) = r.stats.mean_over(CycleKind::Partial, cycle_ms) {
            println!("{:<26}   avg partial {ms:.2} ms", "");
        }
        if let Some(ms) = r.stats.mean_over(CycleKind::Full, cycle_ms) {
            println!("{:<26}   avg full    {ms:.2} ms", "");
        }
    }
}
