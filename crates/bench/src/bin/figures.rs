//! Regenerates the figures of the paper's evaluation (§8, Figures 7–23)
//! and prints them as one Markdown document on stdout; `[run]` progress
//! goes to stderr.  `figures --help` lists the figure numbers and flags.

use std::time::Instant;

use otf_bench::figures::{self, Ctx};
use otf_bench::measure::aging_thresholds;
use otf_bench::table::Table;
use otf_bench::Options;

/// The registry: figure number to the function that regenerates it.
fn figure(ctx: &Ctx, n: u8) -> Table {
    match n {
        7 => figures::fig07(ctx),
        8 => figures::fig08(ctx),
        9 => figures::fig09(ctx),
        10 => figures::fig10(ctx),
        11 => figures::fig11(ctx),
        12 => figures::fig12(ctx),
        13 => figures::fig13(ctx),
        14 => figures::fig14(ctx),
        15 => figures::fig15(ctx),
        16 => figures::fig16(ctx),
        17 => figures::fig17(ctx),
        18 | 19 => figures::fig18_19(ctx, aging_thresholds(n), &n.to_string()),
        20 => figures::fig20(ctx),
        21 => figures::fig21(ctx),
        22 => figures::fig22(ctx),
        23 => figures::fig23(ctx),
        _ => unreachable!("Options::parse selects only figures 7-23"),
    }
}

fn main() {
    let (o, selected) = Options::from_args();
    let started = Instant::now();
    println!("# Measured results (generated by `figures`)\n");
    println!(
        "Options: scale {:.2}, {} reps (median), {} concurrent copies, seed {}.",
        o.scale, o.reps, o.copies, o.seed
    );
    println!(
        "Figures: {selected:?}. Host: {} CPU(s).\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // One context for every figure, so a run two figures share is measured once.
    let ctx = Ctx::new(o);
    for &n in &selected {
        figure(&ctx, n).print();
    }
    println!("Total harness time: {:?}.", started.elapsed());
}
