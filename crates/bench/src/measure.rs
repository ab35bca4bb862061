//! Repeated-measurement helpers: every figure datum is the median of
//! several runs (the paper repeated each parallel run 8 times; we default
//! to 3 and expose `--reps`).

use std::time::Duration;

use otf_gc::GcConfig;
use otf_workloads::driver::{self, RunResult};
use otf_workloads::Workload;

/// The paper's evaluation figures (§8) the harness regenerates, in paper
/// order.
const FIGURES: std::ops::RangeInclusive<u8> = 7..=23;

/// The two tenuring thresholds that Figure 18 (`[4, 6]`) or Figure 19
/// (`[8, 10]`) compares.
pub fn aging_thresholds(figure: u8) -> [u8; 2] {
    if figure == 18 {
        [4, 6]
    } else {
        [8, 10]
    }
}

/// Harness options shared by all figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// Workload scale factor (1.0 = full size).
    pub scale: f64,
    /// Repetitions per measurement (median taken).
    pub reps: usize,
    /// Concurrent application copies for the "multiprocessor" metric
    /// (the paper ran 4 on its 4-way machine).
    pub copies: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1.0,
            reps: 3,
            copies: 4,
            seed: 42,
        }
    }
}

/// Result of parsing the `figures` command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Parsed {
    /// Run these figures, in this order, with these options.
    Run(Options, Vec<u8>),
    /// `--help`/`-h` was given: print usage and exit successfully.
    Help,
}

impl Options {
    /// Usage text of the `figures` binary.
    pub const USAGE: &'static str = "\
Usage: figures [FIGURE...] [OPTIONS]
Prints the selected figures as one document on stdout.
  FIGURE       7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23, run in
               the order given (default: every one, in this order)
Options:
  --scale X    workload scale factor (1.0 = full size; default 1.0)
  --reps N     repetitions per measurement, median taken (default 3)
  --copies N   concurrent application copies for the multiprocessor
               metric (default 4)
  --seed N     base RNG seed (default 42)
  --quick      smoke configuration (= --scale 0.15 --reps 1 --copies 2)
  --help, -h   print this help and exit";

    /// Parses harness options and figure numbers from an argument list
    /// (the program name must already be stripped).  Never panics:
    /// unknown flags, malformed or missing values and arguments that are
    /// not a figure number produce a warning on stderr and are ignored,
    /// so a run always completes with sane options; `--help`/`-h` yields
    /// [`Parsed::Help`].  With no positional argument every figure is
    /// selected; with only unknown ones, none is.
    pub fn parse<I, S>(args: I) -> Parsed
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        fn take<T: std::str::FromStr>(flag: &str, value: Option<&str>, what: &str, into: &mut T) {
            match value.map(str::parse) {
                Some(Ok(v)) => *into = v,
                Some(Err(_)) => {
                    eprintln!("warning: {flag} takes {what}; keeping the default")
                }
                None => eprintln!("warning: {flag} is missing its {what}; keeping the default"),
            }
        }

        let mut o = Options::default();
        let mut selected = Vec::new();
        let mut positional = false;
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            // A flag's value is the next argument unless it is itself a flag.
            let mut value = || args.next_if(|a| !a.as_ref().starts_with("--"));
            match arg.as_ref() {
                "--help" | "-h" => return Parsed::Help,
                "--quick" => {
                    o.scale = 0.15;
                    o.reps = 1;
                    o.copies = 2;
                }
                "--scale" => take(
                    "--scale",
                    value().as_ref().map(|s| s.as_ref()),
                    "a float",
                    &mut o.scale,
                ),
                "--reps" => take(
                    "--reps",
                    value().as_ref().map(|s| s.as_ref()),
                    "an integer",
                    &mut o.reps,
                ),
                "--copies" => take(
                    "--copies",
                    value().as_ref().map(|s| s.as_ref()),
                    "an integer",
                    &mut o.copies,
                ),
                "--seed" => take(
                    "--seed",
                    value().as_ref().map(|s| s.as_ref()),
                    "an integer",
                    &mut o.seed,
                ),
                other if other.starts_with('-') => {
                    eprintln!("warning: ignoring unknown argument {other:?} (try --help)")
                }
                other => {
                    positional = true;
                    match other.parse() {
                        Ok(n) if FIGURES.contains(&n) => selected.push(n),
                        _ => eprintln!("warning: ignoring {other:?}: not a figure number (7-23)"),
                    }
                }
            }
        }
        if !positional {
            selected.extend(FIGURES);
        }
        Parsed::Run(o, selected)
    }

    /// Parses `std::env::args()`; on `--help` prints usage and exits 0.
    pub fn from_args() -> (Options, Vec<u8>) {
        match Options::parse(std::env::args().skip(1)) {
            Parsed::Run(o, selected) => (o, selected),
            Parsed::Help => {
                println!("{}", Options::USAGE);
                std::process::exit(0);
            }
        }
    }
}

/// Fails a figure run loudly when its collector panicked: the supervisor
/// would have recovered, but the recovery pause would sit silently in the
/// reported numbers.
fn assert_no_restarts(w: &dyn Workload, r: &RunResult) {
    assert_eq!(
        r.stats.collector_restarts,
        0,
        "collector panicked during a measured {} run; its numbers include a recovery pause",
        w.name()
    );
}

/// Runs one copy of `workload` `reps` times; returns the run with the
/// median elapsed time.
///
/// # Panics
///
/// Panics if any run's collector restarted after a panic.
pub fn median_run(w: &dyn Workload, cfg: GcConfig, o: &Options) -> RunResult {
    let mut runs: Vec<RunResult> = (0..o.reps.max(1))
        .map(|r| driver::run_workload(w, cfg, o.seed + r as u64))
        .inspect(|run| assert_no_restarts(w, run))
        .collect();
    runs.sort_by_key(|r| r.elapsed);
    runs.swap_remove(runs.len() / 2)
}

/// Runs `copies` concurrent copies `reps` times; returns the median batch
/// elapsed time (the paper's multiprocessor measurement).
///
/// # Panics
///
/// Panics if any copy's collector restarted after a panic.
pub fn median_copies(w: &dyn Workload, cfg: GcConfig, o: &Options) -> Duration {
    let mut times: Vec<Duration> = (0..o.reps.max(1))
        .map(|r| {
            let (elapsed, runs) = driver::run_copies(w, cfg, o.seed + r as u64, o.copies);
            runs.iter().for_each(|run| assert_no_restarts(w, run));
            elapsed
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Options::parse(args.iter().copied())
    }

    #[test]
    fn defaults_with_no_args() {
        let Parsed::Run(o, _) = parse(&[]) else {
            panic!("expected Run")
        };
        assert_eq!((o.scale, o.reps, o.copies, o.seed), (1.0, 3, 4, 42));
    }

    #[test]
    fn all_flags_parse() {
        let Parsed::Run(o, _) = parse(&[
            "--scale", "0.5", "--reps", "7", "--copies", "2", "--seed", "9",
        ]) else {
            panic!("expected Run")
        };
        assert_eq!((o.scale, o.reps, o.copies, o.seed), (0.5, 7, 2, 9));
    }

    #[test]
    fn quick_preset() {
        let Parsed::Run(o, _) = parse(&["--quick"]) else {
            panic!("expected Run")
        };
        assert_eq!((o.scale, o.reps, o.copies), (0.15, 1, 2));
    }

    #[test]
    fn help_short_and_long() {
        assert_eq!(parse(&["--help"]), Parsed::Help);
        assert_eq!(parse(&["-h"]), Parsed::Help);
        assert_eq!(parse(&["--reps", "2", "--help"]), Parsed::Help);
    }

    #[test]
    fn unknown_flags_are_ignored_not_fatal() {
        let Parsed::Run(o, _) = parse(&["--bogus", "--reps", "5", "also-bogus"]) else {
            panic!("expected Run")
        };
        assert_eq!(o.reps, 5);
    }

    fn selected(args: &[&str]) -> Vec<u8> {
        let Parsed::Run(_, figures) = parse(args) else {
            panic!("expected Run")
        };
        figures
    }

    #[test]
    fn no_figure_selects_all_in_paper_order() {
        assert_eq!(selected(&["--reps", "1"]), (7..=23).collect::<Vec<u8>>());
    }

    #[test]
    fn figures_run_in_the_order_given() {
        assert_eq!(selected(&["13", "--scale", "0.1", "7"]), [13, 7]);
    }

    #[test]
    fn aging_figures_map_to_their_thresholds() {
        assert_eq!(selected(&["18", "19"]), [18, 19]);
        assert_eq!(aging_thresholds(18), [4, 6]);
        assert_eq!(aging_thresholds(19), [8, 10]);
    }

    #[test]
    fn unknown_figures_select_nothing() {
        assert_eq!(selected(&["99"]), []);
        assert_eq!(selected(&["foo", "6", "24"]), []);
        assert_eq!(selected(&["99", "9"]), [9]);
    }

    #[test]
    fn malformed_and_missing_values_keep_defaults() {
        let Parsed::Run(o, _) = parse(&["--scale", "not-a-float", "--reps"]) else {
            panic!("expected Run")
        };
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.reps, 3);
        // A flag directly following another flag is not consumed as its value.
        let Parsed::Run(o, _) = parse(&["--reps", "--seed", "5"]) else {
            panic!("expected Run")
        };
        assert_eq!(o.reps, 3);
        assert_eq!(o.seed, 5);
    }
}
