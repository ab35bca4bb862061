//! # otf-bench — the figure harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Figures 7–23).  The one binary, `figures`, runs the figures named on
//! its command line (all of them by default) and prints them as one
//! Markdown document on stdout; `figures > EXPERIMENTS_RESULTS.md` is how
//! the repo's results file is made.
//!
//! It accepts `--scale X --reps N --copies N --seed N` and `--quick` (a
//! fast smoke configuration); see [`Options`].

pub mod figures;
pub mod measure;
pub mod table;

pub use measure::Options;
