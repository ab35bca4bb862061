//! The command line.  The driver's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; everything
//! else is for people.

use std::path::PathBuf;

use otf_gc::{GcConfig, Promotion};

use crate::rep::WorkloadKind;

pub const USAGE: &str = "\
usage: benchmark --workload <anagram|jess|db|mtrt> [options]
       benchmark repeat [options]

  --workload NAME   the workload to run
  --seed N          workload seed (default 1)
  --seconds S       how long to measure (default 30): repetitions are
                    added, gen and nogen in turn, until the time is used
  --trace 0|1       0 (default): end-to-end metrics, tracing off
                    1: per-layer metrics from a traced run and the
                    probes; writes <out>/<workload>.trace.json
  --quick           smoke run: workload scale 0.02 instead of 1.0, one
                    repetition per mode whatever --seconds, briefest probes
  --out DIR         where the trace file goes (default benchmark/out)
  --spec FILE       BENCHMARK.json, for repeat's bounds (default
                    BENCHMARK.json)

  repeat            run every workload end to end, twice over, and fail
                    if the two disagree on any end-to-end metric by more
                    than its bound

exploration (stamps the output \"baseline\": false):
  --gc-threads N  --shards N  --lazy  --overlap  --mode aging";

/// Knobs that leave the baseline (ROADMAP item 3's axes).  The commands
/// in BENCHMARK.json never pass them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Explore {
    pub gc_threads: Option<usize>,
    pub shards: Option<usize>,
    pub lazy: bool,
    pub overlap: bool,
    pub aging: bool,
}

impl Explore {
    pub fn is_baseline(&self) -> bool {
        *self == Explore::default()
    }

    /// `cfg` with the knobs applied, through its own builders.
    pub fn apply(&self, mut cfg: GcConfig) -> GcConfig {
        if let Some(n) = self.gc_threads {
            cfg = cfg.with_gc_threads(n);
        }
        if let Some(n) = self.shards {
            cfg = cfg.with_alloc_shards(n);
        }
        if self.lazy {
            cfg = cfg.with_lazy_sweep(true);
        }
        if self.overlap {
            cfg = cfg.with_overlap_phases(true);
        }
        if self.aging && cfg.is_generational() {
            cfg = cfg.with_promotion(Promotion::Aging { threshold: 4 });
        }
        cfg
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// `repeat` instead of one workload.
    pub repeat: bool,
    pub workload: Option<WorkloadKind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub spec: PathBuf,
    pub explore: Explore,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            repeat: false,
            workload: None,
            seed: 1,
            seconds: 30.0,
            trace: false,
            quick: false,
            out: PathBuf::from("benchmark/out"),
            spec: PathBuf::from("BENCHMARK.json"),
            explore: Explore::default(),
        }
    }
}

impl Options {
    /// The workloads' scale: the paper-sized 1.0, or a fiftieth of it
    /// for the smoke run.
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.02
        } else {
            1.0
        }
    }

    /// Parses the arguments after the program name.  Anything not
    /// understood is an error: a mistyped flag must not silently measure
    /// something else.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        let mut o = Options::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "repeat" => o.repeat = true,
                "--workload" => {
                    let name: String = value("--workload", args.next())?;
                    o.workload = Some(
                        WorkloadKind::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => o.seed = value("--seed", args.next())?,
                "--seconds" => o.seconds = value("--seconds", args.next())?,
                "--trace" => {
                    o.trace = match value::<u8>("--trace", args.next())? {
                        0 => false,
                        1 => true,
                        n => return Err(format!("--trace takes 0 or 1, not {n}")),
                    }
                }
                "--quick" => o.quick = true,
                "--out" => o.out = value("--out", args.next())?,
                "--spec" => o.spec = value("--spec", args.next())?,
                "--gc-threads" => o.explore.gc_threads = Some(value("--gc-threads", args.next())?),
                "--shards" => o.explore.shards = Some(value("--shards", args.next())?),
                "--lazy" => o.explore.lazy = true,
                "--overlap" => o.explore.overlap = true,
                "--mode" => match value::<String>("--mode", args.next())?.as_str() {
                    "aging" => o.explore.aging = true,
                    other => return Err(format!("--mode takes aging, not {other:?}")),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(o.seconds.is_finite() && o.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        if o.repeat == o.workload.is_some() {
            return Err("give either --workload NAME or repeat".into());
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_form_parses() {
        let o = parse(&[
            "--workload",
            "jess",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload, Some(WorkloadKind::Jess));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
        assert!(o.explore.is_baseline());
    }

    #[test]
    fn exploration_flags_leave_the_baseline() {
        let o = parse(&["--workload", "db", "--lazy", "--mode", "aging"]).unwrap();
        assert!(!o.explore.is_baseline());
        let gen = o.explore.apply(GcConfig::generational());
        assert!(gen.lazy_sweep);
        assert_eq!(gen.aging_threshold(), Some(4));
        // Aging is a promotion policy: the non-generational arm keeps its mode.
        assert!(!o
            .explore
            .apply(GcConfig::non_generational())
            .is_generational());
    }

    #[test]
    fn mistakes_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--bogus"],
            &[],
            &["repeat", "--workload", "db"],
            &["--workload", "db", "--trace", "2"],
            &["--workload", "db", "--seconds", "0"],
            &["--workload", "db", "--reps", "2"],
            &["--workload", "db", "--scale", "0.5"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
