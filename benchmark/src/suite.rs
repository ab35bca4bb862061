//! The benchmark's commands: one workload end to end, one workload
//! traced, and `repeat`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use otf_gc::GcConfig;

use crate::cli::Options;
use crate::json;
use crate::ledger;
use crate::probes;
use crate::rep::{run_rep, Rep, WorkloadKind};
use crate::report::{json_string, median, Metric, Outcome, MIB};
use crate::spans::Recorder;

/// The system under test: the code's defaults, plus whatever exploration
/// flags were given.  (`main` has already cleared every `OTF_GC_*`
/// variable the constructors would read.)
fn configs(opts: &Options) -> [GcConfig; 2] {
    [
        opts.explore.apply(GcConfig::generational()),
        opts.explore.apply(GcConfig::non_generational()),
    ]
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the driver's checkout has none).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.chars().take(12).collect(),
    }
}

/// Provenance members shared by the printed header and the trace file.
fn provenance(kind: WorkloadKind, opts: &Options) -> Vec<(&'static str, String)> {
    let [gen, nogen] = configs(opts);
    let reps = if opts.quick {
        "1".to_string()
    } else {
        format!("\"fill {} s\"", opts.seconds)
    };
    vec![
        ("workload", json_string(kind.name())),
        ("cores", cores().to_string()),
        ("commit", json_string(&commit())),
        ("rustc", json_string(env!("BENCH_RUSTC_VERSION"))),
        ("seed", opts.seed.to_string()),
        ("scale", opts.scale().to_string()),
        ("reps", reps),
        ("trace", opts.trace.to_string()),
        ("baseline", opts.explore.is_baseline().to_string()),
        ("config_gen", json_string(&format!("{gen:?}"))),
        ("config_nogen", json_string(&format!("{nogen:?}"))),
    ]
}

fn header_line(kind: WorkloadKind, opts: &Options) -> String {
    let members: Vec<String> = provenance(kind, opts)
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("# {{{}}}", members.join(", "))
}

/// What the repetitions of one run are compared across: a name for the
/// `# rep` lines and the configuration it runs under.
type Arm = (&'static str, GcConfig);

/// Runs the arms in rounds of one repetition each, every other round in
/// reverse order so that no arm always runs on the warmer machine.
/// Rounds go on while one more, and the verified repetitions after them
/// (about a round's worth), still fit in `seconds` at the pace so far,
/// and for `at_least` rounds; `--quick` runs exactly one.  Returns each
/// arm's repetitions.  Stops at the first failure: nothing measured on a
/// broken run is worth reporting.
fn run_rounds(
    kind: WorkloadKind,
    opts: &Options,
    arms: &[Arm],
    seconds: f64,
    at_least: usize,
    out: &mut Outcome,
) -> Vec<Vec<Rep>> {
    let (seconds, at_least) = if opts.quick {
        (0.0, 1)
    } else {
        (seconds, at_least)
    };
    let mut reps: Vec<Vec<Rep>> = arms.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    for n in 0.. {
        if n >= at_least && start.elapsed().as_secs_f64() * (n + 2) as f64 / n as f64 > seconds {
            break;
        }
        let mut order: Vec<usize> = (0..arms.len()).collect();
        if n % 2 == 1 {
            order.reverse();
        }
        for arm in order {
            let (label, cfg) = arms[arm];
            out.attempted += 1;
            match run_rep(kind, opts.scale(), cfg, opts.seed, false) {
                Ok(rep) => {
                    println!(
                        "# rep {n} {label} setup_s {} elapsed_s {} cpu_s {} committed_mb {}",
                        rep.setup.as_secs_f64(),
                        elapsed_s(&rep),
                        rep.cpu_s,
                        rep.committed_bytes as f64 / MIB
                    );
                    reps[arm].push(rep);
                }
                Err(e) => {
                    out.failures
                        .push(format!("{} {label} rep {n}: {e}", kind.name()));
                    return reps;
                }
            }
        }
    }
    println!("# rounds: {}", reps[0].len());
    reps
}

/// One more repetition per mode with the heap verified afterwards, and
/// the check that the workload did the same work every time: for one
/// (workload, seed) `objects_allocated` must not differ between
/// repetitions or modes.
fn verify(
    kind: WorkloadKind,
    opts: &Options,
    cfgs: [GcConfig; 2],
    measured: &[Vec<Rep>],
    out: &mut Outcome,
) {
    let mut counts: Vec<u64> = measured
        .iter()
        .flatten()
        .map(|r| r.stats.objects_allocated)
        .collect();
    for (mode, cfg) in ["gen", "nogen"].into_iter().zip(cfgs) {
        out.attempted += 1;
        match run_rep(kind, opts.scale(), cfg, opts.seed, true) {
            Ok(rep) => counts.push(rep.stats.objects_allocated),
            Err(e) => out
                .failures
                .push(format!("{} {mode} verified rep: {e}", kind.name())),
        }
    }
    if counts.iter().any(|&c| c != counts[0]) {
        out.failures.push(format!(
            "{}: objects_allocated differs between repetitions: {counts:?}",
            kind.name()
        ));
    }
}

fn elapsed_s(r: &Rep) -> f64 {
    r.elapsed().as_secs_f64()
}

/// The median of `f` over `reps`.
fn median_of<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> Option<f64> {
    median(&reps.into_iter().map(f).collect::<Vec<_>>())
}

/// The five end-to-end metrics, each the median over the repetitions of
/// its mode (`setup_s`: of both).
fn end_to_end(gen: &[Rep], nogen: &[Rep]) -> Vec<Metric> {
    let setup_s = |r: &Rep| r.setup.as_secs_f64();
    let cpu_s = |r: &Rep| r.cpu_s;
    [
        ("setup_s", median_of(gen.iter().chain(nogen), setup_s)),
        ("elapsed_s", median_of(gen, elapsed_s)),
        ("elapsed_nogen_s", median_of(nogen, elapsed_s)),
        ("cpu_s", median_of(gen, cpu_s)),
        ("cpu_nogen_s", median_of(nogen, cpu_s)),
    ]
    .into_iter()
    .filter_map(|(name, v)| Some(Metric::new(name, v?, "s")))
    .collect()
}

/// The repetition with the median elapsed time.
fn median_rep(reps: &[Rep]) -> Option<&Rep> {
    let mut by_elapsed: Vec<&Rep> = reps.iter().collect();
    by_elapsed.sort_by_key(|r| r.elapsed());
    by_elapsed.get(by_elapsed.len() / 2).copied()
}

/// Runs one workload as `opts` says and prints its header and metric
/// lines.  Untraced: the end-to-end metrics.  Traced: the per-layer
/// metrics and the span file.
pub fn run_workload(kind: WorkloadKind, opts: &Options) -> Outcome {
    println!("{}", header_line(kind, opts));
    let mut out = Outcome::default();
    let needs = if opts.trace {
        // The two-thread allocation probe.
        kind.threads().max(2)
    } else {
        kind.threads()
    };
    if needs > cores() {
        out.attempted = 1;
        out.failures.push(format!(
            "{} needs {needs} mutator threads, this machine has {} cores",
            kind.name(),
            cores()
        ));
        return out;
    }
    let cfgs = configs(opts);
    if opts.trace {
        traced(kind, opts, cfgs, &mut out);
    } else {
        let arms = [("gen", cfgs[0]), ("nogen", cfgs[1])];
        let reps = run_rounds(kind, opts, &arms, opts.seconds, 3, &mut out);
        if out.correct() {
            verify(kind, opts, cfgs, &reps, &mut out);
        }
        out.metrics = end_to_end(&reps[0], &reps[1]);
    }
    print!("{}", out.metric_lines());
    out
}

/// The traced command.  A fifth of `--seconds` goes to the probes, the
/// rest to rounds of three arms (generational untraced, which tracing is
/// compared with, and both modes with `GcConfig::with_event_trace(true)`)
/// and the verified repetitions.
fn traced(kind: WorkloadKind, opts: &Options, cfgs: [GcConfig; 2], out: &mut Outcome) {
    // Created first: span times count from here.
    let mut rec = Recorder::new();
    let arms = [
        ("gen", cfgs[0]),
        ("gen traced", cfgs[0].with_event_trace(true)),
        ("nogen traced", cfgs[1].with_event_trace(true)),
    ];
    let reps = run_rounds(kind, opts, &arms, opts.seconds * 0.8, 2, out);
    if !out.correct() {
        return;
    }
    let [untraced, traced_gen, traced_nogen] = &reps[..] else {
        unreachable!("one list of repetitions per arm");
    };
    let (Some(gen), Some(nogen)) = (median_rep(traced_gen), median_rep(traced_nogen)) else {
        unreachable!("a correct run has at least one repetition per arm");
    };
    rec.push_rep("gen", gen);
    rec.push_rep("nogen", nogen);

    out.attempted += 1;
    let probe_budget = if opts.quick {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(opts.seconds * 0.2 / probes::LOOPS as f64)
    };
    let probed = catch_unwind(AssertUnwindSafe(|| probes::run_all(probe_budget, &mut rec)));
    let Ok(probed) = probed else {
        out.failures.push("a probe panicked".to_string());
        return;
    };
    verify(kind, opts, cfgs, &reps, out);

    // Median against median, of repetitions that ran in turn.
    let untraced_s = median_of(untraced, elapsed_s).expect("at least one repetition");
    let traced_s = median_of(traced_gen, elapsed_s).expect("at least one repetition");
    let trace_overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
    out.metrics = ledger::per_layer(gen, nogen, &probed, trace_overhead_pct);

    let path = opts.out.join(format!("{}.trace.json", kind.name()));
    let written = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(&path, rec.to_json(&provenance(kind, opts))));
    match written {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => out.failures.push(format!("{}: {e}", path.display())),
    }
}

/// `repeat`: the whole suite, end to end, twice on this build; then for
/// every end-to-end metric of every workload both medians, their ratio
/// and the bound from BENCHMARK.json.  True when every run was correct
/// and no pair disagrees by more than its bound.
pub fn repeat(opts: &Options) -> Result<bool, String> {
    let spec =
        std::fs::read_to_string(&opts.spec).map_err(|e| format!("{}: {e}", opts.spec.display()))?;
    let spec = json::parse(&spec)?;
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: an end_to_end metric lacks name or bound")?;

    let opts = Options {
        trace: false,
        ..opts.clone()
    };
    let mut ok = true;
    let mut passes: Vec<Vec<Outcome>> = Vec::new();
    for pass in 1..=2 {
        println!("# pass {pass}");
        let outcomes: Vec<Outcome> = WorkloadKind::ALL
            .into_iter()
            .map(|kind| run_workload(kind, &opts))
            .collect();
        for o in &outcomes {
            for f in &o.failures {
                eprintln!("FAILED {f}");
                ok = false;
            }
        }
        passes.push(outcomes);
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<8} {:<24} {:>12} {:>12} {:>7} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        for (name, bound) in &bounds {
            let (Some(a), Some(b)) = (passes[0][w].value(name), passes[1][w].value(name)) else {
                let _ = writeln!(table, "{:<8} {name:<24} missing", kind.name());
                ok = false;
                continue;
            };
            let agree = a.max(b) <= a.min(b) * (1.0 + bound);
            ok &= agree;
            let _ = writeln!(
                table,
                "{:<8} {name:<24} {a:>12.6} {b:>12.6} {:>7.4} {bound:>6}{}",
                kind.name(),
                b / a,
                if agree { "" } else { "  DISAGREE" }
            );
        }
    }
    print!("{table}");
    Ok(ok)
}
