//! Runs every workload `--quick` in both modes and checks what comes out
//! against `../BENCHMARK.json`: each metric named there printed exactly
//! once, finite, with its unit; the result line in the driver's form;
//! the span file parsing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use otf_benchmark::json::{self, Value};
use otf_benchmark::rep::WorkloadKind;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses")
}

/// name → unit of the spec's metric list `key`.
fn spec_metrics(spec: &Value, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out")
}

/// Runs the benchmark; returns (exit ok, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out_dir())
        // Must be ignored: the benchmark measures the code's defaults.
        .env("OTF_GC_LAZY_SWEEP", "1")
        .output()
        .expect("spawn benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Checks one command's output against the metrics it should print.
fn check_output(stdout: &str, want: &BTreeMap<String, String>) {
    let lines: Vec<&str> = stdout.lines().collect();
    let (result, body) = lines.split_last().expect("some output");

    let header = body[0].strip_prefix("# ").expect("header first");
    let header = json::parse(header).expect("header parses");
    for key in ["cores", "commit", "rustc", "seed", "scale", "reps"] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }
    assert_eq!(header.get("baseline"), Some(&Value::Bool(true)));
    let cfg = header.get("config_gen").and_then(Value::as_str).unwrap();
    assert!(
        cfg.contains("lazy_sweep: false"),
        "OTF_GC_* leaked in: {cfg}"
    );

    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for line in body.iter().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(' ').collect();
        let [name, value, unit] = fields[..] else {
            panic!("not `name value unit`: {line:?}");
        };
        assert!(name_ok(name), "bad metric name {name:?}");
        let value: f64 = value.parse().expect(line);
        assert!(value.is_finite(), "{line}");
        assert!(
            seen.insert(name.to_string(), unit.to_string()).is_none(),
            "{name} printed twice"
        );
    }
    assert_eq!(&seen, want, "printed metrics differ from BENCHMARK.json");

    let result = json::parse(result).expect("result line parses");
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = result.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(metrics.len(), want.len());
    for (name, m) in metrics {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(&want[name][..]));
        assert!(m.get("value").and_then(Value::as_f64).unwrap().is_finite());
    }
}

fn check_trace_file(workload: &str) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let trace = json::parse(&text).expect("trace file parses");
    assert_eq!(
        trace.get("workload").and_then(Value::as_str),
        Some(workload)
    );
    let spans = trace.get("spans").and_then(Value::as_array).unwrap();
    let num = |s: &Value, f| s.get(f).and_then(Value::as_f64).expect(f);
    let mut names = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id"), i as f64);
        assert!(num(s, "start_ns") <= num(s, "end_ns"));
        assert!(num(s, "self_ns") <= num(s, "end_ns") - num(s, "start_ns"));
        if let Some(p) = s.get("parent").and_then(Value::as_f64) {
            // A child shares its parent's run id.
            assert_eq!(num(&spans[p as usize], "run"), num(s, "run"));
        }
        names.push(s.get("name").and_then(Value::as_str).unwrap());
    }
    for want in [
        "run.gen",
        "run.nogen",
        "setup",
        "mutators",
        "mutator.thread.0",
        "shutdown",
        "cycle.full",
        "phase.sweep",
        "probes",
        "probe.mutator.alloc",
        "probe.tablescan.fill",
    ] {
        assert!(names.contains(&want), "no {want} span");
    }
}

#[test]
fn quick_runs_print_every_metric_of_the_spec_once() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, ours);

    let end_to_end = spec_metrics(&spec, "end_to_end");
    let per_layer = spec_metrics(&spec, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in end_to_end.keys().chain(per_layer.keys()) {
        assert!(name_ok(name), "bad metric name {name:?} in BENCHMARK.json");
    }
    assert!(end_to_end.keys().all(|k| !per_layer.contains_key(k)));

    for w in workloads {
        let args = ["--workload", w, "--seed", "3", "--seconds", "1", "--quick"];
        let (ok, stdout) = run(&[&args[..], &["--trace", "0"]].concat());
        assert!(ok, "{w} --trace 0 failed");
        check_output(&stdout, &end_to_end);
        let (ok, stdout) = run(&[&args[..], &["--trace", "1"]].concat());
        assert!(ok, "{w} --trace 1 failed");
        check_output(&stdout, &per_layer);
        check_trace_file(w);
    }
}

#[test]
fn exploration_flags_stamp_the_output() {
    let (ok, stdout) = run(&["--workload", "anagram", "--quick", "--shards", "2"]);
    assert!(ok);
    let header = stdout.lines().next().unwrap().strip_prefix("# ").unwrap();
    let header = json::parse(header).unwrap();
    assert_eq!(header.get("baseline"), Some(&Value::Bool(false)));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--bogus"], &[]] {
        let (ok, stdout) = run(args);
        assert!(!ok);
        assert!(stdout.is_empty(), "printed {stdout:?}");
    }
}
