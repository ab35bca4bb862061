//! `benchmark`: see `--help` and README.md.

use std::process::ExitCode;

use otf_benchmark::cli::{Options, USAGE};
use otf_benchmark::suite;

fn main() -> ExitCode {
    // The collector's constructors read OTF_GC_* as defaults; the
    // benchmark measures the code's own defaults, whatever the caller
    // had exported.  (No other thread exists yet.)
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OTF_GC_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match opts.workload {
        Some(kind) => {
            let out = suite::run_workload(kind, &opts);
            for f in &out.failures {
                eprintln!("FAILED {f}");
            }
            println!("{}", out.result_json());
            out.correct()
        }
        None => match suite::repeat(&opts) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("benchmark: {e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
