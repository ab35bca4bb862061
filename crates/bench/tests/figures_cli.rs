//! The `figures` binary's command line, driven as a process.  No test here
//! runs a figure: `fig_smoke` covers the figure functions themselves.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

#[test]
fn help_lists_every_figure_and_exits_zero() {
    let out = figures(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8(out.stdout).unwrap();
    let listed = (7..=23)
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    assert!(
        usage.contains(&listed),
        "figures missing from usage: {usage}"
    );
}

#[test]
fn an_unknown_figure_runs_nothing() {
    let out = figures(&["99"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("not a figure number"),
        "no warning: {stderr}"
    );
    assert!(!stderr.contains("[run]"), "a figure ran: {stderr}");
    assert!(stdout.contains("Figures: []"), "{stdout}");
    assert!(!stdout.contains("## Figure"), "a figure ran: {stdout}");
}
