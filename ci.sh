#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md).
#
# The workspace has zero external crates, so everything runs --offline
# against an empty cargo registry.  The build is warning-free; -D warnings
# keeps it that way.
#
# Every step runs even when an earlier one failed: `step` records each
# verdict, the table at the end lists them all, and the exit status is
# non-zero if any step failed.
set -u

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

verdicts=""
failed=0

# step NAME COMMAND [ARG...]: runs the command and records its verdict
# and wall seconds (not a gate: a change in suite time shows in the log).
step() {
    name=$1
    shift
    echo "=== $name: $*"
    start=$(date +%s)
    if "$@"; then
        verdict=PASS
    else
        verdict=FAIL
        failed=1
    fi
    verdicts="$verdicts
$verdict  $name  ($(($(date +%s) - start)) s)"
}

step build cargo build --release --offline --workspace --all-targets
step test cargo test -q --offline --workspace
step fmt cargo fmt --check
step clippy cargo clippy -q --offline --workspace --all-targets -- -D warnings
# Rustdoc with warnings as errors: a deleted item must not leave a
# dangling intra-doc link behind.
step doc env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The benchmark is a cargo workspace of its own that drives the crates
# through their public API (benchmark/README.md): its gate — fmt, clippy
# -D warnings, and a --quick smoke of all four workloads in both modes —
# runs here so a crates/ API change that breaks it fails CI, not the
# benchmark driver.
step benchmark-check benchmark/check.sh

# The plan matrix lives in the tests, each configuration written where
# it is checked: `tests/plan_equivalence.rs` pins every plan's end state,
# the `collector` unit tests pin every (plan × kind) event sequence, and
# `tests/chaos.rs` runs the variant fault matrix and the recovery matrix
# (each schedule under a hang bound).  No environment variable selects a
# plan, so `test` above runs all of them (DESIGN.md §4.15 maps each
# former env cell to its test).

echo
echo "=== verdicts"
echo "${verdicts#?}"

# Not a gate: the counters ROADMAP judges a simplification by, so each
# PR's log carries its own before/after.
echo
echo "=== size"
echo "crates/ lines of Rust:   $(find crates -name '*.rs' | xargs cat | wc -l)"
# Lines outside tests: every .rs not under a tests/ directory, cut at
# its first column-0 #[cfg(test)].
echo "crates/ non-test lines:  $(find crates -name '*.rs' -not -path '*/tests/*' | xargs awk 'FNR==1{s=0} /^#!?\[cfg\(test\)\]/{s=1} !s{n++} END{print n}')"
echo "GcConfig pub fields:     $(sed -n '/^pub struct GcConfig {/,/^}/p' crates/core/src/config.rs | grep -c '^    pub [a-z_]*:')"
echo "GcConfig builders:       $(grep -c 'pub fn with_' crates/core/src/config.rs)"
echo "GcConfig vestiges:       $(grep -c '/// Vestige:' crates/core/src/config.rs)"
echo "OTF_GC_* set by ci.sh:   $(grep -v '^#' "$0" | grep -o 'OTF_GC_[A-Z_]*=' | sort -u | wc -l)"
echo "steps setting OTF_GC_*:  $(grep -c '^step .*OTF_GC_[A-Z_]*=' "$0")"
echo "crates/bench binaries:   $(ls crates/bench/src/bin | wc -l)"
echo "env reads in crates/:    $(grep -rn 'env::var' crates --include=*.rs | wc -l)"
echo "dead_code allows in crates/: $(grep -rn 'allow(dead_code)' crates --include=*.rs | wc -l)"
echo "thread_locals in crates/: $(grep -rn 'thread_local!' crates --include=*.rs | wc -l)"
echo "process-global statics in crates/: $(grep -rnE '^\s*(pub(\([a-z]+\))? )?static [A-Z_]+\b' crates --include=*.rs | wc -l)"
# Distinct fault-injection points: a test hook that replaces a knob shows.
echo "fault points in crates/: $(grep -rhoE 'fault\("[a-z_.]+"\)' crates --include=*.rs | sort -u | wc -l)"
echo "extern \"C\" blocks in crates/: $(grep -rnE '^\s*(unsafe )?extern "C"' crates --include=*.rs | wc -l)"
echo "trace event kinds:       $(sed -n '/^pub enum EventKind {/,/^}/p' crates/core/src/obs.rs | grep -cE '^    [A-Z][A-Za-z]* = [0-9]+,')"
echo "Mutex fields in crates/: $(grep -rnE '^\s+(pub(\([a-z]+\))? )?[a-z_]+: Mutex<' crates --include=*.rs | wc -l)"
# Code size of the allocation fast path's function in the release build.
alloc_hex=$(nm -C -S target/release/examples/quickstart 2>/dev/null |
    awk '$4 == "otf_gc::mutator::Mutator::alloc" { print $2 }')
echo "Mutator::alloc bytes:    $([ -n "$alloc_hex" ] && printf '%d' "0x$alloc_hex" || echo n/a)"

exit $failed
