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

# The benchmark is a cargo workspace of its own that drives the crates
# through their public API (benchmark/README.md): its gate — fmt, clippy
# -D warnings, and a --quick smoke of all four workloads in both modes —
# runs here so a crates/ API change that breaks it fails CI, not the
# benchmark driver.
step benchmark-check benchmark/check.sh

# The full integration suites again with four GC workers: every
# collector-driven test (correctness, chaos, observability) must hold
# when the packet schedule fans out across the work-stealing pool, not
# just on the serial one-worker drain.  The sweep's own unit and
# differential tests ride along: every default-configured sweep in them
# becomes a page-partitioned one.
step cell-threads env OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness
step cell-threads-sweep env OTF_GC_THREADS=4 \
    cargo test -q --offline -p otf-gc --lib sweep

# And with the lazy sweep forced on: the chaos and correctness suites
# must hold when every configuration sweeps at allocation time, both
# alone and combined with parallel mark — the combined cell drives every
# packet the plans can select (parallel trace lanes, lazy finalize +
# publish) through the packet scheduler at once.  The sweep tests ride
# along here too (the filter also selects the lazy module's eager-parity
# tests), and the hole-queue LAB tests of both layers (DESIGN.md §4.13):
# under this cell a mutator's refill asks the lazy sweep for a run before
# it visits the pool.
step cell-lazy env OTF_GC_LAZY_SWEEP=1 \
    cargo test -q --offline --test chaos --test gc_correctness
step cell-lazy-sweep env OTF_GC_LAZY_SWEEP=1 \
    cargo test -q --offline -p otf-heap -p otf-gc --lib -- \
    sweep space::tests::lab mutator::tests
step cell-combined env OTF_GC_LAZY_SWEEP=1 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness

# And with collector restarts armed (supervision, DESIGN.md §4.8) on
# top of the full combined cell: every suite must hold when any
# injected collector panic is answered by a safe cycle abort and a
# respawn instead of permanent poison.  plan_equivalence rides along so
# the eager/lazy plan-shape pin also holds under the supervisor.
# Tests that pin the terminal poison path set max_collector_restarts(0)
# explicitly, so the env default does not change their meaning.
step cell-restarts env OTF_GC_MAX_RESTARTS=3 OTF_GC_LAZY_SWEEP=1 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness --test plan_equivalence

# Chaos smoke: the fixed-seed fault-injection matrix (debug build — the
# debug_asserts on the hardened failure paths must hold too).  The binary
# exits non-zero on a hang, a heap violation after any schedule, a
# non-reproducible injection sequence, or uncontained collector death.
step chaos-build cargo build --offline -p otf-bench --bin stress_chaos
step chaos ./target/debug/stress_chaos --quick --seed 42

echo
echo "=== verdicts"
echo "${verdicts#?}"

# Not a gate: the counters ROADMAP judges a simplification by, so each
# PR's log carries its own before/after.
echo
echo "=== size"
echo "crates/ lines of Rust:   $(find crates -name '*.rs' | xargs cat | wc -l)"
echo "GcConfig pub fields:     $(sed -n '/^pub struct GcConfig {/,/^}/p' crates/core/src/config.rs | grep -c '^    pub [a-z_]*:')"
echo "OTF_GC_* set by ci.sh:   $(grep -v '^#' "$0" | grep -o 'OTF_GC_[A-Z_]*=' | sort -u | wc -l)"

exit $failed
