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

# step NAME COMMAND [ARG...]: runs the command and records its verdict.
step() {
    name=$1
    shift
    echo "=== $name: $*"
    if "$@"; then
        verdicts="$verdicts
PASS  $name"
    else
        verdicts="$verdicts
FAIL  $name"
        failed=1
    fi
}

# bench NAME PATTERN...: smoke-runs target/release/bench_NAME --quick
# (tiny iteration budget; OTF_BENCH_OUT diverts the JSON so a CI run never
# dirties the tree), then requires every pattern in the emitted JSON — a
# malformed emitter or a gate verdict other than the pinned one fails.
bench() {
    bench_name=$1
    shift
    out=target/BENCH_${bench_name}_ci.json
    OTF_BENCH_QUICK=1 OTF_BENCH_OUT=$out \
        "./target/release/bench_$bench_name" --quick || return 1
    for pattern in "\"bench\": \"$bench_name\"" "$@"; do
        grep -q "$pattern" "$out" || {
            echo "$out: no $pattern"
            return 1
        }
    done
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

# The side-table kernel microbench: catches kernel regressions and keeps
# BENCH_kernels.json reproducible.
step bench-kernels bench kernels

# The pause-time benchmark.  The binary itself exits non-zero on
# non-monotone pause quantiles or if the per-phase durations fail to
# sum to within 5% of cycle wall time (the packet scheduler's bucket
# spans telescope the whole cycle — a ratio outside that band means a
# phase got double-sampled, unattributed, or billed to two slots); the
# patterns pin the phase-sum verdict.
step bench-pauses bench pauses '"workload": "db"' '"phase_sum_ok": true'

# The parallel back-end benchmark (work-stealing mark + page-partitioned
# sweep).  The binary exits non-zero on any heap violation across the
# workload × config × gc_threads matrix or if a scaling gate fails; the
# patterns additionally pin the gate verdicts in the emitted JSON.
step bench-parallel bench parallel '"n1_parity": true' '"p999_ok": true' \
    '"overlap_parity_ok": true' '"overlap_gate_ok": true' \
    '"overlap_reduction_db_gen_n4"'

# The allocator scalability benchmark (sharded block-store back-end vs
# the single free list at 1/4/16 mutator threads).  The binary exits
# non-zero on any heap violation or if a gate fails; the patterns pin the
# verdicts: sharded N=1 throughput parity with the unsharded oracle, and
# no allocation-stall regression from sharding.
step bench-scale bench scale '"n1_parity": true' '"alloc_stall_ok": true'

# The lazy-sweep benchmark (mutators sweep-to-allocate, collector goes
# mark-only).  The binary exits non-zero on any heap violation across the
# workload × config × sweep-mode matrix or if a gate fails; the patterns
# pin the verdicts: db/gen cycle-time reduction, end-state parity between
# sweep modes, and the allocation-stall p99.99 envelope.
step bench-lazy bench lazy '"cycle_gate_ok": true' '"parity_ok": true' \
    '"stall_ok": true' '"refill_ok": true'

# The full integration suites again with four GC workers: every
# collector-driven test (correctness, chaos, observability) must hold
# when the packet schedule fans out across the work-stealing pool, not
# just on the serial one-worker drain.  The sweep's own unit and
# differential tests ride along (as the pool's do in the shards cell):
# every default-configured sweep in them becomes a page-partitioned one.
step cell-threads env OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness
step cell-threads-sweep env OTF_GC_THREADS=4 \
    cargo test -q --offline -p otf-gc --lib sweep

# And again with the sharded heap back-end: the GC protocol must be
# oblivious to the allocator substrate.  The free-space pool's own
# property and churn tests ride along: every shard and the block store
# is one of those pools.  So do the hole-queue LAB tests of both layers
# (DESIGN.md §4.13): the heap's `lab_*` tests build both back-ends
# themselves, the mutator's then run on a four-shard heap.
step cell-shards env OTF_GC_SHARDS=4 \
    cargo test -q --offline --test chaos --test gc_correctness
step cell-shards-pool env OTF_GC_SHARDS=4 \
    cargo test -q --offline -p otf-heap -p otf-gc --lib -- \
    freelist space::tests::lab mutator::tests

# And with the lazy sweep forced on: the chaos and correctness suites
# must hold when every configuration sweeps at allocation time, both
# alone and combined with the sharded heap and parallel mark — the
# combined cell drives every packet the plans can select (parallel
# trace lanes, lazy finalize + publish, sharded free-lists) through the
# packet scheduler at once.  The sweep tests ride along here too (the
# filter also selects the lazy module's eager-parity tests), and the
# hole-queue LAB tests of both layers: under this cell a mutator's refill
# asks the lazy sweep for a run before it visits the pool.
step cell-lazy env OTF_GC_LAZY_SWEEP=1 \
    cargo test -q --offline --test chaos --test gc_correctness
step cell-lazy-sweep env OTF_GC_LAZY_SWEEP=1 \
    cargo test -q --offline -p otf-heap -p otf-gc --lib -- \
    sweep space::tests::lab mutator::tests
step cell-combined env OTF_GC_LAZY_SWEEP=1 OTF_GC_SHARDS=4 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness

# And with collector restarts armed (supervision, DESIGN.md §4.8) on
# top of the full combined cell: every suite must hold when any
# injected collector panic is answered by a safe cycle abort and a
# respawn instead of permanent poison.  plan_equivalence rides along so
# the eager/lazy plan-shape pin also holds under the supervisor.
# Tests that pin the terminal poison path set max_collector_restarts(0)
# explicitly, so the env default does not change their meaning.
step cell-restarts env OTF_GC_MAX_RESTARTS=3 OTF_GC_LAZY_SWEEP=1 \
    OTF_GC_SHARDS=4 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness --test plan_equivalence

# And with the overlapped cards∥roots∥trace group (DESIGN.md §4.9)
# stacked on the parallel+lazy+sharded cell: the suites must hold when
# the gray producers run concurrently with the trace lanes and the
# termination check extends over open producer buckets.  Note the
# plan-equivalence overlap arms run *both* schedules regardless — this
# cell additionally forces every other collector in those suites
# (correctness graphs, chaos storms) onto the overlapped schedule.
step cell-overlap env OTF_GC_OVERLAP=1 OTF_GC_THREADS=4 OTF_GC_LAZY_SWEEP=1 \
    OTF_GC_SHARDS=4 \
    cargo test -q --offline --test chaos --test gc_correctness --test plan_equivalence

# Chaos smoke: the fixed-seed fault-injection matrix (debug build — the
# debug_asserts on the hardened failure paths must hold too).  The binary
# exits non-zero on a hang, a heap violation after any schedule, a
# non-reproducible injection sequence, or uncontained collector death.
step chaos-build cargo build --offline -p otf-bench --bin stress_chaos
step chaos ./target/debug/stress_chaos --quick --seed 42

# The chaos matrix once more with sharding enabled: `heap.alloc_chunk`
# faults fire before the backend dispatch, so an injected allocation
# failure still simulates whole-heap exhaustion on the sharded path.
step chaos-shards env OTF_GC_SHARDS=4 ./target/debug/stress_chaos --quick --seed 42

echo
echo "=== verdicts"
echo "${verdicts#?}"
exit $failed
