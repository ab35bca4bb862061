#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md).
#
# The workspace has zero external crates, so everything runs --offline
# against an empty cargo registry.  The build is warning-free; -D warnings
# keeps it that way.
set -eux

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace
cargo fmt --check
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# The benchmark is a cargo workspace of its own that drives the crates
# through their public API (benchmark/README.md): its gate — fmt, clippy
# -D warnings, and a --quick smoke of all four workloads in both modes —
# runs here so a crates/ API change that breaks it fails CI, not the
# benchmark driver.
benchmark/check.sh

# Smoke-run the side-table kernel microbench (tiny iteration budget):
# catches kernel regressions and keeps BENCH_kernels.json reproducible.
# OTF_BENCH_OUT diverts the JSON so a CI run never dirties the tree.
OTF_BENCH_QUICK=1 OTF_BENCH_OUT=target/BENCH_kernels_ci.json \
    ./target/release/bench_kernels --quick

# Smoke-run the pause-time benchmark.  The binary itself exits non-zero
# on non-monotone pause quantiles or if the per-phase durations fail to
# sum to within 5% of cycle wall time (the packet scheduler's bucket
# spans telescope the whole cycle — a ratio outside that band means a
# phase got double-sampled, unattributed, or billed to two slots); the
# greps catch a malformed JSON emitter and pin the phase-sum verdict.
OTF_BENCH_QUICK=1 OTF_BENCH_OUT=target/BENCH_pauses_ci.json \
    ./target/release/bench_pauses --quick
grep -q '"bench": "pauses"' target/BENCH_pauses_ci.json
grep -q '"workload": "db"' target/BENCH_pauses_ci.json
grep -q '"phase_sum_ok": true' target/BENCH_pauses_ci.json

# Smoke-run the parallel back-end benchmark (work-stealing mark +
# page-partitioned sweep).  The binary exits non-zero on any heap
# violation across the workload × config × gc_threads matrix or if a
# scaling gate fails; the greps additionally pin the gate verdicts in
# the emitted JSON.
OTF_BENCH_QUICK=1 OTF_BENCH_OUT=target/BENCH_parallel_ci.json \
    ./target/release/bench_parallel --quick
grep -q '"bench": "parallel"' target/BENCH_parallel_ci.json
grep -q '"n1_parity": true' target/BENCH_parallel_ci.json
grep -q '"p999_ok": true' target/BENCH_parallel_ci.json
grep -q '"overlap_parity_ok": true' target/BENCH_parallel_ci.json
grep -q '"overlap_gate_ok": true' target/BENCH_parallel_ci.json
grep -q '"overlap_reduction_db_gen_n4"' target/BENCH_parallel_ci.json

# Smoke-run the allocator scalability benchmark (sharded block-store
# back-end vs the single free list at 1/4/16 mutator threads).  The
# binary exits non-zero on any heap violation or if a gate fails; the
# greps pin the verdicts: sharded N=1 throughput parity with the
# unsharded oracle, and no allocation-stall regression from sharding.
OTF_BENCH_QUICK=1 OTF_BENCH_OUT=target/BENCH_scale_ci.json \
    ./target/release/bench_scale --quick
grep -q '"bench": "scale"' target/BENCH_scale_ci.json
grep -q '"n1_parity": true' target/BENCH_scale_ci.json
grep -q '"alloc_stall_ok": true' target/BENCH_scale_ci.json

# Smoke-run the lazy-sweep benchmark (mutators sweep-to-allocate,
# collector goes mark-only).  The binary exits non-zero on any heap
# violation across the workload × config × sweep-mode matrix or if a
# gate fails; the greps pin the verdicts: db/gen cycle-time reduction,
# end-state parity between sweep modes, and the allocation-stall
# p99.99 envelope.
OTF_BENCH_QUICK=1 OTF_BENCH_OUT=target/BENCH_lazy_ci.json \
    ./target/release/bench_lazy --quick
grep -q '"bench": "lazy"' target/BENCH_lazy_ci.json
grep -q '"cycle_gate_ok": true' target/BENCH_lazy_ci.json
grep -q '"parity_ok": true' target/BENCH_lazy_ci.json
grep -q '"stall_ok": true' target/BENCH_lazy_ci.json
grep -q '"refill_ok": true' target/BENCH_lazy_ci.json

# The full integration suites again with four GC workers: every
# collector-driven test (correctness, chaos, observability) must hold
# when the packet schedule fans out across the work-stealing pool, not
# just on the serial one-worker drain.
OTF_GC_THREADS=4 cargo test -q --offline --test chaos --test gc_correctness

# And again with the sharded heap back-end: the GC protocol must be
# oblivious to the allocator substrate.
OTF_GC_SHARDS=4 cargo test -q --offline --test chaos --test gc_correctness

# And with the lazy sweep forced on: the chaos and correctness suites
# must hold when every configuration sweeps at allocation time, both
# alone and combined with the sharded heap and parallel mark — the
# combined cell drives every packet the plans can select (parallel
# trace lanes, lazy finalize + publish, sharded free-lists) through the
# packet scheduler at once.
OTF_GC_LAZY_SWEEP=1 cargo test -q --offline --test chaos --test gc_correctness
OTF_GC_LAZY_SWEEP=1 OTF_GC_SHARDS=4 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness

# And with collector restarts armed (supervision, DESIGN.md §4.8) on
# top of the full combined cell: every suite must hold when any
# injected collector panic is answered by a safe cycle abort and a
# respawn instead of permanent poison.  plan_equivalence rides along so
# the eager/lazy plan-shape pin also holds under the supervisor.
# Tests that pin the terminal poison path set max_collector_restarts(0)
# explicitly, so the env default does not change their meaning.
OTF_GC_MAX_RESTARTS=3 OTF_GC_LAZY_SWEEP=1 OTF_GC_SHARDS=4 OTF_GC_THREADS=4 \
    cargo test -q --offline --test chaos --test gc_correctness --test plan_equivalence

# And with the overlapped cards∥roots∥trace group (DESIGN.md §4.9)
# stacked on the parallel+lazy+sharded cell: the suites must hold when
# the gray producers run concurrently with the trace lanes and the
# termination check extends over open producer buckets.  Note the
# plan-equivalence overlap arms run *both* schedules regardless — this
# cell additionally forces every other collector in those suites
# (correctness graphs, chaos storms) onto the overlapped schedule.
OTF_GC_OVERLAP=1 OTF_GC_THREADS=4 OTF_GC_LAZY_SWEEP=1 OTF_GC_SHARDS=4 \
    cargo test -q --offline --test chaos --test gc_correctness --test plan_equivalence

# Chaos smoke: the fixed-seed fault-injection matrix (debug build — the
# debug_asserts on the hardened failure paths must hold too).  The binary
# exits non-zero on a hang, a heap violation after any schedule, a
# non-reproducible injection sequence, or uncontained collector death.
cargo build --offline -p otf-bench --bin stress_chaos
./target/debug/stress_chaos --quick --seed 42

# The chaos matrix once more with sharding enabled: `heap.alloc_chunk`
# faults fire before the backend dispatch, so an injected allocation
# failure still simulates whole-heap exhaustion on the sharded path.
OTF_GC_SHARDS=4 ./target/debug/stress_chaos --quick --seed 42
