//! The per-layer ledger: what each layer did and what it cost, from one
//! traced generational run, one traced non-generational run and the
//! probes.  Names are `<module>.<metric>`; README.md says which
//! end-to-end metric each should move, on which workload.

use std::time::Duration;

use otf_gc::{CycleKind, CycleStats, GcStats};

use crate::probes::Probes;
use crate::rep::Rep;
use crate::report::{ratio, Metric, MIB};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sums over a run's cycles.
#[derive(Default)]
struct CycleSums {
    active: Duration,
    init: Duration,
    handshakes: Duration,
    cards: Duration,
    roots: Duration,
    trace: Duration,
    sweep: Duration,
    /// Phase time as it adds up to cycle wall time: an overlapped
    /// schedule's cards, roots and trace are CPU times that may exceed
    /// the wall time they ran in, so `mark_wall` stands in for them.
    phase_wall: Duration,
    objects_traced: u64,
    intergen_objects: u64,
    dirty_cards: u64,
    partial_dirty_cards: u64,
    partial_cards_in_use: u64,
    bytes_freed: u64,
    pages_touched: u64,
}

impl CycleSums {
    fn of(stats: &GcStats) -> CycleSums {
        let mut s = CycleSums::default();
        for c in &stats.cycles {
            s.add(c);
        }
        s
    }

    fn add(&mut self, c: &CycleStats) {
        let p = &c.phases;
        self.active += c.duration;
        self.init += p.init;
        self.handshakes += p.handshakes;
        self.cards += p.cards;
        self.roots += p.roots;
        self.trace += p.trace;
        self.sweep += p.sweep;
        let mark = if p.mark_wall.is_zero() {
            p.cards + p.roots + p.trace
        } else {
            p.mark_wall
        };
        self.phase_wall += p.init + p.handshakes + mark + p.sweep;
        self.objects_traced += c.objects_traced;
        self.intergen_objects += c.intergen_objects;
        self.dirty_cards += c.dirty_cards;
        if c.kind == CycleKind::Partial {
            self.partial_dirty_cards += c.dirty_cards;
            self.partial_cards_in_use += c.cards_in_use;
        }
        self.bytes_freed += c.bytes_freed;
        self.pages_touched += c.pages_touched;
    }
}

/// Every per-layer metric, in BENCHMARK.json's order.
/// `trace_overhead_pct` is how much longer the same command's traced
/// generational repetitions took than its untraced ones.
pub fn per_layer(gen: &Rep, nogen: &Rep, p: &Probes, trace_overhead_pct: f64) -> Vec<Metric> {
    let st = &gen.stats;
    let sums = CycleSums::of(st);
    let nogen_sums = CycleSums::of(&nogen.stats);
    let objects = st.objects_allocated as f64;
    let mutator_wall_ns = gen.mutator_wall_s() * 1e9;
    let refills = st.lab_refill.count() as f64;
    let m = Metric::new;
    vec![
        // mutator: otf-gc's mutator side.
        m("mutator.alloc_ns", p.alloc_ns, "ns"),
        m("mutator.alloc_2t_ns", p.alloc_2t_ns, "ns"),
        // Two threads' allocation throughput over one thread's.
        m(
            "mutator.alloc_scale_2t",
            ratio(2.0 * p.alloc_ns, p.alloc_2t_ns),
            "ratio",
        ),
        m("mutator.write_ref_ns", p.write_ref_ns, "ns"),
        m("mutator.write_ref_nogen_ns", p.write_ref_nogen_ns, "ns"),
        m("mutator.cooperate_ns", p.cooperate_ns, "ns"),
        m("mutator.objects_allocated", objects, "count"),
        m(
            "mutator.allocated_mb",
            st.bytes_allocated as f64 / MIB,
            "MB",
        ),
        m(
            "mutator.barrier_slow_hits",
            st.barrier_slow_hits as f64,
            "count",
        ),
        m("mutator.pauses", st.pause.count() as f64, "count"),
        m("mutator.pause_p50_ns", st.pause.quantile(0.5) as f64, "ns"),
        m("mutator.pause_p99_us", us(st.pause.quantile(0.99)), "us"),
        m("mutator.pause_max_us", us(st.pause.max()), "us"),
        m(
            "mutator.alloc_stalls",
            st.alloc_stall.count() as f64,
            "count",
        ),
        m("mutator.alloc_stall_max_us", us(st.alloc_stall.max()), "us"),
        m("mutator.cpu_s", gen.mutator_cpu_s(), "s"),
        m(
            "mutator.alloc_share_pct",
            100.0 * ratio(objects * p.alloc_ns, mutator_wall_ns),
            "%",
        ),
        // heap: otf-heap, as the mutators' LAB refills see it.
        m("heap.lab_refills", refills, "count"),
        m("heap.objects_per_refill", ratio(objects, refills), "count"),
        m(
            "heap.lab_refill_p50_ns",
            st.lab_refill.quantile(0.5) as f64,
            "ns",
        ),
        m(
            "heap.lab_refill_p99_ns",
            st.lab_refill.quantile(0.99) as f64,
            "ns",
        ),
        m("heap.lab_refill_max_us", us(st.lab_refill.max()), "us"),
        m(
            "heap.refill_share_pct",
            100.0 * ratio(refills * st.lab_refill.mean(), mutator_wall_ns),
            "%",
        ),
        m("heap.used_at_join_mb", gen.used_bytes as f64 / MIB, "MB"),
        // The space cost.  Committed size moves in 4 MiB steps on the
        // collector's timing, too coarsely to carry a regression bound.
        m("heap.committed_mb", gen.committed_bytes as f64 / MIB, "MB"),
        m(
            "heap.committed_nogen_mb",
            nogen.committed_bytes as f64 / MIB,
            "MB",
        ),
        m("heap.alloc_chunk_ns", p.alloc_chunk_ns, "ns"),
        m(
            "heap.free_batch_ns_per_chunk",
            p.free_batch_ns_per_chunk,
            "ns",
        ),
        // collector: otf-gc's collector and plan.
        m(
            "collector.cycles_partial",
            st.partial_count() as f64,
            "count",
        ),
        m("collector.cycles_full", st.full_count() as f64, "count"),
        m("collector.gc_active_ms", ms(sums.active), "ms"),
        m("collector.init_ms", ms(sums.init), "ms"),
        m("collector.handshakes_ms", ms(sums.handshakes), "ms"),
        m("collector.cards_ms", ms(sums.cards), "ms"),
        m("collector.roots_ms", ms(sums.roots), "ms"),
        m("collector.trace_ms", ms(sums.trace), "ms"),
        m("collector.sweep_ms", ms(sums.sweep), "ms"),
        m(
            "collector.phase_sum_ratio",
            ratio(ms(sums.phase_wall), ms(sums.active)),
            "ratio",
        ),
        m(
            "collector.objects_traced",
            sums.objects_traced as f64,
            "count",
        ),
        m(
            "collector.intergen_objects",
            sums.intergen_objects as f64,
            "count",
        ),
        m("collector.dirty_cards", sums.dirty_cards as f64, "count"),
        m(
            "collector.dirty_card_pct",
            100.0
                * ratio(
                    sums.partial_dirty_cards as f64,
                    sums.partial_cards_in_use as f64,
                ),
            "%",
        ),
        m("collector.freed_mb", sums.bytes_freed as f64 / MIB, "MB"),
        m(
            "collector.pages_touched",
            sums.pages_touched as f64,
            "count",
        ),
        m(
            "collector.trace_ns_per_obj",
            ratio(sums.trace.as_nanos() as f64, sums.objects_traced as f64),
            "ns",
        ),
        m(
            "collector.handshake_p50_us",
            us(st.handshake.quantile(0.5)),
            "us",
        ),
        m(
            "collector.handshake_p90_us",
            us(st.handshake.quantile(0.9)),
            "us",
        ),
        m("collector.handshake_max_us", us(st.handshake.max()), "us"),
        // Whatever the process burned that the mutator threads did not.
        m("collector.cpu_s", gen.cpu_s - gen.mutator_cpu_s(), "s"),
        m(
            "collector.nogen.cycles",
            nogen.stats.cycles.len() as f64,
            "count",
        ),
        m("collector.nogen.gc_active_ms", ms(nogen_sums.active), "ms"),
        m(
            "collector.nogen.cpu_s",
            nogen.cpu_s - nogen.mutator_cpu_s(),
            "s",
        ),
        m("collector.nogen.trace_ms", ms(nogen_sums.trace), "ms"),
        m("collector.nogen.sweep_ms", ms(nogen_sums.sweep), "ms"),
        m(
            "collector.nogen.objects_traced",
            nogen_sums.objects_traced as f64,
            "count",
        ),
        m("collector.full_cycle_ms", p.full_cycle_ms, "ms"),
        m("collector.partial_cycle_ms", p.partial_cycle_ms, "ms"),
        // tablescan: otf-support's side-table kernels.
        m("tablescan.find_sparse_gbps", p.find_sparse_gbps, "GB/s"),
        m("tablescan.find_dense_gbps", p.find_dense_gbps, "GB/s"),
        m("tablescan.run_end_gbps", p.run_end_gbps, "GB/s"),
        m("tablescan.count_gbps", p.count_gbps, "GB/s"),
        m("tablescan.fill_gbps", p.fill_gbps, "GB/s"),
        // obs: what being observable costs.
        m("obs.trace_overhead_pct", trace_overhead_pct, "%"),
        m("obs.events_recorded", gen.events.len() as f64, "count"),
        m("obs.events_dropped", st.dropped_events as f64, "count"),
        m("obs.hist_record_ns", p.hist_record_ns, "ns"),
    ]
}
