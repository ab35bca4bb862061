//! In-memory spans around the benchmark's own calls into each layer,
//! written out once when the traced command ends.
//!
//! A span is (name, start, end, parent); spans of one run share a run
//! id.  A span's self time is its duration minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use otf_gc::{phase, EventKind, GcEvent};

use crate::rep::Rep;
use crate::report::json_string;

#[derive(Clone, Debug)]
pub struct Span {
    pub run: u32,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans; a span's id is its index.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    runs: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            runs: 0,
        }
    }

    /// A fresh id for the spans of one run.
    pub fn new_run(&mut self) -> u32 {
        self.runs += 1;
        self.runs
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            run,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `id` (for a parent pushed before its
    /// children so that they can name it).
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        run: u32,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(run, parent, name, start, Instant::now());
        out
    }

    /// The spans of one traced repetition: `run` over `setup`,
    /// `mutators` (over one `mutator.thread.N` each) and `shutdown`,
    /// plus the collector's cycles (over their phases) as read back from
    /// the event ring.  The collector works while the mutators run, so
    /// cycle spans overlap `mutators`; `run`'s self time is what neither
    /// covers.
    pub fn push_rep(&mut self, label: &str, rep: &Rep) {
        let run = self.new_run();
        let root = self.push(
            run,
            None,
            format!("run.{label}"),
            rep.t_setup,
            rep.t_shutdown,
        );
        self.push(
            run,
            Some(root),
            "setup",
            rep.t_setup,
            rep.t_setup + rep.setup,
        );
        let mutators = self.push(run, Some(root), "mutators", rep.t_spawn, rep.t_join);
        for (n, t) in rep.threads.iter().enumerate() {
            self.push(
                run,
                Some(mutators),
                format!("mutator.thread.{n}"),
                t.start,
                t.end,
            );
        }
        self.push(run, Some(root), "shutdown", rep.t_join, rep.t_shutdown);
        self.push_events(run, root, rep);
    }

    /// Pairs begin/end events into spans.  A begin whose end fell off
    /// the ring (or the reverse) is dropped.
    fn push_events(&mut self, run: u32, root: usize, rep: &Rep) {
        let at = |e: &GcEvent| rep.gc_epoch + std::time::Duration::from_nanos(e.t_ns);
        let mut cycle: Option<(Instant, u64)> = None;
        // Phases of the cycle being assembled, and the open begin per
        // phase id (overlapped schedules interleave phases).
        let mut phases: Vec<(u64, Instant, Instant)> = Vec::new();
        let mut open: BTreeMap<u64, Instant> = BTreeMap::new();
        for e in &rep.events {
            match e.kind {
                EventKind::CycleBegin => {
                    cycle = Some((at(e), e.a));
                    phases.clear();
                    open.clear();
                }
                EventKind::PhaseBegin => {
                    open.insert(e.a, at(e));
                }
                EventKind::PhaseEnd => {
                    if let Some(start) = open.remove(&e.a) {
                        phases.push((e.a, start, at(e)));
                    }
                }
                EventKind::CycleEnd => {
                    if let Some((start, full)) = cycle.take() {
                        let kind = if full == 0 { "partial" } else { "full" };
                        let id = self.push(run, Some(root), format!("cycle.{kind}"), start, at(e));
                        for (p, s, t) in phases.drain(..) {
                            self.push(run, Some(id), format!("phase.{}", phase::name(p)), s, t);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Self time per span, in ns.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut upto = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(upto);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        upto = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The trace file: `header` members (already JSON) and every span.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  {}: {},", json_string(k), v);
        }
        out.push_str("  \"spans\": [\n");
        let selfs = self.self_ns();
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"run\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.run,
                json_string(&s.name),
                s.start_ns,
                s.end_ns,
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        let t = r.epoch;
        let at = |ms| t + Duration::from_millis(ms);
        let run = r.new_run();
        let root = r.push(run, None, "run", at(0), at(100));
        // Two overlapping children (10..40, 30..60) and one that sticks
        // out past the parent (90..120): covered = 50 + 10.
        r.push(run, Some(root), "a", at(10), at(40));
        r.push(run, Some(root), "b", at(30), at(60));
        r.push(run, Some(root), "c", at(90), at(120));
        let selfs = r.self_ns();
        assert_eq!(selfs[root], 40_000_000);
        assert_eq!(selfs[1], 30_000_000);
        let json = crate::json::parse(&r.to_json(&[("workload", "\"x\"".into())])).unwrap();
        assert_eq!(json.get("spans").unwrap().as_array().unwrap().len(), 4);
    }
}
