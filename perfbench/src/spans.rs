//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (nothing inside the crates is instrumented). Each worker thread owns a
//! [`Tracer`]; the buffers are merged and written out when the run ends.

use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `workloads.gen`.
    pub name: &'static str,
    /// Global cell id (index into the workload's cell list).
    pub cell: usize,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Whether the span times a separate builder call on an identically
    /// seeded allocator rather than the cell's own work.
    pub estimate: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span buffer with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all workers
    /// of a run so their spans share one time axis).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span named `name`, nested under the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: usize,
        estimate: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            estimate,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// End every open span now: a cell that panicked left its spans open.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merge per-worker buffers into one list, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for buf in buffers {
        let base = out.len();
        out.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            cell: 0,
            start_ns,
            end_ns,
            parent,
            estimate: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // cell [0,100) ⊃ gen [10,30), layout [30,60) ⊃ alloc [40,50),
        // run [60,95).
        let spans = vec![
            span("bench.cell", 0, 100, None),
            span("workloads.gen", 10, 30, Some(0)),
            span("ds.layout", 30, 60, Some(0)),
            span("core.alloc", 40, 50, Some(2)),
            span("workloads.run", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 20, 10, 35]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("outer", 0, false, |t| t.span("inner", 0, false, |_| ()));
        let mut b = Tracer::new(epoch);
        b.span("outer", 1, false, |t| t.span("inner", 1, true, |_| ()));
        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
        assert!(merged[3].estimate);
        let st = self_times(&merged);
        assert_eq!(st[0] + st[1], merged[0].dur_ns());
    }
}
