//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own files around calls into the
//! product's public functions (no product file is touched). They are
//! kept in memory and written as JSON lines when the workload ends; a
//! layer's self time is its span minus the part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median_and_count;

/// One recorded span. `parent` indexes into the same trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`crate.module.what`).
    pub name: &'static str,
    /// The sampled operation this span belongs to.
    pub op: u64,
    /// Index of the causing span, `None` for an operation's root.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one traced client.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval as the last part of the closed
    /// span `parent` (for durations the product reports itself, e.g. a
    /// router answer's slowest round 1 and merge).
    pub fn span_closing(&mut self, name: &'static str, op: u64, parent: u32, duration_ns: u64) {
        let end = self.spans[parent as usize].end_ns;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns: end.saturating_sub(duration_ns),
            end_ns: end,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of distinct sampled operations.
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// Median duration of the spans called `name`, microseconds, and how
    /// many there are.
    pub fn median_us(&self, name: &str) -> (f64, u64) {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect();
        median_and_count(&d)
    }

    /// Share of the root spans' time that a named child span accounts for
    /// (1 − root self time ÷ root time): how much of the traced wall time
    /// the trace attributes to a layer.
    pub fn attributed_frac(&self) -> f64 {
        let selfs = self_times(&self.spans);
        let (mut total, mut own) = (0u64, 0u64);
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                total += s.duration_ns();
                own += self_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }

    /// Writes the spans as JSON lines (`name, op, parent, start_ns,
    /// end_ns, self_ns`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let spans = vec![
            span("op", None, 0, 100),
            span("served", Some(0), 10, 40),
            // Overlaps `served` by 10 ns and sticks out of the parent by 20.
            span("replay", Some(0), 30, 120),
            span("provider", Some(2), 35, 95),
            span("solve", Some(2), 95, 110),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 100) of the root: 90 ns.
        assert_eq!(selfs[0], 10);
        assert_eq!(selfs[1], 30);
        // `replay` is 90 ns long, its children cover [35, 110): 75 ns.
        assert_eq!(selfs[2], 15);
        assert_eq!(selfs[3], 60);
        assert_eq!(selfs[4], 15);
    }

    #[test]
    fn recorder_nests_and_attributes() {
        let mut t = Trace::new();
        let root = t.begin("op", 7, None);
        t.span("served", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        t.span_closing("merge", 7, root, 500_000);
        assert_eq!(t.ops(), 1);
        assert_eq!(t.spans().len(), 3);
        let (served_us, n) = t.median_us("served");
        assert!(n == 1 && served_us >= 2_000.0);
        assert_eq!(t.median_us("absent"), (0.0, 0));
        let frac = t.attributed_frac();
        assert!(frac > 0.5 && frac <= 1.0, "attributed {frac}");
        let dir = std::env::temp_dir().join(format!("netclus-bench-trace-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
