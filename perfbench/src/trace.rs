//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the self-time fold that turns them into per-layer time.
//!
//! Spans are recorded only in the traced run. They live in memory while
//! the run measures and are written out once, when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`lang.compile`, `gc.cycle`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (program run or marking pass) the span belongs to.
    pub run: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Records nested spans on one thread. A disabled tracer records nothing,
/// so the untraced run executes the same code with no clock reads added.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, run: u32) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            run,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("span end without a begin");
        self.spans[i].end_ns = now;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic left
    /// some open).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, run: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, run);
        let out = f();
        self.end();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total duration and total self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        fold_self_times(&self.spans)
    }

    /// The spans as JSON lines (`name`, `run`, `id`, `parent`, `start_ns`,
    /// `end_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-name totals of a span fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the union of the parts of its
/// interval that its children cover. Children may overlap one another (on
/// several threads) and may stick out of the parent; each covered
/// nanosecond is subtracted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Folds spans into per-name totals with self times.
pub fn fold_self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time(s.start_ns, s.end_ns, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Children [10,40) and [30,60) overlap on [30,40): they cover 50ns
        // of the parent's 100, not 60.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested and duplicated children count once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Disjoint children, given out of order.
        assert_eq!(self_time(0, 100, &[(70, 80), (0, 10)]), 80);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn fold_groups_by_name_and_charges_only_direct_children() {
        let spans = vec![
            span("program", None, 0, 100),
            span("gc.cycle", Some(0), 10, 40),
            span("gc.cycle", Some(0), 30, 60), // overlaps its sibling
            span("inner", Some(1), 15, 20),
        ];
        let f = fold_self_times(&spans);
        assert_eq!(f["program"].self_ns, 50);
        assert_eq!(f["program"].total_ns, 100);
        assert_eq!(f["gc.cycle"].count, 2);
        assert_eq!(f["gc.cycle"].total_ns, 60);
        // The first cycle loses its 5ns child; the second has none.
        assert_eq!(f["gc.cycle"].self_ns, 25 + 30);
        assert_eq!(f["inner"].self_ns, 5);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, || {
            let mut x = 0u64;
            for i in 0..1000 {
                x = std::hint::black_box(x + i);
            }
            x
        });
        t.begin("a", 1);
        t.begin("b", 1);
        t.end();
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].run), (None, 7));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
        assert_eq!(t.to_jsonl().lines().count(), 3);

        let mut off = Tracer::new(false);
        off.span("outer", 0, || ());
        assert!(off.spans().is_empty());
    }
}
