//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent, burst)`: the benchmark opens one
//! around each call it makes into a layer, so spans nest on the one thread
//! that drives the traced pass. Spans stay in memory while the pass runs and
//! are written out once it ends ([`Tracer::write_to`]). A layer's self time
//! is its span's duration minus the part of that interval its child spans
//! cover ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no burst" marker.
pub const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The input burst the span works on, or [`NONE`].
    pub burst: u32,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Interns a span name; call once per name before the hot loop.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: u16, burst: u32) -> u32 {
        let start = self.now();
        self.push(name, start, burst)
    }

    /// Closes the innermost open span (which must be `id`).
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        self.close(id, end);
    }

    /// Closes span `id` under a different name — for spans classified by
    /// what the call returned (e.g. the engine status of one `process`).
    pub fn exit_as(&mut self, id: u32, name: u16) {
        self.spans[id as usize].name = name;
        self.exit(id);
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: u16, burst: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, burst);
        let out = f();
        self.exit(id);
        out
    }

    fn push(&mut self, name: u16, start: u64, burst: u32) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            burst,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32, end: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end = end;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The name table.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(self.names[span.name as usize]).or_default();
            t.calls += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: u16) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as tab-separated text: one `# name <id> <name>`
    /// line per span name, a column header, then one line per span in
    /// opening order (its id is its line's position among the span lines;
    /// `-` marks no parent or no burst).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, name) in self.names.iter().enumerate() {
            writeln!(out, "# name {id} {name}")?;
        }
        writeln!(out, "parent\tburst\tname\tstart_ns\tend_ns")?;
        let field = |out: &mut std::io::BufWriter<std::fs::File>, v: u32| {
            if v == NONE {
                out.write_all(b"-\t")
            } else {
                write!(out, "{v}\t")
            }
        };
        for s in &self.spans {
            field(&mut out, s.parent)?;
            field(&mut out, s.burst)?;
            writeln!(out, "{}\t{}\t{}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = covered_length(kids, s.start, s.end);
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: 0,
            start,
            end,
            parent,
            burst: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100]; children overlap each other and one overruns the
        // parent: covered = [10,30] ∪ [90,100] = 30, so self = 70.
        let spans = [
            span(0, 100, NONE),
            span(10, 20, 0),
            span(15, 30, 0),
            span(90, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![70, 10, 15, 30]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        // root [0,50] > a [5,25] > a1 [6,10]; root > b [30,45].
        let spans = [
            span(0, 50, NONE),
            span(5, 25, 0),
            span(6, 10, 1),
            span(30, 45, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![15, 16, 4, 15]);
        assert_eq!(selfs.iter().sum::<u64>(), 50);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new();
        let outer = t.name("outer");
        let inner = t.name("inner");
        let other = t.name("other");
        assert_eq!(t.name("inner"), inner, "names are interned");
        let o = t.enter(outer, 7);
        t.span(inner, 7, || std::hint::black_box(1 + 1));
        let x = t.enter(inner, 7);
        t.exit_as(x, other);
        t.exit(o);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].name, other);
        let totals = t.totals();
        assert_eq!(totals["inner"].calls, 1);
        assert_eq!(totals["other"].calls, 1);
        let sum_self: u64 = totals.values().map(|v| v.self_ns).sum();
        assert_eq!(sum_self, totals["outer"].total_ns);
    }
}
