//! Benchmark-owned spans around every public call the benchmark makes
//! into the crates. Spans stay in memory and are written out when the
//! run ends; a disabled tracer (every timed pass) records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it (0 = none) and
/// `op` the operation (request, algorithm call, batch) it belongs to, so
/// the spans of one operation share an identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink shared by the load-generator threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// its own calls. Disabled, this is a plain call with id 0.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("no span is recorded while panicking").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span is recorded while panicking").clone()
    }
}

/// Count, total and self time of all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of one span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (two client
/// threads under one pass span) and may stick out of the parent; the
/// covered part is the union of their intervals clipped to the parent.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Per-name totals over a set of spans.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns(s, kids);
    }
    out
}

/// Write spans as JSON lines: `{"id","parent","op","name","start_ns","end_ns"}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let parent = span(1, 0, 0, 100);
        let a = span(2, 1, 10, 30);
        let b = span(3, 1, 50, 70);
        assert_eq!(self_ns(&parent, &[&a, &b]), 60);
        assert_eq!(self_ns(&a, &[]), 20);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let parent = span(1, 0, 0, 100);
        let a = span(2, 1, 10, 60);
        let b = span(3, 1, 40, 80); // overlaps a by 20
        let inside_a = span(4, 1, 20, 30); // wholly covered already
        assert_eq!(self_ns(&parent, &[&b, &inside_a, &a]), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = span(1, 0, 50, 100);
        let early = span(2, 1, 0, 60);
        let late = span(3, 1, 90, 500);
        let outside = span(4, 1, 200, 300);
        assert_eq!(self_ns(&parent, &[&early, &late, &outside]), 30);
    }

    #[test]
    fn totals_group_by_name_and_sum_to_the_root() {
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 0, 40), span(3, 2, 10, 20)];
        spans[0].name = "pass";
        spans[1].name = "call";
        spans[2].name = "call";
        let t = totals_by_name(&spans);
        assert_eq!(t["pass"], NameTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(t["call"], NameTotals { count: 2, total_ns: 50, self_ns: 40 });
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_passes_id_zero() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 1, |id| id), 0);
        assert!(off.snapshot().is_empty());
        let on = Tracer::new(true);
        let inner = on.span("outer", 0, 7, |outer| on.span("inner", outer, 7, |id| id));
        let spans = on.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, inner);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}
