//! Dataset loaders: MatrixMarket (`.mtx`), whitespace edge lists, and
//! DIMACS shortest-path (`.gr`) — the three formats networkrepository.com
//! and the SNAP/DIMACS mirrors distribute. Real datasets can therefore be
//! dropped into any experiment in place of the synthetic twins.
//!
//! Loaders treat their input as **untrusted**: every id and dimension is
//! parsed with checked arithmetic, non-finite weights are rejected, and
//! [`LoadLimits`] bound how large a graph a header may declare (a hostile
//! header must not be able to command a huge allocation). Each format has
//! one loader, and each takes [`LoadOptions`]: [`LoadMode::Repair`] dedupes
//! parallel edges, drops self loops and raises weights below 1, reporting
//! counts; [`LoadMode::Strict`] turns any needed repair into an error.

use crate::builder::BuildReport;
use crate::{Graph, GraphBuilder, VertexId, Weight};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::str::{FromStr, SplitWhitespace};

/// Errors surfaced while parsing a dataset.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or lexical problem, with the line it is on and a
    /// message.
    Parse {
        /// 1-based line number; `None` for a problem of the whole file
        /// (no edges, no header, a strict-mode refusal of repairs).
        line: Option<usize>,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line: Some(line), msg } => {
                write!(f, "parse error at line {line}: {msg}")
            }
            LoadError::Parse { line: None, msg } => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn perr<T>(line: impl Into<Option<usize>>, msg: impl Into<String>) -> Result<T, LoadError> {
    Err(LoadError::Parse { line: line.into(), msg: msg.into() })
}

/// Hard ceilings on what a loader will accept, regardless of what the
/// file's header claims. Defaults comfortably cover the paper's corpus
/// (largest graph: 16.8M vertices) while keeping a hostile header from
/// commanding a multi-terabyte build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadLimits {
    /// Maximum vertex count (declared or inferred).
    pub max_vertices: usize,
    /// Maximum edge count (declared or actual).
    pub max_edges: usize,
}

impl Default for LoadLimits {
    fn default() -> Self {
        LoadLimits { max_vertices: 1 << 28, max_edges: 1 << 31 }
    }
}

/// What to do with input that needs repair (self loops, parallel edges,
/// weights below 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadMode {
    /// Repair silently-fixable problems and report counts: dedupe
    /// parallel edges, drop self loops (the builder's normal
    /// preprocessing, matching the paper's §5.1), raise weights below 1.
    /// The default.
    #[default]
    Repair,
    /// Any needed repair — and any declared-vs-actual entry-count
    /// mismatch — is a structured error. Parallel edges are counted in
    /// directed units post-symmetrization, so a file listing both
    /// orientations of an undirected edge is rejected too.
    Strict,
}

/// Options every loader takes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadOptions {
    /// Size ceilings.
    pub limits: LoadLimits,
    /// Strict or repair handling of dirty input.
    pub mode: LoadMode,
}

impl LoadOptions {
    /// Default limits, strict mode.
    pub fn strict() -> Self {
        LoadOptions { mode: LoadMode::Strict, ..Default::default() }
    }
}

/// A loaded graph plus what repair-mode loading had to fix.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// The graph, fully built.
    pub graph: Graph,
    /// Repair counts (all zero in strict mode — anything non-zero
    /// would have been an error).
    pub report: BuildReport,
    /// Records whose weight was below 1 and was raised to 1 (zero in
    /// strict mode, like `report`).
    pub weights_raised: usize,
}

impl Loaded {
    /// Every repair the load made: self loops dropped, parallel edges
    /// deduped and weights raised.
    pub fn repairs(&self) -> usize {
        self.report.self_loops_dropped + self.report.parallel_edges_deduped + self.weights_raised
    }
}

/// Reserve at most this many edges up front on the strength of a
/// header's claim; anything larger grows amortized as real entries
/// arrive, so an oversized header alone cannot command the allocation.
const HEADER_RESERVE_CAP: usize = 1 << 20;

fn check_counts(n: usize, m: usize, limits: &LoadLimits) -> Result<(), String> {
    if n > limits.max_vertices {
        return Err(format!("vertex count {n} exceeds limit {}", limits.max_vertices));
    }
    if n > VertexId::MAX as usize {
        return Err(format!("vertex count {n} does not fit a 32-bit vertex id"));
    }
    if m > limits.max_edges {
        return Err(format!("edge count {m} exceeds limit {}", limits.max_edges));
    }
    Ok(())
}

/// One record of a text format: its 1-based line number and the line.
type Record = Result<(usize, String), LoadError>;

/// The records of a text format: its non-blank lines that do not start
/// with one of `comments`.
fn records(r: impl Read, comments: &'static str) -> impl Iterator<Item = Record> {
    BufReader::new(r).lines().enumerate().filter_map(move |(i, l)| match l {
        Ok(l) => {
            let t = l.trim_start();
            (!t.is_empty() && !t.starts_with(|c| comments.contains(c))).then_some(Ok((i + 1, l)))
        }
        Err(e) => Some(Err(e.into())),
    })
}

/// The next field of the record on `line` as a `T`; `what` is the error
/// when it is missing or does not parse.
fn field<T: FromStr>(it: &mut SplitWhitespace, line: usize, what: &str) -> Result<T, LoadError> {
    match it.next().map(str::parse) {
        Some(Ok(v)) => Ok(v),
        _ => perr(line, what),
    }
}

/// A 1-based `u v` pair inside `1..=n`, as 0-based ids.
fn ids(it: &mut SplitWhitespace, line: usize, n: usize) -> Result<(VertexId, VertexId), LoadError> {
    let u: usize = field(it, line, "bad source index")?;
    let v: usize = field(it, line, "bad target index")?;
    if u == 0 || v == 0 || u > n || v > n {
        return perr(line, format!("index ({u},{v}) outside 1..={n} (ids are 1-based)"));
    }
    Ok(((u - 1) as VertexId, (v - 1) as VertexId))
}

/// The weight rule of every format: a stored weight is at least 1, so
/// repair mode raises a smaller one, counting it in `raised`, and strict
/// mode refuses it.
fn weight(line: usize, w: Weight, mode: LoadMode, raised: &mut usize) -> Result<Weight, LoadError> {
    if w < 1 {
        if mode == LoadMode::Strict {
            return perr(line, format!("strict mode: weight {w} is below 1"));
        }
        *raised += 1;
    }
    Ok(w.max(1))
}

/// An edge as a record yields it: 0-based ids and the weight, if any.
type Edge = (VertexId, VertexId, Option<Weight>);

/// Read the records after a header on `line` that declared `n` vertices
/// and `m` records (`noun`), one edge each, parsed by `edge`. More than
/// `m` is refused in every mode, fewer only under strict mode.
fn body(
    recs: impl Iterator<Item = Record>,
    (line, n, m, noun): (usize, usize, usize, &str),
    opts: &LoadOptions,
    mut edge: impl FnMut(&mut SplitWhitespace, usize) -> Result<Edge, LoadError>,
) -> Result<GraphBuilder, LoadError> {
    check_counts(n, m, &opts.limits).or_else(|e| perr(line, e))?;
    let mut b = GraphBuilder::with_capacity(n, m.min(HEADER_RESERVE_CAP));
    let (mut found, mut last) = (0usize, line);
    for rec in recs {
        let (line, text) = rec?;
        let (u, v, w) = edge(&mut text.split_whitespace(), line)?;
        (found, last) = (found + 1, line);
        if found > m {
            return perr(line, format!("more {noun} than the header declared ({m})"));
        }
        match w {
            Some(w) => b.push_weighted_edge(u, v, w),
            None => b.push_edge(u, v),
        }
    }
    if opts.mode == LoadMode::Strict && found != m {
        return perr(last, format!("truncated: header declared {m} {noun}, found {found}"));
    }
    Ok(b)
}

/// What a parser read: the edges and how many weights it raised.
type Parsed = Result<(GraphBuilder, usize), LoadError>;

/// Build what a parser read and apply strict mode.
fn finish(parsed: Parsed, opts: &LoadOptions) -> Result<Loaded, LoadError> {
    let (b, weights_raised) = parsed?;
    let (graph, report) = b.build_with_report();
    if opts.mode == LoadMode::Strict && !report.is_clean() {
        return perr(
            None,
            format!(
                "strict mode: input needs repair ({} self loops, {} parallel directed edges)",
                report.self_loops_dropped, report.parallel_edges_deduped
            ),
        );
    }
    Ok(Loaded { graph, report, weights_raised })
}

/// Load a MatrixMarket coordinate file. Supports `pattern`, `integer`, and
/// `real` fields; `general` and `symmetric` symmetry, and refuses any other
/// header. Real weights are rounded to the nearest integer (the paper uses
/// integer-weighted SSSP) before the weight rule applies; a negative weight
/// is folded to its magnitude, or refused under strict mode. The graph is
/// always symmetrized, matching the paper's preprocessing.
pub fn load_mtx(r: impl Read, opts: &LoadOptions) -> Result<Loaded, LoadError> {
    finish(mtx(r, opts), opts)
}

fn mtx(r: impl Read, opts: &LoadOptions) -> Parsed {
    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>, the first
    // non-blank line. Lines after it that start with `%` are comments.
    let mut recs = records(r, "");
    let (line, header) = recs.next().unwrap_or_else(|| perr(None, "empty file"))?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() < 5 || !h[0].starts_with("%%MatrixMarket") {
        return perr(line, "missing %%MatrixMarket header");
    }
    let is = |i: usize, words: &[&str]| words.iter().any(|w| h[i].eq_ignore_ascii_case(w));
    if !is(1, &["matrix"]) || !is(2, &["coordinate"]) {
        return perr(line, "only `matrix coordinate` files are supported");
    }
    if !is(3, &["pattern", "integer", "real"]) || !is(4, &["general", "symmetric"]) {
        return perr(line, format!("unsupported field or symmetry `{} {}`", h[3], h[4]));
    }
    let weighted = !is(3, &["pattern"]);

    let mut recs = recs.filter(|r| !matches!(r, Ok((_, l)) if l.trim_start().starts_with('%')));
    let (line, size) = recs.next().unwrap_or_else(|| perr(line, "missing size line"))?;
    const SIZE: &str = "bad size line: expected `rows cols nnz`";
    let mut it = size.split_whitespace();
    let (rows, cols): (usize, usize) = (field(&mut it, line, SIZE)?, field(&mut it, line, SIZE)?);
    let nnz: usize = field(&mut it, line, SIZE)?;
    if it.next().is_some() {
        return perr(line, SIZE);
    }
    let n = rows.max(cols);
    let mut raised = 0;
    let b = body(recs, (line, n, nnz, "entries"), opts, |it, line| {
        let (u, v) = ids(it, line, n)?;
        if !weighted {
            return Ok((u, v, None));
        }
        let w: f64 = field(it, line, "missing weight")?;
        if !w.is_finite() {
            return perr(line, format!("non-finite weight {w}"));
        }
        if opts.mode == LoadMode::Strict && w < 0.0 {
            return perr(line, format!("strict mode: negative weight {w}"));
        }
        Ok((u, v, Some(weight(line, w.abs().round() as Weight, opts.mode, &mut raised)?)))
    })?;
    Ok((b.name("mtx"), raised))
}

/// Load a whitespace/tab edge list (`u v [w]` per line, `#`/`%` comments).
/// Vertex ids may start at 0 or 1; `n` is inferred as `max_id + 1`.
pub fn load_edge_list(r: impl Read, opts: &LoadOptions) -> Result<Loaded, LoadError> {
    finish(edge_list(r, opts), opts)
}

fn edge_list(r: impl Read, opts: &LoadOptions) -> Parsed {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let (mut weighted, mut raised) = (None, 0);
    let mut max_id: VertexId = 0;
    for rec in records(r, "#%") {
        let (line, text) = rec?;
        let mut it = text.split_whitespace();
        let u: VertexId =
            field(&mut it, line, "bad source id (must fit a 32-bit unsigned integer)")?;
        let v: VertexId =
            field(&mut it, line, "bad target id (must fit a 32-bit unsigned integer)")?;
        let w = match it.next() {
            Some(w) => {
                let w = w.parse().or_else(|_| perr(line, "bad weight"))?;
                Some(weight(line, w, opts.mode, &mut raised)?)
            }
            None => None,
        };
        if *weighted.get_or_insert(w.is_some()) != w.is_some() {
            return perr(line, "mixed weighted and unweighted lines");
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w.unwrap_or(0)));
        if edges.len() > opts.limits.max_edges {
            return perr(line, format!("edge count exceeds limit {}", opts.limits.max_edges));
        }
    }
    if edges.is_empty() {
        return perr(None, "no edges in file");
    }
    // Checked: a hostile id of u32::MAX on a 32-bit host would wrap
    // `max_id + 1` to zero and build an empty vertex set.
    let Some(n) = (max_id as usize).checked_add(1) else {
        return perr(None, format!("vertex id {max_id} overflows"));
    };
    check_counts(n, edges.len(), &opts.limits).or_else(|e| perr(None, e))?;
    let b = GraphBuilder::with_capacity(n, edges.len()).name("edgelist");
    let b = match weighted {
        Some(true) => b.weighted_edges(edges),
        _ => b.edges(edges.into_iter().map(|(u, v, _)| (u, v))),
    };
    Ok((b, raised))
}

/// Load a DIMACS shortest-path `.gr` file: one `p sp n m` problem line,
/// then `a u v w` arcs with 1-based ids (`c` comments anywhere).
pub fn load_dimacs(r: impl Read, opts: &LoadOptions) -> Result<Loaded, LoadError> {
    finish(dimacs(r, opts), opts)
}

fn dimacs(r: impl Read, opts: &LoadOptions) -> Parsed {
    let mut recs = records(r, "c");
    let (line, p) = recs.next().unwrap_or_else(|| perr(None, "missing problem line"))?;
    let mut it = p.split_whitespace();
    match it.next() {
        Some("p") => {}
        Some("a") => return perr(line, "arc before problem line"),
        other => return perr(line, format!("unknown record `{}`", other.unwrap_or(""))),
    }
    let sp = it.next() == Some("sp");
    let (n, m): (usize, usize) = (field(&mut it, line, "bad n")?, field(&mut it, line, "bad m")?);
    if !sp || it.next().is_some() {
        return perr(line, "expected `p sp n m`");
    }
    let mut raised = 0;
    let b = body(recs, (line, n, m, "arcs"), opts, |it, line| {
        match it.next() {
            Some("a") => {}
            Some("p") => return perr(line, "second problem line"),
            other => return perr(line, format!("unknown record `{}`", other.unwrap_or(""))),
        }
        let (u, v) = ids(it, line, n)?;
        let w = weight(line, field(it, line, "bad w")?, opts.mode, &mut raised)?;
        if it.next().is_some() {
            return perr(line, "expected `a u v w`");
        }
        Ok((u, v, Some(w)))
    })?;
    Ok((b.name("dimacs"), raised))
}

/// Write a graph as a MatrixMarket coordinate file (pattern or integer
/// field, general symmetry — each stored directed edge is one entry).
/// Round-trips through [`load_mtx`] up to symmetrization.
pub fn save_mtx(g: &Graph, mut w: impl std::io::Write) -> std::io::Result<()> {
    let field = if g.is_weighted() { "integer" } else { "pattern" };
    writeln!(w, "%%MatrixMarket matrix coordinate {field} general")?;
    writeln!(w, "% written by gswitch-rs ({})", g.name())?;
    writeln!(w, "{} {} {}", g.num_vertices(), g.num_vertices(), g.num_edges())?;
    let csr = g.out_csr();
    let ws = g.out_weights();
    for u in 0..g.num_vertices() as VertexId {
        let r = csr.edge_range(u);
        for (i, &v) in csr.neighbors(u).iter().enumerate() {
            match ws {
                Some(ws) => writeln!(w, "{} {} {}", u + 1, v + 1, ws[r.start + i])?,
                None => writeln!(w, "{} {}", u + 1, v + 1)?,
            }
        }
    }
    Ok(())
}

/// Load by file extension: `.mtx`, `.gr`, anything else as an edge list.
/// The graph is named after the file stem.
pub fn load_path(path: impl AsRef<Path>, opts: &LoadOptions) -> Result<Loaded, LoadError> {
    let path = path.as_ref();
    let f = std::fs::File::open(path)?;
    let mut loaded = match path.extension().and_then(|e| e.to_str()) {
        Some("mtx") => load_mtx(f, opts)?,
        Some("gr") => load_dimacs(f, opts)?,
        _ => load_edge_list(f, opts)?,
    };
    let name = path.file_stem().map_or("dataset".into(), |s| s.to_string_lossy().into_owned());
    loaded.graph = loaded.graph.with_name(name);
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtx_pattern_roundtrip() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    4 4 3\n1 2\n2 3\n4 1\n";
        let g = load_mtx(text.as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_csr().neighbors(0), &[1, 3]);
    }

    #[test]
    fn mtx_real_weights_rounded() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 2\n1 2 2.6\n2 3 0.2\n";
        let g = load_mtx(text.as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert!(g.is_weighted());
        let w = g.out_weights().unwrap();
        let r = g.out_csr().edge_range(0);
        assert_eq!(&w[r], &[3]); // 2.6 -> 3
        let r = g.out_csr().edge_range(1);
        // neighbors of 1: [0, 2] -> weights [3, 1] (0.2 clamps to 1)
        assert_eq!(&w[r], &[3, 1]);
    }

    #[test]
    fn mtx_rejects_garbage() {
        assert!(load_mtx("hello world".as_bytes(), &LoadOptions::default()).is_err());
        assert!(load_mtx(
            "%%MatrixMarket matrix array real general\n2 2\n".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        let bad_idx = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(load_mtx(bad_idx.as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn mtx_rejects_nonfinite_weights() {
        for w in ["NaN", "inf", "-inf"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 {w}\n");
            let err = load_mtx(text.as_bytes(), &LoadOptions::default()).unwrap_err();
            assert!(matches!(err, LoadError::Parse { line: Some(3), .. }), "{w}: {err}");
        }
    }

    #[test]
    fn mtx_limits_bound_declared_sizes() {
        let opts = LoadOptions {
            limits: LoadLimits { max_vertices: 3, max_edges: 2 },
            ..Default::default()
        };
        let big_n = "%%MatrixMarket matrix coordinate pattern general\n9 9 1\n1 2\n";
        assert!(load_mtx(big_n.as_bytes(), &opts).is_err());
        let big_m = "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n";
        assert!(load_mtx(big_m.as_bytes(), &opts).is_err());
        let ok = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n";
        assert!(load_mtx(ok.as_bytes(), &opts).is_ok());
    }

    #[test]
    fn mtx_strict_vs_repair() {
        // One self loop and one duplicated entry.
        let dirty = "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 1\n1 2\n1 2\n2 3\n";
        let l = load_mtx(dirty.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(l.report.self_loops_dropped, 1);
        assert!(l.report.parallel_edges_deduped > 0);
        assert_eq!(l.graph.num_edges(), 4);
        assert!(load_mtx(dirty.as_bytes(), &LoadOptions::strict()).is_err());
        // Truncation (fewer entries than declared) only fails strict.
        let short = "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n";
        assert!(load_mtx(short.as_bytes(), &LoadOptions::default()).is_ok());
        assert!(load_mtx(short.as_bytes(), &LoadOptions::strict()).is_err());
        // Extra entries past the declared nnz fail in every mode.
        let long = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n";
        assert!(load_mtx(long.as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn edge_list_infers_size() {
        let g =
            load_edge_list("# c\n0 5\n5 3\n".as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn edge_list_weighted() {
        let g =
            load_edge_list("0 1 10\n1 2 20\n".as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert!(g.is_weighted());
    }

    #[test]
    fn edge_list_rejects_mixed() {
        assert!(load_edge_list("0 1 10\n1 2\n".as_bytes(), &LoadOptions::default()).is_err());
        assert!(load_edge_list("".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn edge_list_rejects_oversized_ids() {
        // Larger than u32: must be a structured error, not a wrap.
        let err =
            load_edge_list("0 99999999999\n".as_bytes(), &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: Some(1), .. }), "{err}");
        // Negative ids are equally structured.
        assert!(load_edge_list("0 -3\n".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn edge_list_respects_limits() {
        let opts = LoadOptions {
            limits: LoadLimits { max_vertices: 4, max_edges: 10 },
            ..Default::default()
        };
        assert!(load_edge_list("0 9\n".as_bytes(), &opts).is_err());
        let opts = LoadOptions {
            limits: LoadLimits { max_vertices: 100, max_edges: 1 },
            ..Default::default()
        };
        assert!(load_edge_list("0 1\n1 2\n".as_bytes(), &opts).is_err());
    }

    #[test]
    fn mtx_write_read_roundtrip() {
        let g = crate::gen::with_random_weights(&crate::gen::erdos_renyi(50, 150, 9), 32, 9);
        let mut buf = Vec::new();
        save_mtx(&g, &mut buf).unwrap();
        let g2 = load_mtx(buf.as_slice(), &LoadOptions::default()).unwrap().graph;
        assert_eq!(g.out_csr(), g2.out_csr());
        assert_eq!(g.out_weights(), g2.out_weights());
    }

    #[test]
    fn edge_list_write_read_roundtrip() {
        let g = crate::gen::erdos_renyi(40, 120, 4);
        let text: String = g.out_csr().iter_edges().map(|(u, v)| format!("{u} {v}\n")).collect();
        let g2 = load_edge_list(text.as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert_eq!(g.out_csr(), g2.out_csr());
    }

    #[test]
    fn dimacs_parses_arcs() {
        let text = "c road net\np sp 3 2\na 1 2 4\na 2 3 6\n";
        let g = load_dimacs(text.as_bytes(), &LoadOptions::default()).unwrap().graph;
        assert_eq!(g.num_vertices(), 3);
        assert!(g.is_weighted());
        assert_eq!(g.num_edges(), 4); // symmetrized
    }

    #[test]
    fn dimacs_rejects_arc_before_header() {
        assert!(load_dimacs("a 1 2 3\n".as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn dimacs_rejects_zero_based_ids() {
        let err =
            load_dimacs("p sp 3 1\na 0 2 4\n".as_bytes(), &LoadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("1-based"), "{err}");
    }

    #[test]
    fn dimacs_arc_count_checks() {
        // More arcs than declared: error in every mode.
        let long = "p sp 3 1\na 1 2 4\na 2 3 6\n";
        assert!(load_dimacs(long.as_bytes(), &LoadOptions::default()).is_err());
        // Fewer arcs: only strict rejects.
        let short = "p sp 3 2\na 1 2 4\n";
        assert!(load_dimacs(short.as_bytes(), &LoadOptions::default()).is_ok());
        assert!(load_dimacs(short.as_bytes(), &LoadOptions::strict()).is_err());
    }
}
