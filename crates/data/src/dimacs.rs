//! 9th DIMACS implementation challenge file formats.
//!
//! The paper's datasets ship as a distance/time graph file (`.gr`) and a
//! coordinate file (`.co`):
//!
//! ```text
//! c  comment                      c  comment
//! p  sp <n> <m>                   p  aux sp co <n>
//! a  <tail> <head> <weight>       v  <id> <x> <y>
//! ```
//!
//! Node ids are 1-based in the files and converted to 0-based
//! [`ah_graph::NodeId`]s
//! here. `read_graph` pairs the two files into a [`Graph`]; `write_graph`
//! produces files the original tools accept.

use std::io::{self, BufRead, Write};

use ah_graph::{Graph, GraphBuilder, Point};

/// Errors raised by the DIMACS parsers.
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and a description.
    Parse(usize, String),
    /// The `.gr` and `.co` files disagree on the node count.
    NodeCountMismatch { graph: usize, coords: usize },
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "i/o error: {e}"),
            DimacsError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            DimacsError::NodeCountMismatch { graph, coords } => write!(
                f,
                ".gr declares {graph} nodes but .co declares {coords}"
            ),
        }
    }
}

impl std::error::Error for DimacsError {}

impl From<io::Error> for DimacsError {
    fn from(e: io::Error) -> Self {
        DimacsError::Io(e)
    }
}

/// Arcs `(tail, head, weight)` of a `.gr` file, with 0-based endpoints.
pub type GrArcs = Vec<(u32, u32, u32)>;

/// Parses a `.gr` file: returns `(n, edges)` with 0-based endpoints.
pub fn read_gr<R: BufRead>(reader: R) -> Result<(usize, GrArcs), DimacsError> {
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let mut it = line.split_whitespace();
        match it.next() {
            None | Some("c") => continue,
            Some("p") => {
                // "p sp <n> <m>"
                let kind = it.next();
                if kind != Some("sp") {
                    return Err(DimacsError::Parse(lineno, format!("expected 'p sp', got {line:?}")));
                }
                let nn = parse_field(&mut it, lineno, "node count")?;
                let mm: usize = parse_field(&mut it, lineno, "edge count")?;
                n = Some(nn);
                edges.reserve(mm);
            }
            Some("a") => {
                let t: u32 = parse_field(&mut it, lineno, "tail")?;
                let h: u32 = parse_field(&mut it, lineno, "head")?;
                let w: u32 = parse_field(&mut it, lineno, "weight")?;
                if t == 0 || h == 0 {
                    return Err(DimacsError::Parse(lineno, "node ids are 1-based".into()));
                }
                edges.push((t - 1, h - 1, w));
            }
            Some(other) => {
                return Err(DimacsError::Parse(lineno, format!("unknown record {other:?}")));
            }
        }
    }
    let n = n.ok_or(DimacsError::Parse(0, "missing 'p sp' header".into()))?;
    Ok((n, edges))
}

/// Parses a `.co` file: returns coordinates indexed by 0-based node id.
pub fn read_co<R: BufRead>(reader: R) -> Result<Vec<Point>, DimacsError> {
    let mut coords: Vec<Point> = Vec::new();
    let mut declared: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let mut it = line.split_whitespace();
        match it.next() {
            None | Some("c") => continue,
            Some("p") => {
                // "p aux sp co <n>"
                let rest: Vec<&str> = it.collect();
                let nn = rest
                    .last()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| DimacsError::Parse(lineno, "bad 'p' header".into()))?;
                declared = Some(nn);
                coords.resize(nn, Point::new(0, 0));
            }
            Some("v") => {
                let id: usize = parse_field(&mut it, lineno, "node id")?;
                let x: i32 = parse_field(&mut it, lineno, "x")?;
                let y: i32 = parse_field(&mut it, lineno, "y")?;
                if id == 0 || id > coords.len() {
                    return Err(DimacsError::Parse(lineno, format!("node id {id} out of range")));
                }
                coords[id - 1] = Point::new(x, y);
            }
            Some(other) => {
                return Err(DimacsError::Parse(lineno, format!("unknown record {other:?}")));
            }
        }
    }
    if declared.is_none() {
        return Err(DimacsError::Parse(0, "missing 'p aux sp co' header".into()));
    }
    Ok(coords)
}

/// Reads a paired `.gr` + `.co` into a [`Graph`].
pub fn read_graph<R1: BufRead, R2: BufRead>(gr: R1, co: R2) -> Result<Graph, DimacsError> {
    let (n, edges) = read_gr(gr)?;
    let coords = read_co(co)?;
    if coords.len() != n {
        return Err(DimacsError::NodeCountMismatch {
            graph: n,
            coords: coords.len(),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for p in coords {
        b.add_node(p);
    }
    for (t, h, w) in edges {
        b.add_edge(t, h, w);
    }
    Ok(b.build())
}

/// Writes `g` as a `.gr`/`.co` pair.
pub fn write_graph<W1: Write, W2: Write>(g: &Graph, mut gr: W1, mut co: W2) -> io::Result<()> {
    writeln!(gr, "c generated by ah-data")?;
    writeln!(gr, "p sp {} {}", g.num_nodes(), g.num_edges())?;
    for (t, a) in g.edges() {
        writeln!(gr, "a {} {} {}", t + 1, a.head + 1, a.weight)?;
    }
    writeln!(co, "c generated by ah-data")?;
    writeln!(co, "p aux sp co {}", g.num_nodes())?;
    for v in g.node_ids() {
        let p = g.coord(v);
        writeln!(co, "v {} {} {}", v + 1, p.x, p.y)?;
    }
    Ok(())
}

fn parse_field<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, DimacsError> {
    it.next()
        .and_then(|s| s.parse::<T>().ok())
        .ok_or_else(|| DimacsError::Parse(lineno, format!("missing/invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const GR: &str = "c tiny\np sp 3 3\na 1 2 5\na 2 3 7\na 3 1 2\n";
    const CO: &str = "c tiny\np aux sp co 3\nv 1 0 0\nv 2 10 0\nv 3 0 10\n";

    #[test]
    fn read_pair() {
        let g = read_graph(Cursor::new(GR), Cursor::new(CO)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.coord(2), Point::new(0, 10));
    }

    #[test]
    fn roundtrip() {
        let g = read_graph(Cursor::new(GR), Cursor::new(CO)).unwrap();
        let mut gr_out = Vec::new();
        let mut co_out = Vec::new();
        write_graph(&g, &mut gr_out, &mut co_out).unwrap();
        let g2 = read_graph(Cursor::new(&gr_out), Cursor::new(&co_out)).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in g.node_ids() {
            assert_eq!(g.coord(v), g2.coord(v));
            assert_eq!(g.out_edges(v), g2.out_edges(v));
        }
    }

    #[test]
    fn rejects_zero_based_ids() {
        let bad = "p sp 2 1\na 0 1 5\n";
        let err = read_gr(Cursor::new(bad)).unwrap_err();
        assert!(err.to_string().contains("1-based"));
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_gr(Cursor::new("a 1 2 3\n")).unwrap_err();
        assert!(err.to_string().contains("header") || err.to_string().contains("unknown"));
    }

    #[test]
    fn rejects_mismatched_counts() {
        let co_short = "p aux sp co 2\nv 1 0 0\nv 2 1 1\n";
        let err = read_graph(Cursor::new(GR), Cursor::new(co_short)).unwrap_err();
        assert!(matches!(err, DimacsError::NodeCountMismatch { .. }));
    }

    #[test]
    fn rejects_out_of_range_coordinate_id() {
        let bad = "p aux sp co 1\nv 2 0 0\n";
        let err = read_co(Cursor::new(bad)).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_garbage_records() {
        let err = read_gr(Cursor::new("p sp 1 0\nq nonsense\n")).unwrap_err();
        assert!(err.to_string().contains("unknown record"));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let gr = "c a\n\nc b\np sp 2 1\nc mid\na 1 2 3\n";
        let (n, edges) = read_gr(Cursor::new(gr)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(edges, vec![(0, 1, 3)]);
    }
}
