//! Serialization of separator decomposition trees.
//!
//! Paper comment (iv): "the separator decomposition for a graph G depends
//! only on the undirected unweighted skeleton of G, and hence needs to be
//! computed only once for a group of instances which differ in the
//! weights and direction on edges" — which makes trees worth persisting.
//!
//! The format stores only what cannot be derived: per node its parent,
//! its separator, and (for leaves) its vertex list; internal `V(t)` sets
//! are reconstructed bottom-up as `V(t₁) ∪ V(t₂)` and boundaries/levels
//! are recomputed by [`SepTree::assemble`].
//!
//! ```text
//! st <n> <num_nodes>
//! i <parent|-1> s <sorted separator ids…>     (internal node)
//! l <parent>   v <sorted vertex ids…>         (leaf)
//! ```
//!
//! Nodes appear in BFS order (parents before children), matching the
//! in-memory layout.
//!
//! Parsing is hardened: out-of-range vertex ids, header/node-count
//! mismatches, broken parent order, and wrong child arity are rejected
//! with line-numbered [`SpsepError::Parse`] errors. Note that
//! [`read_tree`] checks only what the *format* promises — a parsed tree
//! can still violate the Prop. 2.1 separation invariants against a
//! particular graph, which [`SepTree::validate`] reports as
//! [`SpsepError::InvalidDecomposition`].

use crate::tree::{sorted_union, SepNode, SepTree};
use spsep_graph::bytes::{ByteReader, ByteWriter};
use spsep_graph::SpsepError;
use std::io::{BufRead, Write};

/// Error produced while parsing a serialized tree (alias kept for
/// callers of the pre-taxonomy API).
pub type ParseError = SpsepError;

/// Serialize `tree`.
pub fn write_tree<W: Write>(tree: &SepTree, out: &mut W) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::new();
    // Writes into a String are infallible.
    let _ = writeln!(buf, "st {} {}", tree.n(), tree.nodes().len());
    for node in tree.nodes() {
        let parent = node.parent.map_or(-1i64, |p| p as i64);
        if node.is_leaf() {
            let _ = write!(buf, "l {parent} v");
            for &v in &node.vertices {
                let _ = write!(buf, " {v}");
            }
        } else {
            let _ = write!(buf, "i {parent} s");
            for &v in &node.separator {
                let _ = write!(buf, " {v}");
            }
        }
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

/// Parse a tree previously written by [`write_tree`].
pub fn read_tree<R: BufRead>(input: R) -> Result<SepTree, SpsepError> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| SpsepError::parse("empty input"))??;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("st") {
        return Err(SpsepError::parse_at(1, "missing 'st' header"));
    }
    let n: usize = parse(parts.next(), 1, "vertex count")?;
    let num_nodes: usize = parse(parts.next(), 1, "node count")?;
    if num_nodes == 0 {
        return Err(SpsepError::parse_at(1, "tree must have at least one node"));
    }
    struct RawNode {
        parent: i64,
        leaf: bool,
        ids: Vec<u32>,
    }
    let mut raw: Vec<RawNode> = Vec::with_capacity(num_nodes.min(1 << 24));
    for (off, line) in lines.enumerate() {
        let lineno = off + 2; // 1-based; header was line 1
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let leaf = match kind {
            "l" => true,
            "i" => false,
            other => {
                return Err(SpsepError::parse_at(
                    lineno,
                    format!("unknown record '{other}'"),
                ));
            }
        };
        let parent: i64 = parse(parts.next(), lineno, "parent")?;
        let tag = parts.next();
        if (leaf && tag != Some("v")) || (!leaf && tag != Some("s")) {
            return Err(SpsepError::parse_at(lineno, "bad node tag"));
        }
        let mut ids = Vec::new();
        for p in parts {
            let v: u32 = p.parse().map_err(|_| {
                SpsepError::parse_at(lineno, format!("bad vertex id '{p}'"))
            })?;
            if v as usize >= n {
                return Err(SpsepError::parse_at(
                    lineno,
                    format!("vertex {v} out of range 0..{n}"),
                ));
            }
            ids.push(v);
        }
        raw.push(RawNode { parent, leaf, ids });
    }
    if raw.len() != num_nodes {
        return Err(SpsepError::parse(format!(
            "declared {num_nodes} nodes, found {}",
            raw.len()
        )));
    }
    // Children + levels.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    let mut level = vec![0u32; num_nodes];
    for (i, r) in raw.iter().enumerate() {
        if r.parent >= 0 {
            let p = r.parent as usize;
            if p >= i {
                return Err(SpsepError::parse(format!(
                    "node {i}: parent {p} not before child (need BFS order)"
                )));
            }
            children[p].push(i as u32);
            level[i] = level[p] + 1;
        } else if i != 0 {
            return Err(SpsepError::parse(format!(
                "node {i}: only node 0 may be the root"
            )));
        }
    }
    // Reconstruct V(t) bottom-up.
    let mut vertices: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    for i in (0..num_nodes).rev() {
        if raw[i].leaf {
            if !children[i].is_empty() {
                return Err(SpsepError::parse(format!("leaf {i} has children")));
            }
            vertices[i] = raw[i].ids.clone();
            vertices[i].sort_unstable();
            vertices[i].dedup();
        } else {
            if children[i].len() != 2 {
                return Err(SpsepError::parse(format!(
                    "internal node {i} has {} children (need 2)",
                    children[i].len()
                )));
            }
            let (a, b) = (children[i][0] as usize, children[i][1] as usize);
            vertices[i] = sorted_union(&vertices[a], &vertices[b]);
        }
    }
    let nodes: Vec<SepNode> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| SepNode {
            vertices: std::mem::take(&mut vertices[i]),
            separator: {
                let mut s = r.ids.clone();
                if r.leaf {
                    s.clear();
                }
                s.sort_unstable();
                s
            },
            boundary: Vec::new(),
            children: (!r.leaf).then(|| (children[i][0], children[i][1])),
            parent: (r.parent >= 0).then_some(r.parent as u32),
            level: level[i],
        })
        .collect();
    SepTree::try_assemble(n, nodes)
}

/// Serialize `tree` as a self-contained binary payload (the `TREE`
/// section of the `spsep-oracle/v2` snapshot, carried there opaquely):
///
/// ```text
/// n: u64 · num_nodes: u64
/// num_nodes × (parent: u32 (u32::MAX = root) · kind: u8 (1 = leaf)
///              · count: u64 · ids: u32 × count)      — S(t), or V(t) for leaves
/// num_nodes × (count: u64 · ids: u32 × count)        — boundary tables B(t)
/// ```
///
/// Like the text format, only the non-derivable data is stored per node
/// — but the per-node **boundary tables** `B(t)` are appended as a
/// redundant section: boundaries are recomputed by
/// [`SepTree::try_assemble`] at load time, and [`tree_from_bytes`]
/// cross-checks the stored tables against the recomputed ones. A
/// snapshot whose tree section was damaged in a way that still
/// assembles (e.g. a patched separator list with a fixed-up checksum)
/// is caught by this comparison instead of silently serving wrong
/// distances.
pub fn tree_to_bytes(tree: &SepTree) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(tree.n() as u64);
    w.u64(tree.nodes().len() as u64);
    for node in tree.nodes() {
        w.u32(node.parent.unwrap_or(u32::MAX));
        let ids = if node.is_leaf() {
            w.u8(1);
            &node.vertices
        } else {
            w.u8(0);
            &node.separator
        };
        w.u64(ids.len() as u64);
        for &v in ids {
            w.u32(v);
        }
    }
    for node in tree.nodes() {
        w.u64(node.boundary.len() as u64);
        for &v in &node.boundary {
            w.u32(v);
        }
    }
    w.into_inner()
}

/// Parse a payload written by [`tree_to_bytes`], reassembling the full
/// tree ([`SepTree::try_assemble`]) and cross-checking the stored
/// per-node boundary tables against the recomputed boundaries.
///
/// Hardened like [`read_tree`]: truncation, count overruns, broken
/// parent order, wrong child arity, out-of-range ids, and boundary
/// table mismatches are all typed [`SpsepError`] failures.
pub fn tree_from_bytes(bytes: &[u8]) -> Result<SepTree, SpsepError> {
    let mut r = ByteReader::new(bytes);
    let n = r.count("tree vertex count", 0)?;
    let num_nodes = r.count("tree node count", 13)?;
    if num_nodes == 0 {
        return Err(SpsepError::parse("tree must have at least one node"));
    }
    struct RawNode {
        parent: u32,
        leaf: bool,
        ids: Vec<u32>,
    }
    let mut raw: Vec<RawNode> = Vec::with_capacity(num_nodes);
    for i in 0..num_nodes {
        let parent = r.u32("node parent")?;
        let leaf = match r.u8("node kind")? {
            0 => false,
            1 => true,
            k => {
                return Err(SpsepError::parse(format!("node {i}: unknown kind {k}")));
            }
        };
        let count = r.count("node id count", 4)?;
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let v = r.u32("node vertex id")?;
            if v as usize >= n {
                return Err(SpsepError::parse(format!(
                    "node {i}: vertex {v} out of range 0..{n}"
                )));
            }
            ids.push(v);
        }
        raw.push(RawNode { parent, leaf, ids });
    }
    // Children + levels (same structural checks as the text reader).
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    let mut level = vec![0u32; num_nodes];
    for (i, node) in raw.iter().enumerate() {
        if node.parent != u32::MAX {
            let p = node.parent as usize;
            if p >= i {
                return Err(SpsepError::parse(format!(
                    "node {i}: parent {p} not before child (need BFS order)"
                )));
            }
            children[p].push(i as u32);
            level[i] = level[p] + 1;
        } else if i != 0 {
            return Err(SpsepError::parse(format!(
                "node {i}: only node 0 may be the root"
            )));
        }
    }
    // Reconstruct V(t) bottom-up.
    let mut vertices: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    for i in (0..num_nodes).rev() {
        if raw[i].leaf {
            if !children[i].is_empty() {
                return Err(SpsepError::parse(format!("leaf {i} has children")));
            }
            vertices[i] = raw[i].ids.clone();
            vertices[i].sort_unstable();
            vertices[i].dedup();
        } else {
            if children[i].len() != 2 {
                return Err(SpsepError::parse(format!(
                    "internal node {i} has {} children (need 2)",
                    children[i].len()
                )));
            }
            let (a, b) = (children[i][0] as usize, children[i][1] as usize);
            vertices[i] = sorted_union(&vertices[a], &vertices[b]);
        }
    }
    let nodes: Vec<SepNode> = raw
        .iter()
        .enumerate()
        .map(|(i, node)| SepNode {
            vertices: std::mem::take(&mut vertices[i]),
            separator: {
                let mut s = node.ids.clone();
                if node.leaf {
                    s.clear();
                }
                s.sort_unstable();
                s
            },
            boundary: Vec::new(),
            children: (!node.leaf).then(|| (children[i][0], children[i][1])),
            parent: (node.parent != u32::MAX).then_some(node.parent),
            level: level[i],
        })
        .collect();
    let tree = SepTree::try_assemble(n, nodes)?;
    // Boundary tables: must match the boundaries try_assemble derived.
    for (i, node) in tree.nodes().iter().enumerate() {
        let count = r.count("boundary table size", 4)?;
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            table.push(r.u32("boundary vertex id")?);
        }
        if table != node.boundary {
            return Err(SpsepError::invalid_node(
                i as u32,
                format!(
                    "stored boundary table ({} vertices) disagrees with the \
                     recomputed boundary ({} vertices)",
                    table.len(),
                    node.boundary.len()
                ),
            ));
        }
    }
    r.expect_exhausted("tree payload")?;
    Ok(tree)
}

fn parse<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, SpsepError> {
    let raw = field.ok_or_else(|| SpsepError::parse_at(lineno, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| SpsepError::parse_at(lineno, format!("bad {what} '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::RecursionLimits;

    #[test]
    fn roundtrip_grid_tree() {
        let tree = builders::grid_tree(&[7, 9], RecursionLimits::default());
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).unwrap();
        let back = read_tree(buf.as_slice()).unwrap();
        assert_eq!(tree.n(), back.n());
        assert_eq!(tree.nodes().len(), back.nodes().len());
        assert_eq!(tree.height(), back.height());
        for (a, b) in tree.nodes().iter().zip(back.nodes()) {
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.separator, b.separator);
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.level, b.level);
            assert_eq!(a.children.is_some(), b.children.is_some());
        }
        assert_eq!(tree.vertex_levels(), back.vertex_levels());
        // And the reloaded tree still validates against the skeleton.
        let (g, _) = spsep_graph::generators::grid_with_weights(&[7, 9], |_, _| 1.0);
        back.validate(&g.undirected_skeleton()).unwrap();
    }

    #[test]
    fn roundtrip_centroid_tree() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let g = spsep_graph::generators::random_tree(60, &mut rng);
        let adj = g.undirected_skeleton();
        let tree = builders::centroid_tree(&adj, RecursionLimits::default());
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).unwrap();
        let back = read_tree(buf.as_slice()).unwrap();
        back.validate(&adj).unwrap();
        assert_eq!(tree.nodes().len(), back.nodes().len());
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let tree = builders::grid_tree(&[7, 9], RecursionLimits::default());
        let bytes = tree_to_bytes(&tree);
        let back = tree_from_bytes(&bytes).unwrap();
        assert_eq!(tree.n(), back.n());
        assert_eq!(tree.nodes().len(), back.nodes().len());
        for (a, b) in tree.nodes().iter().zip(back.nodes()) {
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.separator, b.separator);
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.level, b.level);
            assert_eq!(a.children, b.children);
            assert_eq!(a.parent, b.parent);
        }
        assert_eq!(tree.vertex_levels(), back.vertex_levels());
    }

    #[test]
    fn binary_truncations_are_typed_errors() {
        let tree = builders::grid_tree(&[5, 5], RecursionLimits::default());
        let bytes = tree_to_bytes(&tree);
        for cut in 0..bytes.len() {
            assert!(
                tree_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(tree_from_bytes(&padded).is_err());
    }

    #[test]
    fn binary_boundary_table_mismatch_is_caught() {
        let tree = builders::grid_tree(&[5, 5], RecursionLimits::default());
        let mut bytes = tree_to_bytes(&tree);
        // Walk the layout to the first nonempty boundary table and
        // replace its first entry with a different in-range vertex.
        let mut off = 16; // n + num_nodes headers
        for node in tree.nodes() {
            let ids = if node.is_leaf() {
                node.vertices.len()
            } else {
                node.separator.len()
            };
            off += 4 + 1 + 8 + 4 * ids; // parent + kind + count + ids
        }
        let target = tree
            .nodes()
            .iter()
            .find(|t| !t.boundary.is_empty())
            .expect("grid tree has boundaries");
        for node in tree.nodes() {
            if std::ptr::eq(node, target) {
                break;
            }
            off += 8 + 4 * node.boundary.len();
        }
        off += 8; // the table's own count field
        let old = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let replacement = (0..tree.n() as u32)
            .find(|v| *v != old && !target.boundary.contains(v))
            .unwrap();
        bytes[off..off + 4].copy_from_slice(&replacement.to_le_bytes());
        let err = tree_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, SpsepError::InvalidDecomposition { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn parse_errors() {
        assert!(read_tree("".as_bytes()).is_err());
        assert!(read_tree("xx 3 1\n".as_bytes()).is_err());
        assert!(read_tree("st 3 1\nq 0 v 1\n".as_bytes()).is_err());
        assert!(read_tree("st 3 2\nl -1 v 0 1 2\n".as_bytes()).is_err()); // count
        assert!(read_tree("st 3 1\nl -1 v 9\n".as_bytes()).is_err()); // range
        assert!(read_tree("st 3 1\nl -1 s 0\n".as_bytes()).is_err()); // tag
        assert!(read_tree("st 3 0\n".as_bytes()).is_err()); // no nodes
        // Minimal valid single-leaf tree.
        let t = read_tree("st 3 1\nl -1 v 0 1 2\n".as_bytes()).unwrap();
        assert_eq!(t.nodes().len(), 1);
        assert_eq!(t.max_leaf_size(), 3);
    }

    #[test]
    fn parse_errors_are_typed_and_line_numbered() {
        // Bad id on the second node line → line 3.
        assert!(matches!(
            read_tree("st 5 3\ni -1 s 2\nl 0 v 0 1 x\nl 0 v 2 3 4\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(3), .. })
        ));
        // Two roots.
        assert!(matches!(
            read_tree("st 3 2\nl -1 v 0 1\nl -1 v 2\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
        // Parent after child (BFS order violated).
        assert!(matches!(
            read_tree("st 3 2\nl 1 v 0 1 2\ni -1 s 0\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
        // Internal node with a single child.
        assert!(matches!(
            read_tree("st 3 2\ni -1 s 0\nl 0 v 0 1 2\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
    }
}
