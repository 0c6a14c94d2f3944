//! Graph substrate for the `spsep` workspace.
//!
//! This crate provides everything the separator-decomposition shortest-path
//! algorithms (Cohen, SPAA'93 / J. Algorithms 1996) need from a graph
//! library:
//!
//! * [`DiGraph`] — a compact directed graph with per-edge weights and both
//!   out- and in-adjacency in CSR form (the query engine scans *incoming*
//!   edges, the augmentation scans *outgoing* ones);
//! * [`semiring`] — the path-algebra abstraction (paper comment (iii):
//!   "our algorithm is applicable to general path algebra problems over
//!   semirings") with tropical, boolean, max-plus, bottleneck and
//!   reliability instances;
//! * [`generators`] — the graph families the paper's analysis targets:
//!   d-dimensional grids (trivial `k^((d-1)/d)` separators), trees
//!   (centroid separators), geometric/overlap-style graphs, plus random
//!   graphs for adversarial testing;
//! * [`bitmatrix`] — 64-bit-blocked boolean matrices, the practical
//!   stand-in for the paper's fast-matrix-multiplication reachability
//!   substrate `M(r)`;
//! * [`traversal`], [`unionfind`], [`io`] — supporting utilities.

// Library code must stay panic-free on untrusted input: unwraps and
// expects are confined to #[cfg(test)] code (internal invariants use
// let-else + unreachable!, which documents *why* they cannot fire).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// All unsafe lives in `slab` (the mmap/zero-copy substrate) and
// `dense::simd` (std::arch kernels + checked f64 downcasts); every
// unsafe operation there must sit in an explicit block with a SAFETY
// comment, even inside unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]
// Every public item must explain itself — the crate is the paper's
// reference implementation and doubles as its documentation.
#![warn(missing_docs)]

pub mod bitmatrix;
pub mod bytes;
pub mod dense;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod import;
pub mod io;
pub mod order;
pub mod semiring;
pub mod slab;
pub mod traversal;
pub mod unionfind;

pub use bitmatrix::BitMatrix;
pub use dense::{simd_active, SemiMatrix};
pub use digraph::{DiGraph, Edge};
pub use error::SpsepError;
pub use order::NodeOrder;
pub use slab::{AlignedVec, Pod, Slab, SlabBytes, Store};
pub use semiring::{Boolean, Bottleneck, MaxPlus, Reliability, Semiring, Tropical, TropicalInt};
