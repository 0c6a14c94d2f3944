//! The in-memory parts of a prepared instance.
//!
//! [`Snapshot`] bundles what Sections 3–5 preprocessing produces — the
//! graph, the separator tree, and the augmented edge set `E⁺` — so a
//! caller that ran the stages itself can hand them to
//! [`crate::oracle::Oracle::from_snapshot`] for the cheap schedule
//! compilation. The one persisted form of a prepared instance is the
//! `spsep-oracle/v2` snapshot ([`crate::iov2`]).

use crate::augment::Augmentation;
use crate::Algorithm;
use spsep_graph::semiring::Tropical;
use spsep_graph::DiGraph;
use spsep_separator::SepTree;

/// The prepared parts of an instance: everything needed to compile a
/// query-ready [`crate::Preprocessed`] (via
/// [`crate::oracle::Oracle::from_snapshot`]) without re-running the
/// Sections 3–5 preprocessing.
#[derive(Debug)]
pub struct Snapshot {
    /// The weighted digraph `G`.
    pub graph: DiGraph<f64>,
    /// The separator decomposition tree.
    pub tree: SepTree,
    /// Which `E⁺` construction produced the augmentation.
    pub algo: Algorithm,
    /// The shortcut set `E⁺` with its construction statistics.
    pub augmentation: Augmentation<Tropical>,
}
