//! Snapshot hardening of the one on-disk oracle format,
//! `spsep-oracle/v2`, through both load entry points.
//!
//! 1. Every entry of [`snapshot_corruptions_v2`] makes `Oracle::load`
//!    (owned bytes) and `Oracle::load_path` (memory mapping) return a
//!    typed [`SpsepError`] — never a panic, never a usable oracle.
//! 2. A file in the retired `spsep-oracle/v1` layout is a typed
//!    [`SpsepError::Parse`] that names the retired format and says how
//!    to recover (re-run `spsep-cli prepare`).
//! 3. The writer is canonical: `save_v2 → load → save_v2` reproduces
//!    the bytes exactly, and the image of one fixed grid instance is
//!    pinned by its FNV-1a 64 hash, so a layout change cannot slip in
//!    unnoticed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use spsep::core::{Algorithm, Oracle, SpsepError};
use spsep::graph::bytes::{fnv1a64, ByteWriter};
use spsep::pram::Metrics;
use spsep::separator::{builders, io::tree_to_bytes, RecursionLimits};
use spsep_testkit::snapshot_corruptions_v2;

const DIMS: [usize; 2] = [8, 8];
const SEED: u64 = 21;

/// FNV-1a 64 of `save_v2` for the `DIMS`/`SEED` grid under
/// `Algorithm::LeavesUp`, recorded while the v1 codec still existed:
/// deleting it must not move a single byte of the v2 image.
const PINNED_V2_FNV: u64 = 0xe845_91f1_40d7_c520;

fn grid_oracle() -> Oracle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let (g, _) = spsep::graph::generators::grid(&DIMS, &mut rng);
    let tree = builders::grid_tree(&DIMS, RecursionLimits::default());
    Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).expect("valid grid")
}

fn save_v2(oracle: &Oracle) -> Vec<u8> {
    let mut buf = Vec::new();
    oracle
        .save_v2(&mut buf)
        .expect("save_v2 to a Vec cannot fail");
    buf
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spsep-snapshot-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Both load entry points on `bytes`: `Oracle::load` from memory and
/// `Oracle::load_path` from a file written under `dir`.
fn load_both(bytes: &[u8], dir: &Path) -> [Result<Oracle, SpsepError>; 2] {
    let path = dir.join("snap.sps");
    std::fs::write(&path, bytes).expect("write temp snapshot");
    [Oracle::load(bytes), Oracle::load_path(&path)]
}

fn assert_typed(err: &SpsepError, name: &str) {
    assert!(
        matches!(
            err,
            SpsepError::Parse { .. }
                | SpsepError::Io { .. }
                | SpsepError::InvalidGraph { .. }
                | SpsepError::InvalidDecomposition { .. }
        ),
        "{name}: unexpected error kind: {err:?}"
    );
    // Errors must render without panicking, too.
    let _ = err.to_string();
}

/// The retired `spsep-oracle/v1` image of `oracle`, built from that
/// format's documented layout: header, then checksummed `GRPH`, `TREE`
/// and `AUGM` sections, then the trailer.
fn legacy_v1_bytes(oracle: &Oracle) -> Vec<u8> {
    let mut graph = ByteWriter::new();
    graph.u64(oracle.n() as u64);
    graph.u64(oracle.m() as u64);
    for e in oracle.graph().edges() {
        graph.u32(e.from);
        graph.u32(e.to);
        graph.f64(e.w);
    }
    let tree = tree_to_bytes(&builders::grid_tree(&DIMS, RecursionLimits::default()));
    let stats = oracle.stats();
    let mut aug = ByteWriter::new();
    aug.u32(stats.d_g);
    aug.u64(stats.leaf_bound as u64);
    aug.u64(stats.raw_pairs as u64);
    let eplus = oracle.preprocessed().eplus();
    aug.u64(eplus.len() as u64);
    for e in eplus {
        aug.u32(e.from);
        aug.u32(e.to);
        aug.f64(e.w);
    }
    let mut w = ByteWriter::new();
    w.bytes(b"SPSEPORC");
    w.u32(1); // format version
    w.u32(0); // Algorithm::LeavesUp
    w.u32(3); // section count
    for (tag, payload) in [
        (b"GRPH", graph.into_inner()),
        (b"TREE", tree),
        (b"AUGM", aug.into_inner()),
    ] {
        w.bytes(tag);
        w.u64(payload.len() as u64);
        w.u64(fnv1a64(&payload));
        w.bytes(&payload);
    }
    w.bytes(b"SPSEPEND");
    w.into_inner()
}

#[test]
fn every_v2_corruption_is_a_typed_error_through_load_and_load_path() {
    let fresh = grid_oracle();
    assert!(
        fresh.stats().eplus_edges > 0,
        "catalog precondition: instance must have shortcuts"
    );
    let snapshot = save_v2(&fresh);
    let dir = scratch_dir("corrupt");
    for corruption in snapshot_corruptions_v2() {
        let name = corruption.name;
        let bad = (corruption.apply)(&snapshot);
        assert_ne!(bad, snapshot, "{name}: corruption did not change the bytes");
        let outcomes = catch_unwind(AssertUnwindSafe(|| load_both(&bad, &dir)))
            .unwrap_or_else(|_| panic!("{name}: load panicked"));
        for (entry, outcome) in ["load", "load_path"].iter().zip(outcomes) {
            match outcome {
                Err(err) => assert_typed(&err, &format!("{name} via {entry}")),
                Ok(_) => panic!("{name}: corrupted snapshot loaded via {entry}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_v1_snapshot_is_a_typed_parse_error_naming_the_retired_format() {
    let oracle = grid_oracle();
    let v1 = legacy_v1_bytes(&oracle);
    let dir = scratch_dir("legacy");
    let outcomes = catch_unwind(AssertUnwindSafe(|| load_both(&v1, &dir)))
        .unwrap_or_else(|_| panic!("loading a v1 file panicked"));
    for (entry, outcome) in ["load", "load_path"].iter().zip(outcomes) {
        let Err(err) = outcome else {
            panic!("a spsep-oracle/v1 file loaded via {entry}");
        };
        assert!(matches!(err, SpsepError::Parse { .. }), "{entry}: {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("spsep-oracle/v1"), "{entry}: {msg}");
        assert!(msg.contains("spsep-cli prepare"), "{entry}: {msg}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_v2_load_save_v2_is_byte_identical() {
    let first = save_v2(&grid_oracle());
    let served = Oracle::load(first.as_slice()).expect("load a fresh v2 image");
    assert!(served.is_slab_backed());
    assert_eq!(
        save_v2(&served),
        first,
        "re-saving a loaded oracle moved bytes"
    );
}

#[test]
fn snapshot_v2_is_byte_identical_to_parent() {
    let bytes = save_v2(&grid_oracle());
    assert_eq!(
        fnv1a64(&bytes),
        PINNED_V2_FNV,
        "the spsep-oracle/v2 image changed ({} bytes, FNV-1a {:#018x})",
        bytes.len(),
        fnv1a64(&bytes)
    );
}
