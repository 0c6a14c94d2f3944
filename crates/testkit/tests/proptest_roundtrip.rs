//! Property tests for the serialization layer and the fallback entry
//! point.
//!
//! * **Round-trip fixed point** for both text formats, the CSV
//!   ingestion format, and the `spsep-oracle/v2` snapshot: for any
//!   instance, `write → read → write` reproduces the first
//!   serialization byte-for-byte (so `read` loses nothing and `write`
//!   is canonical).
//! * **Distance agreement** on random grid and partial-k-tree
//!   instances: `preprocess_or_fallback` (fast path on these valid
//!   inputs) agrees with Dijkstra everywhere, and keeps agreeing when a
//!   budget forces the baseline path.

use proptest::prelude::*;
use rand::SeedableRng;
use spsep_baselines::dijkstra;
use spsep_core::{preprocess_or_fallback, Algorithm, FallbackPolicy, Oracle};
use spsep_graph::DiGraph;
use spsep_pram::Metrics;
use spsep_separator::{builders, treewidth, RecursionLimits, SepTree};

fn grid_instance(rows: usize, cols: usize, seed: u64) -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&[rows, cols], &mut rng);
    let tree = builders::grid_tree(&[rows, cols], RecursionLimits::default());
    (g, tree)
}

fn ktree_instance(n: usize, k: usize, seed: u64) -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, td) = treewidth::partial_ktree(n, k, 0.7, &mut rng);
    let tree = treewidth::treewidth_tree(&g.undirected_skeleton(), &td, RecursionLimits::default());
    (g, tree)
}

fn assert_distances_match(g: &DiGraph<f64>, tree: &SepTree, policy: &FallbackPolicy) {
    let metrics = Metrics::new();
    let prepared = preprocess_or_fallback(g, tree, policy, &metrics)
        .unwrap_or_else(|e| panic!("valid instance rejected: {e}"));
    for source in [0usize, g.n() / 3, g.n() - 1] {
        let got = prepared.distances(source, &metrics);
        let want = dijkstra(g, source).dist;
        for v in 0..g.n() {
            assert!(
                (got[v] - want[v]).abs() < 1e-9
                    || (got[v].is_infinite() && want[v].is_infinite()),
                "source {source} vertex {v}: got {} want {} (fast={})",
                got[v],
                want[v],
                prepared.is_fast()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn graph_write_read_write_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (g, _) = grid_instance(rows, cols, seed);
        let mut first = Vec::new();
        spsep_graph::io::write_dimacs(&g, &mut first).unwrap();
        let back = spsep_graph::io::read_dimacs(first.as_slice()).unwrap();
        let mut second = Vec::new();
        spsep_graph::io::write_dimacs(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn tree_write_read_write_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
    ) {
        let tree = builders::grid_tree(&[rows, cols], RecursionLimits::default());
        let mut first = Vec::new();
        spsep_separator::io::write_tree(&tree, &mut first).unwrap();
        let back = spsep_separator::io::read_tree(first.as_slice()).unwrap();
        let mut second = Vec::new();
        spsep_separator::io::write_tree(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn csv_export_import_is_a_fixed_point(
        rows in 2usize..9,
        cols in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        // Ingestion round-trip (ISSUE 10): exporting a graph to the CSV
        // edge-list format and importing it back is bit-identical on
        // the second write, so `read_csv_edges` loses nothing and
        // `write_csv_edges` is canonical (shortest-round-trip floats).
        let (g, _) = grid_instance(rows, cols, seed);
        let mut first = Vec::new();
        spsep_graph::import::write_csv_edges(&g, &mut first).unwrap();
        let back = spsep_graph::import::read_csv_edges(first.as_slice()).unwrap();
        prop_assert_eq!(back.n(), g.n());
        prop_assert_eq!(back.m(), g.m());
        let mut second = Vec::new();
        spsep_graph::import::write_csv_edges(&back, &mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn snapshot_v2_save_load_save_is_a_fixed_point(
        rows in 3usize..8,
        cols in 3usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = grid_instance(rows, cols, seed);
        let oracle = Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new()).unwrap();
        let mut first = Vec::new();
        oracle.save_v2(&mut first).unwrap();
        let back = Oracle::load(first.as_slice()).unwrap();
        prop_assert_eq!(back.n(), oracle.n());
        let mut second = Vec::new();
        back.save_v2(&mut second).unwrap();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn fallback_agrees_with_dijkstra_on_random_grids(
        rows in 3usize..9,
        cols in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = grid_instance(rows, cols, seed);
        // Fast path…
        assert_distances_match(&g, &tree, &FallbackPolicy::default());
        // …and the budget-forced baseline path.
        let forced = FallbackPolicy {
            max_eplus_candidates: Some(0),
            ..FallbackPolicy::default()
        };
        assert_distances_match(&g, &tree, &forced);
    }

    #[test]
    fn fallback_agrees_with_dijkstra_on_random_ktrees(
        n in 12usize..40,
        k in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let (g, tree) = ktree_instance(n, k, seed);
        assert_distances_match(&g, &tree, &FallbackPolicy::default());
        let forced = FallbackPolicy {
            max_eplus_candidates: Some(0),
            ..FallbackPolicy::default()
        };
        assert_distances_match(&g, &tree, &forced);
    }
}
