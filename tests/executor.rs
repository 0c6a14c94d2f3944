//! The query executor as the serving path runs it: the frontier-driven
//! `distances_seq` must return the dense pull loop's distances bit for
//! bit (`run_seq_parents`, the runner behind `explain`), agree with
//! Dijkstra, and scan no more arcs than the Section 3.2 envelope
//! `arcs_per_query`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spsep::baselines;
use spsep::core::{preprocess, Algorithm, Preprocessed};
use spsep::graph::semiring::Tropical;
use spsep::graph::{generators, DiGraph};
use spsep::pram::Metrics;
use spsep::separator::{builders, planar_level_tree, RecursionLimits, SepTree};

fn check_sources(g: &DiGraph<f64>, tree: &SepTree, context: &str) {
    let metrics = Metrics::new();
    let pre: Preprocessed<Tropical> = preprocess(g, tree, Algorithm::LeavesUp, &metrics)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let n = g.n();
    for s in [0, n / 3, n / 2, n - 1] {
        let (got, stats) = pre.distances_seq(s);
        let (dense, _) = pre.schedule().run_seq_parents(s);
        let truth = baselines::dijkstra(g, s).dist;
        for v in 0..n {
            assert_eq!(
                got[v].to_bits(),
                dense[v].to_bits(),
                "{context}: source {s}, vertex {v}: {} vs dense {}",
                got[v],
                dense[v]
            );
            let tol = 1e-9 * (1.0 + truth[v].abs());
            assert!(
                (got[v] - truth[v]).abs() <= tol
                    || (got[v].is_infinite() && truth[v].is_infinite()),
                "{context}: source {s}, vertex {v}: {} vs Dijkstra {}",
                got[v],
                truth[v]
            );
        }
        assert!(
            stats.relaxations <= pre.arcs_per_query(),
            "{context}: source {s} scanned {} > {} arcs",
            stats.relaxations,
            pre.arcs_per_query()
        );
    }
}

#[test]
fn frontier_executor_matches_dense_loop_and_dijkstra_on_a_road_network() {
    let (g, _, _) = spsep::separator::road_network(24, 24, 5);
    let tree = planar_level_tree(&g.undirected_skeleton(), RecursionLimits::default());
    check_sources(&g, &tree, "road 24x24");
}

#[test]
fn frontier_executor_matches_dense_loop_and_dijkstra_on_a_grid() {
    let dims = [20usize, 20];
    let (g, _) = generators::grid(&dims, &mut StdRng::seed_from_u64(3));
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    check_sources(&g, &tree, "grid 20x20");
}
