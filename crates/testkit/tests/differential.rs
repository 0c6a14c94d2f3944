//! The differential test layer for the multi-threaded executor.
//!
//! Contract under test (see the `rayon` shim docs): chunk boundaries
//! are a pure function of input length and all merges happen in chunk
//! order, so *every* pipeline output — preprocessing, scheduled
//! queries, reachability closures, and the baseline fallback — must be
//! **bit-identical** at 1, 2, 4, and 8 threads, and must agree with the
//! Dijkstra oracle. `f64` distances are compared via `to_bits`, not
//! `==`, so `-0.0` vs `0.0` or NaN-payload drift would be caught.
//!
//! The same bit-for-bit contract pins the frontier-driven query
//! executor (`Schedule::run_seq` / `run_seq_init`) to the dense pull
//! loop it replaces on the serving path, on every family under both the
//! `f64` and the exact `i64` semiring, and on hostile weights.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::with_max_threads;
use spsep_baselines::dijkstra;
use spsep_bench::families::Family;
use spsep_core::schedule::Schedule;
use spsep_core::{preprocess, preprocess_or_fallback, Algorithm, FallbackPolicy};
use spsep_graph::semiring::{Semiring, Tropical, TropicalInt};
use spsep_graph::{BitMatrix, DiGraph, Edge};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits, SepTree};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 7;

fn sources_for(n: usize) -> [usize; 3] {
    [0, n / 2, n - 1]
}

/// Preprocess + query from every probe source, entirely under `threads`.
fn distance_rows(
    g: &DiGraph<f64>,
    tree: &SepTree,
    algo: Algorithm,
    threads: usize,
) -> Vec<Vec<f64>> {
    with_max_threads(threads, || {
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(g, tree, algo, &metrics)
            .unwrap_or_else(|e| panic!("preprocess at {threads} threads: {e}"));
        pre.distances_multi(&sources_for(g.n()))
    })
}

fn assert_rows_bit_identical(reference: &[Vec<f64>], got: &[Vec<f64>], context: &str) {
    assert_eq!(reference.len(), got.len(), "{context}: row count");
    for (row_ref, row_got) in reference.iter().zip(got) {
        assert_eq!(row_ref.len(), row_got.len(), "{context}: row length");
        for (v, (a, b)) in row_ref.iter().zip(row_got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: vertex {v}: {a} vs {b}"
            );
        }
    }
}

fn assert_rows_match_oracle(g: &DiGraph<f64>, rows: &[Vec<f64>], context: &str) {
    for (&s, row) in sources_for(g.n()).iter().zip(rows) {
        let oracle = dijkstra(g, s).dist;
        for v in 0..g.n() {
            assert!(
                (row[v] - oracle[v]).abs() < 1e-9
                    || (row[v].is_infinite() && oracle[v].is_infinite()),
                "{context}: source {s}, vertex {v}: got {} oracle {}",
                row[v],
                oracle[v]
            );
        }
    }
}

#[test]
fn fast_path_distances_are_bit_identical_across_thread_counts() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let reference = distance_rows(&g, &tree, Algorithm::LeavesUp, 1);
        assert_rows_match_oracle(&g, &reference, family.label());
        for threads in THREAD_COUNTS {
            let got = distance_rows(&g, &tree, Algorithm::LeavesUp, threads);
            let context = format!("{} at {threads} threads", family.label());
            assert_rows_bit_identical(&reference, &got, &context);
        }
    }
}

#[test]
fn all_algorithms_are_bit_identical_across_thread_counts() {
    // Algorithm 4.3 (path doubling) and 4.4 (shared doubling) drive
    // different executor entry points (par_iter_mut over matrices,
    // par_sort_unstable over triples) — each must satisfy the same
    // contract. One family suffices; the LeavesUp loop above covers
    // family diversity.
    let (g, tree) = Family::Grid2D.instance(N_TARGET, SEED);
    for algo in [Algorithm::PathDoubling, Algorithm::SharedDoubling] {
        let reference = distance_rows(&g, &tree, algo, 1);
        assert_rows_match_oracle(&g, &reference, &format!("{algo:?}"));
        for threads in THREAD_COUNTS {
            let got = distance_rows(&g, &tree, algo, threads);
            assert_rows_bit_identical(&reference, &got, &format!("{algo:?} at {threads} threads"));
        }
    }
}

#[test]
fn reachability_closure_is_identical_across_thread_counts() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let gb = g.map_weights(|_| true);
        let closure_at = |threads: usize| -> BitMatrix {
            with_max_threads(threads, || {
                let metrics = Metrics::new();
                let pre = spsep_core::reach::preprocess_reach(&gb, &tree, &metrics);
                spsep_core::reach::transitive_closure(&pre)
            })
        };
        let reference = closure_at(1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                reference,
                closure_at(threads),
                "{} closure at {threads} threads",
                family.label()
            );
        }
    }
}

#[test]
fn dense_kernels_match_naive_on_every_family_and_thread_count() {
    // The dense-kernel contract behind all of the above: the k-tiled
    // `floyd_warshall` and the relax-form `square_step` must equal
    // their naive references bit for bit on real family matrices — at
    // every thread count (the tiled outer phase fans out over row
    // chunks; the naive kernels over single rows). n is chosen past the
    // parallel thresholds so the pool genuinely engages.
    use spsep_graph::dense::SemiMatrix;
    const KERNEL_N: usize = 160;
    for family in Family::all() {
        let (g, _) = family.instance(KERNEL_N * 2, SEED);
        let n = KERNEL_N.min(g.n());
        let mut base = SemiMatrix::<Tropical>::identity(n);
        for u in 0..n {
            for e in g.out_edges(u) {
                let v = e.to as usize;
                if v < n && v != u {
                    base.relax(u, v, e.w);
                }
            }
        }

        let fw_ref = with_max_threads(1, || {
            let mut m = base.clone();
            let o = m.floyd_warshall_naive();
            (m, o)
        });
        let sq_ref = with_max_threads(1, || {
            let mut m = base.clone();
            let o = m.square_step_naive();
            (m, o)
        });
        for threads in THREAD_COUNTS {
            let (fw, fw_o) = with_max_threads(threads, || {
                let mut m = base.clone();
                let o = m.floyd_warshall();
                (m, o)
            });
            let context = format!("{} fw at {threads} threads", family.label());
            assert_eq!(fw_o.ops, fw_ref.1.ops, "{context}: ops");
            assert_eq!(
                fw_o.absorbing_cycle, fw_ref.1.absorbing_cycle,
                "{context}: absorbing"
            );
            for (i, (a, b)) in fw.data().iter().zip(fw_ref.0.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{context}: cell {i}: {a} vs {b}");
            }

            let (sq, sq_o) = with_max_threads(threads, || {
                let mut m = base.clone();
                let o = m.square_step();
                (m, o)
            });
            let context = format!("{} square at {threads} threads", family.label());
            assert_eq!(sq_o.ops, sq_ref.1.ops, "{context}: ops");
            assert_eq!(sq_o.changed, sq_ref.1.changed, "{context}: changed");
            for (i, (a, b)) in sq.data().iter().zip(sq_ref.0.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{context}: cell {i}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn fallback_path_is_bit_identical_across_thread_counts() {
    // A zero E+ budget forces the baseline path; its par_iter'd solvers
    // are bound by the same determinism contract as the fast path.
    let policy = FallbackPolicy {
        max_eplus_candidates: Some(0),
        ..FallbackPolicy::default()
    };
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let rows_at = |threads: usize| -> Vec<Vec<f64>> {
            with_max_threads(threads, || {
                let metrics = Metrics::new();
                let prepared = preprocess_or_fallback(&g, &tree, &policy, &metrics)
                    .unwrap_or_else(|e| panic!("{}: fallback refused: {e}", family.label()));
                assert!(
                    !prepared.is_fast(),
                    "{}: zero budget must force the baseline",
                    family.label()
                );
                sources_for(g.n())
                    .iter()
                    .map(|&s| prepared.distances(s, &metrics))
                    .collect()
            })
        };
        let reference = rows_at(1);
        assert_rows_match_oracle(&g, &reference, family.label());
        for threads in THREAD_COUNTS {
            let got = rows_at(threads);
            let context = format!("{} fallback at {threads} threads", family.label());
            assert_rows_bit_identical(&reference, &got, &context);
        }
    }
}

/// Weight domains compared bit for bit.
trait Bits: Copy + std::fmt::Debug {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}

/// The dense pull loop, written against the public schedule accessors:
/// the reference for `run_seq_init`, which has no dense sibling.
fn dense_reference<S: Semiring>(sched: &Schedule<S>, mut dist: Vec<S::W>) -> Vec<S::W> {
    let mut scratch = vec![S::zero(); sched.max_sources()];
    for &bi in sched.sequence() {
        let bucket = &sched.buckets()[bi as usize];
        for (slot, &src) in bucket.sources().iter().enumerate() {
            scratch[slot] = dist[src as usize];
        }
        for g in bucket.groups() {
            let mut best = dist[g.target as usize];
            for a in &bucket.arcs()[g.start as usize..g.end as usize] {
                let sv = scratch[a.slot as usize];
                if !S::is_zero(sv) {
                    best = S::combine(best, S::extend(sv, a.w));
                }
            }
            dist[g.target as usize] = best;
        }
    }
    dist
}

fn assert_bits_eq<W: Bits>(reference: &[W], got: &[W], context: &str) {
    assert_eq!(reference.len(), got.len(), "{context}: row length");
    for (v, (&a, &b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.bits(), b.bits(), "{context}: vertex {v}: {a:?} vs {b:?}");
    }
}

/// `run_seq` against `run_seq_parents` (the dense loop behind
/// `explain`) and `run_seq_init` against [`dense_reference`], bit for
/// bit, with every relaxation count inside the `arcs_per_run` envelope.
fn assert_executor_exact<S: Semiring>(
    sched: &Schedule<S>,
    sources: &[usize],
    inits: &[Vec<S::W>],
    context: &str,
) where
    S::W: Bits,
{
    let envelope = sched.arcs_per_run();
    for &s in sources {
        let (got, relaxations) = sched.run_seq(s);
        let (reference, _) = sched.run_seq_parents(s);
        assert_bits_eq(&reference, &got, &format!("{context}: run_seq({s})"));
        assert!(
            relaxations <= envelope,
            "{context}: run_seq({s}) scanned {relaxations} > {envelope} arcs"
        );
        let mut init = vec![S::zero(); sched.n()];
        init[s] = S::one();
        let own = dense_reference(sched, init);
        assert_bits_eq(&reference, &own, &format!("{context}: reference({s})"));
    }
    for (i, init) in inits.iter().enumerate() {
        let (got, relaxations) = sched.run_seq_init(init.clone());
        let reference = dense_reference(sched, init.clone());
        assert_bits_eq(&reference, &got, &format!("{context}: run_seq_init #{i}"));
        assert!(
            relaxations <= envelope,
            "{context}: run_seq_init #{i} scanned {relaxations} > {envelope} arcs"
        );
    }
}

/// A multi-source label vector: the probe sources at `one`, `extra`
/// at vertex 1.
fn probe_init<S: Semiring>(n: usize, extra: S::W) -> Vec<S::W> {
    let mut init = vec![S::zero(); n];
    for s in sources_for(n) {
        init[s] = S::one();
    }
    init[1.min(n - 1)] = extra;
    init
}

#[test]
fn frontier_executor_matches_the_dense_loop_on_every_family() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let n = g.n();
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
        let inits = [
            probe_init::<Tropical>(n, -0.0),
            probe_init::<Tropical>(n, 2.5),
        ];
        assert_executor_exact(pre.schedule(), &sources_for(n), &inits, family.label());

        let gi: DiGraph<i64> = g.map_weights(|e| (e.w * 1000.0).round() as i64);
        let pre = preprocess::<TropicalInt>(&gi, &tree, Algorithm::LeavesUp, &metrics)
            .unwrap_or_else(|e| panic!("{} (i64): {e}", family.label()));
        let inits = [probe_init::<TropicalInt>(n, -7)];
        let context = format!("{} (i64)", family.label());
        assert_executor_exact(pre.schedule(), &sources_for(n), &inits, &context);
    }
}

/// A random digraph with hostile but cycle-safe integer weights: base
/// weights in `{0, 1, 2}` skewed by integer potentials (so negative arcs
/// abound, every cycle weighs its non-negative base sum, and all-zero
/// cycles occur), zeros of both signs, self-loops and parallel arcs,
/// and at most `density · n` arcs (so many vertices are unreachable).
fn hostile_graph(n: usize, density: usize, rng: &mut StdRng) -> DiGraph<f64> {
    let pot: Vec<i32> = (0..n).map(|_| rng.gen_range(-4..5)).collect();
    let edges = (0..density * n)
        .map(|_| {
            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let base = rng.gen_range(0..3) + pot[from] - pot[to];
            let w = match base {
                0 if rng.gen_range(0..2) == 0 => -0.0,
                b => f64::from(b),
            };
            Edge::new(from, to, w)
        })
        .collect();
    DiGraph::from_edges(n, edges)
}

/// Multi-source labels: mostly unreachable, else `±0` or a small
/// integer of either sign.
fn hostile_init(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from(rng.gen_range(-3..4)),
            _ => f64::INFINITY,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executor is exact on negative weights, `±0.0`, zero-weight
    /// cycles, unreachable vertices and multi-source label vectors,
    /// under `f64` and (the same weights) the exact `i64` semiring.
    #[test]
    fn frontier_executor_is_exact_on_hostile_weights(
        n in 2usize..70,
        density in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = hostile_graph(n, density, &mut rng);
        let tree = builders::bfs_tree(&g.undirected_skeleton(), RecursionLimits::default());
        let metrics = Metrics::new();
        let sources = [0, n / 2, n - 1];
        let inits: Vec<Vec<f64>> = (0..3).map(|_| hostile_init(n, &mut rng)).collect();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
            .expect("every cycle is non-negative by construction");
        assert_executor_exact(pre.schedule(), &sources, &inits, &format!("f64 seed {seed}"));

        let gi: DiGraph<i64> = g.map_weights(|e| e.w as i64);
        let inits: Vec<Vec<i64>> = inits
            .iter()
            .map(|init| {
                init.iter()
                    .map(|&x| if x.is_infinite() { i64::MAX } else { x as i64 })
                    .collect()
            })
            .collect();
        let pre = preprocess::<TropicalInt>(&gi, &tree, Algorithm::LeavesUp, &metrics)
            .expect("every cycle is non-negative by construction");
        assert_executor_exact(pre.schedule(), &sources, &inits, &format!("i64 seed {seed}"));
    }
}
