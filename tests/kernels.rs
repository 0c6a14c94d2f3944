//! The dense min-plus kernels against their naive references.
//!
//! `floyd_warshall` (the k-tiled schedule), one `square_step` (the relax
//! form) and a pruned doubling sequence must reproduce
//! `floyd_warshall_naive` / `square_step_naive` bit for bit: every cell's
//! `to_bits`, `ops` and `changed` of every unpruned call, and
//! `absorbing_cycle`. A pruned step may skip work, never add it, so its
//! `ops` is at most the naive step's. Orders straddle `TILE` = 32,
//! `PAR_SQ_MIN_N` = 64 and `PAR_FW_MIN_N` = 128, and every production
//! call runs at 1 and 4 threads against a 1-thread naive reference.
//!
//! Inputs: the first `n` vertices of every generator family, under the
//! `f64` tropical semiring (with whatever relax the host selects) and the
//! exact `i64` one (always the scalar relax), plus hostile `f64`
//! matrices with `±0.0`, `±∞`, denormals and negative arcs. Only `f64`
//! rounding lets a pruned rescan change a cell (DESIGN.md §8), and the
//! `f64` family sequences run past `⌈log₂ n⌉` steps for exactly that
//! reason, so they are what catches a pruning bug.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::with_max_threads;
use spsep::graph::dense::{KernelOutcome, SemiMatrix};
use spsep::graph::semiring::{Semiring, Tropical, TropicalInt};
use spsep::graph::{generators, DiGraph};

const SIZES: [usize; 5] = [1, 31, 33, 65, 130];
const THREADS: [usize; 2] = [1, 4];
const SEED: u64 = 20;

/// Bit pattern of a weight, so `-0.0` vs `0.0` and NaN payloads count.
trait Bits: Copy {
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

fn assert_bits<S: Semiring>(want: &SemiMatrix<S>, got: &SemiMatrix<S>, ctx: &str)
where
    S::W: Bits + std::fmt::Debug,
{
    assert_eq!(want.n(), got.n(), "{ctx}: order");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.bits(), b.bits(), "{ctx}: cell {i}: {a:?} vs {b:?}");
    }
}

/// Run `kernel` on a fresh clone of `base` with the pool capped at
/// `threads`.
fn run<S: Semiring>(
    base: &SemiMatrix<S>,
    threads: usize,
    kernel: fn(&mut SemiMatrix<S>) -> KernelOutcome,
) -> (SemiMatrix<S>, KernelOutcome) {
    with_max_threads(threads, || {
        let mut m = base.clone();
        let out = kernel(&mut m);
        (m, out)
    })
}

/// FW and one step against naive, then a pruned doubling sequence
/// against the naive sequence until it stops changing or `max_steps`.
/// Returns whether the sequence reached its fixpoint.
fn check<S: Semiring>(base: &SemiMatrix<S>, max_steps: usize, ctx: &str) -> bool
where
    S::W: Bits + std::fmt::Debug,
{
    let (fw_ref, fw_ref_out) = run(base, 1, SemiMatrix::floyd_warshall_naive);
    let (sq_ref, sq_ref_out) = run(base, 1, SemiMatrix::square_step_naive);
    let mut seq_ref = vec![];
    let mut m = base.clone();
    for _ in 0..max_steps {
        let out = with_max_threads(1, || m.square_step_naive());
        seq_ref.push((m.clone(), out));
        if !out.changed {
            break;
        }
    }

    for threads in THREADS {
        let ctx = format!("{ctx} threads={threads}");
        let (fw, fw_out) = run(base, threads, SemiMatrix::floyd_warshall);
        assert_bits(&fw_ref, &fw, &format!("{ctx} fw"));
        assert_eq!(fw_out, fw_ref_out, "{ctx} fw outcome");

        let (sq, sq_out) = run(base, threads, SemiMatrix::square_step);
        assert_bits(&sq_ref, &sq, &format!("{ctx} square"));
        assert_eq!(sq_out, sq_ref_out, "{ctx} square outcome");

        let mut m = base.clone();
        for (step, (want, want_out)) in seq_ref.iter().enumerate() {
            let out = with_max_threads(threads, || m.square_step());
            let ctx = format!("{ctx} doubling step {step}");
            assert_bits(want, &m, &ctx);
            assert_eq!(out.changed, want_out.changed, "{ctx}: changed");
            assert_eq!(
                out.absorbing_cycle, want_out.absorbing_cycle,
                "{ctx}: absorbing"
            );
            if step == 0 {
                assert_eq!(out.ops, want_out.ops, "{ctx}: unpruned ops");
            } else {
                assert!(
                    out.ops <= want_out.ops,
                    "{ctx}: pruned ops {} > naive {}",
                    out.ops,
                    want_out.ops
                );
            }
        }
    }
    seq_ref.last().is_some_and(|(_, out)| !out.changed)
}

/// Step budget for a doubling sequence without absorbing cycles. Exact
/// weights settle after `⌈log₂ n⌉ + 1` steps, but under `f64` a later
/// step can still re-associate a path sum and round it lower, so the
/// generator families take up to 13 steps at n = 130.
const FIXPOINT_STEPS: usize = 32;

/// The generator families, each large enough for the biggest `SIZES`
/// entry.
fn families() -> Vec<(&'static str, DiGraph<f64>)> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (grid2d, _) = generators::grid(&[12, 12], &mut rng);
    let (grid3d, _) = generators::grid(&[6, 6, 6], &mut rng);
    let tree = generators::random_tree(160, &mut rng);
    let (geometric, _) = generators::geometric(160, 2, 0.15, &mut rng);
    let gnm = generators::gnm(160, 640, &mut rng);
    let dag = generators::layered_dag(16, 10, 3, &mut rng);
    let skewed = generators::skew_by_potentials(&grid2d, 0.9, &mut rng);
    vec![
        ("grid2d", grid2d),
        ("grid3d", grid3d),
        ("tree", tree),
        ("geometric", geometric),
        ("gnm", gnm),
        ("layered_dag", dag),
        ("path", generators::path(160)),
        ("cycle", generators::cycle(160)),
        ("skewed_grid2d", skewed),
    ]
}

/// The first `n` vertices of `g` as a dense matrix: `1̄` diagonal, arc
/// weights mapped through `w` elsewhere.
fn dense<S: Semiring>(g: &DiGraph<f64>, n: usize, w: impl Fn(f64) -> S::W) -> SemiMatrix<S> {
    assert!(g.n() >= n, "family too small for n={n}");
    let mut m = SemiMatrix::<S>::identity(n);
    for u in 0..n {
        for e in g.out_edges(u) {
            let v = e.to as usize;
            if v < n && v != u {
                m.relax(u, v, w(e.w));
            }
        }
    }
    m
}

#[test]
fn kernels_match_naive_on_every_generator_family() {
    for (name, g) in families() {
        for n in SIZES {
            let f = dense::<Tropical>(&g, n, |w| w);
            assert!(
                check(&f, FIXPOINT_STEPS, &format!("{name} f64 n={n}")),
                "{name} n={n}: no fixpoint"
            );
            let i = dense::<TropicalInt>(&g, n, |w| (w * 1024.0).round() as i64);
            assert!(
                check(&i, FIXPOINT_STEPS, &format!("{name} i64 n={n}")),
                "{name} n={n}: no fixpoint"
            );
        }
    }
}

/// `n × n` matrix drawn from `pool` (diagonal included), with negative
/// arcs drawn as `-(0.25..8)`.
fn hostile(n: usize, seed: u64, pool: &[f64]) -> SemiMatrix<Tropical> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = (0..n * n)
        .map(|_| match rng.gen_range(0..pool.len() + 2) {
            k if k < pool.len() => pool[k],
            k if k == pool.len() => -rng.gen_range(0.25..8.0),
            _ => rng.gen_range(0.25..32.0),
        })
        .collect();
    SemiMatrix::from_flat(n, flat)
}

#[test]
fn kernels_match_naive_on_hostile_weights() {
    const SIGNED: [f64; 6] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::MIN_POSITIVE / 8.0,
        -2.0e-310,
        1.5,
    ];
    for n in SIZES {
        // With `-∞` among the weights, `-∞ + ∞` manufactures NaN
        // mid-kernel. NaN voids the selectivity that makes a pruned step
        // equal to a naive one, so the sequence stops after its first
        // (unpruned) step; FW and that step must still match bit for bit.
        let mut pool = SIGNED.to_vec();
        pool.push(f64::NEG_INFINITY);
        check(
            &hostile(n, SEED + n as u64, &pool),
            1,
            &format!("hostile -inf n={n}"),
        );
        // NaN-free: the pruned sequence must follow the naive one. The
        // negative arcs close absorbing cycles, so it never settles; it
        // runs one step past the last that can shorten a simple path, and
        // `absorbing_cycle` must agree at each of them.
        let m = hostile(n, SEED ^ n as u64, &SIGNED);
        check(&m, n.ilog2() as usize + 2, &format!("hostile n={n}"));
    }
}
