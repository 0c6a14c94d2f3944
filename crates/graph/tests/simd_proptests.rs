//! Property tests for the vector relax: the dense kernels (AVX-512F /
//! AVX2 relax on capable x86-64 hosts, the scalar relax everywhere else —
//! including `--no-default-features` builds, where this whole suite
//! degenerates to scalar-vs-naive and must still hold) are required to be **bit-identical** to the naive reference on
//! adversarial matrices: NaN-free inputs that still contain `±INFINITY`
//! (so `extend` can manufacture NaN via `∞ + (−∞)` mid-kernel), signed
//! zeros, denormals, negative weights, and orders that are not multiples
//! of the 4/8-lane widths.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep_graph::dense::SemiMatrix;
use spsep_graph::semiring::{Boolean, Bottleneck, MaxPlus, Reliability, Semiring, Tropical};

/// Adversarial but NaN-free weight pool. `±∞` is included for every
/// semiring: under min-plus `+∞` is `0̄` (skipped), but `−∞` is a live
/// weight and `∞ + (−∞)` inside `extend` produces NaN — exactly the lane
/// semantics the cmp/blend emulation must reproduce.
fn hostile_weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::MIN_POSITIVE / 8.0,
        5 => -2.0e-310,
        6 => -(rng.gen_range(0.25..8.0)),
        _ => rng.gen_range(0.25..32.0),
    }
}

fn hostile_matrix<S: Semiring<W = f64>>(n: usize, seed: u64) -> SemiMatrix<S> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = (0..n * n).map(|_| hostile_weight(&mut rng)).collect();
    SemiMatrix::from_flat(n, flat)
}

fn assert_bits<S: Semiring<W = f64>>(a: &SemiMatrix<S>, b: &SemiMatrix<S>, tag: &str) {
    for (idx, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: cell {} ({} vs {})",
            tag,
            idx,
            x,
            y
        );
    }
}

/// One semiring's full check: FW vs naive FW, and every step of a pruned
/// doubling sequence vs one naive step from the same matrix — bits, ops
/// and change flags all equal.
fn check_semiring<S: Semiring<W = f64>>(n: usize, seed: u64, tag: &str) {
    let base = hostile_matrix::<S>(n, seed);

    let mut auto_fw = base.clone();
    let mut naive_fw = base.clone();
    let oa = auto_fw.floyd_warshall();
    let on = naive_fw.floyd_warshall_naive();
    assert_bits(&auto_fw, &naive_fw, &format!("{tag} fw n={n}"));
    prop_assert_eq!(oa.ops, on.ops, "{} fw ops n={}", tag, n);
    prop_assert_eq!(oa.changed, on.changed, "{} fw changed n={}", tag, n);
    prop_assert_eq!(
        oa.absorbing_cycle,
        on.absorbing_cycle,
        "{} fw cycle n={}",
        tag,
        n
    );

    // Drive a doubling sequence so every step starts from a matrix the
    // pruned sequence actually reaches, and check that from any matrix
    // with *no* hint state one step is bit-identical to one naive step
    // (bits, ops, change flag) — even when mid-kernel NaN appears.
    //
    // The naive kernel never prunes, so the *pruned sequence* is only
    // naive-equivalent while the fold is monotone; a mid-iteration NaN
    // (e.g. `∞ · 0` under reliability) voids selectivity and the
    // sequences may legitimately part ways — hence the fresh-clone form
    // rather than a naive sequence. The in-crate `dense` unit tests pin
    // the pruned sequence of the scalar and vector relax to each other.
    let mut auto_sq = base.clone();
    for round in 0..8 {
        let mut fresh_auto = SemiMatrix::<S>::from_flat(n, auto_sq.data().to_vec());
        let mut fresh_naive = SemiMatrix::<S>::from_flat(n, auto_sq.data().to_vec());
        let ofa = fresh_auto.square_step();
        let ofn = fresh_naive.square_step_naive();
        assert_bits(
            &fresh_auto,
            &fresh_naive,
            &format!("{tag} fresh square n={n} round={round}"),
        );
        prop_assert_eq!(ofa.ops, ofn.ops, "{} fresh ops n={} r={}", tag, n, round);
        prop_assert_eq!(
            ofa.changed,
            ofn.changed,
            "{} fresh changed n={} r={}",
            tag,
            n,
            round
        );

        let oa = auto_sq.square_step();
        if !oa.changed {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All four f64 semirings with a lane algebra, orders straddling the
    /// 4- and 8-lane widths (and their tails) by construction.
    #[test]
    fn simd_kernels_bit_identical_to_naive_on_hostile_matrices(
        n in 1usize..36, seed in any::<u64>()
    ) {
        check_semiring::<Tropical>(n, seed, "tropical");
        check_semiring::<MaxPlus>(n, seed ^ 0x1111, "maxplus");
        check_semiring::<Bottleneck>(n, seed ^ 0x2222, "bottleneck");
        check_semiring::<Reliability>(n, seed ^ 0x3333, "reliability");
    }

    /// Larger orders cross the parallel thresholds (n ≥ 64 / 128) so the
    /// vector path runs under real work distribution too.
    #[test]
    fn simd_kernels_bit_identical_past_parallel_thresholds(
        n in 129usize..140, seed in any::<u64>()
    ) {
        check_semiring::<Tropical>(n, seed, "tropical-par");
    }

    /// Non-f64 semirings must keep working untouched through the same
    /// entry points (they select the scalar relax by construction).
    #[test]
    fn scalar_only_semirings_unaffected_by_dispatch(
        n in 1usize..24, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = SemiMatrix::<Boolean>::identity(n);
        for _ in 0..2 * n {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            a.relax(i, j, true);
        }
        let mut b = a.clone();
        a.floyd_warshall();
        b.floyd_warshall_naive();
        prop_assert_eq!(a.data(), b.data());
    }
}
