//! The serving-layer differential suite.
//!
//! Contracts under test:
//!
//! 1. **Round-trip bit-identity** — an oracle saved to an
//!    `spsep-oracle/v2` snapshot and reloaded answers every probe query
//!    bit-identically to the freshly prepared oracle, on every graph
//!    family, at 1/2/4/8 threads, and agrees with the Dijkstra oracle.
//! 2. **Batch determinism** — `Oracle::batch` (parallel across sources)
//!    returns bit-identical answers at every thread count, and the
//!    cache state it leaves behind is thread-count independent.
//! 3. **Truncation robustness** — every prefix of a snapshot is a
//!    typed error, never a panic and never a usable oracle. (The
//!    corruption catalog runs in `tests/snapshot_v2.rs` and the root
//!    `tests/snapshot.rs`.)

use rayon::with_max_threads;
use spsep_baselines::dijkstra;
use spsep_bench::families::Family;
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 18;

fn prepare_family(family: Family, algo: Algorithm) -> Oracle {
    let (g, tree) = family.instance(N_TARGET, SEED);
    Oracle::prepare(g, tree, algo, &Metrics::new())
        .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", family.label()))
}

fn save_v2(oracle: &Oracle) -> Vec<u8> {
    let mut buf = Vec::new();
    oracle.save_v2(&mut buf).expect("save_v2 to a Vec cannot fail");
    buf
}

#[test]
fn reloaded_oracle_is_bit_identical_to_fresh_at_every_thread_count() {
    for family in Family::all() {
        let fresh = prepare_family(family, Algorithm::LeavesUp);
        let snapshot = save_v2(&fresh);
        let n = fresh.n();
        let metrics = Metrics::new();
        let probes = [0, n / 3, n / 2, n - 1];

        // Reference rows from the fresh oracle, plus the Dijkstra
        // cross-check (nonnegative weights in every family).
        let mut reference: Vec<Vec<f64>> = Vec::new();
        for &s in &probes {
            let row = fresh.source_table(s, &metrics).unwrap();
            let oracle_dist = dijkstra(fresh.graph(), s).dist;
            for v in 0..n {
                assert!(
                    (row[v] - oracle_dist[v]).abs() < 1e-9
                        || (row[v].is_infinite() && oracle_dist[v].is_infinite()),
                    "{}: source {s} vertex {v}: fresh {} vs dijkstra {}",
                    family.label(),
                    row[v],
                    oracle_dist[v]
                );
            }
            reference.push(row.to_vec());
        }

        for threads in THREAD_COUNTS {
            let rows = with_max_threads(threads, || {
                let served = Oracle::load(snapshot.as_slice())
                    .unwrap_or_else(|e| panic!("{}: load failed: {e}", family.label()));
                probes
                    .iter()
                    .map(|&s| served.source_table(s, &metrics).unwrap().to_vec())
                    .collect::<Vec<_>>()
            });
            for (i, (row_ref, row_got)) in reference.iter().zip(&rows).enumerate() {
                for v in 0..n {
                    assert_eq!(
                        row_ref[v].to_bits(),
                        row_got[v].to_bits(),
                        "{} at {threads} threads: probe {i} vertex {v}",
                        family.label()
                    );
                }
            }
        }
    }
}

#[test]
fn batch_is_deterministic_across_thread_counts_including_cache_state() {
    let fresh = prepare_family(Family::Grid2D, Algorithm::PathDoubling);
    let snapshot = save_v2(&fresh);
    let n = fresh.n();
    // More distinct sources than default probes, interleaved targets.
    let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i * 7 % n, i * 13 % n)).collect();

    let mut reference: Option<(Vec<f64>, u64, u64)> = None;
    for threads in THREAD_COUNTS {
        let (answers, hits, misses) = with_max_threads(threads, || {
            let served = Oracle::load(snapshot.as_slice()).unwrap();
            let metrics = Metrics::new();
            let first = served.batch(&pairs, &metrics).unwrap();
            // Re-batching must be answered from cache alone.
            let second = served.batch(&pairs, &metrics).unwrap();
            assert_eq!(first, second, "{threads} threads: batch not stable");
            let stats = served.cache_stats();
            (first, stats.hits, stats.misses)
        });
        match &reference {
            None => reference = Some((answers, hits, misses)),
            Some((ref_answers, ref_hits, ref_misses)) => {
                for (i, (a, b)) in ref_answers.iter().zip(&answers).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "pair {i} differs at {threads} threads"
                    );
                }
                assert_eq!(
                    (*ref_hits, *ref_misses),
                    (hits, misses),
                    "cache counters depend on thread count"
                );
            }
        }
    }
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    // Exhaustive truncation sweep on a small instance: the catalog
    // spot-checks depths, this covers every prefix.
    let fresh = prepare_family(Family::Tree, Algorithm::LeavesUp);
    let snapshot = save_v2(&fresh);
    for cut in 0..snapshot.len() {
        match std::panic::catch_unwind(|| Oracle::load(&snapshot[..cut])) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("prefix of {cut} bytes loaded as a full snapshot"),
            Err(_) => panic!("load panicked at a {cut}-byte prefix"),
        }
    }
}
