//! E16 — naive reference vs production dense kernel wall-clock, plus the
//! `BENCH_kernels.json` artifact (schema `spsep-kernel-bench/v2`).
//!
//! The baseline is the untiled reference kernel
//! ([`SemiMatrix::floyd_warshall_naive`] / [`SemiMatrix::square_step_naive`]);
//! the candidate is the production kernel the pipeline runs
//! ([`SemiMatrix::floyd_warshall`] / [`SemiMatrix::square_step`]), with the
//! relax primitive the host selects. The artifact records that selection
//! (`dispatch`), so a scalar host's row is labelled as such. Every run
//! re-checks that both produce byte-for-byte identical matrices.
//!
//! The workspace has no serde, so the artifact is written with `format!`
//! and checked by the hand-rolled parser of `jsonv` (the crate-private mini JSON parser); the
//! `tables` binary validates every artifact it writes, and CI's
//! bench-smoke job validates the committed copy.

use crate::families::Family;
use crate::jsonv::{field, parse_json, Json};
use crate::{fmt_f, Table};
use spsep_graph::dense::{simd, simd_active, KernelOutcome, SemiMatrix};
use spsep_graph::semiring::Tropical;
use std::time::Instant;

/// Schema tag of the E16 artifact.
const SCHEMA: &str = "spsep-kernel-bench/v2";

/// One measured (family, n, kernel) point.
pub struct KernelRecord {
    /// Machine-readable family slug (`grid2d`, `tree`, …).
    pub family: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// `floyd_warshall` or `square_step`.
    pub kernel: &'static str,
    /// Median wall-clock of the naive reference kernel, milliseconds.
    pub naive_ms: f64,
    /// Median wall-clock of the production kernel, milliseconds.
    pub kernel_ms: f64,
    /// `naive_ms / kernel_ms`.
    pub speedup: f64,
    /// Result matrices byte-for-byte equal on every run.
    pub bit_identical: bool,
}

/// The relax primitive the production kernels select for `Tropical` on
/// this host: `avx512`, `avx2`, or `scalar` (no vector level, or the
/// `simd` feature compiled out).
fn dispatch_name() -> &'static str {
    match simd::detect() {
        Some(level) if simd_active::<Tropical>() => level.name(),
        _ => "scalar",
    }
}

/// Densify the first `size` vertices of a family instance into a
/// tropical matrix (identity diagonal, edge weights elsewhere).
fn dense_from_family(family: Family, size: usize, seed: u64) -> SemiMatrix<Tropical> {
    // Request twice the target so every family (notably 3-D grids, which
    // round to a cube) yields at least `size` vertices.
    let (g, _) = family.instance(size * 2, seed);
    let n = size.min(g.n());
    let mut m = SemiMatrix::<Tropical>::identity(n);
    for u in 0..n {
        for e in g.out_edges(u) {
            let v = e.to as usize;
            if v < n && v != u {
                m.relax(u, v, e.w);
            }
        }
    }
    m
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn same_bits(a: &SemiMatrix<Tropical>, b: &SemiMatrix<Tropical>) -> bool {
    a.data()
        .iter()
        .zip(b.data())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A dense kernel entry point, as timed by E16.
type Kernel = fn(&mut SemiMatrix<Tropical>) -> KernelOutcome;

/// Median wall-clock of `naive` and `kernel`, each run `runs` times on a
/// fresh clone of `base` inside `pool`, plus whether every pair of
/// results was byte-for-byte equal.
fn time_pair(
    pool: &rayon::ThreadPool,
    base: &SemiMatrix<Tropical>,
    runs: usize,
    naive: Kernel,
    kernel: Kernel,
) -> (f64, f64, bool) {
    let mut naive_ms = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut bits = true;
    for _ in 0..runs {
        let mut a = base.clone();
        let t0 = Instant::now();
        pool.install(|| naive(&mut a));
        naive_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut b = base.clone();
        let t0 = Instant::now();
        pool.install(|| kernel(&mut b));
        kernel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bits &= same_bits(&a, &b);
    }
    (median(naive_ms), median(kernel_ms), bits)
}

/// E16 — single-thread wall-clock of the production kernels against
/// their naive references, per family. Returns the rendered report plus
/// the raw records for the JSON artifact.
///
/// `smoke` shrinks sizes and run counts so CI can exercise the full
/// pipeline (measure → serialize → validate) in seconds.
pub fn e16_kernel_speedup(smoke: bool) -> (String, Vec<KernelRecord>) {
    let sizes: &[usize] = if smoke { &[40, 64] } else { &[256, 512, 768] };
    let runs = if smoke { 1 } else { 5 };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let mut records = Vec::new();
    for family in Family::all() {
        for &size in sizes {
            let base = dense_from_family(family, size, 11);
            let n = base.n();
            let kernels: [(&'static str, Kernel, Kernel); 2] = [
                (
                    "floyd_warshall",
                    SemiMatrix::floyd_warshall_naive,
                    SemiMatrix::floyd_warshall,
                ),
                (
                    "square_step",
                    SemiMatrix::square_step_naive,
                    SemiMatrix::square_step,
                ),
            ];
            for (kernel, naive, production) in kernels {
                let (naive_ms, kernel_ms, bit_identical) =
                    time_pair(&pool, &base, runs, naive, production);
                records.push(KernelRecord {
                    family: family.slug(),
                    n,
                    kernel,
                    naive_ms,
                    kernel_ms,
                    speedup: naive_ms / kernel_ms.max(1e-9),
                    bit_identical,
                });
            }
        }
    }

    let mut out = format!(
        "E16 — production vs naive kernel wall-clock, single thread (median \
         of {runs} run(s), sizes {sizes:?}, relax `{}`). `floyd_warshall` \
         is the k-tiled order-preserving schedule; `square_step` is the \
         relax form (`ikj`) with per-tile change flags. The `bitident` \
         column asserts the determinism contract: production results are \
         byte-for-byte the naive results.\n\n",
        dispatch_name(),
    );
    let mut t = Table::new(&[
        "family", "n", "kernel", "naive_ms", "kernel_ms", "speedup", "bitident",
    ]);
    for r in &records {
        t.row(vec![
            r.family.into(),
            r.n.to_string(),
            r.kernel.into(),
            fmt_f(r.naive_ms),
            fmt_f(r.kernel_ms),
            format!("{:.2}x", r.speedup),
            if r.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    out.push_str(&t.render());
    if !smoke {
        let span = |kernel: &str| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in records.iter().filter(|r| r.kernel == kernel) {
                lo = lo.min(r.speedup);
                hi = hi.max(r.speedup);
            }
            (lo, hi)
        };
        let (fw_lo, fw_hi) = span("floyd_warshall");
        let (sq_lo, sq_hi) = span("square_step");
        out.push_str(&format!(
            "\nSpeedup over naive on this host: floyd_warshall \
             {fw_lo:.2}x-{fw_hi:.2}x, square_step {sq_lo:.2}x-{sq_hi:.2}x.\n"
        ));
    }
    (out, records)
}

/// Serialize records as `spsep-kernel-bench/v2` JSON.
pub fn kernels_json(records: &[KernelRecord]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut s = format!("{{\n  \"schema\": \"{SCHEMA}\",\n");
    s.push_str(&format!("  \"host_cores\": {cores},\n"));
    s.push_str(&format!("  \"dispatch\": \"{}\",\n", dispatch_name()));
    s.push_str("  \"threads\": 1,\n  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"kernel\": \"{}\", \
             \"naive_ms\": {:.4}, \"kernel_ms\": {:.4}, \
             \"speedup\": {:.4}, \"bit_identical\": {}}}{}\n",
            r.family,
            r.n,
            r.kernel,
            r.naive_ms,
            r.kernel_ms,
            r.speedup,
            r.bit_identical,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validate a `spsep-kernel-bench/v2` document. Returns the entry count.
///
/// Checks structure and types, the `dispatch` value, entry-level
/// invariants (known kernel names, positive `n`, non-negative times,
/// finite positive speedup), and that at least one entry is present.
/// Truth of `bit_identical` is a *result*, not a schema property, so it
/// is type-checked here and asserted by the `tables` binary instead.
pub fn validate_kernels_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    match field(&top, "schema")? {
        Json::Str(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema field: {other:?}")),
    }
    match field(&top, "dispatch")? {
        Json::Str(s) if ["scalar", "avx2", "avx512"].contains(&s.as_str()) => {}
        other => {
            return Err(format!(
                "`dispatch` must be scalar, avx2 or avx512: {other:?}"
            ))
        }
    }
    for key in ["host_cores", "threads"] {
        let Json::Num(v) = field(&top, key)? else {
            return Err(format!("`{key}` must be a number"));
        };
        if *v < 1.0 {
            return Err(format!("`{key}` must be >= 1"));
        }
    }
    let Json::Arr(entries) = field(&top, "entries")? else {
        return Err("`entries` must be an array".into());
    };
    if entries.is_empty() {
        return Err("`entries` is empty".into());
    }
    for (idx, e) in entries.iter().enumerate() {
        let Json::Obj(e) = e else {
            return Err(format!("entry {idx} is not an object"));
        };
        let ctx = |msg: &str| format!("entry {idx}: {msg}");
        match field(e, "family").map_err(|m| ctx(&m))? {
            Json::Str(s) if !s.is_empty() => {}
            _ => return Err(ctx("`family` must be a non-empty string")),
        }
        match field(e, "kernel").map_err(|m| ctx(&m))? {
            Json::Str(s) if s == "floyd_warshall" || s == "square_step" => {}
            other => return Err(ctx(&format!("unknown kernel {other:?}"))),
        }
        match field(e, "n").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v >= 1.0 && v.fract() == 0.0 => {}
            _ => return Err(ctx("`n` must be a positive integer")),
        }
        for key in ["naive_ms", "kernel_ms"] {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if *v >= 0.0 && v.is_finite() => {}
                _ => {
                    return Err(ctx(&format!(
                        "`{key}` must be a finite non-negative number"
                    )))
                }
            }
        }
        match field(e, "speedup").map_err(|m| ctx(&m))? {
            Json::Num(v) if *v > 0.0 && v.is_finite() => {}
            _ => return Err(ctx("`speedup` must be a finite positive number")),
        }
        if !matches!(
            field(e, "bit_identical").map_err(|m| ctx(&m))?,
            Json::Bool(_)
        ) {
            return Err(ctx("`bit_identical` must be a bool"));
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<KernelRecord> {
        vec![KernelRecord {
            family: "grid2d",
            n: 64,
            kernel: "floyd_warshall",
            naive_ms: 2.5,
            kernel_ms: 1.5,
            speedup: 2.5 / 1.5,
            bit_identical: true,
        }]
    }

    #[test]
    fn writer_output_validates() {
        let json = kernels_json(&sample());
        assert_eq!(validate_kernels_json(&json), Ok(1));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_kernels_json("").is_err());
        assert!(validate_kernels_json("[]").is_err());
        assert!(validate_kernels_json("{\"schema\": \"other/v9\"}").is_err());
        // Wrong schema string.
        let bad = kernels_json(&sample()).replace(SCHEMA, "nope");
        assert!(validate_kernels_json(&bad).is_err());
        // Retired v1 schema.
        let bad = kernels_json(&sample()).replace(SCHEMA, "spsep-kernel-bench/v1");
        assert!(validate_kernels_json(&bad).is_err());
        // Unknown dispatch.
        let bad = kernels_json(&sample()).replace(
            &format!("\"dispatch\": \"{}\"", dispatch_name()),
            "\"dispatch\": \"sse9\"",
        );
        assert!(validate_kernels_json(&bad).is_err());
        // Unknown kernel name.
        let bad = kernels_json(&sample()).replace("floyd_warshall", "strassen");
        assert!(validate_kernels_json(&bad).is_err());
        // Empty entry list.
        let mut empty = kernels_json(&[]);
        assert!(validate_kernels_json(&empty).is_err());
        // Truncated document.
        empty.truncate(empty.len() / 2);
        assert!(validate_kernels_json(&empty).is_err());
    }

    #[test]
    fn validator_accepts_reordered_keys_and_whitespace() {
        let json = "{\"threads\":1,\"entries\":[{\"bit_identical\":false,\
                     \"speedup\":0.9,\"kernel_ms\":1.0,\"naive_ms\":0.9,\
                     \"n\":32,\"kernel\":\"square_step\",\"family\":\"tree\"}],\
                     \"host_cores\":4,\"dispatch\":\"scalar\",\
                     \"schema\":\"spsep-kernel-bench/v2\"}";
        assert_eq!(validate_kernels_json(json), Ok(1));
    }

    #[test]
    fn dispatch_name_matches_simd_active() {
        assert_eq!(dispatch_name() == "scalar", !simd_active::<Tropical>());
    }

    #[test]
    fn committed_artifact_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let json =
            std::fs::read_to_string(path).expect("BENCH_kernels.json committed at repo root");
        let entries = validate_kernels_json(&json)
            .expect("committed artifact is valid spsep-kernel-bench/v2");
        // 5 families x 3 sizes x 2 kernels.
        assert_eq!(entries, 30);
    }

    #[test]
    fn e16_smoke_measures_all_families_bit_identically() {
        let (report, records) = e16_kernel_speedup(true);
        // 5 families x 2 sizes x 2 kernels.
        assert_eq!(records.len(), 20);
        assert!(records.iter().all(|r| r.bit_identical), "{report}");
        let json = kernels_json(&records);
        assert_eq!(validate_kernels_json(&json), Ok(20));
    }
}
