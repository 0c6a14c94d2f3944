//! Order statistics for the report.

/// Type-7 (linear interpolation) quantile of unsorted `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = q * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Median of unsorted `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Harrell–Davis estimate of quantile `q`: the mean of all order
/// statistics weighted by a Beta((n+1)q, (n+1)(1−q)) density. With a few
/// hundred samples a p99 has only a handful beyond it; averaging the
/// neighbouring order statistics makes the estimate steadier than one or
/// two of them alone. 0 when empty.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// `ln Γ(x)` for `x > 0` (Lanczos).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.001_208_650_973_866_179,
        -0.000_005_395_239_384_953,
    ];
    let t = x + 5.5;
    let mut ser = 1.000_000_000_190_015;
    for (k, c) in C.iter().enumerate() {
        ser += c / (x + 1.0 + k as f64);
    }
    (x + 0.5) * t.ln() - t + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // The Lanczos ln Γ is good to about 1e-10.
        assert!((inc_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-9);
        assert!((inc_beta(7.5, 7.5, 0.5) - 0.5).abs() < 1e-9);
        // I_0.4(2, 3) = P(Binomial(4, 0.4) >= 2).
        assert!((inc_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-9);
    }

    #[test]
    fn harrell_davis_is_centred_and_ordered() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 51.0).abs() < 1e-9);
        let (p50, p99) = (hd_quantile(&v, 0.5), hd_quantile(&v, 0.99));
        assert!(p99 > p50 && p99 <= 101.0 && p99 > 98.0, "p99 {p99}");
        assert!((hd_quantile(&[4.0], 0.99) - 4.0).abs() < 1e-9);
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
    }
}
