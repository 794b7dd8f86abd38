//! Expected number of distinct items touched by `r_acc` (paper §4.6).
//!
//! `r_acc(R, r)` performs `r` independent random accesses *with
//! replacement* over the `R.n` items of a region. The paper derives the
//! expected number `D` of distinct items via Stirling numbers of the
//! second kind:
//!
//! ```text
//! D = Σ_d  d · C(n,d) · S(r,d) · d! / n^r
//! ```
//!
//! That sum is exactly the classic occupancy expectation, which has the
//! closed form `D = n · (1 − (1 − 1/n)^r)`: each particular item is missed
//! by all `r` draws with probability `(1−1/n)^r`. [`expected_distinct`]
//! implements the closed form (numerically robust for the huge `n`, `r`
//! the experiments use); [`expected_distinct_stirling`] implements the
//! paper's sum directly and is used by the test suite to confirm the two
//! agree (the `paper` bench's `ablation_distinct` rows also compare both
//! against an empirical count).

/// Expected number of distinct items after `r` uniform random draws (with
/// replacement) from `n` items — closed form.
pub fn expected_distinct(n: u64, r: u64) -> f64 {
    if n == 0 || r == 0 {
        return 0.0;
    }
    let nf = n as f64;
    // (1 - 1/n)^r via exp(r·ln(1-1/n)), stable for large n.
    let miss_p = ((1.0 - 1.0 / nf).ln() * r as f64).exp();
    nf * (1.0 - miss_p)
}

/// Stirling numbers of the second kind in log space: `ln S(r, d)` for
/// all `d ≤ r` (`-inf` where `S = 0`), by the triangular recurrence
/// `S(r,d) = d·S(r−1,d) + S(r−1,d−1)`. Stable far beyond the `f64`
/// overflow point of the plain recurrence.
pub fn stirling2_row_ln(r: usize) -> Vec<f64> {
    fn log_add_exp(a: f64, b: f64) -> f64 {
        if a == f64::NEG_INFINITY {
            return b;
        }
        if b == f64::NEG_INFINITY {
            return a;
        }
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        hi + (lo - hi).exp().ln_1p()
    }
    let mut prev = vec![f64::NEG_INFINITY; r + 1];
    prev[0] = 0.0; // ln S(0,0) = ln 1
    if r == 0 {
        return prev;
    }
    let mut row = prev.clone();
    for i in 1..=r {
        row = vec![f64::NEG_INFINITY; r + 1];
        for (d, slot) in row.iter_mut().enumerate().take(i + 1).skip(1) {
            // ln S(i,d) = ln( d·S(i−1,d) + S(i−1,d−1) )
            *slot = log_add_exp((d as f64).ln() + prev[d], prev[d - 1]);
        }
        prev = row.clone();
    }
    row
}

/// The paper's exact expectation: `Σ_d d·C(n,d)·S(r,d)·d!/n^r`.
///
/// Used to validate [`expected_distinct`], not in the cost formulas
/// themselves (the table is O(r²)). Works entirely in log space, so it
/// is exact-to-f64 even where the Stirling numbers themselves overflow.
pub fn expected_distinct_stirling(n: u64, r: u64) -> f64 {
    if n == 0 || r == 0 {
        return 0.0;
    }
    let s_row = stirling2_row_ln(r as usize);
    let nf = n as f64;
    let ln_n_pow_r = nf.ln() * r as f64;
    let mut expectation = 0.0;
    let dmax = (n as usize).min(r as usize);
    // ln C(n,d) + ln d! accumulated incrementally.
    let mut ln_choose = 0.0; // ln C(n,0)
    let mut ln_fact = 0.0; // ln 0!
    #[allow(clippy::needless_range_loop)] // d is arithmetic, not just an index
    for d in 1..=dmax {
        ln_choose += ((n - d as u64 + 1) as f64).ln() - (d as f64).ln();
        ln_fact += (d as f64).ln();
        if s_row[d] == f64::NEG_INFINITY {
            continue;
        }
        let ln_term = ln_choose + s_row[d] + ln_fact - ln_n_pow_r;
        expectation += d as f64 * ln_term.exp();
    }
    expectation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stirling_small_values() {
        let row = |r| -> Vec<f64> {
            stirling2_row_ln(r)
                .iter()
                .map(|l| l.exp().round())
                .collect()
        };
        assert_eq!(row(4), [0.0, 1.0, 7.0, 6.0, 1.0]);
        // S(5,3) = 25
        assert_eq!(row(5)[3], 25.0);
    }

    #[test]
    fn stirling_row_zero() {
        assert_eq!(stirling2_row_ln(0), [0.0]); // S(0,0) = 1
    }

    #[test]
    fn closed_form_edge_cases() {
        assert_eq!(expected_distinct(0, 5), 0.0);
        assert_eq!(expected_distinct(5, 0), 0.0);
        // One draw touches exactly one item.
        assert!((expected_distinct(100, 1) - 1.0).abs() < 1e-12);
        // n = 1: any number of draws touches the single item.
        assert!((expected_distinct(1, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_space_stirling_matches_plain() {
        // Closed forms: S(r,1) = S(r,r) = 1, S(r,2) = 2^(r−1) − 1 and
        // S(r,r−1) = C(r,2).
        let logs = stirling2_row_ln(20);
        for (d, plain) in [(1, 1.0), (2, 524_287.0), (19, 190.0), (20, 1.0)] {
            let back = logs[d].exp();
            assert!(
                ((back - plain) / plain).abs() < 1e-9,
                "d={d}: {back} vs {plain}"
            );
        }
    }

    #[test]
    fn log_space_stirling_survives_large_r() {
        // S(256, d) overflows f64; the log-space sum must stay finite and
        // agree with the closed form.
        let st = expected_distinct_stirling(64, 256);
        let cf = expected_distinct(64, 256);
        assert!(st.is_finite());
        assert!((st - cf).abs() < 1e-6 * cf, "{st} vs {cf}");
    }

    #[test]
    fn closed_form_matches_stirling_sum() {
        for &(n, r) in &[(2u64, 3u64), (5, 5), (10, 7), (8, 16), (20, 20), (30, 10)] {
            let cf = expected_distinct(n, r);
            let st = expected_distinct_stirling(n, r);
            assert!(
                (cf - st).abs() < 1e-6 * st.max(1.0),
                "n={n} r={r}: closed={cf} stirling={st}"
            );
        }
    }

    #[test]
    fn distinct_is_monotone_and_bounded() {
        let n = 1000;
        let mut prev = 0.0;
        for r in [1u64, 10, 100, 1000, 10_000, 100_000] {
            let d = expected_distinct(n, r);
            assert!(d > prev, "monotone in r");
            assert!(d <= n as f64 + 1e-9, "bounded by n");
            assert!(d <= r as f64 + 1e-9, "bounded by r");
            prev = d;
        }
        // Saturates to n for r >> n.
        assert!((expected_distinct(n, 1_000_000) - n as f64).abs() < 1e-6);
    }

    #[test]
    fn coupon_collector_landmark() {
        // After n draws from n items, expected distinct ≈ n(1 − 1/e).
        let d = expected_distinct(1_000_000, 1_000_000);
        let expect = 1_000_000.0 * (1.0 - (-1.0f64).exp());
        assert!((d - expect).abs() / expect < 1e-3);
    }

    #[test]
    fn huge_inputs_are_stable() {
        // Values the fig7c experiment actually uses.
        let d = expected_distinct(1 << 24, 1 << 24);
        assert!(d.is_finite() && d > 0.0);
        let d2 = expected_distinct(u32::MAX as u64, 1 << 30);
        assert!(d2.is_finite() && d2 <= u32::MAX as f64);
    }
}
