//! Jensen–Shannon divergence: the dataset-similarity measure of fairMS.
//!
//! The paper (§II-B): "The JSD, a principled divergence measure between two
//! probability distributions … quantifies the similarity among two or more
//! distributions. Its value is bounded by 0 and 1 for two probability
//! distributions, with 0 indicating completely similar distributions and 1
//! indicating orthogonal distributions." The `[0, 1]` bound requires
//! base-2 logarithms, used here.

/// Jensen–Shannon divergence between two discrete distributions, base 2.
///
/// Inputs need not be perfectly normalized (they are renormalized
/// defensively); zero entries are handled by the `0·log 0 = 0` convention.
/// Panics when lengths differ, either input sums to zero, or any entry is
/// negative.
pub fn jsd(p: &[f64], q: &[f64]) -> f64 {
    jsd_normalized(&normalize_pdf(p), &normalize_pdf(q))
}

/// [`jsd`] between two *already normalized* PDFs: the allocation-free
/// kernel the zoo's ranking pass runs once both sides are prepared as
/// [`normalize_pdf`] prepares them.
pub fn jsd_normalized(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(
        p.len(),
        q.len(),
        "jsd: length mismatch {} vs {}",
        p.len(),
        q.len()
    );
    assert!(!p.is_empty(), "jsd: empty distributions");
    let mut acc = 0.0f64;
    for (&pi, &qi) in p.iter().zip(q) {
        let mi = 0.5 * (pi + qi);
        acc += 0.5 * xlog2x_ratio(pi, mi) + 0.5 * xlog2x_ratio(qi, mi);
    }
    acc.clamp(0.0, 1.0)
}

/// Normalizes a non-negative mass vector into a PDF (sums to 1). Panics on
/// negative/non-finite entries or zero total mass — the same input
/// contract [`jsd`] enforces.
pub fn normalize_pdf(x: &[f64]) -> Vec<f64> {
    assert!(!x.is_empty(), "jsd: empty distributions");
    assert!(
        x.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "jsd: negative or non-finite probability mass"
    );
    let total: f64 = x.iter().sum();
    assert!(total > 0.0, "jsd: distribution sums to zero");
    x.iter().map(|&v| v / total).collect()
}

/// Whether a slice is acceptable PDF mass: non-empty, finite,
/// non-negative, with positive total. The read plane validates client
/// PDFs with this instead of letting [`jsd`]'s assertions unwind a
/// worker thread.
pub fn is_valid_pdf_mass(x: &[f64]) -> bool {
    !x.is_empty() && x.iter().all(|&v| v >= 0.0 && v.is_finite()) && x.iter().sum::<f64>() > 0.0
}

#[inline]
fn xlog2x_ratio(x: f64, m: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * (x / m).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_divergence() {
        let p = vec![0.25, 0.25, 0.5];
        assert!(jsd(&p, &p) < 1e-12);
    }

    #[test]
    fn disjoint_distributions_have_unit_divergence() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        assert!((jsd(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_is_symmetric() {
        let p = vec![0.7, 0.2, 0.1];
        let q = vec![0.1, 0.3, 0.6];
        assert!((jsd(&p, &q) - jsd(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn unnormalized_inputs_are_renormalized() {
        let p = vec![2.0, 2.0];
        let q = vec![0.5, 0.5];
        assert!(jsd(&p, &q) < 1e-12);
    }

    #[test]
    fn known_value_uniform_vs_point_mass() {
        // JSD(U₂, δ) = 0.5·(1·log2(1/0.75)) + 0.5·(0.5·log2(0.5/0.25)
        //              + 0.5·log2(0.5/0.75))
        let p = vec![1.0, 0.0];
        let q = vec![0.5, 0.5];
        let expected = 0.5 * (1.0f64 * (1.0 / 0.75f64).log2())
            + 0.5 * (0.5 * (0.5f64 / 0.25).log2() + 0.5 * (0.5f64 / 0.75).log2());
        assert!((jsd(&p, &q) - expected).abs() < 1e-12);
    }

    #[test]
    fn closer_distributions_have_smaller_divergence() {
        let base = vec![0.5, 0.3, 0.2];
        let near = vec![0.45, 0.35, 0.2];
        let far = vec![0.05, 0.15, 0.8];
        assert!(jsd(&base, &near) < jsd(&base, &far));
    }

    #[test]
    fn sqrt_jsd_satisfies_triangle_inequality_on_samples() {
        let dists = [
            vec![0.6, 0.3, 0.1],
            vec![0.2, 0.5, 0.3],
            vec![0.1, 0.1, 0.8],
            vec![1.0, 0.0, 0.0],
        ];
        for a in &dists {
            for b in &dists {
                for c in &dists {
                    let ab = jsd(a, b).sqrt();
                    let bc = jsd(b, c).sqrt();
                    let ac = jsd(a, c).sqrt();
                    assert!(ac <= ab + bc + 1e-9, "triangle violated");
                }
            }
        }
    }

    #[test]
    fn prenormalized_query_agrees_with_full_jsd() {
        let q = vec![3.0, 1.0, 2.0]; // unnormalized on purpose
        let qn = normalize_pdf(&q);
        for e in [
            vec![0.2, 0.3, 0.5],
            vec![1.0, 0.0, 0.0],
            vec![2.0, 2.0, 2.0],
        ] {
            let ranked = jsd_normalized(&qn, &normalize_pdf(&e));
            assert_eq!(ranked.to_bits(), jsd(&q, &e).to_bits());
        }
    }

    #[test]
    fn pdf_mass_validation_matches_jsd_contract() {
        assert!(is_valid_pdf_mass(&[0.5, 0.5]));
        assert!(is_valid_pdf_mass(&[2.0, 0.0])); // unnormalized is fine
        assert!(!is_valid_pdf_mass(&[]));
        assert!(!is_valid_pdf_mass(&[0.0, 0.0]));
        assert!(!is_valid_pdf_mass(&[-0.1, 1.1]));
        assert!(!is_valid_pdf_mass(&[f64::NAN, 1.0]));
        assert!(!is_valid_pdf_mass(&[f64::INFINITY, 1.0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        jsd(&[0.5, 0.5], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "sums to zero")]
    fn zero_mass_panics() {
        jsd(&[0.0, 0.0], &[0.5, 0.5]);
    }
}
