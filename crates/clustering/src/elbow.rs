//! Elbow-method selection of the cluster count K.
//!
//! The paper automates K selection with YellowBrick's KElbowVisualizer
//! (§II-A): fit K-means for a range of K, record the within-cluster sum of
//! squared errors (WSS), and pick the "knee" where the marginal WSS
//! reduction collapses. The knee detector here is the max-distance-to-chord
//! rule (the geometric core of the Kneedle algorithm): normalize the WSS
//! curve, draw the chord from first to last point, and choose the K whose
//! point lies farthest below the chord.

use crate::kmeans::{KMeans, KMeansConfig};
use fairdms_tensor::Tensor;

/// The outcome of an elbow sweep.
#[derive(Clone, Debug)]
pub struct ElbowReport {
    /// Candidate cluster counts, ascending.
    pub ks: Vec<usize>,
    /// WSS at each candidate K.
    pub wss: Vec<f32>,
    /// The selected K.
    pub best_k: usize,
    /// Distance-below-chord score for each candidate (higher = more knee-like).
    pub scores: Vec<f32>,
}

/// Sweeps `k_range` (inclusive), fitting K-means at each K, and returns the
/// elbow report. `seed` controls all fits for reproducibility.
pub fn select_k(data: &Tensor, k_min: usize, k_max: usize, seed: u64) -> ElbowReport {
    assert!(
        k_min >= 1 && k_min <= k_max,
        "invalid k range {k_min}..={k_max}"
    );
    assert!(
        data.shape()[0] >= k_max,
        "need at least {k_max} samples for the sweep"
    );
    let ks: Vec<usize> = (k_min..=k_max).collect();
    let wss: Vec<f32> = ks
        .iter()
        .map(|&k| {
            let mut cfg = KMeansConfig::new(k);
            cfg.seed = seed;
            KMeans::fit(data, &cfg).inertia()
        })
        .collect();
    let (best_k, scores) = knee_of(&ks, &wss);
    ElbowReport {
        ks,
        wss,
        best_k,
        scores,
    }
}

/// Max-distance-to-chord knee detection on a decreasing curve.
///
/// Returns the x value with the highest distance below the chord joining
/// the curve's endpoints, together with the per-point scores. Degenerate
/// curves (flat, or fewer than 3 points) fall back to the smallest x.
fn knee_of(xs: &[usize], ys: &[f32]) -> (usize, Vec<f32>) {
    assert_eq!(xs.len(), ys.len(), "knee_of: length mismatch");
    assert!(!xs.is_empty(), "knee_of: empty curve");
    if xs.len() < 3 {
        return (xs[0], vec![0.0; xs.len()]);
    }
    let n = xs.len();
    let (x0, xn) = (xs[0] as f32, xs[n - 1] as f32);
    let (y0, yn) = (ys[0], ys[n - 1]);
    let x_span = (xn - x0).max(1e-12);
    let y_span = (y0 - yn).abs();
    if y_span <= 1e-12 {
        return (xs[0], vec![0.0; n]);
    }

    // Normalize to the unit square; the chord becomes y = 1 − x for a
    // decreasing curve.
    let mut scores = Vec::with_capacity(n);
    for i in 0..n {
        let xn_i = (xs[i] as f32 - x0) / x_span;
        let yn_i = (ys[i] - yn) / y_span;
        let chord_y = 1.0 - xn_i;
        scores.push(chord_y - yn_i); // positive when below the chord
    }
    let mut best = 0usize;
    for i in 1..n {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    (xs[best], scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::rng::TensorRng;

    /// `k_true` well-separated blobs in 2-D.
    fn blobs(k_true: usize, n_per: usize, seed: u64) -> Tensor {
        let mut rng = TensorRng::seeded(seed);
        let mut data = Vec::with_capacity(k_true * n_per * 2);
        for c in 0..k_true {
            let cx = (c as f32) * 20.0;
            let cy = ((c * 7) % 5) as f32 * 20.0;
            for _ in 0..n_per {
                data.push(cx + rng.next_normal_with(0.0, 0.6));
                data.push(cy + rng.next_normal_with(0.0, 0.6));
            }
        }
        Tensor::from_vec(data, &[k_true * n_per, 2])
    }

    #[test]
    fn knee_on_synthetic_hyperbola() {
        // y = 1/x has its maximal chord distance near the small-x corner.
        let xs: Vec<usize> = (1..=10).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| 1.0 / x as f32).collect();
        let (knee, _) = knee_of(&xs, &ys);
        assert!((2..=3).contains(&knee), "knee at {knee}");
    }

    #[test]
    fn flat_curve_falls_back_to_smallest_k() {
        let xs = vec![1, 2, 3, 4];
        let ys = vec![5.0, 5.0, 5.0, 5.0];
        assert_eq!(knee_of(&xs, &ys).0, 1);
    }

    #[test]
    fn recovers_true_cluster_count() {
        let data = blobs(4, 40, 0);
        let report = select_k(&data, 1, 9, 0);
        assert!(
            (3..=5).contains(&report.best_k),
            "best_k {} (wss {:?})",
            report.best_k,
            report.wss
        );
        // The WSS curve is monotone decreasing (within fit noise).
        for w in report.wss.windows(2) {
            assert!(w[1] <= w[0] * 1.05, "wss not decreasing: {:?}", report.wss);
        }
    }

    #[test]
    fn report_is_internally_consistent() {
        let data = blobs(3, 30, 1);
        let report = select_k(&data, 2, 7, 1);
        assert_eq!(report.ks.len(), report.wss.len());
        assert_eq!(report.ks.len(), report.scores.len());
        assert!(report.ks.contains(&report.best_k));
    }

    #[test]
    #[should_panic(expected = "invalid k range")]
    fn rejects_inverted_range() {
        let data = blobs(2, 10, 2);
        select_k(&data, 5, 2, 0);
    }
}
