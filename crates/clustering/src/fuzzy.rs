//! Fuzzy (soft) cluster memberships and the certainty metric of Fig 16.
//!
//! The paper quantifies the health of the embedding+clustering stack as the
//! percentage of a dataset "assigned to their respective cluster with at
//! least 50 % confidence", computed with fuzzy k-means memberships (§III-I).
//! Given fitted hard centers, the standard fuzzy c-means membership of
//! sample `x` in cluster `i` is
//!
//! ```text
//! u_i(x) = 1 / Σ_j (‖x−c_i‖ / ‖x−c_j‖)^(2/(m−1))
//! ```
//!
//! with fuzzifier `m > 1`. Memberships are in `[0, 1]` and sum to 1.

use crate::kmeans::KMeans;
use fairdms_tensor::{
    ops::{sq_dist, PAR_MIN_WORK, POWF_WORK},
    Tensor,
};
use rayon::prelude::*;

/// The conventional fuzzifier.
pub const DEFAULT_FUZZIFIER: f32 = 2.0;

/// Fuzzy membership vector of a single sample against a set of centers.
///
/// A sample exactly on a center gets membership 1 for it (and 0 elsewhere).
fn membership_of(sample: &[f32], centers: &Tensor, fuzzifier: f32) -> Vec<f32> {
    assert!(fuzzifier > 1.0, "fuzzifier must exceed 1");
    let k = centers.shape()[0];
    let exponent = 2.0 / (fuzzifier - 1.0);
    let dists: Vec<f32> = (0..k)
        .map(|c| sq_dist(sample, centers.row(c)).sqrt())
        .collect();

    // Exact-hit handling: distribute all mass over coincident centers.
    let hits: Vec<usize> = (0..k).filter(|&c| dists[c] <= 1e-12).collect();
    if !hits.is_empty() {
        let mut u = vec![0.0f32; k];
        let share = 1.0 / hits.len() as f32;
        for h in hits {
            u[h] = share;
        }
        return u;
    }

    let mut u = vec![0.0f32; k];
    for i in 0..k {
        let mut denom = 0.0f32;
        for j in 0..k {
            denom += (dists[i] / dists[j]).powf(exponent);
        }
        u[i] = 1.0 / denom;
    }
    u
}

/// Fuzzy membership matrix (`[n, k]`, row-stochastic) of a dataset against
/// a fitted K-means model. Rows are independent, so the matrix is the same
/// to the bit whether or not the batch is large enough to be split.
pub fn memberships(data: &Tensor, model: &KMeans, fuzzifier: f32) -> Tensor {
    assert_eq!(data.rank(), 2, "memberships expects [n, d] data");
    let n = data.shape()[0];
    let d = data.shape()[1];
    let k = model.k();
    let raw = data.data();
    let centers = model.centers();
    let mut out = vec![0.0f32; n * k];
    let fill = |(i, row): (usize, &mut [f32])| {
        row.copy_from_slice(&membership_of(&raw[i * d..(i + 1) * d], centers, fuzzifier));
    };
    // Per row: k distances of d terms, then k² ratios raised to a power.
    if n * k * (d + k * POWF_WORK) >= PAR_MIN_WORK {
        out.par_chunks_mut(k).enumerate().for_each(fill);
    } else {
        out.chunks_mut(k).enumerate().for_each(fill);
    }
    Tensor::from_vec(out, &[n, k])
}

/// The paper's certainty metric: the fraction of samples whose *maximum*
/// fuzzy membership is at least `confidence` (Fig 16 uses 0.5), with the
/// conventional fuzzifier m = 2.
///
/// Returns a value in `[0, 1]`.
pub fn certainty(data: &Tensor, model: &KMeans, confidence: f32) -> f64 {
    certainty_with_fuzzifier(data, model, confidence, DEFAULT_FUZZIFIER)
}

/// [`certainty`] with an explicit fuzzifier.
///
/// The fuzzifier sets the metric's operating point: at m = 2 with large K
/// even well-clustered data rarely reaches 0.5 max-membership, while
/// m → 1 approaches hard assignment (certainty → 1). The paper does not
/// report its value; deployments calibrate m so in-distribution data
/// scores near the paper's ~97 % baseline.
pub fn certainty_with_fuzzifier(
    data: &Tensor,
    model: &KMeans,
    confidence: f32,
    fuzzifier: f32,
) -> f64 {
    assert!(
        (0.0..=1.0).contains(&confidence),
        "confidence must be in [0,1]"
    );
    let n = data.shape()[0];
    if n == 0 {
        return 1.0;
    }
    let u = memberships(data, model, fuzzifier);
    let k = model.k();
    let confident = u
        .data()
        .chunks(k)
        .filter(|row| row.iter().cloned().fold(f32::NEG_INFINITY, f32::max) >= confidence)
        .count();
    confident as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansConfig;
    use fairdms_tensor::rng::TensorRng;

    /// Three blobs: with k=2 the max of a 2-way membership is always ≥ 0.5,
    /// so certainty tests need at least three clusters to be informative.
    fn blobs(spread: f32, seed: u64) -> Tensor {
        let mut rng = TensorRng::seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [5.0, 9.0]];
        let mut data = Vec::new();
        for c in &centers {
            for _ in 0..40 {
                data.push(c[0] + rng.next_normal_with(0.0, spread));
                data.push(c[1] + rng.next_normal_with(0.0, spread));
            }
        }
        Tensor::from_vec(data, &[120, 2])
    }

    #[test]
    fn memberships_are_row_stochastic() {
        let data = blobs(1.0, 0);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let u = memberships(&data, &model, DEFAULT_FUZZIFIER);
        for i in 0..120 {
            let row = u.row(i);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn sample_on_center_has_full_membership() {
        let data = blobs(0.5, 1);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let c0: Vec<f32> = model.centers().row(0).to_vec();
        let u = membership_of(&c0, model.centers(), DEFAULT_FUZZIFIER);
        assert!((u[0] - 1.0).abs() < 1e-6);
        assert!(u[1].abs() < 1e-6);
        assert!(u[2].abs() < 1e-6);
    }

    #[test]
    fn tight_clusters_are_more_certain_than_overlapping_ones() {
        let tight = blobs(0.3, 2);
        let loose = blobs(4.0, 2);
        let m_tight = KMeans::fit(&tight, &KMeansConfig::new(3));
        let m_loose = KMeans::fit(&loose, &KMeansConfig::new(3));
        let c_tight = certainty(&tight, &m_tight, 0.5);
        let c_loose = certainty(&loose, &m_loose, 0.5);
        assert!(c_tight > c_loose, "{c_tight} !> {c_loose}");
        assert!(
            c_tight > 0.95,
            "tight clusters should be certain: {c_tight}"
        );
    }

    #[test]
    fn drifted_data_loses_certainty_under_a_stale_model() {
        // Fit on data near the blobs, evaluate on data midway between the
        // centers: a stale model should be visibly less certain (Fig 16).
        let train = blobs(0.3, 3);
        let model = KMeans::fit(&train, &KMeansConfig::new(3));
        let mut rng = TensorRng::seeded(4);
        let mut drifted = Vec::new();
        for _ in 0..60 {
            // Near the centroid of the three blob centers.
            drifted.push(5.0 + rng.next_normal_with(0.0, 0.4));
            drifted.push(3.0 + rng.next_normal_with(0.0, 0.4));
        }
        let drifted = Tensor::from_vec(drifted, &[60, 2]);
        let c_train = certainty(&train, &model, 0.5);
        let c_drift = certainty(&drifted, &model, 0.5);
        assert!(c_drift < c_train, "{c_drift} !< {c_train}");
    }

    #[test]
    fn midpoint_between_two_centers_is_maximally_uncertain() {
        let centers = Tensor::from_vec(vec![0.0, 0.0, 10.0, 0.0], &[2, 2]);
        let u = membership_of(&[5.0, 0.0], &centers, DEFAULT_FUZZIFIER);
        assert!((u[0] - 0.5).abs() < 1e-5);
        assert!((u[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn empty_dataset_is_fully_certain() {
        let data = blobs(0.5, 5);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let empty = Tensor::zeros(&[0, 2]);
        assert_eq!(certainty(&empty, &model, 0.5), 1.0);
    }
}
