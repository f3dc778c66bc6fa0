//! # fairdms-clustering
//!
//! The clustering substrate of fairDS (paper §II-A): K-means with
//! k-means++ seeding and rayon-parallel assignment, automatic selection of
//! the cluster count via the elbow method (the YellowBrick procedure the
//! paper uses), and fuzzy c-means memberships for the certainty metric that
//! drives the paper's retraining trigger (Fig 16).
//!
//! The pipeline: fairDS embeds every sample into a compact feature vector,
//! clusters the embedding space with [`KMeans`], summarizes datasets as
//! cluster-occupancy PDFs, and uses [`fuzzy::certainty`] to decide when the
//! embedding+clustering stack has gone stale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod elbow;
pub mod fuzzy;
pub mod kmeans;
pub mod minibatch;
pub mod partition;

pub use elbow::{select_k, ElbowReport};
pub use fuzzy::{certainty, certainty_with_fuzzifier, memberships};
pub use kmeans::{KMeans, KMeansConfig};
pub use minibatch::{fit_minibatch, MiniBatchConfig};
pub use partition::{inflated_radius, partition_balls, Ball, BallPartitionConfig};

/// Normalizes a histogram of cluster counts into a probability distribution.
///
/// Empty inputs produce the uniform distribution (every downstream consumer
/// — JSD, PDF-matched sampling — requires a valid distribution).
fn counts_to_pdf(counts: &[usize]) -> Vec<f64> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        let k = counts.len().max(1);
        return vec![1.0 / k as f64; k];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Builds the cluster-occupancy PDF of a dataset given per-sample
/// assignments — the representation fairDS uses to index both datasets and
/// the models trained on them.
pub fn assignments_to_pdf(assignments: &[usize], k: usize) -> Vec<f64> {
    let mut counts = vec![0usize; k];
    for &a in assignments {
        assert!(a < k, "assignment {a} out of range for k={k}");
        counts[a] += 1;
    }
    counts_to_pdf(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_normalize_to_unit_mass() {
        let pdf = counts_to_pdf(&[2, 6, 2]);
        assert_eq!(pdf, vec![0.2, 0.6, 0.2]);
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_fall_back_to_uniform() {
        let pdf = counts_to_pdf(&[0, 0, 0, 0]);
        assert_eq!(pdf, vec![0.25; 4]);
    }

    #[test]
    fn assignments_build_correct_histogram() {
        let pdf = assignments_to_pdf(&[0, 1, 1, 2, 1], 4);
        assert_eq!(pdf, vec![0.2, 0.6, 0.2, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignments_out_of_range_panic() {
        assignments_to_pdf(&[3], 2);
    }
}
