//! Mini-batch K-means (Sculley 2010): the scalability path the paper's
//! discussion (§IV) leaves as future work.
//!
//! Full Lloyd iterations touch every sample per step — fine for the
//! embedding volumes in the paper's evaluation, but the APS-U data rates
//! it motivates (TB/s) make full passes impractical. Mini-batch K-means
//! updates centers from small random batches with per-center learning
//! rates `1/count`, trading a small WSS penalty for orders-of-magnitude
//! less work per step. The fitted result is an ordinary [`KMeans`] model,
//! so everything downstream (PDF indexing, fuzzy certainty, JSD ranking)
//! is agnostic to which trainer produced the centers.

use crate::kmeans::{wss, KMeans};
use fairdms_tensor::{ops::sq_dist, rng::TensorRng, Tensor};

/// Mini-batch K-means hyperparameters.
#[derive(Clone, Debug)]
pub struct MiniBatchConfig {
    /// Number of clusters.
    pub k: usize,
    /// Samples per mini-batch.
    pub batch_size: usize,
    /// Number of mini-batch steps.
    pub steps: usize,
    /// Seed for initialization and batch sampling.
    pub seed: u64,
}

impl MiniBatchConfig {
    /// Defaults tuned for embedding-scale data: batches of 256 for
    /// `steps = max(100, n/batch)` coverage.
    pub fn new(k: usize) -> Self {
        MiniBatchConfig {
            k,
            batch_size: 256,
            steps: 100,
            seed: 0,
        }
    }
}

/// Fits K-means with the mini-batch update rule, returning a standard
/// [`KMeans`] model.
///
/// Panics when there are fewer samples than clusters.
pub fn fit_minibatch(data: &Tensor, cfg: &MiniBatchConfig) -> KMeans {
    assert_eq!(data.rank(), 2, "mini-batch k-means expects [n, d] data");
    let n = data.shape()[0];
    let d = data.shape()[1];
    assert!(cfg.k > 0, "k must be positive");
    assert!(n >= cfg.k, "cannot fit {} clusters to {n} samples", cfg.k);
    assert!(cfg.batch_size > 0, "batch size must be positive");

    let mut rng = TensorRng::seeded(cfg.seed);
    // k-means++ seeding over a random subsample (sklearn's `init_size`
    // heuristic: 3× the batch size). Uniform-random seeding can plant two
    // centers in one blob — a local minimum the tiny gradient steps never
    // escape.
    let init_size = (3 * cfg.batch_size).clamp(cfg.k, n);
    let order = rng.permutation(n);
    let mut sub = Vec::with_capacity(init_size * d);
    for &i in order.iter().take(init_size) {
        sub.extend_from_slice(data.row(i));
    }
    let sub = Tensor::from_vec(sub, &[init_size, d]);
    let mut centers = crate::kmeans::kmeanspp_init(&sub, cfg.k, &mut rng);

    let raw = data.data();
    let mut counts = vec![0usize; cfg.k];
    let batch = cfg.batch_size.min(n);
    let mut members: Vec<usize> = Vec::with_capacity(batch);
    for _ in 0..cfg.steps {
        members.clear();
        for _ in 0..batch {
            members.push(rng.next_index(n));
        }
        // Assign the batch, then apply per-center gradient steps with the
        // standard 1/count learning rate (centers converge as counts grow).
        for &i in &members {
            let x = &raw[i * d..(i + 1) * d];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..cfg.k {
                let dist = sq_dist(x, centers.row(c));
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            counts[best] += 1;
            let eta = 1.0 / counts[best] as f32;
            for (cv, &xv) in centers.row_mut(best).iter_mut().zip(x) {
                *cv += eta * (xv - *cv);
            }
        }
    }

    KMeans::from_centers(centers, data)
}

impl KMeans {
    /// Wraps externally computed centers into a model, scoring inertia on
    /// `data` (used by the mini-batch trainer and by tests that need a
    /// model with known centers).
    fn from_centers(centers: Tensor, data: &Tensor) -> KMeans {
        assert_eq!(centers.rank(), 2, "centers must be [k, d]");
        assert_eq!(
            centers.shape()[1],
            data.shape()[1],
            "center/data dimension mismatch"
        );
        let model = KMeans::with_parts(centers, 0.0);
        let assignments = model.predict(data);
        let inertia = wss(data, model.centers(), &assignments);
        KMeans::with_parts(model.into_centers(), inertia)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansConfig as FullConfig;

    fn blobs(n_per: usize, seed: u64) -> Tensor {
        let mut rng = TensorRng::seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut data = Vec::new();
        for c in &centers {
            for _ in 0..n_per {
                data.push(c[0] + rng.next_normal_with(0.0, 0.5));
                data.push(c[1] + rng.next_normal_with(0.0, 0.5));
            }
        }
        Tensor::from_vec(data, &[n_per * 3, 2])
    }

    #[test]
    fn minibatch_recovers_blob_structure() {
        let data = blobs(200, 0);
        let model = fit_minibatch(
            &data,
            &MiniBatchConfig {
                k: 3,
                batch_size: 64,
                steps: 60,
                seed: 1,
            },
        );
        // Each true blob maps to a single predicted cluster.
        let pred = model.predict(&data);
        for blob in 0..3 {
            let slice = &pred[blob * 200..(blob + 1) * 200];
            let first = slice[0];
            let agree = slice.iter().filter(|&&p| p == first).count();
            assert!(agree > 190, "blob {blob}: only {agree}/200 agree");
        }
    }

    #[test]
    fn minibatch_wss_is_close_to_full_lloyd() {
        let data = blobs(150, 2);
        let full = KMeans::fit(&data, &FullConfig::new(3));
        let mini = fit_minibatch(
            &data,
            &MiniBatchConfig {
                k: 3,
                batch_size: 64,
                steps: 80,
                seed: 3,
            },
        );
        assert!(
            mini.inertia() <= full.inertia() * 1.5,
            "mini-batch WSS {} too far above Lloyd {}",
            mini.inertia(),
            full.inertia()
        );
    }

    #[test]
    fn minibatch_is_deterministic_given_seed() {
        let data = blobs(50, 4);
        let cfg = MiniBatchConfig {
            k: 3,
            batch_size: 32,
            steps: 30,
            seed: 5,
        };
        let a = fit_minibatch(&data, &cfg);
        let b = fit_minibatch(&data, &cfg);
        assert_eq!(a.predict(&data), b.predict(&data));
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn from_centers_scores_inertia() {
        let data = Tensor::from_vec(vec![0.0, 0.0, 2.0, 0.0, 10.0, 0.0], &[3, 2]);
        let centers = Tensor::from_vec(vec![1.0, 0.0, 10.0, 0.0], &[2, 2]);
        let model = KMeans::from_centers(centers, &data);
        // Points at 0 and 2 are distance 1 from center (1,0): WSS = 2.
        assert!((model.inertia() - 2.0).abs() < 1e-5);
        assert_eq!(model.predict(&data), vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn minibatch_rejects_k_gt_n() {
        let data = Tensor::zeros(&[2, 2]);
        fit_minibatch(&data, &MiniBatchConfig::new(3));
    }

    #[test]
    fn tiny_batch_still_converges_roughly() {
        let data = blobs(100, 6);
        let model = fit_minibatch(
            &data,
            &MiniBatchConfig {
                k: 3,
                batch_size: 8,
                steps: 400,
                seed: 7,
            },
        );
        let full = KMeans::fit(&data, &FullConfig::new(3));
        assert!(model.inertia() <= full.inertia() * 3.0);
    }
}
