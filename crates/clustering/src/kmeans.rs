//! K-means clustering with k-means++ initialization and Lloyd iterations.
//!
//! Assignment — the hot phase, linear in `n·k·d` — is parallelized over
//! samples with rayon. The paper picked k-means for fairDS "due to its
//! scalability and fast convergence" (§II-A); this implementation keeps
//! those properties.

use fairdms_tensor::{
    gemm::sq_dist_into,
    ops::{row_sq_norms, sq_dist, PAR_MIN_WORK},
    rng::TensorRng,
    Tensor,
};
use rayon::prelude::*;
use std::cell::Cell;

/// Relative error margin granted to a GEMM-normed squared distance
/// (`‖q‖² + ‖x‖² − 2·q·x`) against the exact [`sq_dist`] loop, scaled by
/// `‖q‖² + ‖x‖²` — the magnitude the expansion's cancellation error is
/// proportional to. f32 GEMM error is O(d·ε) ≈ 1e-4 at the dimensions in
/// this workspace; 1e-3 is a deliberately loose bound, because a too-tight
/// margin silently breaks exactness while a loose one only costs a few
/// extra exact re-evaluations.
pub const NORMED_EPS_REL: f32 = 1e-3;

/// Absolute floor of the normed-distance error margin (covers rows at the
/// origin, where the relative term vanishes).
pub const NORMED_EPS_ABS: f32 = 1e-12;

/// The error margin of a GEMM-normed squared distance between rows with
/// squared norms `qn` and `xn`: exact [`sq_dist`] is guaranteed inside
/// `normed ± margin`. The pruning and candidate-selection contracts of the
/// batched assigner and the core read index both rest on this bound.
#[inline]
pub fn normed_margin(qn: f32, xn: f32) -> f32 {
    NORMED_EPS_REL * (qn + xn) + NORMED_EPS_ABS
}

/// Maximum Lloyd iterations of one [`KMeans::fit`].
pub const MAX_ITERS: usize = 100;

/// Convergence threshold on the maximum center displacement.
pub const TOL: f32 = 1e-4;

/// K-means hyperparameters.
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Seed for k-means++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// `k` clusters, seed 0.
    pub fn new(k: usize) -> Self {
        KMeansConfig { k, seed: 0 }
    }
}

/// A fitted K-means model: `k` centers in a `d`-dimensional feature space.
#[derive(Clone, Debug)]
pub struct KMeans {
    centers: Tensor, // [k, d]
    inertia: f32,
}

impl KMeans {
    /// Fits K-means to `data` (`[n, d]`) with k-means++ seeding.
    ///
    /// Panics when `n < k` — fewer samples than clusters is a caller bug.
    pub fn fit(data: &Tensor, cfg: &KMeansConfig) -> Self {
        assert_eq!(data.rank(), 2, "KMeans expects [n, d] data");
        let n = data.shape()[0];
        let d = data.shape()[1];
        assert!(cfg.k > 0, "k must be positive");
        assert!(n >= cfg.k, "cannot fit {} clusters to {n} samples", cfg.k);

        let mut rng = TensorRng::seeded(cfg.seed);
        let mut centers = kmeanspp_init(data, cfg.k, &mut rng);
        let mut assignments = vec![0usize; n];

        for _ in 0..MAX_ITERS {
            assign_parallel(data, &centers, &mut assignments);

            // Recompute centers; empty clusters are reseeded to the point
            // farthest from its current center (standard k-means repair).
            let mut sums = vec![0.0f64; cfg.k * d];
            let mut counts = vec![0usize; cfg.k];
            for (i, &a) in assignments.iter().enumerate() {
                counts[a] += 1;
                let row = data.row(i);
                for (s, &v) in sums[a * d..(a + 1) * d].iter_mut().zip(row) {
                    *s += v as f64;
                }
            }
            let mut new_centers = centers.clone();
            for c in 0..cfg.k {
                if counts[c] == 0 {
                    let far = farthest_point(data, &centers, &assignments);
                    new_centers.row_mut(c).copy_from_slice(data.row(far));
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in new_centers
                    .row_mut(c)
                    .iter_mut()
                    .zip(&sums[c * d..(c + 1) * d])
                {
                    *dst = (s * inv) as f32;
                }
            }

            // Max center displacement as the convergence criterion.
            let mut max_shift = 0.0f32;
            for c in 0..cfg.k {
                let shift = sq_dist(centers.row(c), new_centers.row(c)).sqrt();
                max_shift = max_shift.max(shift);
            }
            centers = new_centers;
            if max_shift <= TOL {
                break;
            }
        }

        assign_parallel(data, &centers, &mut assignments);
        let inertia = wss(data, &centers, &assignments);
        KMeans { centers, inertia }
    }

    /// Assembles a model from raw parts (crate-internal: used by the
    /// mini-batch trainer).
    pub(crate) fn with_parts(centers: Tensor, inertia: f32) -> KMeans {
        KMeans { centers, inertia }
    }

    /// Consumes the model, returning its centers (crate-internal).
    pub(crate) fn into_centers(self) -> Tensor {
        self.centers
    }

    /// Cluster centers as a `[k, d]` tensor.
    pub fn centers(&self) -> &Tensor {
        &self.centers
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.shape()[0]
    }

    /// Within-cluster sum of squared errors on the training data.
    pub fn inertia(&self) -> f32 {
        self.inertia
    }

    /// Assigns each row of `data` to its nearest center.
    pub fn predict(&self, data: &Tensor) -> Vec<usize> {
        assert_eq!(
            data.shape()[1],
            self.centers.shape()[1],
            "dimension mismatch between data and centers"
        );
        let mut assignments = vec![0usize; data.shape()[0]];
        assign_parallel(data, &self.centers, &mut assignments);
        assignments
    }

    /// Assigns a single sample, returning `(cluster, squared distance)`.
    pub fn predict_one(&self, sample: &[f32]) -> (usize, f32) {
        nearest_center(sample, &self.centers)
    }

    /// Within-cluster sum of squared errors of `data` under this model.
    pub fn score(&self, data: &Tensor) -> f32 {
        let assignments = self.predict(data);
        wss(data, &self.centers, &assignments)
    }
}

/// k-means++ seeding: iteratively picks new centers with probability
/// proportional to squared distance from the nearest existing center.
pub(crate) fn kmeanspp_init(data: &Tensor, k: usize, rng: &mut TensorRng) -> Tensor {
    let n = data.shape()[0];
    let d = data.shape()[1];
    let mut centers = Tensor::zeros(&[k, d]);
    let first = rng.next_index(n);
    centers.row_mut(0).copy_from_slice(data.row(first));

    let mut min_dist: Vec<f32> = (0..n)
        .map(|i| sq_dist(data.row(i), centers.row(0)))
        .collect();

    for c in 1..k {
        let idx = rng.next_weighted(&min_dist);
        centers.row_mut(c).copy_from_slice(data.row(idx));
        for (i, md) in min_dist.iter_mut().enumerate() {
            let dist = sq_dist(data.row(i), centers.row(c));
            if dist < *md {
                *md = dist;
            }
        }
    }
    centers
}

/// Nearest center and squared distance for one sample.
fn nearest_center(sample: &[f32], centers: &Tensor) -> (usize, f32) {
    let k = centers.shape()[0];
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let d = sq_dist(sample, centers.row(c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Output elements (`n·k`) below which assignment stays on the scalar
/// per-row scan: the GEMM's norm/pack setup costs more than it saves on
/// tiny batches, and the refine step makes both paths agree exactly, so
/// the switch is invisible to callers.
const BATCH_ASSIGN_MIN: usize = 2048;

thread_local! {
    /// Normed-distance scratch (`[n, k]`), recycled across assignment
    /// calls so the Lloyd loop and steady-state `predict` allocate
    /// nothing per call beyond the assignments themselves.
    static ASSIGN_DIST: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Parallel assignment of every sample to its nearest center.
///
/// Large batches route through **one** fused-epilogue GEMM
/// (`‖x‖² + ‖c‖² − 2·X·Cᵀ`, [`sq_dist_into`]) instead of `n·k` scalar
/// [`sq_dist`] scans. Because the normed distances are only
/// relative-tolerance accurate, each row is *refined to exact*: every
/// center whose normed distance could possibly be the true minimum (within
/// [`normed_margin`]) is re-evaluated with the exact `sq_dist` loop, and
/// the winner is the lowest-index center with the smallest exact distance
/// — precisely the answer the scalar [`nearest_center`] scan produces.
/// Assignments are therefore identical on both paths, for fitting and
/// prediction alike; only the cost changes.
///
/// The per-row passes open a parallel region only from [`PAR_MIN_WORK`]
/// multiply–adds up (the GEMM gates itself the same way): a small batch —
/// a read's few frames, a ball being re-split — costs less than the
/// region would.
fn assign_parallel(data: &Tensor, centers: &Tensor, out: &mut [usize]) {
    let d = data.shape()[1];
    let n = data.shape()[0];
    let k = centers.shape()[0];
    let raw = data.data();
    let per_row = |out: &mut [usize], f: &(dyn Fn(usize) -> usize + Sync)| {
        if n * k * d < PAR_MIN_WORK {
            out.iter_mut().enumerate().for_each(|(i, a)| *a = f(i));
        } else {
            out.par_iter_mut().enumerate().for_each(|(i, a)| *a = f(i));
        }
    };
    if n * k < BATCH_ASSIGN_MIN || d == 0 {
        per_row(out, &|i| {
            nearest_center(&raw[i * d..(i + 1) * d], centers).0
        });
        return;
    }
    let dn = row_sq_norms(raw, d);
    let cn = row_sq_norms(centers.data(), d);
    let mut dist = ASSIGN_DIST.with(Cell::take);
    dist.clear();
    dist.resize(n * k, 0.0);
    sq_dist_into(n, d, k, raw, centers.data(), &dn, &cn, &mut dist);
    per_row(out, &|i| {
        let row = &raw[i * d..(i + 1) * d];
        refine_nearest(&dist[i * k..(i + 1) * k], dn[i], &cn, row, centers)
    });
    ASSIGN_DIST.with(|c| c.set(dist));
}

/// Exact argmin recovery from one row of normed distances: centers within
/// the error margin of the best normed value are re-scored with the exact
/// [`sq_dist`] loop; ties break to the lowest center index (the scalar
/// scan's strict-`<` rule).
fn refine_nearest(drow: &[f32], qn: f32, cn: &[f32], row: &[f32], centers: &Tensor) -> usize {
    let mut cutoff = f32::INFINITY;
    for (j, &dj) in drow.iter().enumerate() {
        cutoff = cutoff.min(dj + normed_margin(qn, cn[j]));
    }
    let is_candidate = |j: usize| drow[j] - normed_margin(qn, cn[j]) <= cutoff;
    let mut candidates = (0..drow.len()).filter(|&j| is_candidate(j));
    let first = candidates
        .next()
        .expect("normed argmin is always a candidate of itself");
    // A lone candidate needs no exact pass: no other center can beat it
    // even under worst-case normed error.
    let Some(second) = candidates.next() else {
        return first;
    };
    let mut best = first;
    let mut best_d = sq_dist(row, centers.row(first));
    for j in std::iter::once(second).chain(candidates) {
        let e = sq_dist(row, centers.row(j));
        if e < best_d {
            best_d = e;
            best = j;
        }
    }
    best
}

/// Within-cluster sum of squared errors.
pub fn wss(data: &Tensor, centers: &Tensor, assignments: &[usize]) -> f32 {
    let d = data.shape()[1];
    let raw = data.data();
    let err = |(i, &a): (usize, &usize)| sq_dist(&raw[i * d..(i + 1) * d], centers.row(a));
    // Both arms add the terms in index order, so the sum's bits do not
    // depend on which one ran.
    if assignments.len() * d < PAR_MIN_WORK {
        assignments.iter().enumerate().map(err).sum()
    } else {
        assignments.par_iter().enumerate().map(err).sum()
    }
}

/// The point with maximum distance to its assigned center (used to reseed
/// empty clusters).
fn farthest_point(data: &Tensor, centers: &Tensor, assignments: &[usize]) -> usize {
    let d = data.shape()[1];
    let raw = data.data();
    let mut best = 0usize;
    let mut best_d = -1.0f32;
    for (i, &a) in assignments.iter().enumerate() {
        let dist = sq_dist(&raw[i * d..(i + 1) * d], centers.row(a));
        if dist > best_d {
            best_d = dist;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated Gaussian blobs.
    pub(crate) fn blobs(n_per: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = TensorRng::seeded(seed);
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut data = Vec::with_capacity(n_per * 3 * 2);
        let mut labels = Vec::with_capacity(n_per * 3);
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..n_per {
                data.push(c[0] + rng.next_normal_with(0.0, 0.5));
                data.push(c[1] + rng.next_normal_with(0.0, 0.5));
                labels.push(ci);
            }
        }
        (Tensor::from_vec(data, &[n_per * 3, 2]), labels)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, labels) = blobs(50, 0);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let pred = model.predict(&data);
        // Every true cluster maps to exactly one predicted cluster.
        for true_c in 0..3 {
            let preds: Vec<usize> = labels
                .iter()
                .zip(&pred)
                .filter(|(l, _)| **l == true_c)
                .map(|(_, p)| *p)
                .collect();
            assert!(
                preds.windows(2).all(|w| w[0] == w[1]),
                "cluster {true_c} split across predictions"
            );
        }
        assert!(model.inertia() < 150.0, "inertia {}", model.inertia());
    }

    #[test]
    fn every_point_is_assigned_to_nearest_center() {
        let (data, _) = blobs(30, 1);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let pred = model.predict(&data);
        for (i, &a) in pred.iter().enumerate() {
            let (nearest, _) = model.predict_one(data.row(i));
            assert_eq!(a, nearest);
        }
    }

    #[test]
    fn batched_assignment_matches_scalar_scan_exactly() {
        // 750 points × 3 centers crosses BATCH_ASSIGN_MIN, so predict runs
        // the GEMM + refine path; every assignment must still equal the
        // scalar per-row scan, including on duplicated (tie-heavy) rows.
        let (data, _) = blobs(250, 8);
        let n = data.shape()[0];
        assert!(
            n * 3 >= BATCH_ASSIGN_MIN,
            "test must exercise the GEMM path"
        );
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        let pred = model.predict(&data);
        for (i, &a) in pred.iter().enumerate() {
            assert_eq!(a, nearest_center(data.row(i), model.centers()).0, "row {i}");
        }
        // Duplicate the matrix: identical rows must get identical
        // assignments regardless of batch position.
        let mut twice = data.data().to_vec();
        twice.extend_from_slice(data.data());
        let twice = Tensor::from_vec(twice, &[2 * n, 2]);
        let pred2 = model.predict(&twice);
        assert_eq!(&pred2[..n], &pred[..]);
        assert_eq!(&pred2[n..], &pred[..]);
    }

    #[test]
    fn more_clusters_never_increase_wss() {
        let (data, _) = blobs(40, 2);
        let mut prev = f32::INFINITY;
        for k in 1..=6 {
            let mut cfg = KMeansConfig::new(k);
            cfg.seed = 3;
            let model = KMeans::fit(&data, &cfg);
            assert!(
                model.inertia() <= prev * 1.01,
                "k={k}: inertia {} > previous {prev}",
                model.inertia()
            );
            prev = model.inertia();
        }
    }

    #[test]
    fn predict_is_deterministic_given_seed() {
        let (data, _) = blobs(25, 4);
        let a = KMeans::fit(&data, &KMeansConfig::new(3));
        let b = KMeans::fit(&data, &KMeansConfig::new(3));
        assert_eq!(a.predict(&data), b.predict(&data));
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Tensor::from_vec(vec![0.0, 0.0, 5.0, 5.0, 9.0, 0.0], &[3, 2]);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        assert!(model.inertia() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn rejects_more_clusters_than_samples() {
        let data = Tensor::zeros(&[2, 2]);
        KMeans::fit(&data, &KMeansConfig::new(3));
    }

    #[test]
    fn score_matches_inertia_on_training_data() {
        let (data, _) = blobs(20, 5);
        let model = KMeans::fit(&data, &KMeansConfig::new(3));
        assert!((model.score(&data) - model.inertia()).abs() < 1e-2);
    }
}
