//! Ball sub-partitioner: the second level of the read index's IVF.
//!
//! The K-means system plane coarsely quantizes the embedding space; within
//! one cluster, reads still scanned every member linearly. This module
//! recursively splits a cluster's member rows (mini-batch K-means, cheap
//! and deterministic) into **balls** — contiguous groups with a precomputed
//! center and a conservative radius — so a query can prune whole balls via
//! the triangle inequality: every member `x` of a ball satisfies
//! `d(q, x) ≥ d(q, c) − r`, so a ball whose lower bound exceeds the best
//! distance found so far cannot contain the nearest neighbour.
//!
//! The partition is **exact-search infrastructure, not approximation**: it
//! is a total cover (every input row lands in exactly one ball) and the
//! radius is inflated past f32 rounding, so pruning with it never discards
//! the true nearest neighbour (see `fairdms-core`'s read index, DESIGN.md
//! §12, for the end-to-end exactness argument).

use crate::minibatch::{fit_minibatch, MiniBatchConfig};
use fairdms_tensor::{ops::sq_dist, Tensor};

/// Relative radius inflation: guards the triangle-inequality bound against
/// f32 rounding in the radius computation itself.
const RADIUS_SLACK_REL: f32 = 1e-3;

/// Absolute radius inflation floor (rows coincident with the center).
const RADIUS_SLACK_ABS: f32 = 1e-6;

/// The radius a ball needs to cover a member at exact distance
/// `member_dist` from its center: inflated so the triangle-inequality
/// bound survives f32 rounding. The builder applies it to the farthest
/// member; a caller that adds a row to an existing ball widens the radius
/// to at least this.
pub fn inflated_radius(member_dist: f32) -> f32 {
    member_dist * (1.0 + RADIUS_SLACK_REL) + RADIUS_SLACK_ABS
}

/// Ball-partition hyperparameters.
#[derive(Clone, Debug)]
pub struct BallPartitionConfig {
    /// Target rows per ball; groups at most twice this size are emitted
    /// as leaves.
    pub target: usize,
    /// Recursion depth cap (oversized leaves are emitted rather than
    /// split forever on pathological data, e.g. all-identical rows).
    pub max_depth: usize,
    /// Seed for the mini-batch fits (derived per recursive split, so the
    /// whole partition is a pure function of `(data, config)`).
    pub seed: u64,
}

/// Most sub-clusters one split fits.
const MAX_FANOUT: usize = 16;

impl BallPartitionConfig {
    /// The leaf rule: a group of at most this many rows is emitted as one
    /// ball instead of being split further.
    pub fn leaf_rows(&self) -> usize {
        2 * self.target
    }

    /// Upper bound on the multiply–adds partitioning spends per `d`-wide
    /// row: one assignment against at most [`MAX_FANOUT`] centers at each
    /// of at most `max_depth` levels.
    pub fn row_work(&self, d: usize) -> usize {
        self.max_depth * MAX_FANOUT * d
    }
}

impl Default for BallPartitionConfig {
    fn default() -> Self {
        BallPartitionConfig {
            target: 64,
            max_depth: 3,
            seed: 0,
        }
    }
}

/// One ball of the partition: member rows (indices into the input matrix,
/// ascending), the ball center, and a conservative Euclidean radius.
#[derive(Clone, Debug)]
pub struct Ball {
    /// Row indices into the partitioned matrix, ascending.
    pub members: Vec<usize>,
    /// Ball center (`d` floats — a mini-batch K-means centroid, or the
    /// mean for leaf-sized groups).
    pub center: Vec<f32>,
    /// Inflated max member distance: `d(row, center) ≤ radius` holds for
    /// every member even under f32 rounding.
    pub radius: f32,
}

/// Partitions the rows of a flattened `[n, d]` matrix into balls of
/// roughly `cfg.target` rows. Returns an exact cover: every row index in
/// `0..n` appears in exactly one ball, members ascending within each.
///
/// Deterministic in `(data, cfg)`; `n = 0` yields no balls, tiny inputs
/// yield a single ball.
pub fn partition_balls(data: &[f32], d: usize, cfg: &BallPartitionConfig) -> Vec<Ball> {
    assert!(d > 0, "partition_balls: zero-width rows");
    assert_eq!(data.len() % d, 0, "partition_balls: ragged matrix");
    assert!(cfg.target > 0, "partition_balls: zero ball target");
    let n = data.len() / d;
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let rows: Vec<usize> = (0..n).collect();
    split(data, d, rows, 0, cfg.seed, cfg, &mut out);
    out
}

/// Recursive splitter: emits `rows` as one ball when small enough (or the
/// depth cap / a degenerate fit stops progress), otherwise sub-clusters
/// them and recurses per group.
fn split(
    data: &[f32],
    d: usize,
    rows: Vec<usize>,
    depth: usize,
    seed: u64,
    cfg: &BallPartitionConfig,
    out: &mut Vec<Ball>,
) {
    let n = rows.len();
    if n <= cfg.leaf_rows() || depth >= cfg.max_depth {
        out.push(make_ball(data, d, rows));
        return;
    }
    let k = (n / cfg.target).clamp(2, MAX_FANOUT);
    let mut gathered = Vec::with_capacity(n * d);
    for &r in &rows {
        gathered.extend_from_slice(&data[r * d..(r + 1) * d]);
    }
    let sub = Tensor::from_vec(gathered, &[n, d]);
    let km = fit_minibatch(
        &sub,
        &MiniBatchConfig {
            k,
            batch_size: 256.min(n),
            steps: 30,
            seed,
        },
    );
    let assign = km.predict(&sub);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (local, &row) in rows.iter().enumerate() {
        groups[assign[local]].push(row);
    }
    // No progress (all rows in one group — identical rows, collapsed
    // centers): emit as a leaf rather than recurse forever.
    if groups.iter().filter(|g| !g.is_empty()).count() <= 1 {
        out.push(make_ball(data, d, rows));
        return;
    }
    for (g, group) in groups.into_iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let child_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(g as u64 + 1);
        split(data, d, group, depth + 1, child_seed, cfg, out);
    }
}

/// Builds one ball over `rows`: center = member mean, radius = inflated
/// max exact member distance.
fn make_ball(data: &[f32], d: usize, rows: Vec<usize>) -> Ball {
    debug_assert!(!rows.is_empty());
    let mut center = vec![0.0f64; d];
    for &r in &rows {
        for (c, &v) in center.iter_mut().zip(&data[r * d..(r + 1) * d]) {
            *c += v as f64;
        }
    }
    let inv = 1.0 / rows.len() as f64;
    let center: Vec<f32> = center.into_iter().map(|c| (c * inv) as f32).collect();
    let mut max_d = 0.0f32;
    for &r in &rows {
        let dist = sq_dist(&data[r * d..(r + 1) * d], &center).sqrt();
        max_d = max_d.max(dist);
    }
    Ball {
        members: rows,
        center,
        radius: inflated_radius(max_d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::rng::TensorRng;

    fn clustered_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = TensorRng::seeded(seed);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let base = (i % 4) as f32 * 10.0;
            for _ in 0..d {
                data.push(base + rng.next_normal_with(0.0, 0.3));
            }
        }
        data
    }

    #[test]
    fn partition_is_an_exact_cover() {
        let d = 6;
        let data = clustered_rows(500, d, 1);
        let balls = partition_balls(&data, d, &BallPartitionConfig::default());
        assert!(balls.len() > 1, "500 rows should split");
        let mut seen = vec![false; 500];
        for b in &balls {
            assert!(!b.members.is_empty());
            assert!(b.members.windows(2).all(|w| w[0] < w[1]), "not ascending");
            for &m in &b.members {
                assert!(!seen[m], "row {m} in two balls");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "rows missing from the cover");
    }

    #[test]
    fn radius_bounds_every_member() {
        let d = 5;
        let data = clustered_rows(300, d, 2);
        for b in partition_balls(&data, d, &BallPartitionConfig::default()) {
            for &m in &b.members {
                let dist = sq_dist(&data[m * d..(m + 1) * d], &b.center).sqrt();
                assert!(
                    dist <= b.radius,
                    "member {m}: distance {dist} > radius {}",
                    b.radius
                );
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let d = 4;
        let data = clustered_rows(400, d, 3);
        let cfg = BallPartitionConfig::default();
        let a = partition_balls(&data, d, &cfg);
        let b = partition_balls(&data, d, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.center, y.center);
            assert_eq!(x.radius, y.radius);
        }
    }

    #[test]
    fn degenerate_inputs_yield_sane_partitions() {
        // Empty.
        assert!(partition_balls(&[], 3, &BallPartitionConfig::default()).is_empty());
        // Single row: one ball, tiny positive radius.
        let one = partition_balls(&[1.0, 2.0], 2, &BallPartitionConfig::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].members, vec![0]);
        assert!(one[0].radius > 0.0);
        // All-identical rows: must terminate (depth cap / no-progress
        // guard) and still cover everything.
        let same = vec![0.5f32; 600 * 2];
        let balls = partition_balls(
            &same,
            2,
            &BallPartitionConfig {
                target: 8,
                ..BallPartitionConfig::default()
            },
        );
        let total: usize = balls.iter().map(|b| b.members.len()).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn small_input_is_one_ball() {
        let d = 3;
        let data = clustered_rows(20, d, 4);
        let balls = partition_balls(&data, d, &BallPartitionConfig::default());
        assert_eq!(balls.len(), 1);
        assert_eq!(balls[0].members.len(), 20);
    }
}
