//! The read index (DESIGN.md §12): the one store-derived index of the read
//! plane, and the only module that knows its layout.
//!
//! It holds every stored document that carries an `embedding` of the
//! snapshot's width and a `cluster < k` — what `ingest_labeled`,
//! `reindex_ids` and `install_retrained` write — grouped by cluster, and
//! answers both store queries of the paper's data service: the nearest row
//! of a routed cluster (`EmbeddingIndex::routed_nearest`), and PDF-matched
//! draws, which address the `i`-th id ascending within a cluster
//! (`EmbeddingIndex::cluster_id`). The drawable rows of a cluster are
//! exactly the rows a nearest-row read searches in it, and a draw is a
//! function of those rows, never of how they are spread over balls: an
//! index built in one pass and one grown write by write draw alike.
//!
//! It is the paper's "building data indexes as data are written", and the
//! only index over a fairDS store: every store write lands in the store's
//! change log, and the next read folds in exactly the ids written.

use fairdms_clustering::kmeans::normed_margin;
use fairdms_clustering::{inflated_radius, partition_balls, BallPartitionConfig};
use fairdms_datastore::{Collection, DocId};
use fairdms_tensor::gemm::{sq_dist_packed_into, PackedB};
use fairdms_tensor::ops::{sq_dist, PAR_MIN_WORK, SQ_DIST_WORK};
use fairdms_tensor::Tensor;
use parking_lot::RwLock;
use rayon::prelude::*;
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Layout knobs of the two-level IVF read index (DESIGN.md §12).
#[derive(Clone, Copy, Debug)]
pub struct ReadIndexConfig {
    /// Target rows per ball in the within-cluster sub-partition.
    pub ball_target: usize,
    /// Clusters below this row count are not sub-partitioned: a linear
    /// scan of a few hundred cached rows beats the ball bookkeeping.
    /// `usize::MAX` never partitions — every read is the brute per-cluster
    /// scan, the exactness oracle the routed path is tested (and benched)
    /// against.
    pub min_cluster_rows: usize,
}

impl Default for ReadIndexConfig {
    fn default() -> Self {
        ReadIndexConfig {
            ball_target: 64,
            min_cluster_rows: 256,
        }
    }
}

/// Monotone statistics of the read index, shared by every published
/// snapshot of one [`crate::fairds::FairDS`] (and surfaced through the
/// service's metrics endpoint). Counters only — all `Relaxed`, nothing is
/// ordered by them.
#[derive(Debug, Default)]
pub struct ReadIndexCounters {
    probes: AtomicU64,
    balls_pruned: AtomicU64,
    candidates_scanned: AtomicU64,
    rows_decoded: AtomicU64,
}

impl ReadIndexCounters {
    #[inline]
    fn record(&self, probes: u64, pruned: u64, scanned: u64) {
        self.probes.fetch_add(probes, Ordering::Relaxed);
        self.balls_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.candidates_scanned
            .fetch_add(scanned, Ordering::Relaxed);
    }

    /// Queries routed through the read index so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Balls excluded by the triangle-inequality bound, summed over probes.
    pub fn balls_pruned(&self) -> u64 {
        self.balls_pruned.load(Ordering::Relaxed)
    }

    /// Rows that reached the exact-refine scan, summed over probes.
    pub fn candidates_scanned(&self) -> u64 {
        self.candidates_scanned.load(Ordering::Relaxed)
    }

    /// Store documents decoded to build the read index or bring it up to
    /// date — the work a store mutation costs the next read.
    pub fn rows_decoded(&self) -> u64 {
        self.rows_decoded.load(Ordering::Relaxed)
    }
}

/// Per-cluster cached embeddings (and labels) at one revision, so that
/// nearest-neighbour reads never touch (or decode) stored documents until
/// the best match is known. Two-level IVF (DESIGN.md §12): the k-means
/// plane routes a query to a cluster, and large clusters carry a ball
/// sub-partition that the triangle inequality prunes — exactly, results
/// stay bit-identical to the brute per-cluster scan.
///
/// Built once by decoding the whole store, then kept current from the
/// store's change log: the index of the next revision shares every
/// cluster, ball and id chunk the logged mutations did not touch.
pub(crate) struct EmbeddingIndex {
    revision: u64,
    /// Every indexed id is below this, so a changed id at or above it is a
    /// new row — the ingest case, which appends instead of rebuilding.
    end_id: DocId,
    clusters: Vec<Arc<ClusterEmbeddings>>,
    stats: Arc<ReadIndexCounters>,
}

/// One store document as the index keeps it.
struct IndexRow {
    id: DocId,
    cluster: usize,
    emb: Vec<f32>,
    label: Option<Arc<[f32]>>,
}

/// A dense block of index rows, ascending by id: one ball of a partitioned
/// cluster, or all rows of an unpartitioned one.
#[derive(Clone, Default)]
struct IndexBall {
    ids: Vec<DocId>,
    /// Flattened `[rows, embed_dim]` embeddings, row-parallel to `ids`:
    /// what the exact scalar distances and the partitioner read.
    emb: Vec<f32>,
    /// `emb` in GEMM panels, for a ball of a partitioned cluster — the one
    /// place a GEMM reads the rows; empty in an unpartitioned block. Packed
    /// when the ball is split off ([`ClusterEmbeddings::push_split`]) and
    /// extended row by row ([`ClusterEmbeddings::append`]), so a search
    /// packs nothing.
    packed: PackedB,
    /// Cached `‖x‖²` per row — the store-side half of the
    /// `‖q−x‖² = ‖q‖² + ‖x‖² − 2·q·x` GEMM expansion.
    norms: Vec<f32>,
    /// Stored label per row (`None` when the document carries none).
    labels: Vec<Option<Arc<[f32]>>>,
    /// Conservative radius around the ball's center (stored flattened in
    /// [`ClusterEmbeddings::ball_centers`]); unused while unpartitioned.
    radius: f32,
    /// Whether any row carries a label (the eligibility bit for
    /// label-donating searches).
    labeled: bool,
}

impl IndexBall {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, id: DocId, emb: &[f32], norm: f32, label: Option<Arc<[f32]>>) {
        self.ids.push(id);
        self.emb.extend_from_slice(emb);
        self.norms.push(norm);
        self.labeled |= label.is_some();
        self.labels.push(label);
    }

    fn push_row(&mut self, row: IndexRow) {
        // The same ascending-index sum `row_sq_norms` takes.
        let norm = row.emb.iter().map(|&v| v * v).sum();
        self.push(row.id, &row.emb, norm, row.label);
    }

    /// Copies row `r` of `src` onto the end of this block.
    fn push_from(&mut self, src: &IndexBall, r: usize, dim: usize) {
        self.push(
            src.ids[r],
            &src.emb[r * dim..(r + 1) * dim],
            src.norms[r],
            src.labels[r].clone(),
        );
    }

    /// A new block of this block's rows `members`, in that order.
    fn gather(&self, members: &[usize], dim: usize) -> IndexBall {
        let mut out = IndexBall::default();
        members.iter().for_each(|&r| out.push_from(self, r, dim));
        out
    }

    /// Nearest row to `z` (Euclidean over embeddings), scanning in
    /// ascending id order with a strict `<` — the brute scan every routed
    /// read must reproduce. `labeled_only` restricts the search to rows
    /// that carry a stored label — the pseudo-labeling contract, where an
    /// unlabeled neighbour can never donate a label no matter how close it
    /// sits.
    fn nearest(&self, z: &[f32], labeled_only: bool) -> Option<(f32, usize)> {
        let dim = z.len();
        let mut best: Option<(f32, usize)> = None;
        for (row, emb) in self.emb.chunks_exact(dim).enumerate() {
            if labeled_only && self.labels[row].is_none() {
                continue;
            }
            let dist = sq_dist(z, emb).sqrt();
            if best.map(|(d, _)| dist < d).unwrap_or(true) {
                best = Some((dist, row));
            }
        }
        best
    }
}

/// What shapes one cluster's sub-partition. Fixed for a snapshot, so every
/// build, append and re-split of the cluster agrees on it.
struct ClusterLayout {
    dim: usize,
    /// Rows from which the cluster is sub-partitioned.
    min_rows: usize,
    /// Ball sizing, seeded per cluster.
    ball: BallPartitionConfig,
}

/// Ids per chunk of an [`IdList`] — the most an append copies.
const ID_CHUNK: usize = 1024;

/// One cluster's ids, ascending — the order draws address — in chunks (all
/// full but the last), so the index of the next revision shares every chunk
/// but the one an append lands in.
#[derive(Clone, Default)]
struct IdList {
    chunks: Vec<Arc<Vec<DocId>>>,
    len: usize,
}

impl IdList {
    /// Adds an id above every id in the list.
    fn push(&mut self, id: DocId) {
        if self.len.is_multiple_of(ID_CHUNK) {
            self.chunks.push(Arc::default());
        }
        Arc::make_mut(self.chunks.last_mut().expect("pushed above")).push(id);
        self.len += 1;
    }

    fn get(&self, i: usize) -> DocId {
        self.chunks[i / ID_CHUNK][i % ID_CHUNK]
    }
}

/// The embedding cache of one cluster: documents that carry an `embedding`
/// field of the snapshot's embedding width. A cluster below
/// `min_cluster_rows` is one block scanned linearly; a larger one is
/// sub-partitioned into balls, each owning its rows.
#[derive(Clone, Default)]
struct ClusterEmbeddings {
    /// Every row's id, ascending (each ball holds its own rows' ids too).
    ids: IdList,
    balls: Vec<Arc<IndexBall>>,
    /// Flattened `[balls, embed_dim]` ball centers (empty while
    /// unpartitioned).
    ball_centers: Vec<f32>,
    /// `‖c‖²` per ball center.
    ball_center_norms: Vec<f32>,
    /// `ball_centers` in GEMM panels, re-packed whenever balls are added.
    center_panels: PackedB,
}

/// Pruning slack applied on top of [`normed_margin`] when comparing ball
/// bounds: the bounds pass through a `sqrt` and a radius addition, so the
/// lower bound is deflated and the upper bound inflated by this relative
/// factor before any ball is discarded. Generous against f32 rounding
/// (real GEMM error is ~1e-6 relative); pruning stays exact.
const PRUNE_SLACK: f32 = 1e-3;

impl ClusterEmbeddings {
    /// Builds one cluster's cache from all of its rows (`flat`, ascending
    /// by id); the sub-partition is deterministic in the rows and seed.
    fn build(flat: &IndexBall, lay: &ClusterLayout) -> ClusterEmbeddings {
        let mut cl = ClusterEmbeddings::default();
        flat.ids.iter().for_each(|&id| cl.ids.push(id));
        if cl.rows() >= lay.min_rows {
            cl.push_split(flat, lay, lay.ball.seed);
        } else if cl.rows() > 0 {
            cl.balls.push(Arc::new(flat.clone()));
        }
        cl
    }

    fn rows(&self) -> usize {
        self.ids.len
    }

    fn is_partitioned(&self) -> bool {
        !self.ball_center_norms.is_empty()
    }

    /// What searching this cluster costs per `dim`-wide query, in
    /// multiply–add equivalents (the unit of `ops::PAR_MIN_WORK`). A block
    /// is scanned row by row, one scalar distance each. A partitioned
    /// cluster's search — every ball scored, the probe ball and the
    /// survivors evaluated, the exact refine — measures what a scan of
    /// 7–15 of its balls would (5–18 µs from 10⁴ to 10⁵ documents at
    /// `dim` 16, `benches/scale_store`) and is counted as
    /// [`SEARCH_BALLS`].
    fn search_work(&self, dim: usize) -> usize {
        let scanned = if self.is_partitioned() {
            SEARCH_BALLS * self.rows() / self.balls.len()
        } else {
            self.rows()
        };
        scanned * dim * SQ_DIST_WORK
    }

    /// Partitions `block` into balls and adds them to the cluster.
    fn push_split(&mut self, block: &IndexBall, lay: &ClusterLayout, seed: u64) {
        let cfg = BallPartitionConfig {
            seed,
            ..lay.ball.clone()
        };
        for b in partition_balls(&block.emb, lay.dim, &cfg) {
            let mut ball = block.gather(&b.members, lay.dim);
            ball.radius = b.radius;
            ball.packed = PackedB::from_rows(lay.dim, &ball.emb);
            self.ball_center_norms
                .push(b.center.iter().map(|&v| v * v).sum());
            self.ball_centers.extend_from_slice(&b.center);
            self.balls.push(Arc::new(ball));
        }
        self.center_panels = PackedB::from_rows(lay.dim, &self.ball_centers);
    }

    /// Adds a row whose id is above every id in the cluster, leaving every
    /// ball it does not land in shared with the previous index. The row
    /// joins the ball whose center is nearest by the exact scalar distance
    /// and widens its radius to cover it; a ball that outgrows the
    /// partitioner's leaf rule is re-split on its own, and an unpartitioned
    /// cluster is partitioned the moment it reaches `min_cluster_rows`.
    fn append(&mut self, row: IndexRow, lay: &ClusterLayout) {
        self.ids.push(row.id);
        if !self.is_partitioned() {
            if self.balls.is_empty() {
                self.balls.push(Arc::default());
            }
            let block = Arc::make_mut(&mut self.balls[0]);
            block.push_row(row);
            if self.ids.len >= lay.min_rows {
                *self = ClusterEmbeddings::build(&std::mem::take(block), lay);
            }
            return;
        }
        let (mut j, mut dist) = (0, f32::INFINITY);
        for (b, center) in self.ball_centers.chunks_exact(lay.dim).enumerate() {
            let d = sq_dist(&row.emb, center).sqrt();
            if d < dist {
                (j, dist) = (b, d);
            }
        }
        let ball = Arc::make_mut(&mut self.balls[j]);
        ball.radius = ball.radius.max(inflated_radius(dist));
        ball.packed.push_row(&row.emb);
        ball.push_row(row);
        if ball.len() > lay.ball.leaf_rows() {
            // Re-split ball `j` alone: take it out (the last ball fills its
            // slot) and add its parts.
            let last = self.balls.len() - 1;
            let block = self.balls.swap_remove(j);
            self.ball_center_norms.swap_remove(j);
            self.ball_centers
                .copy_within(last * lay.dim..(last + 1) * lay.dim, j * lay.dim);
            self.ball_centers.truncate(last * lay.dim);
            let seed = lay.ball.seed ^ block.ids[0].wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.push_split(&block, lay, seed);
        }
    }

    fn contains(&self, id: DocId) -> bool {
        self.balls
            .iter()
            .any(|ball| ball.ids.binary_search(&id).is_ok())
    }

    /// The cluster rebuilt from scratch over its rows minus the ids in
    /// `drop`, plus `add` — the layout a full build of those rows yields.
    fn rebuilt(
        &self,
        drop: &HashSet<DocId>,
        add: Vec<IndexRow>,
        lay: &ClusterLayout,
    ) -> ClusterEmbeddings {
        let mut flat = IndexBall::default();
        for ball in &self.balls {
            for r in (0..ball.len()).filter(|&r| !drop.contains(&ball.ids[r])) {
                flat.push_from(ball, r, lay.dim);
            }
        }
        add.into_iter().for_each(|row| flat.push_row(row));
        let mut order: Vec<usize> = (0..flat.len()).collect();
        order.sort_unstable_by_key(|&r| flat.ids[r]);
        ClusterEmbeddings::build(&flat.gather(&order, lay.dim), lay)
    }
}

/// Fetching and decoding one stored document into an [`IndexRow`], in
/// multiply–add equivalents (1–2 µs; the unit of `ops::PAR_MIN_WORK`).
const ROW_DECODE_WORK: usize = 1 << 14;

/// The balls' worth of rows a routed search of a partitioned cluster is
/// counted as scanning ([`ClusterEmbeddings::search_work`]).
const SEARCH_BALLS: usize = 8;

/// What one cluster search found for its query group: per query, the
/// winner's `(distance, ball, row in ball)`.
type GroupHits = Vec<(usize, Option<(f32, usize, usize)>)>;

/// One query's nearest indexed row: `(distance, id, stored label)`.
pub(crate) type NearestHit<'a> = (f32, DocId, Option<&'a [f32]>);

impl EmbeddingIndex {
    /// Indexed rows of cluster `c`.
    pub(crate) fn cluster_rows(&self, c: usize) -> usize {
        self.clusters[c].rows()
    }

    /// The `i`-th id of cluster `c`, ascending.
    pub(crate) fn cluster_id(&self, c: usize, i: usize) -> DocId {
        self.clusters[c].ids.get(i)
    }

    /// All indexed rows: the pool that draws fall back to.
    pub(crate) fn rows(&self) -> usize {
        self.clusters.iter().map(|cl| cl.rows()).sum()
    }

    /// The `i`-th id of the pool: clusters in order, ascending within each.
    pub(crate) fn pool_id(&self, mut i: usize) -> DocId {
        for cl in &self.clusters {
            if i < cl.rows() {
                return cl.ids.get(i);
            }
            i -= cl.rows();
        }
        panic!("pool index beyond the indexed rows")
    }

    /// The nearest-row search behind `pseudo_label` and `nearest_labeled`:
    /// for each row of the embedded batch `z`, the closest indexed row of
    /// the cluster it was routed to (`routed[i]`, one GEMM-batched
    /// `predict` by the caller). Queries are grouped by routed cluster and
    /// each group searches its cluster through the ball-pruned,
    /// GEMM-batched index.
    ///
    /// **Exactness contract:** results — distance bits *and* winner row —
    /// are identical to the brute per-cluster scan ([`IndexBall::nearest`]
    /// over the cluster's rows in ascending id order). GEMM distances only
    /// ever *pre-select*: every candidate within [`normed_margin`] of the
    /// best GEMM distance is re-evaluated with the scalar
    /// `sq_dist(..).sqrt()` the brute scan uses, the least `(distance, id)`
    /// wins (the row the brute scan's ascending-id strict-`<` pass keeps),
    /// and ball pruning discards a ball only
    /// when its triangle-inequality lower bound (slack-deflated) exceeds a
    /// slack-inflated upper bound some probed stored row is proven to
    /// realize.
    pub(crate) fn routed_nearest(
        &self,
        z: &Tensor,
        routed: &[usize],
        labeled_only: bool,
    ) -> Vec<Option<NearestHit<'_>>> {
        let n = z.shape()[0];
        if n == 0 {
            return Vec::new();
        }
        // Every query's search of the cluster it routes to. Query groups
        // are independent, so the hits are the same either side of the
        // gate.
        let dim = z.shape()[1];
        let work: usize = routed
            .iter()
            .map(|&c| self.clusters[c].search_work(dim))
            .sum();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.clusters.len()];
        for (i, &c) in routed.iter().enumerate() {
            groups[c].push(i);
        }
        let touched: Vec<(usize, Vec<usize>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, qs)| !qs.is_empty())
            .collect();
        let search = |g: &(usize, Vec<usize>)| {
            let hits = search_cluster(&self.clusters[g.0], &g.1, z, labeled_only, &self.stats);
            (g.0, hits)
        };
        let grouped: Vec<(usize, GroupHits)> = if work >= PAR_MIN_WORK {
            touched.par_iter().map(search).collect()
        } else {
            touched.iter().map(search).collect()
        };
        let mut out = vec![None; n];
        for (c, hits) in grouped {
            for (q, hit) in hits {
                out[q] = hit.map(|(d, ball, row)| {
                    let ball = &self.clusters[c].balls[ball];
                    (d, ball.ids[row], ball.labels[row].as_deref())
                });
            }
        }
        out
    }
}

/// One query's distances to every row of one ball it must look into.
struct BallEval {
    query: u32,
    ball: u32,
    /// Where the ball's `len` distances start in [`SearchScratch::dists`].
    at: usize,
    /// `min(gd + normed_margin)` over the ball's donating rows, taken as
    /// the distances land (`INFINITY` when none donates): an upper bound
    /// on the exact squared distance of some donating row of the ball.
    upper: f32,
    /// Whether the ball survived the query's triangle bound. A query's
    /// probe ball is evaluated before the bound exists; its distances are
    /// kept and count only once it has passed like any other ball.
    survived: bool,
}

/// Every buffer one [`search_cluster`] call fills, recycled per thread so
/// a steady-state read allocates only its result.
#[derive(Default)]
struct SearchScratch {
    /// The query group's embeddings, gathered, and their squared norms.
    qdata: Vec<f32>,
    qnorms: Vec<f32>,
    /// `[queries, balls]` squared distances to the ball centers.
    center_dists: Vec<f32>,
    /// Per ball, the queries to evaluate it for: first as a probe ball,
    /// then as a survivor.
    ball_queries: Vec<Vec<u32>>,
    /// One ball's share of `qdata`/`qnorms`, gathered for its GEMM.
    sub_q: Vec<f32>,
    sub_n: Vec<f32>,
    /// Every evaluated `(query, ball)` pair and, back to back, its
    /// distances.
    evals: Vec<BallEval>,
    dists: Vec<f32>,
    /// Per query: its probe ball's entry in `evals`, and the refine cutoff
    /// (the least `upper` of its surviving evaluations).
    probe_eval: Vec<usize>,
    cutoff: Vec<f32>,
}

thread_local! {
    static SEARCH_SCRATCH: Cell<SearchScratch> = Cell::default();
}

impl SearchScratch {
    /// Evaluates ball `j` for the queries listed in `ball_queries[j]`: one
    /// GEMM of their embeddings against the ball's packed rows, appended to
    /// `dists`, then one `evals` entry per query carrying its
    /// [`BallEval::upper`], swept while the distances are in cache.
    fn evaluate_ball(&mut self, j: usize, ball: &IndexBall, labeled_only: bool, survived: bool) {
        let (qi, d) = (&self.ball_queries[j], ball.packed.k());
        self.sub_q.clear();
        self.sub_n.clear();
        for &i in qi {
            let i = i as usize;
            self.sub_q
                .extend_from_slice(&self.qdata[i * d..(i + 1) * d]);
            self.sub_n.push(self.qnorms[i]);
        }
        let (len, at) = (ball.len(), self.dists.len());
        self.dists.resize(at + qi.len() * len, 0.0);
        sq_dist_packed_into(
            qi.len(),
            &self.sub_q,
            &ball.packed,
            &self.sub_n,
            &ball.norms,
            &mut self.dists[at..],
        );
        for (a, (&query, &qn)) in qi.iter().zip(&self.sub_n).enumerate() {
            let upper = self.dists[at + a * len..at + (a + 1) * len]
                .iter()
                .zip(&ball.norms)
                .zip(&ball.labels)
                .map(|((&gd, &xn), label)| {
                    if !labeled_only || label.is_some() {
                        gd + normed_margin(qn, xn)
                    } else {
                        f32::INFINITY
                    }
                })
                .fold(f32::INFINITY, f32::min);
            self.evals.push(BallEval {
                query,
                ball: j as u32,
                at: at + a * len,
                upper,
                survived,
            });
        }
    }
}

/// Searches one cluster for one query group (see
/// [`EmbeddingIndex::routed_nearest`] for the exactness argument).
///
/// Each evaluated `(query, ball)` pair's distances are swept at most
/// twice: once as they land, for the pair's [`BallEval::upper`] (the probe
/// bound and the refine cutoff are minima of those), and once in the
/// refine if the ball survived, which takes the exact distance of every
/// row within the cutoff where it finds it and keeps the least
/// `(distance, id)`.
fn search_cluster(
    cl: &ClusterEmbeddings,
    qs: &[usize],
    z: &Tensor,
    labeled_only: bool,
    stats: &ReadIndexCounters,
) -> GroupHits {
    if qs.is_empty() {
        return Vec::new();
    }
    if cl.rows() == 0 {
        stats.record(qs.len() as u64, 0, 0);
        return qs.iter().map(|&q| (q, None)).collect();
    }
    // Small cluster (no ball partition): the brute scan *is* the read
    // path; every row is a scanned candidate.
    if !cl.is_partitioned() {
        stats.record(qs.len() as u64, 0, (qs.len() * cl.rows()) as u64);
        return qs
            .iter()
            .map(|&q| {
                let hit = cl.balls[0].nearest(z.row(q), labeled_only);
                (q, hit.map(|(d, row)| (d, 0, row)))
            })
            .collect();
    }
    let mut sc = SEARCH_SCRATCH.take();
    let d = z.shape()[1];
    let m = qs.len();
    sc.qdata.clear();
    sc.qnorms.clear();
    for &q in qs {
        let row = z.row(q);
        sc.qdata.extend_from_slice(row);
        // The same ascending-index sum `row_sq_norms` takes.
        sc.qnorms.push(row.iter().map(|&v| v * v).sum());
    }
    // Level-2 routing: one GEMM of the query group against the ball
    // centers, then per-query triangle-inequality pruning.
    let nb = cl.balls.len();
    sc.center_dists.resize(m * nb, 0.0);
    sq_dist_packed_into(
        m,
        &sc.qdata,
        &cl.center_panels,
        &sc.qnorms,
        &cl.ball_center_norms,
        &mut sc.center_dists,
    );
    let eligible = |ball: &IndexBall| !labeled_only || ball.labeled;
    // Probe stage: each query's closest eligible ball (by center
    // distance) is evaluated first, one GEMM per probe ball over the
    // queries that chose it. The best margin-inflated squared distance
    // among a probe ball's eligible rows upper-bounds the winner's true
    // distance with a *realized* point distance — far tighter than any
    // center-plus-radius bound, which in high dimensions barely prunes
    // (ball radii rival inter-point distances).
    //
    // Per-ball GEMM batching over each ball's own packed block: queries
    // needing the same ball are evaluated as one GEMM against it. The
    // alternative — one GEMM over the *union* of surviving rows across the
    // query group — makes every query pay for every other query's
    // survivors (m × union work, quadratic in group size); per-ball
    // subgrouping does exactly the distances some query needs, with no
    // per-row gather at all.
    sc.ball_queries.iter_mut().for_each(Vec::clear);
    sc.ball_queries.resize(nb, Vec::new());
    for (i, drow) in sc.center_dists.chunks_exact(nb).enumerate() {
        let mut best: Option<usize> = None;
        for (j, ball) in cl.balls.iter().enumerate() {
            if eligible(ball) && best.is_none_or(|b| drow[j] < drow[b]) {
                best = Some(j);
            }
        }
        if let Some(j) = best {
            sc.ball_queries[j].push(i as u32);
        }
    }
    sc.evals.clear();
    sc.dists.clear();
    for (j, ball) in cl.balls.iter().enumerate() {
        if !sc.ball_queries[j].is_empty() {
            sc.evaluate_ball(j, ball, labeled_only, false);
        }
    }
    sc.probe_eval.clear();
    sc.probe_eval.resize(m, usize::MAX);
    for (e, eval) in sc.evals.iter().enumerate() {
        sc.probe_eval[eval.query as usize] = e;
    }
    // Triangle-inequality pass: per query, a ball survives when its
    // slack-deflated lower bound does not clear the probe-anchored
    // upper bound. Survivors are recorded ball-major, feeding the
    // per-ball GEMM batches below — except a query's probe ball, whose
    // distances are already there and are only marked.
    sc.ball_queries.iter_mut().for_each(Vec::clear);
    let mut pruned_total = 0u64;
    for (i, drow) in sc.center_dists.chunks_exact(nb).enumerate() {
        let qn = sc.qnorms[i];
        let probe = sc.evals.get_mut(sc.probe_eval[i]);
        let probe_ball = probe.as_ref().map(|eval| eval.ball as usize);
        // The upper bound on the query's winner distance: `gd + margin ≥
        // exact d²` by the GEMM error contract, so the sqrt of the probe's
        // `upper` is a distance some eligible stored row provably realizes
        // (slack-inflated for the f32 sqrt). The winner — and any exact
        // tie — sits at or below it, so a ball whose slack-deflated lower
        // bound exceeds it cannot contain either.
        let bound = probe
            .as_ref()
            .filter(|eval| eval.upper < f32::INFINITY)
            .map_or(f32::NEG_INFINITY, |eval| {
                eval.upper.max(0.0).sqrt() * (1.0 + PRUNE_SLACK)
            });
        let mut probe_survived = false;
        for (j, ball) in cl.balls.iter().enumerate() {
            if !eligible(ball) {
                continue;
            }
            let margin = normed_margin(qn, cl.ball_center_norms[j]);
            let lb =
                ((drow[j] - margin).max(0.0).sqrt() - ball.radius).max(0.0) * (1.0 - PRUNE_SLACK);
            if lb <= bound {
                if probe_ball == Some(j) {
                    probe_survived = true;
                } else {
                    sc.ball_queries[j].push(i as u32);
                }
            } else {
                pruned_total += 1;
            }
        }
        if let Some(eval) = probe {
            eval.survived = probe_survived;
        }
    }
    for (j, ball) in cl.balls.iter().enumerate() {
        if !sc.ball_queries[j].is_empty() {
            sc.evaluate_ball(j, ball, labeled_only, true);
        }
    }
    // cutoff = the least `upper` of a query's surviving evaluations: an
    // upper bound on the exact squared distance of the true winner, so
    // every row whose GEMM interval reaches it — the winner and all its
    // ties included — is refined.
    sc.cutoff.clear();
    sc.cutoff.resize(m, f32::INFINITY);
    for eval in sc.evals.iter().filter(|eval| eval.survived) {
        let cutoff = &mut sc.cutoff[eval.query as usize];
        *cutoff = cutoff.min(eval.upper);
    }
    // Exact refine, in evaluation order: each row within the cutoff takes
    // the scalar `sq_dist(..).sqrt()` the brute scan uses, and the least
    // `(distance, id)` wins — for finite distances the row the brute
    // scan's ascending-id strict-`<` pass keeps, bits included.
    let mut out: GroupHits = qs.iter().map(|&q| (q, None)).collect();
    let mut refined = 0u64;
    for eval in sc.evals.iter().filter(|eval| eval.survived) {
        let (i, j) = (eval.query as usize, eval.ball as usize);
        let cutoff = sc.cutoff[i];
        if cutoff == f32::INFINITY {
            continue;
        }
        let (ball, qn) = (&cl.balls[j], sc.qnorms[i]);
        let (q, best) = &mut out[i];
        let query = z.row(*q);
        let dists = &sc.dists[eval.at..eval.at + ball.len()];
        for (c, (gds, xns)) in dists.chunks(64).zip(ball.norms.chunks(64)).enumerate() {
            // This chunk's rows within the cutoff, as bits: no branch per
            // row, and a label looked at only for a row within it.
            let mut within = 0u64;
            for (b, (&gd, &xn)) in gds.iter().zip(xns).enumerate() {
                within |= u64::from(gd - normed_margin(qn, xn) <= cutoff) << b;
            }
            while within != 0 {
                let t = c * 64 + within.trailing_zeros() as usize;
                within &= within - 1;
                if labeled_only && ball.labels[t].is_none() {
                    continue;
                }
                refined += 1;
                let dist = sq_dist(query, &ball.emb[t * d..(t + 1) * d]).sqrt();
                let wins = best.is_none_or(|(bd, bj, bt)| {
                    dist < bd || (dist == bd && ball.ids[t] < cl.balls[bj].ids[bt])
                });
                if wins {
                    *best = Some((dist, j, t));
                }
            }
        }
    }
    stats.record(m as u64, pruned_total, refined);
    SEARCH_SCRATCH.set(sc);
    out
}

/// Rows leaving and entering one cluster while the index is advanced,
/// held until the cluster is rebuilt.
#[derive(Default)]
struct DirtyCluster {
    drop: HashSet<DocId>,
    add: Vec<IndexRow>,
}

/// One snapshot's read index: what decides which stored rows belong and
/// how clusters are laid out (fixed for the snapshot's life), and the
/// revision-keyed cache of the [`EmbeddingIndex`] built from them.
pub(crate) struct ReadIndex {
    pub(crate) store: Arc<Collection>,
    /// The snapshot's embedding width and fitted cluster count.
    pub(crate) dim: usize,
    pub(crate) k: usize,
    pub(crate) seed: u64,
    pub(crate) cfg: ReadIndexConfig,
    pub(crate) stats: Arc<ReadIndexCounters>,
    /// Built lazily on the first read (one decode pass over the store),
    /// then advanced through the store's change log.
    pub(crate) cache: RwLock<Option<Arc<EmbeddingIndex>>>,
}

impl ReadIndex {
    /// The index for the store's current revision. Rows whose stored
    /// embedding width differs from this snapshot's embedder (stale
    /// documents from an earlier system plane) are excluded.
    ///
    /// The first read builds the index from the whole store. After that a
    /// revision miss costs O(rows written since): the previous index is
    /// advanced through the store's change log ([`Collection::
    /// changes_since`]), decoding only the changed documents and sharing
    /// every cluster, ball and id chunk they did not touch. A log trimmed
    /// past the previous index falls back to the full build.
    ///
    /// The revision is read *before* the store, so a mutation racing the
    /// build at worst tags the index with an older revision and the next
    /// read advances it — a reader can observe a slightly stale view,
    /// never a torn one. A hit is a *shared* read lock and an `Arc` clone;
    /// builds run *outside* the lock: racing readers may duplicate a build
    /// right after a mutation, but no reader ever blocks behind another's.
    pub(crate) fn current(&self) -> Arc<EmbeddingIndex> {
        let rev = self.store.revision();
        let prev = self.cache.read().clone();
        if let Some(idx) = prev.as_ref().filter(|idx| idx.revision == rev) {
            return Arc::clone(idx);
        }
        let built = Arc::new(
            prev.and_then(|prev| self.advance_index(&prev))
                .unwrap_or_else(|| self.build_index(rev)),
        );
        // First install wins per revision, and a slow builder for an older
        // revision never clobbers a newer index (revisions are monotone) —
        // that would force every subsequent reader back into a redundant
        // rebuild.
        let mut guard = self.cache.write();
        match guard.as_ref() {
            Some(existing) if existing.revision >= built.revision => Arc::clone(existing),
            _ => guard.insert(built).clone(),
        }
    }

    fn cluster_layout(&self, cluster: usize) -> ClusterLayout {
        ClusterLayout {
            dim: self.dim,
            min_rows: if self.dim > 0 {
                self.cfg.min_cluster_rows.max(1)
            } else {
                usize::MAX
            },
            ball: BallPartitionConfig {
                target: self.cfg.ball_target.max(1),
                max_depth: 3,
                seed: self.seed ^ (cluster as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
        }
    }

    /// Decodes one stored document into an index row; `None` when it is
    /// gone or has no place in this snapshot's index.
    fn decode_row(&self, id: DocId) -> Option<IndexRow> {
        let doc = self.store.get(id)?;
        self.stats.rows_decoded.fetch_add(1, Ordering::Relaxed);
        let emb = doc.get_f32s("embedding")?;
        let cluster = usize::try_from(doc.get_i64("cluster")?).ok()?;
        (emb.len() == self.dim && cluster < self.k).then(|| IndexRow {
            id,
            cluster,
            emb: emb.to_vec(),
            label: doc.get_f32s("label").map(Arc::from),
        })
    }

    /// The full build: one decode pass over the store, rows scattered to
    /// their clusters in ascending-id order (the brute scan's deterministic
    /// tie order), then each cluster partitioned — both passes split across
    /// the pool once the store is large enough to pay for it.
    fn build_index(&self, revision: u64) -> EmbeddingIndex {
        let ids = self.store.ids();
        // Per document: one fetch-and-decode, then its share of its
        // cluster's partition.
        let lay = self.cluster_layout(0);
        let split = ids.len() * (ROW_DECODE_WORK + lay.ball.row_work(lay.dim)) >= PAR_MIN_WORK;
        let decode = |id: &DocId| self.decode_row(*id);
        let rows: Vec<Option<IndexRow>> = if split {
            ids.par_iter().map(decode).collect()
        } else {
            ids.iter().map(decode).collect()
        };
        let mut flats: Vec<IndexBall> = vec![IndexBall::default(); self.k];
        for row in rows.into_iter().flatten() {
            flats[row.cluster].push_row(row);
        }
        let partition = |(c, flat): (usize, &IndexBall)| {
            Arc::new(ClusterEmbeddings::build(flat, &self.cluster_layout(c)))
        };
        let clusters = if split {
            flats.par_iter().enumerate().map(partition).collect()
        } else {
            flats.iter().enumerate().map(partition).collect()
        };
        EmbeddingIndex {
            revision,
            end_id: ids.last().map_or(0, |&last| last + 1),
            clusters,
            stats: Arc::clone(&self.stats),
        }
    }

    /// The index after the mutations logged since `prev` (`None` when the
    /// log no longer reaches back that far). Each changed id is applied
    /// once, in log order, as "make the row for this id equal the stored
    /// document now" — so applying an entry again, or one whose document
    /// has since changed again, is harmless. A new id appends to its
    /// cluster; anything else (update, delete, cluster move, an id logged
    /// out of order) marks the clusters it leaves and enters, and each
    /// marked cluster is rebuilt from its previous rows — before the next
    /// append into it, or at the end — so the resulting layout depends on
    /// the mutation sequence, not on how reads happened to batch it.
    fn advance_index(&self, prev: &EmbeddingIndex) -> Option<EmbeddingIndex> {
        let mut changed = self.store.changes_since(prev.revision)?;
        let mut next = EmbeddingIndex {
            revision: prev.revision + changed.len() as u64,
            end_id: prev.end_id,
            clusters: prev.clusters.clone(),
            stats: Arc::clone(&self.stats),
        };
        let mut seen = HashSet::with_capacity(changed.len());
        changed.retain(|&id| seen.insert(id));
        let mut dirty: Vec<DirtyCluster> = std::iter::repeat_with(DirtyCluster::default)
            .take(next.clusters.len())
            .collect();
        let flush = |cl: &mut Arc<ClusterEmbeddings>, d: &mut DirtyCluster, c: usize| {
            if !d.drop.is_empty() || !d.add.is_empty() {
                let add = std::mem::take(&mut d.add);
                *cl = Arc::new(cl.rebuilt(&d.drop, add, &self.cluster_layout(c)));
                d.drop.clear();
            }
        };
        for id in changed {
            let row = self.decode_row(id);
            if id >= next.end_id {
                if let Some(row) = row {
                    let c = row.cluster;
                    flush(&mut next.clusters[c], &mut dirty[c], c);
                    Arc::make_mut(&mut next.clusters[c]).append(row, &self.cluster_layout(c));
                    next.end_id = id + 1;
                }
                continue;
            }
            if let Some(c) = next.clusters.iter().position(|cl| cl.contains(id)) {
                dirty[c].drop.insert(id);
            }
            if let Some(row) = row {
                dirty[row.cluster].add.push(row);
            }
        }
        for (c, (cl, d)) in next.clusters.iter_mut().zip(&mut dirty).enumerate() {
            flush(cl, d, c);
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairds::tests::{blob_images, fairds_with_k, quick_embed_cfg, SIDE};
    use crate::fairds::SystemSnapshot;
    use fairdms_datastore::Document;
    use fairdms_tensor::rng::TensorRng;

    #[test]
    fn lookup_matching_backfills_ids_deleted_mid_call() {
        let (x, y) = blob_images(25, 2, 90);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let snap = ds.snapshot().unwrap();
        // Simulate the race window: a lookup holds an index brought up to
        // date just before concurrent deletes landed. Build the index,
        // delete a third of the store, then restore the stale index under
        // the post-delete revision so the next lookup draws dead ids.
        let idx = snap.index.current();
        for i in (0..idx.rows()).step_by(3) {
            assert!(ds.store().delete(idx.pool_id(i)));
        }
        let stale = Arc::new(EmbeddingIndex {
            revision: ds.store().revision(),
            end_id: idx.end_id,
            clusters: idx.clusters.clone(),
            stats: Arc::clone(&idx.stats),
        });
        *snap.index.cache.write() = Some(stale);
        // Every draw that hits a deleted id must backfill from the pool:
        // a non-empty index always serves the full requested count.
        for _ in 0..20 {
            let docs = snap.lookup_matching(&[0.5, 0.5], 30);
            assert_eq!(docs.len(), 30, "deleted draws must be backfilled");
        }
    }

    /// The work bound of the read index, as counts: after a B-document
    /// ingest into a warm N-document index the next read — of either kind —
    /// decodes exactly B documents and shares every cluster and ball the
    /// batch did not land in; only a change-log overrun decodes the store
    /// again.
    #[test]
    fn index_refresh_after_ingest_decodes_only_the_batch() {
        const BATCH: usize = 32;
        let (train, _) = blob_images(20, 4, 30);
        for n in [1_000usize, 8_000] {
            let mut ds = fairds_with_k(4);
            ds.train_system(&train, &quick_embed_cfg());
            let (x, y) = blob_images(n / 4, 4, 31);
            ds.ingest_labeled(&x, &y, 0);
            let snap = ds.snapshot().unwrap();
            let counters = Arc::clone(ds.read_index_counters());
            let query = x.slice_rows(0, 1);
            let index_of = |snap: &SystemSnapshot| snap.index.cache.read().clone().unwrap();

            // First read: the full build decodes the store once; a read of
            // the unchanged store decodes nothing.
            snap.nearest_labeled(&query);
            assert_eq!(counters.rows_decoded(), n as u64, "n={n}: full build");
            snap.nearest_labeled(&query);
            assert_eq!(counters.rows_decoded(), n as u64, "n={n}: warm read");
            let before = index_of(&snap);

            // The whole batch is one frame, so it lands in one ball. The
            // first read after it is a lookup: it pays for the batch, and
            // the nearest-neighbour read behind it for nothing.
            let frame = x.slice_rows(0, 1);
            let target = snap.assign(&frame)[0];
            let batch = Tensor::from_vec(frame.data().repeat(BATCH), &[BATCH, SIDE * SIDE]);
            ds.ingest_labeled(&batch, &Tensor::zeros(&[BATCH, 2]), 1);
            assert_eq!(snap.lookup_matching(&[0.25; 4], 8).len(), 8);
            assert_eq!(
                counters.rows_decoded(),
                (n + BATCH) as u64,
                "n={n}: the lookup's refresh decodes exactly the batch"
            );
            snap.nearest_labeled(&query);
            assert_eq!(counters.rows_decoded(), (n + BATCH) as u64, "n={n}: warm");
            let after = index_of(&snap);
            assert_eq!(after.revision, ds.store().revision());
            for (c, (b, a)) in before.clusters.iter().zip(&after.clusters).enumerate() {
                if c != target {
                    assert!(Arc::ptr_eq(b, a), "n={n}: cluster {c} was not written");
                    continue;
                }
                assert_eq!(a.rows(), b.rows() + BATCH);
                let min_rows = ds.config().read_index.min_cluster_rows;
                assert_eq!(a.is_partitioned(), a.rows() >= min_rows, "n={n}");
                if b.is_partitioned() {
                    let shared = (a.balls.iter())
                        .filter(|ball| b.balls.iter().any(|old| Arc::ptr_eq(old, ball)))
                        .count();
                    assert_eq!(shared, b.balls.len() - 1, "n={n}: one ball took the batch");
                }
                let shared = (a.ids.chunks.iter().zip(&b.ids.chunks))
                    .filter(|(new, old)| Arc::ptr_eq(new, old))
                    .count();
                assert_eq!(
                    shared,
                    b.rows() / ID_CHUNK,
                    "n={n}: full id chunks are shared"
                );
            }

            // More writes than the change log holds: the store is decoded
            // again.
            let (x, y) = blob_images(1_250, 4, 32);
            ds.ingest_labeled(&x, &y, 2);
            snap.lookup_matching(&[0.25; 4], 1);
            assert_eq!(
                counters.rows_decoded(),
                (2 * (n + BATCH) + 5_000) as u64,
                "n={n}: a log overrun decodes the store"
            );
        }
    }

    /// An index grown batch by batch keeps the shape the partitioner
    /// promises the search: balls within the leaf rule, every row inside
    /// its ball's radius, ids ascending, labeled bits set.
    #[test]
    fn delta_grown_index_keeps_the_partition_invariants() {
        let (train, _) = blob_images(20, 4, 33);
        let mut ds = fairds_with_k(2);
        ds.train_system(&train, &quick_embed_cfg());
        let snap = ds.snapshot().unwrap();
        let query = train.slice_rows(0, 1);
        let dim = snap.embedder().embed_dim();
        for round in 0..100 {
            let (x, y) = blob_images(4, 4, 100 + round);
            ds.ingest_labeled(&x, &y, round as usize);
            snap.nearest_labeled(&query);
            // Rows appended one at a time — through the cluster's first
            // split and every re-split of a ball — leave the panels a pack
            // of the finished block yields; a block no GEMM reads has none.
            for cl in &snap.index.current().clusters {
                if !cl.is_partitioned() {
                    assert_eq!(cl.center_panels.n() + cl.balls[0].packed.n(), 0);
                    continue;
                }
                let centers = PackedB::from_rows(dim, &cl.ball_centers);
                assert_eq!(cl.center_panels, centers, "round {round}");
                for ball in &cl.balls {
                    let packed = PackedB::from_rows(dim, &ball.emb);
                    assert_eq!(ball.packed, packed, "round {round}");
                }
            }
        }
        let counters = ds.read_index_counters();
        assert_eq!(counters.rows_decoded(), 100 * 16, "no row decoded twice");
        let index = snap.index.current();
        let leaf = 2 * snap.config().read_index.ball_target;
        let mut rows = 0;
        for cl in &index.clusters {
            assert!(cl.is_partitioned(), "{} rows partition", cl.rows());
            assert!(cl.balls.len() > 2, "{} rows split", cl.rows());
            assert_eq!(cl.balls.iter().map(|b| b.len()).sum::<usize>(), cl.rows());
            rows += cl.rows();
            for (ball, center) in cl.balls.iter().zip(cl.ball_centers.chunks_exact(dim)) {
                assert!(ball.len() <= leaf, "ball of {} rows", ball.len());
                assert!(ball.ids.windows(2).all(|w| w[0] < w[1]));
                assert!(ball.labeled);
                for emb in ball.emb.chunks_exact(dim) {
                    assert!(sq_dist(emb, center).sqrt() <= ball.radius);
                }
            }
        }
        assert_eq!(rows, 100 * 16);
    }

    /// The fold's structural contract: after any mix of writes, each
    /// cluster's drawable ids — order included — are what a scan of the
    /// store's documents finds in that cluster with a current-width
    /// embedding (what a nearest-neighbour read searches), and the pool is
    /// those lists in cluster order — for an index grown write by write and
    /// one built in one pass alike.
    #[test]
    fn drawable_ids_are_the_store_cluster_scan_in_order() {
        const K: usize = 2;
        let (train, _) = blob_images(20, K, 60);
        let mut ds = fairds_with_k(K);
        ds.train_system(&train, &quick_embed_cfg());
        let live = ds.snapshot().unwrap();
        let dim = live.embedder().embed_dim();
        let check = |snap: &SystemSnapshot, what: &str| {
            let (index, store) = (snap.index.current(), snap.store());
            let mut pool = Vec::new();
            for c in 0..K {
                let want = store.scan(|doc| {
                    doc.get_i64("cluster") == Some(c as i64)
                        && doc.get_f32s("embedding").is_some_and(|e| e.len() == dim)
                });
                let got: Vec<DocId> = (0..index.cluster_rows(c))
                    .map(|i| index.cluster_id(c, i))
                    .collect();
                assert_eq!(got, want, "{what}: cluster {c}");
                pool.extend(got);
            }
            let got: Vec<DocId> = (0..index.rows()).map(|i| index.pool_id(i)).collect();
            assert_eq!(got, pool, "{what}: pool");
        };
        let mut rng = TensorRng::seeded(62);
        for round in 0..34usize {
            // ~40 rows a cluster: both grow past one id chunk by appends.
            let (x, y) = blob_images(40, K, 100 + round as u64);
            ds.ingest_labeled(&x, &y, round);
            let (store, ids) = (Arc::clone(ds.store()), ds.store().ids());
            let mut pick = || ids[rng.next_index(ids.len())];
            // Direct inserts: one the index takes and three it must not (no
            // embedding, a stale width, a cluster beyond k).
            let c = (round % K) as i64;
            for (width, cluster) in [(dim, c), (0, c), (dim + 1, c), (dim, K as i64)] {
                let mut doc = Document::new().with("cluster", cluster);
                if width > 0 {
                    doc.set("embedding", vec![0.5f32; width]);
                }
                store.insert(&doc);
            }
            // Deletes, a cluster move, and a reindex that may move rows back.
            for _ in 0..3 {
                store.delete(pick());
            }
            let moved = pick();
            if let Some(mut doc) = store.get(moved) {
                doc.set("cluster", (doc.get_i64("cluster").unwrap() + 1) % K as i64);
                store.update(moved, &doc);
            }
            ds.reindex_ids(&[pick(), pick(), pick()]);
            // The live view follows through lookups alone.
            live.lookup_matching(&[0.5; K], 1);
            if round % 8 == 7 {
                check(&live, "grown");
            }
        }
        assert!((0..K).all(|c| live.index.current().cluster_rows(c) > ID_CHUNK));
        check(&live, "grown");
        ds.configure_read_index(ds.config().read_index);
        check(&ds.snapshot().unwrap(), "built");
    }
}
