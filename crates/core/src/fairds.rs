//! fairDS: the FAIR data service (paper §II-A and Fig 3).
//!
//! The pipeline: a self-supervised [`Embedder`] turns bulky images into
//! compact representations; K-means groups them into clusters (K chosen by
//! the elbow method when not fixed); the data store keeps every labeled
//! historical sample together with its embedding and cluster id, indexed
//! by cluster for two-level hierarchical search (first the cluster, then
//! the nearest sample within it).
//!
//! ## Read plane vs. write plane (DESIGN.md §6)
//!
//! The service state is split in two:
//!
//! * [`SystemSnapshot`] — an **immutable** view of the fitted system plane
//!   (frozen embedder, fitted k-means, a handle to the shared store). Every
//!   user-plane read — [`SystemSnapshot::dataset_pdf`],
//!   [`SystemSnapshot::lookup_matching`], [`SystemSnapshot::pseudo_label`],
//!   [`SystemSnapshot::nearest_labeled`], [`SystemSnapshot::certainty`] —
//!   takes `&self` and is safe to call from any number of threads
//!   concurrently. Snapshots are shared as `Arc<SystemSnapshot>`; replacing
//!   one is a single atomic `Arc` swap.
//! * [`FairDS`] — the **mutating builder** that owns the trainable
//!   embedder. [`FairDS::train_system`] / [`FairDS::retrain_system`] fit
//!   models and *publish* a fresh snapshot; [`FairDS::ingest_labeled`]
//!   writes documents through the (internally synchronized) store. For
//!   convenience every snapshot read is mirrored on `FairDS` itself,
//!   delegating to the currently-published snapshot.
//!
//! This mirrors the paper's deployment, where the trainer reads the data
//! store directly while the service keeps answering queries: queries never
//! serialize behind system-plane maintenance.

use crate::embedding::{EmbedTrainConfig, Embedder};
use crate::reuse::{EmbedCache, EmbedCacheConfig};
use fairdms_clustering::kmeans::normed_margin;
use fairdms_clustering::{
    assignments_to_pdf, elbow, fuzzy, inflated_radius, partition_balls, BallPartitionConfig,
    KMeans, KMeansConfig,
};
use fairdms_datastore::{Collection, DocId, Document, RawCodec};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::gemm::Threading;
use fairdms_tensor::{
    hash::row_hashes,
    ops::{row_sq_norms, sq_dist, sq_dist_into, PAR_MIN_WORK, SQ_DIST_WORK},
    rng::TensorRng,
    Tensor,
};
use parking_lot::RwLock;
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// fairDS configuration.
#[derive(Clone, Debug)]
pub struct FairDsConfig {
    /// Fixed cluster count, or `None` to select K by the elbow method.
    pub k: Option<usize>,
    /// Elbow sweep range (inclusive) when `k` is `None`.
    pub k_range: (usize, usize),
    /// Fuzzy-membership confidence defining a "certain" assignment
    /// (paper: 0.5).
    pub confidence: f32,
    /// Fuzzy c-means fuzzifier for the certainty monitor. The metric's
    /// operating point: m = 2 is conventional but scores diffusely at
    /// large K; smaller values sharpen memberships toward hard assignment.
    pub fuzzifier: f32,
    /// Certainty fraction below which the system plane must retrain
    /// (paper: 0.8).
    pub certainty_threshold: f64,
    /// Seed for clustering and PDF-matched sampling.
    pub seed: u64,
    /// Embedding-reuse cache sizing (the data-reuse plane, DESIGN.md §8).
    /// `capacity: 0` disables memoization entirely.
    pub embed_cache: EmbedCacheConfig,
    /// Read-index layout (the two-level IVF read plane, DESIGN.md §12).
    pub read_index: ReadIndexConfig,
}

impl Default for FairDsConfig {
    fn default() -> Self {
        FairDsConfig {
            k: Some(15), // the paper's Bragg configuration (Fig 12)
            k_range: (4, 20),
            confidence: 0.5,
            fuzzifier: 2.0,
            certainty_threshold: 0.8,
            seed: 0,
            embed_cache: EmbedCacheConfig::default(),
            read_index: ReadIndexConfig::default(),
        }
    }
}

/// Layout knobs of the two-level IVF read index (DESIGN.md §12).
#[derive(Clone, Copy, Debug)]
pub struct ReadIndexConfig {
    /// `false` routes every nearest-neighbour read through the brute
    /// per-cluster scan — the exactness oracle the routed path is tested
    /// (and benched) against.
    pub enabled: bool,
    /// Target rows per ball in the within-cluster sub-partition.
    pub ball_target: usize,
    /// Clusters below this row count are not sub-partitioned: a linear
    /// scan of a few hundred cached rows beats the ball bookkeeping.
    pub min_cluster_rows: usize,
}

impl Default for ReadIndexConfig {
    fn default() -> Self {
        ReadIndexConfig {
            enabled: true,
            ball_target: 64,
            min_cluster_rows: 256,
        }
    }
}

/// Monotone statistics of the routed read path, shared by every published
/// snapshot of one [`FairDS`] (and surfaced through the service's metrics
/// endpoint). Counters only — all `Relaxed`, nothing is ordered by them.
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
    /// date — the work a store mutation costs the next routed read.
    pub fn rows_decoded(&self) -> u64 {
        self.rows_decoded.load(Ordering::Relaxed)
    }
}

/// Outcome statistics of a pseudo-labeling pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PseudoLabelStats {
    /// Labels reused from historical data (embedding distance < threshold).
    pub reused: usize,
    /// Labels computed with the expensive fallback labeler.
    pub computed: usize,
}

impl PseudoLabelStats {
    /// Fraction of labels served from history.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused + self.computed;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// Per-cluster membership of the store at one revision. Cheap to build —
/// one batched read of the `cluster` secondary index plus the id list, no
/// document decoding — and reused by every [`SystemSnapshot`] read until
/// the store's revision moves.
struct MembershipIndex {
    /// [`Collection::revision`] observed before the index was read.
    revision: u64,
    /// Document ids per cluster (`members[c]` for cluster `c < k`).
    members: Vec<Vec<DocId>>,
    /// Every document id — the fallback pool for empty clusters.
    all_ids: Vec<DocId>,
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
/// cluster and ball the logged mutations did not touch.
struct EmbeddingIndex {
    revision: u64,
    /// Every indexed id is below this, so a changed id at or above it is a
    /// new row — the ingest case, which appends instead of rebuilding.
    end_id: DocId,
    clusters: Vec<Arc<ClusterEmbeddings>>,
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
    /// the dense panel per-ball GEMMs read with no per-query gather.
    emb: Vec<f32>,
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
    /// Rows from which the cluster is sub-partitioned (`usize::MAX` when
    /// routing is off).
    min_rows: usize,
    /// Ball sizing, seeded per cluster.
    ball: BallPartitionConfig,
}

/// The embedding cache of one cluster: documents that carry an `embedding`
/// field of the snapshot's embedding width. A cluster below
/// `min_cluster_rows` is one block scanned linearly; a larger one is
/// sub-partitioned into balls, each owning its rows.
#[derive(Clone, Default)]
struct ClusterEmbeddings {
    rows: usize,
    balls: Vec<Arc<IndexBall>>,
    /// Flattened `[balls, embed_dim]` ball centers (empty while
    /// unpartitioned).
    ball_centers: Vec<f32>,
    /// `‖c‖²` per ball center.
    ball_center_norms: Vec<f32>,
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
        let mut cl = ClusterEmbeddings {
            rows: flat.len(),
            ..ClusterEmbeddings::default()
        };
        if cl.rows >= lay.min_rows {
            cl.push_split(flat, lay, lay.ball.seed);
        } else if cl.rows > 0 {
            cl.balls.push(Arc::new(flat.clone()));
        }
        cl
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
            SEARCH_BALLS * self.rows / self.balls.len()
        } else {
            self.rows
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
            self.ball_center_norms
                .push(b.center.iter().map(|&v| v * v).sum());
            self.ball_centers.extend_from_slice(&b.center);
            self.balls.push(Arc::new(ball));
        }
    }

    /// Adds a row whose id is above every id in the cluster, leaving every
    /// ball it does not land in shared with the previous index. The row
    /// joins the ball whose center is nearest by the exact scalar distance
    /// and widens its radius to cover it; a ball that outgrows the
    /// partitioner's leaf rule is re-split on its own, and an unpartitioned
    /// cluster is partitioned the moment it reaches `min_cluster_rows`.
    fn append(&mut self, row: IndexRow, lay: &ClusterLayout) {
        self.rows += 1;
        if !self.is_partitioned() {
            if self.balls.is_empty() {
                self.balls.push(Arc::default());
            }
            let block = Arc::make_mut(&mut self.balls[0]);
            block.push_row(row);
            if self.rows >= lay.min_rows {
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

/// Rows leaving and entering one cluster while the index is advanced,
/// held until the cluster is rebuilt.
#[derive(Default)]
struct DirtyCluster {
    drop: HashSet<DocId>,
    add: Vec<IndexRow>,
}

/// An immutable view of a fitted fairDS system plane.
///
/// All methods take `&self`; a `SystemSnapshot` behind an `Arc` is safe to
/// share across any number of reader threads with no locking on the fast
/// path. Interior mutation is limited to a relaxed atomic counter that
/// derives per-call sampling seeds for
/// [`SystemSnapshot::lookup_matching`], plus two revision-keyed index
/// caches (cluster membership, cluster embeddings) that are brought up to
/// date at most once per store mutation and shared by every read in
/// between.
pub struct SystemSnapshot {
    embedder: Arc<dyn Embedder>,
    kmeans: Arc<KMeans>,
    store: Arc<Collection>,
    cfg: FairDsConfig,
    /// Monotonic draw counter; folded into the sampling seed so concurrent
    /// lookups draw distinct (but deterministic-in-sequence) samples.
    sample_seq: AtomicU64,
    /// Publication number (0 for the first trained snapshot, +1 per
    /// retrain). Lets tests and clients detect snapshot turnover.
    version: u64,
    /// Cluster-membership index, keyed on the store revision. Seeded at
    /// publication; refreshed when the store has changed since.
    members_cache: RwLock<Option<Arc<MembershipIndex>>>,
    /// Embedding cache, keyed on the store revision. Built lazily on the
    /// first nearest-neighbour read (one decode pass over the store), then
    /// advanced through the store's change log.
    emb_cache: RwLock<Option<Arc<EmbeddingIndex>>>,
    /// The data-reuse plane's content-addressed embedding memo table,
    /// shared with the owning [`FairDS`] across publications. Entries are
    /// generation-fenced to this snapshot's [`SystemSnapshot::version`]:
    /// after a retrain the new snapshot's probes can never match (or be
    /// poisoned by) embeddings of the replaced embedder.
    reuse: Arc<EmbedCache>,
    /// Routed-read statistics, shared with the owning [`FairDS`] across
    /// publications (counters survive snapshot turnover).
    read_stats: Arc<ReadIndexCounters>,
}

/// Cache-hit path shared by both indexes: a *shared* read lock and an
/// `Arc` clone, so concurrent readers on an unchanged store never
/// serialize behind each other.
fn cache_hit<T>(
    cache: &RwLock<Option<Arc<T>>>,
    rev: u64,
    rev_of: impl Fn(&T) -> u64,
) -> Option<Arc<T>> {
    let guard = cache.read();
    guard
        .as_ref()
        .filter(|idx| rev_of(idx) == rev)
        .map(Arc::clone)
}

/// Publishes a freshly built index unless a concurrent builder already
/// installed one that is at least as new (revisions are monotone):
/// first build wins per revision, and a slow builder for an older
/// revision never clobbers a newer index — that would force every
/// subsequent reader back into a redundant rebuild.
fn cache_install<T>(
    cache: &RwLock<Option<Arc<T>>>,
    built: Arc<T>,
    rev: u64,
    rev_of: impl Fn(&T) -> u64,
) -> Arc<T> {
    let mut guard = cache.write();
    if let Some(existing) = guard.as_ref() {
        if rev_of(existing) >= rev {
            return Arc::clone(existing);
        }
    }
    *guard = Some(Arc::clone(&built));
    built
}

impl SystemSnapshot {
    /// The one place snapshots are constructed — both publication and
    /// cache-reconfiguration go through here, so a new field cannot be
    /// wired into one path and forgotten in the other. Index caches
    /// start empty and the sampling sequence restarts (draws stay
    /// deterministic-in-sequence per snapshot, which is all the contract
    /// promises).
    fn assemble(
        embedder: Arc<dyn Embedder>,
        kmeans: Arc<KMeans>,
        store: Arc<Collection>,
        cfg: FairDsConfig,
        version: u64,
        reuse: Arc<EmbedCache>,
        read_stats: Arc<ReadIndexCounters>,
    ) -> SystemSnapshot {
        SystemSnapshot {
            embedder,
            kmeans,
            store,
            cfg,
            sample_seq: AtomicU64::new(0),
            version,
            members_cache: RwLock::new(None),
            emb_cache: RwLock::new(None),
            reuse,
            read_stats,
        }
    }

    /// The current membership index, rebuilding if the store moved on.
    ///
    /// The revision is read *before* the index, so a mutation racing the
    /// build at worst tags the index with an older revision and the next
    /// read rebuilds — a reader can observe a slightly stale membership
    /// view (exactly as it could under per-call `find_by` queries), never
    /// a torn one. Rebuilds run *outside* the lock: racing readers may
    /// duplicate a build right after a mutation, but no reader ever
    /// blocks behind another's store scan.
    fn membership_index(&self) -> Arc<MembershipIndex> {
        let rev = self.store.revision();
        if let Some(idx) = cache_hit(&self.members_cache, rev, |i| i.revision) {
            return idx;
        }
        let clusters: Vec<i64> = (0..self.k() as i64).collect();
        let idx = Arc::new(MembershipIndex {
            revision: rev,
            members: self.store.find_by_many("cluster", &clusters),
            all_ids: self.store.ids(),
        });
        cache_install(&self.members_cache, idx, rev, |i| i.revision)
    }

    /// The current embedding index, brought up to date if the store moved
    /// on. Rows whose stored embedding width differs from this snapshot's
    /// embedder (stale documents from an earlier system plane) are
    /// excluded, mirroring the per-query width check the uncached path
    /// applied.
    ///
    /// The first read builds the index from the whole store. After that a
    /// revision miss costs O(rows written since): the previous index is
    /// advanced through the store's change log ([`Collection::
    /// changes_since`]), decoding only the changed documents and sharing
    /// every cluster and ball they did not touch. A log trimmed past the
    /// previous index falls back to the full build. Like the membership
    /// index, builds run outside the lock and the first one per revision
    /// wins.
    fn embedding_index(&self) -> Arc<EmbeddingIndex> {
        let rev = self.store.revision();
        if let Some(idx) = cache_hit(&self.emb_cache, rev, |i| i.revision) {
            return idx;
        }
        let prev = self.emb_cache.read().clone();
        let idx = prev
            .and_then(|prev| self.advance_index(&prev))
            .unwrap_or_else(|| self.build_index(rev));
        let rev = idx.revision;
        cache_install(&self.emb_cache, Arc::new(idx), rev, |i| i.revision)
    }

    fn cluster_layout(&self, cluster: usize) -> ClusterLayout {
        let ri = &self.cfg.read_index;
        let dim = self.embedder.embed_dim();
        ClusterLayout {
            dim,
            min_rows: if ri.enabled && dim > 0 {
                ri.min_cluster_rows.max(1)
            } else {
                usize::MAX
            },
            ball: BallPartitionConfig {
                target: ri.ball_target.max(1),
                max_depth: 3,
                seed: self.cfg.seed ^ (cluster as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
        }
    }

    /// Decodes one stored document into an index row; `None` when it is
    /// gone or has no place in this snapshot's index.
    fn decode_row(&self, id: DocId) -> Option<IndexRow> {
        let doc = self.store.get(id)?;
        self.read_stats.rows_decoded.fetch_add(1, Ordering::Relaxed);
        let emb = doc.get_f32s("embedding")?;
        let cluster = usize::try_from(doc.get_i64("cluster")?).ok()?;
        (emb.len() == self.embedder.embed_dim() && cluster < self.k()).then(|| IndexRow {
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
        let mut flats: Vec<IndexBall> = vec![IndexBall::default(); self.k()];
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

    /// The number of fitted clusters.
    pub fn k(&self) -> usize {
        self.kmeans.k()
    }

    /// The publication number of this snapshot (increments per retrain).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The backing collection.
    pub fn store(&self) -> &Arc<Collection> {
        &self.store
    }

    /// The configuration frozen into this snapshot.
    pub fn config(&self) -> &FairDsConfig {
        &self.cfg
    }

    /// The frozen embedding model.
    pub fn embedder(&self) -> &dyn Embedder {
        self.embedder.as_ref()
    }

    /// The embedding-reuse cache this snapshot probes (shared across
    /// snapshots; fenced per generation).
    pub fn embed_cache(&self) -> &Arc<EmbedCache> {
        &self.reuse
    }

    /// Embeds a dataset through the data-reuse plane: rows the cache has
    /// seen under this embedder generation are served from the memo
    /// table; **only the misses** are gathered into one partial batch for
    /// a single forward pass, scattered back, and installed.
    ///
    /// Bit-identical to `self.embedder().embed(images)` — every embedder
    /// in this workspace is row-independent and deterministic, hits are
    /// confirmed by full-row equality, and the generation fence rules out
    /// cross-embedder reuse — so callers can switch freely.
    pub fn embed_cached(&self, images: &Tensor) -> Tensor {
        if !self.reuse.is_enabled() {
            return self.embedder.embed(images);
        }
        let n = images.shape()[0];
        let dim = self.embedder.embed_dim();
        if n == 0 {
            return Tensor::zeros(&[0, dim]);
        }
        let generation = self.version;
        let hashes = row_hashes(images);

        // Per-reader-thread scratch, recycled across batches: the miss index
        // list, a single probe row, and the partial-miss gather buffer. With
        // these, the probe loop and the all-miss path below perform zero
        // heap allocations beyond what the forward pass itself needs.
        thread_local! {
            static MISS_IDX: std::cell::Cell<Vec<usize>> = const { std::cell::Cell::new(Vec::new()) };
            static PROBE_ROW: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
            static GATHER_BUF: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
        }
        let mut misses = MISS_IDX.take();
        misses.clear();
        let mut probe = PROBE_ROW.take();
        probe.clear();
        probe.resize(dim, 0.0);

        // The output tensor is allocated lazily, on the first hit: a cold
        // (all-miss) batch never materializes it and instead returns the
        // forward pass's own output directly — no zeros fill, no scatter.
        let mut out: Option<Tensor> = None;
        for (i, &h) in hashes.iter().enumerate() {
            let hit = match out.as_mut() {
                Some(o) => self
                    .reuse
                    .get_into(generation, h, images.row(i), o.row_mut(i)),
                None => {
                    let hit = self
                        .reuse
                        .get_into(generation, h, images.row(i), &mut probe);
                    if hit {
                        let mut o = Tensor::zeros(&[n, dim]);
                        o.row_mut(i).copy_from_slice(&probe);
                        out = Some(o);
                    }
                    hit
                }
            };
            if !hit {
                misses.push(i);
            }
        }
        PROBE_ROW.set(probe);

        let result = match out {
            // All-miss (cold or adversarial) batch: embed the input as-is
            // and hand the embedding back untouched — the cache must cost
            // ~nothing when it cannot help.
            None => {
                let mz = self.embedder.embed(images);
                for (i, &h) in hashes.iter().enumerate() {
                    self.reuse.insert(generation, h, images.row(i), mz.row(i));
                }
                mz
            }
            Some(mut out) => {
                if !misses.is_empty() {
                    let mut rows = GATHER_BUF.take();
                    rows.clear();
                    images.gather_rows_into(&misses, &mut rows);
                    let partial = Tensor::from_vec(rows, &[misses.len(), images.shape()[1]]);
                    let mz = self.embedder.embed(&partial);
                    GATHER_BUF.set(partial.into_vec());
                    out.scatter_rows_from(&misses, &mz);
                    for (j, &i) in misses.iter().enumerate() {
                        self.reuse
                            .insert(generation, hashes[i], images.row(i), mz.row(j));
                    }
                }
                out
            }
        };
        MISS_IDX.set(misses);
        result
    }

    /// Embeds a dataset and returns its per-sample cluster assignments.
    pub fn assign(&self, images: &Tensor) -> Vec<usize> {
        let z = self.embed_cached(images);
        self.kmeans.predict(&z)
    }

    /// The cluster-occupancy PDF of a dataset — fairDS's dataset
    /// representation, consumed by fairMS for model indexing.
    pub fn dataset_pdf(&self, images: &Tensor) -> Vec<f64> {
        let k = self.k();
        let assignments = self.assign(images);
        assignments_to_pdf(&assignments, k)
    }

    /// PDF-matched retrieval: draws `count` labeled documents from the
    /// store, cluster-sampled according to `pdf` (the paper's data-store
    /// query). Clusters with no stored members fall back to the global
    /// pool so the requested count is always served when the store is
    /// non-empty.
    ///
    /// ## Complexity
    ///
    /// O(count) id draws against the revision-keyed membership index plus
    /// one document decode per draw. The index itself is rebuilt at most
    /// once per store mutation (O(store ids), no decoding), so a burst of
    /// lookups against an unchanged store costs O(store + Σ count) — not
    /// the O(store × count) of re-running `find_by` and cloning `ids()`
    /// inside every draw.
    pub fn lookup_matching(&self, pdf: &[f64], count: usize) -> Vec<Document> {
        assert_eq!(pdf.len(), self.k(), "pdf length must equal k");
        let mut out = Vec::with_capacity(count);
        let index = self.membership_index();
        if index.all_ids.is_empty() {
            return out;
        }
        // Per-call RNG: the atomic sequence keeps concurrent callers on
        // distinct streams without any shared mutable generator.
        let draw = self.sample_seq.fetch_add(1, Ordering::Relaxed);
        let mut rng =
            TensorRng::seeded((self.cfg.seed ^ 0xDA7A).wrapping_add(draw.wrapping_mul(0x9E37)));
        let weights: Vec<f32> = pdf.iter().map(|&p| p as f32).collect();
        'draws: for _ in 0..count {
            let cluster = rng.next_weighted(&weights);
            let ids = &index.members[cluster];
            let pick = if ids.is_empty() {
                index.all_ids[rng.next_index(index.all_ids.len())]
            } else {
                ids[rng.next_index(ids.len())]
            };
            if let Some(doc) = self.store.get(pick) {
                out.push(doc);
                continue;
            }
            // The drawn id vanished (a delete raced this lookup against the
            // revision-keyed index): backfill from the global pool so a
            // non-empty store always serves the requested count. A few
            // redraws first; if the pool is badly decayed, a deterministic
            // wrap-around scan from a random start finds any survivor.
            let mut filled = false;
            for _ in 0..8 {
                let cand = index.all_ids[rng.next_index(index.all_ids.len())];
                if let Some(doc) = self.store.get(cand) {
                    out.push(doc);
                    filled = true;
                    break;
                }
            }
            if filled {
                continue;
            }
            let start = rng.next_index(index.all_ids.len());
            for off in 0..index.all_ids.len() {
                let cand = index.all_ids[(start + off) % index.all_ids.len()];
                if let Some(doc) = self.store.get(cand) {
                    out.push(doc);
                    continue 'draws;
                }
            }
            // Every indexed id is gone: the store emptied mid-call.
            break;
        }
        out
    }

    /// Pseudo-labels a dataset (§III-E): for each sample, the nearest
    /// stored embedding within its cluster is consulted; when closer than
    /// `threshold` its label is reused, otherwise `fallback` computes one.
    /// Returns the label matrix plus reuse statistics.
    ///
    /// The nearest-neighbor search runs in parallel over samples (the
    /// store supports parallel reads); only the fallback labeler runs
    /// sequentially, since it is an arbitrary `FnMut`.
    pub fn pseudo_label(
        &self,
        images: &Tensor,
        threshold: f32,
        mut fallback: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> (Tensor, PseudoLabelStats) {
        let n = images.shape()[0];
        let nearest = self.nearest_labels_parallel(images);
        let mut stats = PseudoLabelStats::default();
        let mut labels: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (i, candidate) in nearest.into_iter().enumerate() {
            match candidate {
                Some((dist, label)) if dist < threshold => {
                    stats.reused += 1;
                    labels.push(label);
                }
                _ => {
                    stats.computed += 1;
                    labels.push(fallback(images.row(i)));
                }
            }
        }
        let width = labels.first().map(|l| l.len()).unwrap_or(0);
        assert!(
            labels.iter().all(|l| l.len() == width),
            "fallback produced inconsistent label widths"
        );
        let flat: Vec<f32> = labels.into_iter().flatten().collect();
        (Tensor::from_vec(flat, &[n, width]), stats)
    }

    /// Parallel per-sample nearest-stored-label search: `(distance, label)`
    /// for each input row, `None` when its cluster holds no labeled docs.
    ///
    /// Served entirely from the embedding index, routed through the IVF
    /// read path — no per-sample `find_by` queries and no per-candidate
    /// document decoding.
    fn nearest_labels_parallel(&self, images: &Tensor) -> Vec<Option<(f32, Vec<f32>)>> {
        let z = self.embed_cached(images);
        let index = self.embedding_index();
        self.routed_nearest(&z, &index, true)
            .into_iter()
            .map(|hit| {
                let (dist, ball, row) = hit?;
                Some((dist, ball.labels[row].as_ref()?.to_vec()))
            })
            .collect()
    }

    /// For each input sample, the nearest stored document in its cluster
    /// together with the embedding distance — the §III-E `BO` construction
    /// uses the *stored* `{p, l(p)}` pair when the distance is below the
    /// threshold. Routed through the IVF read path; only the winning
    /// document is decoded.
    pub fn nearest_labeled(&self, images: &Tensor) -> Vec<Option<(f32, Document)>> {
        let z = self.embed_cached(images);
        let index = self.embedding_index();
        self.routed_nearest(&z, &index, false)
            .into_iter()
            .map(|hit| {
                let (dist, ball, row) = hit?;
                let doc = self.store.get(ball.ids[row])?;
                Some((dist, doc))
            })
            .collect()
    }

    /// The shared nearest-row search behind [`SystemSnapshot::pseudo_label`]
    /// and [`SystemSnapshot::nearest_labeled`]: routes the whole batch with
    /// one GEMM-batched `predict`, groups queries by routed cluster, and
    /// searches each cluster group through the ball-pruned, GEMM-batched
    /// read index. Returns `(distance, block, row in block)` per query.
    ///
    /// **Exactness contract:** results — distance bits *and* winner row —
    /// are identical to the brute per-cluster scan ([`IndexBall::nearest`]
    /// over the cluster's rows in ascending id order). GEMM distances only ever *pre-select*: every candidate
    /// within [`normed_margin`] of the best GEMM distance is re-evaluated
    /// with the scalar `sq_dist(..).sqrt()` the brute scan uses, in
    /// ascending id order with the same strict-`<` tie rule, and ball
    /// pruning discards a ball only when its triangle-inequality lower
    /// bound (slack-deflated) exceeds a slack-inflated upper bound some
    /// probed stored row is proven to realize.
    fn routed_nearest<'a>(
        &self,
        z: &Tensor,
        index: &'a EmbeddingIndex,
        labeled_only: bool,
    ) -> Vec<Option<(f32, &'a IndexBall, usize)>> {
        let n = z.shape()[0];
        if n == 0 {
            return Vec::new();
        }
        let routed = self.kmeans.predict(z);
        // Every query's search of the cluster it routes to. Queries (and
        // query groups) are independent, so the hits are the same either
        // side of the gate.
        let dim = z.shape()[1];
        let work: usize = routed
            .iter()
            .map(|&c| index.clusters[c].search_work(dim))
            .sum();
        if !self.cfg.read_index.enabled {
            // Brute reference path (the pre-index read plane): per-row
            // linear scan of the routed cluster's cached embeddings, which
            // an index built with routing off keeps in one block.
            let scan = |i: usize| {
                let block = index.clusters[routed[i]].balls.first()?;
                let (d, row) = block.nearest(z.row(i), labeled_only)?;
                Some((d, &**block, row))
            };
            return if work >= PAR_MIN_WORK {
                (0..n).into_par_iter().map(scan).collect()
            } else {
                (0..n).map(scan).collect()
            };
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); index.clusters.len()];
        for (i, &c) in routed.iter().enumerate() {
            groups[c].push(i);
        }
        let touched: Vec<(usize, Vec<usize>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, qs)| !qs.is_empty())
            .collect();
        let search = |g: &(usize, Vec<usize>)| {
            let hits = self.search_cluster(&index.clusters[g.0], &g.1, z, labeled_only);
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
                out[q] = hit.map(|(d, ball, row)| (d, &*index.clusters[c].balls[ball], row));
            }
        }
        out
    }

    /// Searches one cluster for one query group (see
    /// [`SystemSnapshot::routed_nearest`] for the exactness argument).
    fn search_cluster(
        &self,
        cl: &ClusterEmbeddings,
        qs: &[usize],
        z: &Tensor,
        labeled_only: bool,
    ) -> GroupHits {
        if qs.is_empty() {
            return Vec::new();
        }
        if cl.rows == 0 {
            self.read_stats.record(qs.len() as u64, 0, 0);
            return qs.iter().map(|&q| (q, None)).collect();
        }
        // Small cluster (no ball partition): the brute scan *is* the read
        // path; every row is a scanned candidate.
        if !cl.is_partitioned() {
            self.read_stats
                .record(qs.len() as u64, 0, (qs.len() * cl.rows) as u64);
            return qs
                .iter()
                .map(|&q| {
                    let hit = cl.balls[0].nearest(z.row(q), labeled_only);
                    (q, hit.map(|(d, row)| (d, 0, row)))
                })
                .collect();
        }
        let d = z.shape()[1];
        let m = qs.len();
        let mut qdata = Vec::with_capacity(m * d);
        for &q in qs {
            qdata.extend_from_slice(z.row(q));
        }
        let qnorms = row_sq_norms(&qdata, d);
        // Level-2 routing: one GEMM of the query group against the ball
        // centers, then per-query triangle-inequality pruning.
        let nb = cl.balls.len();
        let mut bd = vec![0.0f32; m * nb];
        sq_dist_into(
            m,
            d,
            nb,
            &qdata,
            &cl.ball_centers,
            &qnorms,
            &cl.ball_center_norms,
            &mut bd,
            Threading::Auto,
        );
        // Probe stage: each query's closest eligible ball (by center
        // distance) is evaluated first, via one GEMM over the union of
        // probe balls. The best margin-inflated squared distance among a
        // probe ball's eligible rows upper-bounds the winner's true
        // distance with a *realized* point distance — far tighter than
        // any center-plus-radius bound, which in high dimensions barely
        // prunes (ball radii rival inter-point distances).
        let mut probe_ball: Vec<usize> = Vec::with_capacity(m);
        for drow in bd.chunks_exact(nb) {
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            for (j, ball) in cl.balls.iter().enumerate() {
                if labeled_only && !ball.labeled {
                    continue;
                }
                if best == usize::MAX || drow[j] < best_d {
                    best = j;
                    best_d = drow[j];
                }
            }
            probe_ball.push(best);
        }
        // Per-ball GEMM batching over each ball's own dense block: queries
        // needing the same ball are evaluated as one GEMM against it. The alternative — one GEMM over the
        // *union* of surviving rows across the query group — makes every
        // query pay for every other query's survivors (m × union work,
        // quadratic in group size); per-ball subgrouping does exactly the
        // distances some query needs, with no per-row gather at all.
        let ball_dists = |j: usize, qi: &[u32]| -> Vec<f32> {
            let ball = &cl.balls[j];
            let len = ball.len();
            let mut sub_q = Vec::with_capacity(qi.len() * d);
            let mut sub_n = Vec::with_capacity(qi.len());
            for &i in qi {
                let i = i as usize;
                sub_q.extend_from_slice(&qdata[i * d..(i + 1) * d]);
                sub_n.push(qnorms[i]);
            }
            let mut dd = vec![0.0f32; qi.len() * len];
            sq_dist_into(
                qi.len(),
                d,
                len,
                &sub_q,
                &ball.emb,
                &sub_n,
                &ball.norms,
                &mut dd,
                Threading::Auto,
            );
            dd
        };
        let mut probe_queries: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (i, &j) in probe_ball.iter().enumerate() {
            if j != usize::MAX {
                probe_queries[j].push(i as u32);
            }
        }
        // Upper bound on each query's winner distance, anchored to its
        // probe ball: `gd + margin ≥ exact d²` by the GEMM error
        // contract, so the sqrt of the best such value is a distance some
        // eligible stored row provably realizes (slack-inflated for the
        // f32 sqrt). The winner — and any exact tie — sits at or below
        // it, so a ball whose slack-deflated lower bound exceeds it
        // cannot contain either.
        let mut bound = vec![f32::NEG_INFINITY; m];
        for (j, qi) in probe_queries.iter().enumerate() {
            if qi.is_empty() {
                continue;
            }
            let pd = ball_dists(j, qi);
            let ball = &cl.balls[j];
            let len = ball.len();
            for (a, &iq) in qi.iter().enumerate() {
                let i = iq as usize;
                let qn = qnorms[i];
                let mut cut = f32::INFINITY;
                for t in 0..len {
                    if labeled_only && ball.labels[t].is_none() {
                        continue;
                    }
                    cut = cut.min(pd[a * len + t] + normed_margin(qn, ball.norms[t]));
                }
                if cut < f32::INFINITY {
                    bound[i] = cut.max(0.0).sqrt() * (1.0 + PRUNE_SLACK);
                }
            }
        }
        // Triangle-inequality pass: per query, a ball survives when its
        // slack-deflated lower bound does not clear the probe-anchored
        // upper bound. Survivors are recorded ball-major, feeding the
        // per-ball GEMM batches below.
        let mut surv_queries: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut pruned_total = 0u64;
        for (i, drow) in bd.chunks_exact(nb).enumerate() {
            let qn = qnorms[i];
            let mut eligible = 0usize;
            let mut kept = 0usize;
            for (j, ball) in cl.balls.iter().enumerate() {
                if labeled_only && !ball.labeled {
                    continue;
                }
                eligible += 1;
                let margin = normed_margin(qn, cl.ball_center_norms[j]);
                let lb = ((drow[j] - margin).max(0.0).sqrt() - ball.radius).max(0.0)
                    * (1.0 - PRUNE_SLACK);
                if lb <= bound[i] {
                    surv_queries[j].push(i as u32);
                    kept += 1;
                }
            }
            pruned_total += (eligible - kept) as u64;
        }
        // cutoff = min over a query's surviving rows of (GEMM dist +
        // margin): an upper bound on the exact squared distance of the
        // true winner, so every row whose GEMM interval reaches it — the
        // winner and all its ties included — survives to the exact pass.
        let mut cutoff = vec![f32::INFINITY; m];
        let mut surv_dist: Vec<Vec<f32>> = vec![Vec::new(); nb];
        for (j, qi) in surv_queries.iter().enumerate() {
            if qi.is_empty() {
                continue;
            }
            let dd = ball_dists(j, qi);
            let ball = &cl.balls[j];
            let len = ball.len();
            for (a, &iq) in qi.iter().enumerate() {
                let i = iq as usize;
                let qn = qnorms[i];
                for t in 0..len {
                    if labeled_only && ball.labels[t].is_none() {
                        continue;
                    }
                    cutoff[i] = cutoff[i].min(dd[a * len + t] + normed_margin(qn, ball.norms[t]));
                }
            }
            surv_dist[j] = dd;
        }
        // Candidates carry their document id first: rows are ascending by id
        // within a cluster, so sorting candidates is the brute scan's order.
        let mut cands: Vec<Vec<(DocId, usize, usize)>> = vec![Vec::new(); m];
        for (j, qi) in surv_queries.iter().enumerate() {
            let dd = &surv_dist[j];
            let ball = &cl.balls[j];
            let len = ball.len();
            for (a, &iq) in qi.iter().enumerate() {
                let i = iq as usize;
                if cutoff[i] == f32::INFINITY {
                    continue;
                }
                let qn = qnorms[i];
                for t in 0..len {
                    if labeled_only && ball.labels[t].is_none() {
                        continue;
                    }
                    if dd[a * len + t] - normed_margin(qn, ball.norms[t]) <= cutoff[i] {
                        cands[i].push((ball.ids[t], j, t));
                    }
                }
            }
        }
        // Exact refine, in the brute scan's ascending-id order with its
        // strict-`<` rule: bit-identical winner and bits.
        let mut scanned_total = 0u64;
        let out = qs
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                if cutoff[i] == f32::INFINITY {
                    return (q, None);
                }
                let c = &mut cands[i];
                c.sort_unstable();
                scanned_total += c.len() as u64;
                let zrow = z.row(q);
                let mut best: Option<(f32, usize, usize)> = None;
                for &(_, j, t) in c.iter() {
                    let dist_e = sq_dist(zrow, &cl.balls[j].emb[t * d..(t + 1) * d]).sqrt();
                    if best.map(|(bd, _, _)| dist_e < bd).unwrap_or(true) {
                        best = Some((dist_e, j, t));
                    }
                }
                (q, best)
            })
            .collect();
        self.read_stats
            .record(m as u64, pruned_total, scanned_total);
        out
    }

    /// The routed-read statistics shared across this service's snapshots.
    pub fn read_index_counters(&self) -> &Arc<ReadIndexCounters> {
        &self.read_stats
    }

    /// Fuzzy-clustering certainty of a dataset under this snapshot's
    /// system models (the Fig 16 metric), using the snapshot's configured
    /// confidence and fuzzifier.
    pub fn certainty(&self, images: &Tensor) -> f64 {
        self.certainty_with(images, self.cfg.confidence, self.cfg.fuzzifier)
    }

    /// [`SystemSnapshot::certainty`] with explicit monitor parameters.
    pub fn certainty_with(&self, images: &Tensor, confidence: f32, fuzzifier: f32) -> f64 {
        let z = self.embed_cached(images);
        fuzzy::certainty_with_fuzzifier(&z, &self.kmeans, confidence, fuzzifier)
    }

    /// Whether the staleness monitor demands a system-plane retrain
    /// (certainty below the snapshot's configured threshold).
    pub fn needs_system_update(&self, images: &Tensor) -> bool {
        self.certainty(images) < self.cfg.certainty_threshold
    }
}

/// Cluster-count selection shared by bootstrap training and background
/// retrains: the configured K (clamped to the sample count) or an elbow
/// sweep.
fn select_k(cfg: &FairDsConfig, z: &Tensor) -> usize {
    match cfg.k {
        Some(k) => k.min(z.shape()[0]),
        None => {
            let (lo, hi) = cfg.k_range;
            let hi = hi.min(z.shape()[0]);
            elbow::select_k(z, lo.min(hi), hi, cfg.seed).best_k
        }
    }
}

/// The immutable input snapshot of one system-plane retrain, captured by
/// [`FairDS::prepare_retrain`] on the mutation actor and handed to a
/// background training executor. Owns a private embedder copy, so the
/// heavy [`RetrainJob::train`] step touches no live service state at all.
pub struct RetrainJob {
    all: Tensor,
    /// Ids of the store documents whose pixels form the first
    /// `captured.len()` rows of `all` (the fresh trigger batch follows).
    /// Shipped through [`RetrainedSystem`] so installation can write the
    /// job's embeddings back by id instead of re-embedding the store.
    captured: Vec<DocId>,
    embedder: Box<dyn Embedder>,
    cfg: FairDsConfig,
    system_version: Option<u64>,
}

impl RetrainJob {
    /// Number of samples (store + fresh batch) the retrain will fit on.
    pub fn sample_count(&self) -> usize {
        self.all.shape()[0]
    }

    /// Number of store documents captured into the training matrix (their
    /// embeddings ship back with the result and install as pure copies).
    pub fn captured_docs(&self) -> usize {
        self.captured.len()
    }

    /// Version of the system plane this job was prepared against (`None`
    /// when the plane was untrained — a retrain may bootstrap it, exactly
    /// like the synchronous [`FairDS::retrain_system`] always could).
    pub fn trained_from_version(&self) -> Option<u64> {
        self.system_version
    }

    /// The heavy retrain half (executor side): fits the embedder
    /// (cancellable at epoch boundaries through `ctl`) and the clustering
    /// on the captured matrix. Returns `None` when the job was cancelled —
    /// partially-trained weights are dropped, nothing is published.
    ///
    /// The embedding matrix and cluster assignments the fit produces are
    /// **kept** and shipped back with the result (keyed by the captured
    /// [`DocId`]s), so [`FairDS::install_retrained`] never has to repeat
    /// the full-store forward pass on the mutation actor.
    pub fn train(
        mut self,
        embed_cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> Option<RetrainedSystem> {
        assert!(
            self.all.shape()[0] >= 4,
            "need at least a handful of samples"
        );
        if !self.embedder.fit_controlled(&self.all, embed_cfg, ctl) {
            return None;
        }
        let z = self.embedder.embed(&self.all);
        let k = select_k(&self.cfg, &z);
        // One more boundary check: K-means on a large matrix is the other
        // non-trivial chunk of work, and a superseded job should not pay
        // for it.
        if ctl.is_cancelled() {
            return None;
        }
        let mut km_cfg = KMeansConfig::new(k);
        km_cfg.seed = self.cfg.seed;
        let kmeans = KMeans::fit(&z, &km_cfg);
        // Assignments are O(n·k·d) — trivial next to the epoch loop, and
        // computing them here (on the executor) is precisely what makes
        // installation a pure write-back on the actor.
        let clusters = kmeans.predict(&z);
        Some(RetrainedSystem {
            embedder: self.embedder,
            kmeans,
            k,
            system_version: self.system_version,
            captured: self.captured,
            pixels: self.all,
            embeddings: z,
            clusters,
        })
    }
}

/// A completed off-thread retrain, ready for
/// [`FairDS::install_retrained`].
///
/// Besides the fitted models it carries everything the training job
/// already computed over the captured store — the embedding matrix, the
/// cluster assignments, and the captured pixel rows — keyed by the
/// [`DocId`]s [`FairDS::prepare_retrain`] recorded. Installation copies
/// these into the store documents instead of re-running the embedder.
pub struct RetrainedSystem {
    embedder: Box<dyn Embedder>,
    kmeans: KMeans,
    k: usize,
    system_version: Option<u64>,
    /// Row-parallel to the first `captured.len()` rows of `pixels`,
    /// `embeddings` and `clusters`; the fresh trigger batch follows.
    captured: Vec<DocId>,
    pixels: Tensor,
    embeddings: Tensor,
    clusters: Vec<usize>,
}

impl RetrainedSystem {
    /// The fitted cluster count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Version of the system plane the job trained from (`None` ⇒ it
    /// bootstrapped an untrained plane). A live plane whose version has
    /// moved past this means the result is stale and must not be
    /// installed.
    pub fn trained_from_version(&self) -> Option<u64> {
        self.system_version
    }

    /// Number of store documents whose embeddings ship with this result
    /// (and therefore install as a pure copy).
    pub fn captured_docs(&self) -> usize {
        self.captured.len()
    }
}

/// What one [`FairDS::install_retrained`] did, for metrics and assertions:
/// the split between O(copy) write-backs and the mid-flight delta that
/// genuinely had to pay a fresh embed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetrainInstall {
    /// The fitted cluster count of the installed plane.
    pub k: usize,
    /// Captured documents whose embedding/cluster was written back from
    /// the job's shipped matrix — zero forward passes.
    pub copied: usize,
    /// Documents ingested mid-flight (present in the store, absent from
    /// the captured set) that were freshly embedded in one delta batch.
    pub delta_embedded: usize,
}

/// The FAIR data service builder: owns the trainable models, publishes
/// immutable [`SystemSnapshot`]s.
pub struct FairDS {
    embedder: Box<dyn Embedder>,
    current: Option<Arc<SystemSnapshot>>,
    store: Arc<Collection>,
    cfg: FairDsConfig,
    versions_published: u64,
    /// The data-reuse plane's memo table, shared into every published
    /// snapshot. Publication advances its generation fence, atomically
    /// invalidating entries computed under the replaced embedder.
    reuse: Arc<EmbedCache>,
    /// Routed-read statistics, shared into every published snapshot so
    /// counters survive snapshot turnover.
    read_stats: Arc<ReadIndexCounters>,
}

impl FairDS {
    /// Creates a fairDS over an embedding method and a backing collection.
    /// The collection gets a `cluster` index (the paper's "building data
    /// indexes as data are written").
    pub fn new(embedder: Box<dyn Embedder>, store: Arc<Collection>, cfg: FairDsConfig) -> Self {
        store.create_index("cluster");
        let reuse = Arc::new(EmbedCache::new(cfg.embed_cache));
        FairDS {
            embedder,
            current: None,
            store,
            cfg,
            versions_published: 0,
            reuse,
            read_stats: Arc::new(ReadIndexCounters::default()),
        }
    }

    /// Convenience: a fairDS over a fresh in-memory raw-codec collection.
    pub fn in_memory(embedder: Box<dyn Embedder>, cfg: FairDsConfig) -> Self {
        let store = Arc::new(Collection::new("fairds", Arc::new(RawCodec)));
        Self::new(embedder, store, cfg)
    }

    /// The backing collection.
    pub fn store(&self) -> &Arc<Collection> {
        &self.store
    }

    /// The service configuration.
    pub fn config(&self) -> &FairDsConfig {
        &self.cfg
    }

    /// Mutable access to the configuration — deployments calibrate the
    /// certainty threshold against a measured baseline (absolute fuzzy
    /// certainty depends on K and the embedding geometry, so a fixed
    /// constant does not transfer across workloads). Monitor-parameter
    /// changes take effect immediately on the builder's own reads;
    /// already-published snapshots keep the configuration they were
    /// trained under until the next publication.
    pub fn config_mut(&mut self) -> &mut FairDsConfig {
        &mut self.cfg
    }

    /// The embedding-reuse cache shared into every published snapshot.
    pub fn embed_cache(&self) -> &Arc<EmbedCache> {
        &self.reuse
    }

    /// Flattened input width the builder's embedder expects. Available
    /// before training (the architecture fixes it at construction), so
    /// admission layers can reject mismatched batches instead of letting
    /// them panic deep inside a forward pass.
    pub fn input_dim(&self) -> usize {
        self.embedder.input_dim()
    }

    /// Replaces the embedding-reuse cache with a fresh one of the given
    /// sizing (deployment knob — e.g. the service config's
    /// `embed_cache_capacity`/`embed_cache_shards`). The already-published
    /// snapshot, if any, is re-issued over the new cache so readers start
    /// using it immediately; its version (and thus the generation fence)
    /// is unchanged.
    pub fn configure_embed_cache(&mut self, cache_cfg: EmbedCacheConfig) {
        self.cfg.embed_cache = cache_cfg;
        self.reuse = Arc::new(EmbedCache::new(cache_cfg));
        if let Some(old) = self.current.as_ref() {
            self.reuse.advance_generation(old.version);
            self.current = Some(Arc::new(SystemSnapshot::assemble(
                Arc::clone(&old.embedder),
                Arc::clone(&old.kmeans),
                Arc::clone(&old.store),
                old.cfg.clone(),
                old.version,
                Arc::clone(&self.reuse),
                Arc::clone(&self.read_stats),
            )));
        }
    }

    /// Replaces the read-index layout (deployment knob — ball sizing, or
    /// disabling routing entirely to fall back to the brute per-cluster
    /// scan). The already-published snapshot, if any, is re-issued under
    /// the new layout so readers pick it up immediately; its version and
    /// models are unchanged, and the next nearest-neighbour read rebuilds
    /// the index caches under the new configuration.
    pub fn configure_read_index(&mut self, ri: ReadIndexConfig) {
        self.cfg.read_index = ri;
        if let Some(old) = self.current.as_ref() {
            let mut cfg = old.cfg.clone();
            cfg.read_index = ri;
            self.current = Some(Arc::new(SystemSnapshot::assemble(
                Arc::clone(&old.embedder),
                Arc::clone(&old.kmeans),
                Arc::clone(&old.store),
                cfg,
                old.version,
                Arc::clone(&self.reuse),
                Arc::clone(&self.read_stats),
            )));
        }
    }

    /// The routed-read statistics shared into every published snapshot.
    pub fn read_index_counters(&self) -> &Arc<ReadIndexCounters> {
        &self.read_stats
    }

    /// The currently-published snapshot, if the system plane is trained.
    pub fn snapshot(&self) -> Option<Arc<SystemSnapshot>> {
        self.current.clone()
    }

    /// The number of clusters currently fitted (0 before training).
    pub fn k(&self) -> usize {
        self.current.as_ref().map(|s| s.k()).unwrap_or(0)
    }

    /// Whether the system plane has been trained.
    pub fn is_ready(&self) -> bool {
        self.current.is_some()
    }

    fn ready(&self, op: &str) -> &Arc<SystemSnapshot> {
        self.current
            .as_ref()
            .unwrap_or_else(|| panic!("{op} before system training"))
    }

    /// Freezes the just-fitted models into a new published snapshot. The
    /// membership index is seeded eagerly (publication-time, one batched
    /// index read) so the first post-publication lookup pays nothing; the
    /// embedding cache fills on first nearest-neighbour use.
    fn publish(&mut self, kmeans: KMeans) {
        let version = self.versions_published;
        self.versions_published += 1;
        // The publication fence: from this line on, probes against older
        // generations miss (stale) and inserts from superseded snapshots
        // are dropped — a retrain can never serve a pre-publication
        // embedding. Ordered *before* the snapshot swap so no reader ever
        // holds the new snapshot while the cache still accepts old-
        // generation inserts.
        self.reuse.advance_generation(version);
        let snap = Arc::new(SystemSnapshot::assemble(
            Arc::from(self.embedder.clone_embedder()),
            Arc::new(kmeans),
            Arc::clone(&self.store),
            self.cfg.clone(),
            version,
            Arc::clone(&self.reuse),
            Arc::clone(&self.read_stats),
        ));
        let _ = snap.membership_index();
        self.current = Some(snap);
    }

    /// System-plane training (Fig 5, yellow): fits the embedding model on
    /// historical images, then the clustering model on their embeddings,
    /// then publishes a fresh snapshot. Returns the selected K.
    pub fn train_system(&mut self, images: &Tensor, embed_cfg: &EmbedTrainConfig) -> usize {
        assert!(images.shape()[0] >= 4, "need at least a handful of samples");
        assert_eq!(
            images.shape()[1],
            self.embedder.input_dim(),
            "training batch width {} does not match the embedder's input dim {}",
            images.shape()[1],
            self.embedder.input_dim()
        );
        self.embedder.fit(images, embed_cfg);
        let z = self.embedder.embed(images);
        let k = select_k(&self.cfg, &z);
        let mut km_cfg = KMeansConfig::new(k);
        km_cfg.seed = self.cfg.seed;
        self.publish(KMeans::fit(&z, &km_cfg));
        k
    }

    /// Re-fits embedding + clustering on the full historical store plus
    /// `fresh` images (the uncertainty-triggered system update of Fig 16),
    /// publishing a new snapshot before re-indexing the store under it.
    ///
    /// This is the synchronous composition of the retrain halves — see
    /// [`FairDS::prepare_retrain`] / [`RetrainJob::train`] /
    /// [`FairDS::install_retrained`] for the split a background training
    /// executor uses to keep the heavy middle step off the mutation actor.
    pub fn retrain_system(&mut self, fresh: &Tensor, embed_cfg: &EmbedTrainConfig) -> usize {
        let trained = self
            .prepare_retrain(fresh)
            .train(embed_cfg, &TrainControl::new())
            .expect("uncancelled retrain always completes");
        self.install_retrained(trained).k
    }

    /// First retrain half (actor side, O(store bytes) copy, no training):
    /// captures everything a system-plane retrain needs — the training
    /// matrix (full historical store + the fresh trigger batch), the
    /// [`DocId`] of every captured row (the installation write-back key),
    /// a deep copy of the embedder to fit, the configuration, and the
    /// version of the plane the job trains *from* (the staleness fence).
    ///
    /// The fresh batch must match the embedder's input width — a
    /// mismatched batch would otherwise shear every subsequent row of the
    /// flattened training matrix, silently corrupting the whole fit.
    pub fn prepare_retrain(&self, fresh: &Tensor) -> RetrainJob {
        let dim = self.embedder.input_dim();
        assert!(
            fresh.rank() == 2 && fresh.shape()[1] == dim,
            "fresh batch shape {:?} does not match the embedder's input dim {dim}",
            fresh.shape()
        );
        let system_version = self.current.as_ref().map(|s| s.version());
        let mut rows: Vec<f32> = Vec::new();
        let mut captured: Vec<DocId> = Vec::new();
        for id in self.store.ids() {
            if let Some(doc) = self.store.get(id) {
                if let Some(pixels) = doc.get_f32s("pixels") {
                    if pixels.len() == dim {
                        rows.extend_from_slice(pixels);
                        captured.push(id);
                    }
                }
            }
        }
        rows.extend_from_slice(fresh.data());
        let n = rows.len() / dim;
        RetrainJob {
            all: Tensor::from_vec(rows, &[n, dim]),
            captured,
            embedder: self.embedder.clone_embedder(),
            cfg: self.cfg.clone(),
            system_version,
        }
    }

    /// Last retrain half (actor side, **O(copy)**): installs the
    /// off-thread training result without repeating any captured forward
    /// pass —
    ///
    /// 1. the freshly fitted embedder replaces the builder's and the
    ///    clustering is published as a new snapshot;
    /// 2. the job's shipped embeddings and cluster assignments are
    ///    *written back* into the captured store documents by [`DocId`]
    ///    (pure copies — the training job already embedded every captured
    ///    row when it fit the clustering);
    /// 3. the new [`EmbedCache`] generation is bulk-warmed with the
    ///    shipped rows, so the post-retrain read burst starts hot;
    /// 4. only documents ingested *mid-flight* (present in the store but
    ///    absent from the captured set) pay a fresh embed, in one delta
    ///    batch ([`FairDS::reindex_ids`]).
    ///
    /// The caller is responsible for fencing: compare
    /// [`RetrainedSystem::trained_from_version`] against the live
    /// [`SystemSnapshot::version`] and *discard* results trained from a
    /// plane that has since been replaced.
    pub fn install_retrained(&mut self, trained: RetrainedSystem) -> RetrainInstall {
        let RetrainedSystem {
            embedder,
            kmeans,
            k,
            system_version: _,
            captured,
            pixels,
            embeddings,
            clusters,
        } = trained;
        self.embedder = embedder;
        // Write-back first: the publication below seeds the membership
        // index eagerly, and it should see the re-clustered store, not the
        // about-to-be-overwritten assignments of the replaced plane.
        let mut copied = 0usize;
        let mut written: std::collections::HashSet<DocId> =
            std::collections::HashSet::with_capacity(captured.len());
        for (row, &id) in captured.iter().enumerate() {
            let Some(mut doc) = self.store.get(id) else {
                continue; // deleted mid-flight
            };
            doc.set("embedding", embeddings.row(row).to_vec());
            doc.set("cluster", clusters[row] as i64);
            if self.store.update(id, &doc) {
                copied += 1;
                written.insert(id);
            }
        }
        self.publish(kmeans);
        // Warm the new generation with every shipped row (captured store
        // docs *and* the fresh trigger batch — both are inputs the read
        // plane is likely to see again): hashes + memo inserts only, no
        // forward pass.
        if self.reuse.is_enabled() {
            let generation = self.current.as_ref().map(|s| s.version()).unwrap_or(0);
            let hashes = row_hashes(&pixels);
            self.reuse.warm_insert(
                generation,
                (0..pixels.shape()[0]).map(|i| (hashes[i], pixels.row(i), embeddings.row(i))),
            );
        }
        // Delta reindex: only docs the job never saw pay a forward pass.
        let delta: Vec<DocId> = self
            .store
            .ids()
            .into_iter()
            .filter(|id| !written.contains(id))
            .collect();
        let delta_embedded = self.reindex_ids(&delta);
        RetrainInstall {
            k,
            copied,
            delta_embedded,
        }
    }

    /// Recomputes embeddings and cluster assignments of every stored
    /// document under the currently-published system models (the *full*
    /// reindex; [`FairDS::reindex_ids`] is the delta variant).
    pub fn reindex(&mut self) {
        let ids = self.store.ids();
        self.reindex_ids(&ids);
    }

    /// Recomputes embeddings and cluster assignments of the given
    /// documents under the currently-published system models, skipping
    /// ids that are missing or whose pixel width does not match the
    /// embedder. Returns the number of documents re-embedded.
    ///
    /// Batched: all re-indexable pixel rows are gathered into one matrix
    /// and embedded with a single `embed` call (one forward pass over
    /// `[N, D]`), instead of N single-row tensors through the network.
    pub fn reindex_ids(&mut self, ids: &[DocId]) -> usize {
        let snap = Arc::clone(self.ready("reindex"));
        let dim = snap.embedder.input_dim();
        let mut pending: Vec<(DocId, Document)> = Vec::new();
        let mut rows: Vec<f32> = Vec::new();
        for &id in ids {
            if let Some(doc) = self.store.get(id) {
                if let Some(pixels) = doc.get_f32s("pixels") {
                    if pixels.len() == dim {
                        rows.extend_from_slice(pixels);
                        pending.push((id, doc));
                    }
                }
            }
        }
        if pending.is_empty() {
            return 0;
        }
        let x = Tensor::from_vec(rows, &[pending.len(), dim]);
        // Cached path: a reindex right after a retrain also *warms* the
        // new generation with every re-embedded frame, so the first post-
        // retrain read burst starts hot.
        let z = snap.embed_cached(&x);
        let clusters = snap.kmeans.predict(&z);
        let n = pending.len();
        for (row, (id, mut doc)) in pending.into_iter().enumerate() {
            doc.set("embedding", z.row(row).to_vec());
            doc.set("cluster", clusters[row] as i64);
            self.store.update(id, &doc);
        }
        n
    }

    /// Ingests labeled samples: embeds, assigns clusters, stores documents
    /// carrying pixels, embedding, cluster id, label, and scan index. The
    /// store is internally synchronized, so published snapshots observe the
    /// new documents immediately.
    pub fn ingest_labeled(&mut self, images: &Tensor, labels: &Tensor, scan: usize) -> Vec<DocId> {
        let snap = Arc::clone(self.ready("ingest"));
        assert_eq!(images.shape()[0], labels.shape()[0], "image/label mismatch");
        let z = snap.embed_cached(images);
        let label_w = labels.row_size();
        // One GEMM-batched routing pass for the whole batch — bit-identical
        // to the per-row centroid scan (`predict` refines every near-tie
        // with the exact scalar distance).
        let clusters = snap.kmeans.predict(&z);
        let docs: Vec<Document> = clusters
            .iter()
            .enumerate()
            .map(|(i, &cluster)| {
                Document::new()
                    .with("pixels", images.row(i).to_vec())
                    .with("embedding", z.row(i).to_vec())
                    .with("cluster", cluster as i64)
                    .with("scan", scan as i64)
                    .with(
                        "label",
                        labels.data()[i * label_w..(i + 1) * label_w].to_vec(),
                    )
            })
            .collect();
        // One batch: readers see none or all of it, and refresh their
        // indexes once.
        self.store.insert_many(&docs)
    }

    /// Embeds a dataset and returns its per-sample cluster assignments.
    pub fn assign(&self, images: &Tensor) -> Vec<usize> {
        self.ready("assign").assign(images)
    }

    /// The cluster-occupancy PDF of a dataset (delegates to the snapshot).
    pub fn dataset_pdf(&self, images: &Tensor) -> Vec<f64> {
        self.ready("dataset_pdf").dataset_pdf(images)
    }

    /// PDF-matched retrieval (delegates to the snapshot).
    pub fn lookup_matching(&self, pdf: &[f64], count: usize) -> Vec<Document> {
        self.ready("lookup").lookup_matching(pdf, count)
    }

    /// Pseudo-labels a dataset (delegates to the snapshot).
    pub fn pseudo_label(
        &self,
        images: &Tensor,
        threshold: f32,
        fallback: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> (Tensor, PseudoLabelStats) {
        self.ready("lookup")
            .pseudo_label(images, threshold, fallback)
    }

    /// Nearest labeled documents (delegates to the snapshot).
    pub fn nearest_labeled(&self, images: &Tensor) -> Vec<Option<(f32, Document)>> {
        self.ready("nearest_labeled").nearest_labeled(images)
    }

    /// Fuzzy-clustering certainty of a dataset under the current system
    /// models (the Fig 16 metric), using the builder's *live*
    /// configuration so threshold calibration applies without republishing.
    pub fn certainty(&self, images: &Tensor) -> f64 {
        self.ready("certainty")
            .certainty_with(images, self.cfg.confidence, self.cfg.fuzzifier)
    }

    /// Whether the staleness monitor demands a system-plane retrain
    /// (certainty below the configured threshold).
    pub fn needs_system_update(&self, images: &Tensor) -> bool {
        self.certainty(images) < self.cfg.certainty_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::AutoencoderEmbedder;

    const SIDE: usize = 8;

    /// Images of bright blobs at `n_modes` distinct locations.
    fn blob_images(per_mode: usize, n_modes: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seeded(seed);
        let centers = [(2.0f32, 2.0f32), (5.0, 5.0), (2.0, 5.0), (5.0, 2.0)];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for m in 0..n_modes {
            let (cy, cx) = centers[m % centers.len()];
            for _ in 0..per_mode {
                for y in 0..SIDE {
                    for x in 0..SIDE {
                        let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                        data.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                    }
                }
                labels.push(cx / SIDE as f32);
                labels.push(cy / SIDE as f32);
            }
        }
        (
            Tensor::from_vec(data, &[per_mode * n_modes, SIDE * SIDE]),
            Tensor::from_vec(labels, &[per_mode * n_modes, 2]),
        )
    }

    fn quick_embed_cfg() -> EmbedTrainConfig {
        EmbedTrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        }
    }

    fn fairds_with_k(k: usize) -> FairDS {
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 0);
        FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: Some(k),
                ..FairDsConfig::default()
            },
        )
    }

    #[test]
    fn train_ingest_and_pdf_roundtrip() {
        let (x, y) = blob_images(20, 2, 0);
        let mut ds = fairds_with_k(2);
        assert!(!ds.is_ready());
        let k = ds.train_system(&x, &quick_embed_cfg());
        assert_eq!(k, 2);
        assert!(ds.is_ready());
        ds.ingest_labeled(&x, &y, 0);
        assert_eq!(ds.store().len(), 40);

        let pdf = ds.dataset_pdf(&x);
        assert_eq!(pdf.len(), 2);
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Two balanced modes ⇒ roughly balanced PDF.
        assert!(pdf.iter().all(|&p| p > 0.3), "{pdf:?}");
    }

    #[test]
    fn elbow_mode_selects_a_k_in_range() {
        let (x, _) = blob_images(15, 3, 1);
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 2);
        let mut ds = FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: None,
                k_range: (2, 8),
                ..FairDsConfig::default()
            },
        );
        let k = ds.train_system(&x, &quick_embed_cfg());
        assert!((2..=8).contains(&k), "selected k={k}");
        assert_eq!(ds.k(), k);
    }

    #[test]
    fn lookup_matching_respects_the_pdf() {
        let (x, y) = blob_images(30, 2, 3);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        // Request only cluster 0.
        let docs = ds.lookup_matching(&[1.0, 0.0], 40);
        assert_eq!(docs.len(), 40);
        assert!(docs.iter().all(|d| d.get_i64("cluster") == Some(0)));
    }

    #[test]
    fn lookup_matching_backfills_ids_deleted_mid_call() {
        let (x, y) = blob_images(25, 2, 90);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let snap = ds.snapshot().unwrap();
        // Simulate the race window: a lookup holds a membership index
        // built just before concurrent deletes landed. Build the index,
        // delete a third of the store, then restore the stale index under
        // the post-delete revision so the next lookup draws dead ids.
        let idx = snap.membership_index();
        for &id in idx.all_ids.iter().step_by(3) {
            assert!(ds.store().delete(id));
        }
        let stale = Arc::new(MembershipIndex {
            revision: ds.store().revision(),
            members: idx.members.clone(),
            all_ids: idx.all_ids.clone(),
        });
        *snap.members_cache.write() = Some(stale);
        // Every draw that hits a deleted id must backfill from the pool:
        // a non-empty store always serves the full requested count.
        for _ in 0..20 {
            let docs = snap.lookup_matching(&[0.5, 0.5], 30);
            assert_eq!(docs.len(), 30, "deleted draws must be backfilled");
        }
    }

    /// The work bound of the read index, as counts: after a B-document
    /// ingest into a warm N-document index the next read decodes exactly B
    /// documents and shares every cluster and ball the batch did not land
    /// in; only a change-log overrun decodes the store again.
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
            let index_of = |snap: &SystemSnapshot| snap.emb_cache.read().clone().unwrap();

            // First read: the full build decodes the store once; a read of
            // the unchanged store decodes nothing.
            snap.nearest_labeled(&query);
            assert_eq!(counters.rows_decoded(), n as u64, "n={n}: full build");
            snap.nearest_labeled(&query);
            assert_eq!(counters.rows_decoded(), n as u64, "n={n}: warm read");
            let before = index_of(&snap);

            // The whole batch is one frame, so it lands in one ball.
            let frame = x.slice_rows(0, 1);
            let target = snap.assign(&frame)[0];
            let batch = Tensor::from_vec(frame.data().repeat(BATCH), &[BATCH, SIDE * SIDE]);
            ds.ingest_labeled(&batch, &Tensor::zeros(&[BATCH, 2]), 1);
            snap.nearest_labeled(&query);
            assert_eq!(
                counters.rows_decoded(),
                (n + BATCH) as u64,
                "n={n}: the refresh decodes exactly the batch"
            );
            let after = index_of(&snap);
            assert_eq!(after.revision, ds.store().revision());
            for (c, (b, a)) in before.clusters.iter().zip(&after.clusters).enumerate() {
                if c != target {
                    assert!(Arc::ptr_eq(b, a), "n={n}: cluster {c} was not written");
                    continue;
                }
                assert_eq!(a.rows, b.rows + BATCH);
                let min_rows = ds.config().read_index.min_cluster_rows;
                assert_eq!(a.is_partitioned(), a.rows >= min_rows, "n={n}");
                if b.is_partitioned() {
                    let shared = (a.balls.iter())
                        .filter(|ball| b.balls.iter().any(|old| Arc::ptr_eq(old, ball)))
                        .count();
                    assert_eq!(shared, b.balls.len() - 1, "n={n}: one ball took the batch");
                }
            }

            // More writes than the change log holds: the store is decoded
            // again.
            let (x, y) = blob_images(1_250, 4, 32);
            ds.ingest_labeled(&x, &y, 2);
            snap.nearest_labeled(&query);
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
        for round in 0..100 {
            let (x, y) = blob_images(4, 4, 100 + round);
            ds.ingest_labeled(&x, &y, round as usize);
            snap.nearest_labeled(&query);
        }
        let counters = ds.read_index_counters();
        assert_eq!(counters.rows_decoded(), 100 * 16, "no row decoded twice");
        let index = snap.emb_cache.read().clone().unwrap();
        let dim = snap.embedder.embed_dim();
        let leaf = 2 * snap.cfg.read_index.ball_target;
        let mut rows = 0;
        for cl in &index.clusters {
            assert!(cl.is_partitioned(), "{} rows partition", cl.rows);
            assert!(cl.balls.len() > 2, "{} rows split", cl.rows);
            assert_eq!(cl.balls.iter().map(|b| b.len()).sum::<usize>(), cl.rows);
            rows += cl.rows;
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

    #[test]
    fn lookup_with_empty_store_returns_nothing() {
        let (x, _) = blob_images(10, 2, 4);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        assert!(ds.lookup_matching(&[0.5, 0.5], 5).is_empty());
    }

    #[test]
    fn pseudo_label_reuses_history_for_similar_data() {
        let (x, y) = blob_images(25, 2, 5);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);

        // New data from the same distribution: labels mostly reused.
        let (x_new, _) = blob_images(10, 2, 6);
        let (labels, stats) = ds.pseudo_label(&x_new, 0.8, |_| vec![9.9, 9.9]);
        assert_eq!(labels.shape(), &[20, 2]);
        assert!(
            stats.reuse_fraction() > 0.8,
            "reuse fraction {} (stats {stats:?})",
            stats.reuse_fraction()
        );
        // Reused labels are plausible normalized coordinates, not 9.9.
        assert!(labels.max() <= 1.5);
    }

    #[test]
    fn pseudo_label_falls_back_when_threshold_is_tiny() {
        let (x, y) = blob_images(15, 2, 7);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let (x_new, _) = blob_images(5, 2, 8);
        let (labels, stats) = ds.pseudo_label(&x_new, 1e-9, |_| vec![7.0, 7.0]);
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.computed, 10);
        assert!(labels.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn drifted_data_triggers_system_update() {
        let (x, _) = blob_images(30, 2, 9);
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 10);
        let mut ds = FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: Some(3),
                certainty_threshold: 0.8,
                ..FairDsConfig::default()
            },
        );
        ds.train_system(&x, &quick_embed_cfg());
        let c_in = ds.certainty(&x);
        // Uniform-noise images: far from any training cluster.
        let noise = TensorRng::seeded(11).uniform(&[40, SIDE * SIDE], -1.0, 1.0);
        let c_out = ds.certainty(&noise);
        assert!(
            c_out < c_in,
            "drifted certainty {c_out} should drop below in-distribution {c_in}"
        );
    }

    #[test]
    fn reindex_keeps_index_consistent() {
        let (x, y) = blob_images(12, 2, 12);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        ds.reindex();
        // After reindex, every stored cluster id matches a fresh assignment.
        let ids = ds.store().ids();
        for id in ids {
            let doc = ds.store().get(id).unwrap();
            let pixels = doc.get_f32s("pixels").unwrap().to_vec();
            let x1 = Tensor::from_vec(pixels, &[1, SIDE * SIDE]);
            let fresh = ds.assign(&x1)[0] as i64;
            assert_eq!(doc.get_i64("cluster"), Some(fresh));
        }
    }

    #[test]
    #[should_panic(expected = "before system training")]
    fn ingest_requires_training() {
        let (x, y) = blob_images(4, 1, 13);
        let mut ds = fairds_with_k(2);
        ds.ingest_labeled(&x, &y, 0);
    }

    #[test]
    fn snapshots_are_immutable_published_views() {
        let (x, y) = blob_images(20, 2, 14);
        let mut ds = fairds_with_k(2);
        assert!(ds.snapshot().is_none());
        ds.train_system(&x, &quick_embed_cfg());
        let snap_a = ds.snapshot().expect("published after training");
        assert_eq!(snap_a.version(), 0);
        ds.ingest_labeled(&x, &y, 0);

        // Reads on the snapshot see the shared store immediately.
        assert_eq!(snap_a.lookup_matching(&[0.5, 0.5], 6).len(), 6);
        let pdf_a = snap_a.dataset_pdf(&x);

        // Retraining publishes a *new* snapshot; the old Arc still answers
        // with its frozen models.
        ds.retrain_system(&x, &quick_embed_cfg());
        let snap_b = ds.snapshot().expect("published after retraining");
        assert_eq!(snap_b.version(), 1);
        assert!(!Arc::ptr_eq(&snap_a, &snap_b), "retrain must swap the Arc");
        let pdf_a_again = snap_a.dataset_pdf(&x);
        assert_eq!(pdf_a, pdf_a_again, "old snapshot must stay frozen");
        assert_eq!(snap_b.dataset_pdf(&x).len(), snap_b.k());
    }

    #[test]
    fn retrain_halves_compose_to_retrain_system() {
        let (x, y) = blob_images(20, 2, 40);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let v0 = ds.snapshot().unwrap().version();

        let (fresh, _) = blob_images(10, 2, 41);
        let job = ds.prepare_retrain(&fresh);
        assert_eq!(job.trained_from_version(), Some(v0));
        assert_eq!(job.sample_count(), 40 + 20, "store rows + fresh batch");

        // The heavy half runs against owned data only: the live plane is
        // untouched until install.
        let trained = job
            .train(&quick_embed_cfg(), &TrainControl::new())
            .expect("uncancelled");
        assert_eq!(trained.trained_from_version(), Some(v0));
        assert_eq!(ds.snapshot().unwrap().version(), v0, "not yet installed");

        let install = ds.install_retrained(trained);
        assert_eq!(install.k, 2);
        assert_eq!(install.copied, 40, "every captured doc installs by copy");
        assert_eq!(install.delta_embedded, 0, "no mid-flight ingest");
        assert!(ds.snapshot().unwrap().version() > v0);
        // Store was re-indexed under the new models.
        for id in ds.store().ids() {
            let doc = ds.store().get(id).unwrap();
            assert!(doc.get_i64("cluster").is_some());
        }
    }

    #[test]
    fn install_delta_embeds_only_mid_flight_docs() {
        let (x, y) = blob_images(15, 2, 70);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);

        let (fresh, _) = blob_images(5, 2, 71);
        let job = ds.prepare_retrain(&fresh);
        assert_eq!(job.captured_docs(), 30);
        let trained = job
            .train(&quick_embed_cfg(), &TrainControl::new())
            .expect("uncancelled");
        assert_eq!(trained.captured_docs(), 30);

        // Mid-flight ingest between prepare and install.
        let (mid, mid_y) = blob_images(4, 2, 72);
        ds.ingest_labeled(&mid, &mid_y, 1);

        let install = ds.install_retrained(trained);
        assert_eq!(install.copied, 30);
        assert_eq!(install.delta_embedded, 8);
        // Every stored doc — captured and mid-flight alike — now carries
        // the *new* embedder's embedding and a consistent cluster id.
        let snap = ds.snapshot().unwrap();
        for id in ds.store().ids() {
            let doc = ds.store().get(id).unwrap();
            let pixels = doc.get_f32s("pixels").unwrap().to_vec();
            let x1 = Tensor::from_vec(pixels, &[1, SIDE * SIDE]);
            let z = snap.embedder().embed(&x1);
            assert_eq!(
                doc.get_f32s("embedding").unwrap(),
                z.row(0),
                "stored embedding must match the installed embedder"
            );
            let (cluster, _) = snap.kmeans.predict_one(z.row(0));
            assert_eq!(doc.get_i64("cluster"), Some(cluster as i64));
        }
    }

    #[test]
    #[should_panic(expected = "does not match the embedder's input dim")]
    fn prepare_retrain_rejects_sheared_batch() {
        let (x, y) = blob_images(10, 2, 73);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        // One column short: appending this to the flattened training rows
        // would shear every subsequent row. Must be rejected instead.
        let bad = Tensor::zeros(&[6, SIDE * SIDE - 1]);
        let _ = ds.prepare_retrain(&bad);
    }

    #[test]
    #[should_panic(expected = "does not match the embedder's input dim")]
    fn train_system_rejects_sheared_batch() {
        let mut ds = fairds_with_k(2);
        let bad = Tensor::zeros(&[8, SIDE * SIDE + 3]);
        ds.train_system(&bad, &quick_embed_cfg());
    }

    #[test]
    fn cancelled_retrain_job_publishes_nothing() {
        let (x, y) = blob_images(15, 2, 42);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let v0 = ds.snapshot().unwrap().version();

        let job = ds.prepare_retrain(&x);
        let ctl = TrainControl::new();
        ctl.cancel();
        assert!(
            job.train(&quick_embed_cfg(), &ctl).is_none(),
            "cancelled retrain must yield no installable result"
        );
        assert_eq!(ds.snapshot().unwrap().version(), v0, "plane unchanged");
    }

    #[test]
    fn snapshot_reads_run_concurrently() {
        let (x, y) = blob_images(15, 2, 15);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let snap = ds.snapshot().unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let snap = Arc::clone(&snap);
            let (xt, _) = blob_images(4, 2, 50 + t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    let pdf = snap.dataset_pdf(&xt);
                    assert_eq!(pdf.len(), 2);
                    assert_eq!(snap.lookup_matching(&pdf, 3).len(), 3);
                    let c = snap.certainty(&xt);
                    assert!((0.0..=1.0).contains(&c));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
