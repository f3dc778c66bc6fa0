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
//!   (frozen embedder, fitted k-means, a handle to the shared store), and
//!   the one read API: [`SystemSnapshot::dataset_pdf`],
//!   [`SystemSnapshot::lookup_matching`], [`SystemSnapshot::pseudo_label`],
//!   [`SystemSnapshot::nearest_labeled`] and [`SystemSnapshot::certainty`]
//!   all take `&self` and are safe to call from any number of threads
//!   concurrently. Snapshots are shared as `Arc<SystemSnapshot>`; replacing
//!   one is a single atomic `Arc` swap.
//! * [`FairDS`] — the **mutating builder** that holds the last fitted
//!   embedder (shared with the snapshots it publishes; a retrain fits a
//!   deep copy). [`FairDS::train_system`] / [`FairDS::retrain_system`] fit
//!   models and *publish* a fresh snapshot; [`FairDS::ingest_labeled`]
//!   writes documents through the (internally synchronized) store. It
//!   answers no user-plane query itself: a caller binds
//!   [`FairDS::snapshot`] once and queries that. What the builder keeps is
//!   the monitor's retrain decision, [`FairDS::needs_system_update`].
//!
//! This mirrors the paper's deployment, where the trainer reads the data
//! store directly while the service keeps answering queries: queries never
//! serialize behind system-plane maintenance.

use crate::embedding::{EmbedTrainConfig, Embedder};
use crate::read_index::ReadIndex;
pub use crate::read_index::{ReadIndexConfig, ReadIndexCounters};
use crate::reuse::{EmbedCache, EmbedCacheConfig, EmbedCacheCounters};
use fairdms_clustering::{assignments_to_pdf, elbow, fuzzy, KMeans, KMeansConfig};
use fairdms_datastore::{Collection, DocId, Document, RawCodec};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Elbow sweep range (inclusive) when [`FairDsConfig::k`] is `None`.
pub const K_RANGE: (usize, usize) = (4, 20);

/// Fuzzy-membership confidence defining a "certain" assignment (paper:
/// 0.5).
pub const CONFIDENCE: f32 = 0.5;

/// fairDS configuration.
#[derive(Clone, Debug)]
pub struct FairDsConfig {
    /// Fixed cluster count, or `None` to select K over [`K_RANGE`] by the
    /// elbow method.
    pub k: Option<usize>,
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
            fuzzifier: 2.0,
            certainty_threshold: 0.8,
            seed: 0,
            embed_cache: EmbedCacheConfig::default(),
            read_index: ReadIndexConfig::default(),
        }
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

/// An immutable view of a fitted fairDS system plane.
///
/// All methods take `&self`; a `SystemSnapshot` behind an `Arc` is safe to
/// share across any number of reader threads with no locking on the fast
/// path. Interior mutation is limited to a relaxed atomic counter that
/// derives per-call sampling seeds for
/// [`SystemSnapshot::lookup_matching`], the revision-keyed read index
/// ([`crate::read_index`]) that is brought up to date at most once per
/// store mutation and shared by every read in between, and the snapshot's
/// own embedding memo table ([`crate::reuse`]).
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
    /// The one store-derived index, keyed on the store revision: nearest-
    /// row reads and PDF-matched draws are both answered from it. It also
    /// holds the read statistics shared with the owning [`FairDS`] across
    /// publications.
    pub(crate) index: ReadIndex,
    /// This snapshot's own embedding memo table (DESIGN.md §8); only its
    /// counters are shared with the owning [`FairDS`].
    reuse: Arc<EmbedCache>,
}

impl SystemSnapshot {
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

    /// The embedding-reuse cache this snapshot owns and probes.
    pub fn embed_cache(&self) -> &Arc<EmbedCache> {
        &self.reuse
    }

    /// Embeds a dataset through this snapshot's memo table
    /// ([`EmbedCache::embed`]): only rows it has not embedded before pay a
    /// forward pass. Bit-identical to `self.embedder().embed(images)`, so
    /// callers can switch freely.
    pub fn embed_cached(&self, images: &Tensor) -> Tensor {
        self.reuse.embed(images, self.embedder.embed_dim(), |x| {
            self.embedder.embed(x)
        })
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
    /// query). A draw is the `i`-th id, ascending, among the rows the read
    /// index holds for the cluster ([`crate::read_index`] states which rows
    /// those are). Clusters with no indexed rows fall back to the pool of
    /// all indexed rows, so the requested count is always served from a
    /// non-empty index.
    ///
    /// ## Complexity
    ///
    /// O(count) id draws plus one document decode per draw. After a store
    /// write the index is advanced once through the store's change log —
    /// O(rows written), shared with the nearest-neighbour reads.
    pub fn lookup_matching(&self, pdf: &[f64], count: usize) -> Vec<Document> {
        assert_eq!(pdf.len(), self.k(), "pdf length must equal k");
        let index = self.index.current();
        let pool = index.rows();
        // Reserved from the caller's number only up to what the index
        // holds: `count` may be anything.
        let mut out = Vec::with_capacity(count.min(pool));
        if pool == 0 {
            return out;
        }
        // Per-call RNG: the atomic sequence keeps concurrent callers on
        // distinct streams without any shared mutable generator.
        let draw = self.sample_seq.fetch_add(1, Ordering::Relaxed);
        let mut rng =
            TensorRng::seeded((self.cfg.seed ^ 0xDA7A).wrapping_add(draw.wrapping_mul(0x9E37)));
        let weights: Vec<f32> = pdf.iter().map(|&p| p as f32).collect();
        for _ in 0..count {
            let cluster = rng.next_weighted(&weights);
            let pick = match index.cluster_rows(cluster) {
                0 => index.pool_id(rng.next_index(pool)),
                rows => index.cluster_id(cluster, rng.next_index(rows)),
            };
            // A drawn id that has vanished (a delete raced this lookup
            // against the revision-keyed index) is backfilled from the
            // pool: a wrap-around scan from a random start finds any
            // survivor, so a non-empty store serves the requested count.
            let doc = self.store.get(pick).or_else(|| {
                let start = rng.next_index(pool);
                (0..pool).find_map(|off| self.store.get(index.pool_id((start + off) % pool)))
            });
            match doc {
                Some(doc) => out.push(doc),
                // Every indexed id is gone: the store emptied mid-call.
                None => break,
            }
        }
        out
    }

    /// Pseudo-labels a dataset (§III-E): for each sample, the nearest
    /// stored embedding within its cluster is consulted; when closer than
    /// `threshold` its label is reused, otherwise `fallback` computes one.
    /// Returns the label matrix plus reuse statistics.
    ///
    /// The nearest-neighbor search is one routed read-index search, which
    /// opens at most one parallel region, and only above the work gate
    /// (DESIGN.md §9's dispatch rule). The fallback labeler is then called
    /// once per unmatched sample, in order, on the calling thread: the
    /// service passes its shared `Fn`, and any `FnMut` works as well.
    pub fn pseudo_label(
        &self,
        images: &Tensor,
        threshold: f32,
        mut fallback: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> (Tensor, PseudoLabelStats) {
        let n = images.shape()[0];
        let nearest = self.nearest_labels(images);
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

    /// Per-sample nearest-stored-label search: `(distance, label)` for
    /// each input row, `None` when its cluster holds no labeled docs.
    /// Served entirely from the read index — no per-sample store queries
    /// and no per-candidate document decoding.
    fn nearest_labels(&self, images: &Tensor) -> Vec<Option<(f32, Vec<f32>)>> {
        let z = self.embed_cached(images);
        let index = self.index.current();
        let hits = index.routed_nearest(&z, &self.kmeans.predict(&z), true);
        hits.into_iter()
            .map(|hit| hit.and_then(|(dist, _, label)| Some((dist, label?.to_vec()))))
            .collect()
    }

    /// For each input sample, the nearest stored document in its cluster
    /// together with the embedding distance — the §III-E `BO` construction
    /// uses the *stored* `{p, l(p)}` pair when the distance is below the
    /// threshold. Only the winning document is decoded.
    pub fn nearest_labeled(&self, images: &Tensor) -> Vec<Option<(f32, Document)>> {
        let z = self.embed_cached(images);
        let index = self.index.current();
        let hits = index.routed_nearest(&z, &self.kmeans.predict(&z), false);
        hits.into_iter()
            .map(|hit| hit.and_then(|(dist, id, _)| Some((dist, self.store.get(id)?))))
            .collect()
    }

    /// The routed-read statistics shared across this service's snapshots.
    pub fn read_index_counters(&self) -> &Arc<ReadIndexCounters> {
        &self.index.stats
    }

    /// Fuzzy-clustering certainty of a dataset under this snapshot's
    /// system models (the Fig 16 metric), using the snapshot's configured
    /// fuzzifier.
    pub fn certainty(&self, images: &Tensor) -> f64 {
        let z = self.embed_cached(images);
        fuzzy::certainty(&z, &self.kmeans, CONFIDENCE, self.cfg.fuzzifier)
    }
}

/// Cluster-count selection shared by bootstrap training and background
/// retrains: the configured K (clamped to the sample count) or an elbow
/// sweep.
fn select_k(cfg: &FairDsConfig, z: &Tensor) -> usize {
    match cfg.k {
        Some(k) => k.min(z.shape()[0]),
        None => {
            let (lo, hi) = K_RANGE;
            let hi = hi.min(z.shape()[0]);
            elbow::select_k(z, lo.min(hi), hi, cfg.seed).best_k
        }
    }
}

/// One system-plane (re)fit, from capture to installation: built by
/// [`FairDS::prepare_retrain`] / [`FairDS::prepare_bootstrap`] on the
/// mutation actor, trained on a background executor (it owns a private
/// embedder copy, so the heavy [`RetrainJob::train`] step touches no live
/// service state at all) and given back to [`FairDS::install_retrained`]
/// with everything the fit computed over the captured store — the
/// embedding matrix and cluster assignments, row-parallel to the pixel
/// rows — so installation copies these into the store documents instead
/// of re-running the embedder.
pub struct RetrainJob {
    /// The training matrix: captured store rows, then the fresh batch.
    pixels: Tensor,
    /// Ids of the store documents whose pixels form the first
    /// `captured.len()` rows of `pixels` (the fresh trigger batch follows):
    /// the key installation writes the job's embeddings back by.
    captured: Vec<DocId>,
    embedder: Box<dyn Embedder>,
    cfg: FairDsConfig,
    system_version: Option<u64>,
    /// The fitted clustering with the embeddings and assignments of every
    /// row of `pixels`, once [`RetrainJob::train`] has run.
    fitted: Option<(KMeans, Tensor, Vec<usize>)>,
}

impl RetrainJob {
    /// Number of samples (store + fresh batch) the retrain fits on.
    pub fn sample_count(&self) -> usize {
        self.pixels.shape()[0]
    }

    /// Number of store documents captured into the training matrix (their
    /// embeddings ship back with the result and install as pure copies).
    pub fn captured_docs(&self) -> usize {
        self.captured.len()
    }

    /// Version of the system plane this job was prepared against (`None`
    /// when the plane was untrained — the job bootstraps it). A live plane
    /// whose version has moved past this means the result is stale and
    /// must not be installed.
    pub fn trained_from_version(&self) -> Option<u64> {
        self.system_version
    }

    /// The heavy retrain half (executor side): fits the embedder
    /// (cancellable at epoch boundaries through `ctl`) and the clustering
    /// on the captured matrix. Returns `None` when the job was cancelled —
    /// partially-trained weights are dropped, nothing is published.
    ///
    /// The embedding matrix and cluster assignments the fit produces are
    /// **kept** (keyed by the captured [`DocId`]s), so
    /// [`FairDS::install_retrained`] never has to repeat the full-store
    /// forward pass on the mutation actor.
    pub fn train(mut self, embed_cfg: &EmbedTrainConfig, ctl: &TrainControl) -> Option<Self> {
        assert!(
            self.sample_count() >= 4,
            "need at least a handful of samples"
        );
        if !self.embedder.fit_controlled(&self.pixels, embed_cfg, ctl) {
            return None;
        }
        let z = self.embedder.embed(&self.pixels);
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
        self.fitted = Some((kmeans, z, clusters));
        Some(self)
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
    /// The last completed fit, shared with every snapshot published from
    /// it: nothing mutates it in place, a retrain fits a deep copy and
    /// installs that in its stead.
    embedder: Arc<dyn Embedder>,
    current: Option<Arc<SystemSnapshot>>,
    store: Arc<Collection>,
    cfg: FairDsConfig,
    versions_published: u64,
    /// The data-reuse plane's statistics, shared into every published
    /// snapshot's memo table so counters survive snapshot turnover.
    embed_stats: Arc<EmbedCacheCounters>,
    /// Routed-read statistics, shared into every published snapshot so
    /// counters survive snapshot turnover.
    read_stats: Arc<ReadIndexCounters>,
    /// Values per stored label, once known ([`FairDS::label_width`]).
    label_width: Option<usize>,
}

impl FairDS {
    /// Creates a fairDS over an embedding method and a backing collection.
    pub fn new(embedder: Box<dyn Embedder>, store: Arc<Collection>, cfg: FairDsConfig) -> Self {
        FairDS {
            embedder: embedder.into(),
            current: None,
            store,
            cfg,
            versions_published: 0,
            embed_stats: Arc::default(),
            read_stats: Arc::new(ReadIndexCounters::default()),
            label_width: None,
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

    /// Sets the certainty below which [`FairDS::needs_system_update`]
    /// asks for a retrain — deployments calibrate it against a measured
    /// baseline (absolute fuzzy certainty depends on K and the embedding
    /// geometry, so a fixed constant does not transfer across workloads).
    /// Takes effect on the next monitor decision; snapshots carry the
    /// configuration they were published under.
    pub fn set_certainty_threshold(&mut self, threshold: f64) {
        self.cfg.certainty_threshold = threshold;
    }

    /// The embedding-reuse statistics shared by every published
    /// snapshot's memo table.
    pub fn embed_cache_counters(&self) -> &Arc<EmbedCacheCounters> {
        &self.embed_stats
    }

    /// Flattened input width the builder's embedder expects. Available
    /// before training (the architecture fixes it at construction), so
    /// admission layers can reject mismatched batches instead of letting
    /// them panic deep inside a forward pass.
    pub fn input_dim(&self) -> usize {
        self.embedder.input_dim()
    }

    /// Values per label of the documents already stored — the width a new
    /// labeled batch must have, because [`SystemSnapshot::pseudo_label`]
    /// reuses stored labels beside fresh ones in one `[N, L]` matrix.
    /// `None` while the store holds no labeled document. Found by reading
    /// documents until one carries a label (the first, in a store this
    /// service filled) and remembered from then on.
    pub fn label_width(&mut self) -> Option<usize> {
        if self.label_width.is_none() {
            self.label_width = self.store.ids().into_iter().find_map(|id| {
                let doc = self.store.get(id)?;
                Some(doc.get_f32s("label")?.len())
            });
        }
        self.label_width
    }

    /// Replaces the read-index layout (ball sizing, or `min_cluster_rows:
    /// usize::MAX` for the brute per-cluster scan). The already-published
    /// snapshot, if any, is re-issued — same models, same version, same
    /// embedding memo table — with an empty index, so its next store read
    /// builds one under the new layout.
    pub fn configure_read_index(&mut self, ri: ReadIndexConfig) {
        self.cfg.read_index = ri;
        if let Some(old) = self.current.take() {
            let cfg = FairDsConfig {
                read_index: ri,
                ..old.cfg.clone()
            };
            let (embedder, kmeans) = (Arc::clone(&old.embedder), Arc::clone(&old.kmeans));
            let reuse = Arc::clone(&old.reuse);
            self.current = Some(self.issue(embedder, kmeans, reuse, cfg, old.version));
        }
    }

    /// The one place snapshots are constructed — publication and
    /// re-configuration both go through here, so a new field cannot be
    /// wired into one path and forgotten in the other. The read index
    /// starts empty and the sampling sequence restarts (draws stay
    /// deterministic-in-sequence per snapshot, which is all the contract
    /// promises).
    fn issue(
        &self,
        embedder: Arc<dyn Embedder>,
        kmeans: Arc<KMeans>,
        reuse: Arc<EmbedCache>,
        cfg: FairDsConfig,
        version: u64,
    ) -> Arc<SystemSnapshot> {
        let index = ReadIndex {
            store: Arc::clone(&self.store),
            dim: embedder.embed_dim(),
            k: kmeans.k(),
            seed: cfg.seed,
            cfg: cfg.read_index,
            stats: Arc::clone(&self.read_stats),
            cache: Default::default(),
        };
        Arc::new(SystemSnapshot {
            embedder,
            kmeans,
            store: Arc::clone(&self.store),
            cfg,
            sample_seq: AtomicU64::new(0),
            version,
            index,
            reuse,
        })
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

    /// Publishes the just-fitted models as a new snapshot: the builder's
    /// embedder, shared (serving its fit's panels), and an empty embedding
    /// memo table of its own. No store-sized work happens here: the read
    /// index fills on the snapshot's first store read.
    fn publish(&mut self, kmeans: KMeans) {
        let version = self.versions_published;
        self.versions_published += 1;
        let table = EmbedCache::new(self.cfg.embed_cache, Arc::clone(&self.embed_stats));
        let (kmeans, reuse) = (Arc::new(kmeans), Arc::new(table));
        let embedder = Arc::clone(&self.embedder);
        self.current = Some(self.issue(embedder, kmeans, reuse, self.cfg.clone(), version));
    }

    /// System-plane training (Fig 5, yellow): fits the embedding model on
    /// historical images, then the clustering model on their embeddings,
    /// then publishes a fresh snapshot. Returns the selected K.
    ///
    /// A retrain job like any other ([`FairDS::prepare_bootstrap`]), so a
    /// re-bootstrap re-embeds whatever the store already holds.
    pub fn train_system(&mut self, images: &Tensor, embed_cfg: &EmbedTrainConfig) -> usize {
        self.run_inline(self.prepare_bootstrap(images), embed_cfg)
    }

    /// Re-fits embedding + clustering on the full historical store plus
    /// `fresh` images (the uncertainty-triggered system update of Fig 16),
    /// re-indexing the store under the new snapshot.
    ///
    /// This is the synchronous composition of the retrain halves — see
    /// [`FairDS::prepare_retrain`] / [`RetrainJob::train`] /
    /// [`FairDS::install_retrained`] for the split a background training
    /// executor uses to keep the heavy middle step off the mutation actor.
    pub fn retrain_system(&mut self, fresh: &Tensor, embed_cfg: &EmbedTrainConfig) -> usize {
        self.run_inline(self.prepare_retrain(fresh), embed_cfg)
    }

    fn run_inline(&mut self, job: RetrainJob, embed_cfg: &EmbedTrainConfig) -> usize {
        let trained = job
            .train(embed_cfg, &TrainControl::new())
            .expect("uncancelled job always completes");
        self.install_retrained(trained).k
    }

    /// First retrain half (actor side, O(store bytes) copy, no training):
    /// captures everything a system-plane retrain needs — the training
    /// matrix (full historical store + the fresh trigger batch), the
    /// [`DocId`] of every captured row (the installation write-back key),
    /// a deep copy of the embedder to fit, the configuration, and the
    /// version of the plane the job trains *from* (the staleness fence).
    pub fn prepare_retrain(&self, fresh: &Tensor) -> RetrainJob {
        self.capture(self.store.ids(), fresh)
    }

    /// [`FairDS::prepare_retrain`] for a (re)bootstrap: the job trains on
    /// `images` alone. Its captured set is empty — a bootstrap does not
    /// train on the store, so nothing has embedded those rows and
    /// installation re-embeds all of them.
    pub fn prepare_bootstrap(&self, images: &Tensor) -> RetrainJob {
        self.capture(Vec::new(), images)
    }

    /// Builds the job that trains on the pixels of `ids` followed by
    /// `fresh`. The fresh batch must match the embedder's input width — a
    /// mismatched batch would otherwise shear every subsequent row of the
    /// flattened training matrix, silently corrupting the whole fit.
    fn capture(&self, ids: Vec<DocId>, fresh: &Tensor) -> RetrainJob {
        let dim = self.embedder.input_dim();
        assert!(
            fresh.rank() == 2 && fresh.shape()[1] == dim,
            "training batch shape {:?} does not match the embedder's input dim {dim}",
            fresh.shape()
        );
        let mut captured: Vec<DocId> = Vec::new();
        let mut rows = self.stored_pixels(&ids, dim, |id, _| captured.push(id));
        rows.extend_from_slice(fresh.data());
        let n = rows.len() / dim;
        RetrainJob {
            pixels: Tensor::from_vec(rows, &[n, dim]),
            captured,
            embedder: self.embedder.clone_box(),
            cfg: self.cfg.clone(),
            system_version: self.current.as_ref().map(|s| s.version()),
            fitted: None,
        }
    }

    /// Last retrain half (actor side, **O(copy)**) and the one step that
    /// replaces a system plane: installs the off-thread training result
    /// without repeating any captured forward pass —
    ///
    /// 1. the freshly fitted embedder replaces the builder's and the
    ///    clustering is published as a new snapshot;
    /// 2. the job's embeddings and cluster assignments are *written back*
    ///    into the captured store documents by [`DocId`] (pure copies — the
    ///    training job already embedded every captured row when it fit the
    ///    clustering);
    /// 3. the new snapshot's [`EmbedCache`] is bulk-warmed with the job's
    ///    rows, so the post-retrain read burst starts hot;
    /// 4. only documents the job did not capture (ingested *mid-flight*;
    ///    the whole store for a re-bootstrap) pay a fresh embed, in one
    ///    delta batch ([`FairDS::reindex_ids`]).
    ///
    /// The caller is responsible for fencing: compare
    /// [`RetrainJob::trained_from_version`] against the live
    /// [`SystemSnapshot::version`] and *discard* results trained from a
    /// plane that has since been replaced.
    pub fn install_retrained(&mut self, job: RetrainJob) -> RetrainInstall {
        let (kmeans, embeddings, clusters) = job.fitted.expect("install_retrained before train");
        let (pixels, captured) = (job.pixels, job.captured);
        let k = kmeans.k();
        self.embedder = job.embedder.into();
        // Write-back first: a reader that picks up the new snapshot should
        // find the re-clustered store, not the about-to-be-overwritten
        // assignments of the replaced plane.
        let mut copied = 0usize;
        let mut written: HashSet<DocId> = HashSet::with_capacity(captured.len());
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
        // Warm the new snapshot's table with every row of the job (captured
        // docs *and* the fresh batch, both likely to be read again).
        self.ready("install").reuse.warm(&pixels, &embeddings);
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

    /// Concatenates, in `ids` order, the `pixels` row of every stored
    /// document among `ids` whose row is `dim` wide, and hands each such
    /// document to `kept`.
    fn stored_pixels(
        &self,
        ids: &[DocId],
        dim: usize,
        mut kept: impl FnMut(DocId, Document),
    ) -> Vec<f32> {
        let mut rows = Vec::new();
        for (id, doc) in ids.iter().filter_map(|&id| Some((id, self.store.get(id)?))) {
            if let Some(pixels) = doc.get_f32s("pixels").filter(|p| p.len() == dim) {
                rows.extend_from_slice(pixels);
                kept(id, doc);
            }
        }
        rows
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
        let rows = self.stored_pixels(ids, dim, |id, doc| pending.push((id, doc)));
        if pending.is_empty() {
            return 0;
        }
        let x = Tensor::from_vec(rows, &[pending.len(), dim]);
        // Cached path: a reindex right after a retrain also *warms* the
        // new snapshot's table with every re-embedded frame, so the first
        // post-retrain read burst starts hot.
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
        self.label_width.get_or_insert(label_w);
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

    /// The monitor's retrain decision: whether the published snapshot's
    /// certainty on `images` is below the configured threshold.
    pub fn needs_system_update(&self, images: &Tensor) -> bool {
        self.ready("needs_system_update").certainty(images) < self.cfg.certainty_threshold
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::embedding::AutoencoderEmbedder;

    pub(crate) const SIDE: usize = 8;

    /// Images of bright blobs at `n_modes` distinct locations.
    pub(crate) fn blob_images(per_mode: usize, n_modes: usize, seed: u64) -> (Tensor, Tensor) {
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

    pub(crate) fn quick_embed_cfg() -> EmbedTrainConfig {
        EmbedTrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        }
    }

    pub(crate) fn fairds_with_k(k: usize) -> FairDS {
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

        let snap = ds.snapshot().unwrap();
        let pdf = snap.dataset_pdf(&x);
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
                ..FairDsConfig::default()
            },
        );
        let k = ds.train_system(&x, &quick_embed_cfg());
        assert!((K_RANGE.0..=K_RANGE.1).contains(&k), "selected k={k}");
        assert_eq!(ds.k(), k);
    }

    #[test]
    fn lookup_matching_respects_the_pdf() {
        let (x, y) = blob_images(30, 2, 3);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        // Request only cluster 0.
        let snap = ds.snapshot().unwrap();
        let docs = snap.lookup_matching(&[1.0, 0.0], 40);
        assert_eq!(docs.len(), 40);
        assert!(docs.iter().all(|d| d.get_i64("cluster") == Some(0)));
    }

    #[test]
    fn lookup_with_empty_store_returns_nothing() {
        let (x, _) = blob_images(10, 2, 4);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        let snap = ds.snapshot().unwrap();
        assert!(snap.lookup_matching(&[0.5, 0.5], 5).is_empty());
    }

    #[test]
    fn pseudo_label_reuses_history_for_similar_data() {
        let (x, y) = blob_images(25, 2, 5);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);

        // New data from the same distribution: labels mostly reused.
        let (x_new, _) = blob_images(10, 2, 6);
        let snap = ds.snapshot().unwrap();
        let (labels, stats) = snap.pseudo_label(&x_new, 0.8, |_| vec![9.9, 9.9]);
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
        let snap = ds.snapshot().unwrap();
        let (labels, stats) = snap.pseudo_label(&x_new, 1e-9, |_| vec![7.0, 7.0]);
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
        let snap = ds.snapshot().unwrap();
        let c_in = snap.certainty(&x);
        // Uniform-noise images: far from any training cluster.
        let noise = TensorRng::seeded(11).uniform(&[40, SIDE * SIDE], -1.0, 1.0);
        let c_out = snap.certainty(&noise);
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
            let fresh = ds.snapshot().unwrap().assign(&x1)[0] as i64;
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
    fn reissued_snapshot_keeps_its_embedding_table() {
        let (x, _) = blob_images(10, 2, 15);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        let snap = ds.snapshot().expect("trained");
        let z = snap.embed_cached(&x);

        // Same embedder, new index layout: the re-issue shares the table,
        // so every row cached before it is a hit after it.
        ds.configure_read_index(ReadIndexConfig {
            min_cluster_rows: usize::MAX,
            ..ds.config().read_index
        });
        let reissued = ds.snapshot().expect("re-issued");
        assert!(!Arc::ptr_eq(&snap, &reissued), "re-issue swaps the Arc");
        let before = reissued.embed_cache().stats();
        assert_eq!(reissued.embed_cached(&x), z);
        let after = reissued.embed_cache().stats();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + x.shape()[0] as u64, before.misses)
        );
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
        assert_store_is_under_the_published_plane(&ds);
    }

    /// Every stored document's `embedding` is the published embedder's, to
    /// the bit, and its `cluster` the published clustering's.
    fn assert_store_is_under_the_published_plane(ds: &FairDS) {
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
            assert_eq!(doc.get_i64("cluster"), Some(snap.assign(&x1)[0] as i64));
        }
    }

    #[test]
    fn rebootstrap_reindexes_the_store_under_the_new_plane() {
        let (x, y) = blob_images(30, 2, 80);
        let mut ds = fairds_with_k(2);
        ds.train_system(&x, &quick_embed_cfg());
        ds.ingest_labeled(&x, &y, 0);
        let v0 = ds.snapshot().unwrap().version();

        // A second bootstrap on a different batch and seed replaces the
        // embedder and the clustering under a populated store.
        let (other, _) = blob_images(20, 2, 81);
        let cfg = EmbedTrainConfig {
            seed: 7,
            ..quick_embed_cfg()
        };
        ds.train_system(&other, &cfg);
        assert_eq!(ds.snapshot().unwrap().version(), v0 + 1);

        assert_store_is_under_the_published_plane(&ds);
        // A stored frame is its own nearest stored neighbour…
        let snap = ds.snapshot().unwrap();
        for (i, hit) in snap.nearest_labeled(&x).into_iter().enumerate() {
            let (dist, _) = hit.expect("every cluster holds its own rows");
            assert_eq!(dist, 0.0, "frame {i}");
        }
        // …so labeling the stored frames reuses every label it holds.
        let (labels, stats) = snap.pseudo_label(&x, 0.5, |_| panic!("nothing to compute"));
        assert_eq!((stats.reused, stats.computed), (60, 0));
        assert_eq!(labels.data(), y.data());
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
