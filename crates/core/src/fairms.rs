//! fairMS: the FAIR model service (paper §II-B and Fig 4).
//!
//! The Zoo accumulates checkpoints of the same architecture trained on
//! different datasets; each entry is indexed by *the learned distribution
//! of its training dataset* (the fairDS cluster PDF). Given a new
//! dataset's PDF, a [`ZooSnapshot`] ranks the Zoo by Jensen–Shannon
//! divergence and the [`ModelManager`] recommends the closest model as the
//! fine-tuning foundation — or training from scratch when nothing in the
//! Zoo is within the user-defined distance threshold (§II-C).
//!
//! Every read — ranking, lookup, instantiation — is answered on a
//! [`ZooSnapshot`]; the [`ModelZoo`] builder registers (and persists)
//! models and hands out its latest snapshot.

use crate::jsd::{is_valid_pdf_mass, jsd_normalized, normalize_pdf};
use crate::models::ArchSpec;
use bytes::Bytes;
use fairdms_datastore::{Collection, Document, Value};
use fairdms_nn::checkpoint;
use fairdms_nn::layers::Sequential;
use std::sync::Arc;

/// One model in the Zoo.
#[derive(Clone, Debug)]
pub struct ZooEntry {
    /// Human-readable name (e.g. "braggnn-scan21").
    pub name: String,
    /// The architecture recipe the checkpoint loads into.
    pub arch: ArchSpec,
    /// Serialized parameters ([`fairdms_nn::checkpoint`] format).
    pub checkpoint: Vec<u8>,
    /// Cluster PDF of the training dataset (the index key).
    pub train_pdf: Vec<f64>,
    /// Scan index (or other provenance marker) of the training data.
    pub scan: usize,
}

/// The model Zoo: an append-only registry of trained models.
///
/// The zoo *is* its latest [`ZooSnapshot`]: [`ModelZoo::add`] replaces it
/// with a successor that shares every existing `Arc<ZooEntry>` — a
/// registration copies n entry pointers, never checkpoint bytes
/// (DESIGN.md §6) — and [`ModelZoo::snapshot`] hands out a clone.
#[derive(Default)]
pub struct ModelZoo {
    current: ZooSnapshot,
}

impl ModelZoo {
    /// An empty zoo.
    pub fn new() -> Self {
        ModelZoo::default()
    }

    /// Registers a trained model, returning its zoo id. Panics when the
    /// entry's PDF is empty or carries no valid probability mass
    /// (negative/non-finite entries, zero sum) — the same contract
    /// [`crate::jsd::jsd`] would otherwise enforce at ranking time, moved
    /// to registration so one bad entry cannot break every later
    /// recommendation.
    pub fn add(&mut self, entry: ZooEntry) -> usize {
        assert!(
            is_valid_pdf_mass(&entry.train_pdf),
            "zoo entries must carry a training-data PDF of valid probability mass"
        );
        let entries = &self.current.0;
        self.current = ZooSnapshot(entries.iter().cloned().chain([Arc::new(entry)]).collect());
        self.current.len() - 1
    }

    /// Registers a model directly from a live network.
    pub fn add_model(
        &mut self,
        name: &str,
        arch: ArchSpec,
        net: &Sequential,
        train_pdf: Vec<f64>,
        scan: usize,
    ) -> usize {
        self.add(ZooEntry {
            name: name.to_string(),
            arch,
            checkpoint: checkpoint::save(net),
            train_pdf,
            scan,
        })
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The latest registry state as an immutable, shareable snapshot (the
    /// registry can keep growing while readers rank against the frozen
    /// view — DESIGN.md §6). A clone: one `Arc` bump, whatever the zoo
    /// holds.
    pub fn snapshot(&self) -> ZooSnapshot {
        self.current.clone()
    }
}

/// An immutable view of the Zoo's JSD index: the entries themselves.
///
/// Cheaply clonable (`Arc`-backed); every method takes `&self`, so a
/// snapshot can serve `Recommend` / `FetchModel` from any number of reader
/// threads while the live [`ModelZoo`] keeps registering models.
///
/// ## Complexity
///
/// Entries are structurally shared `Arc<ZooEntry>`s: cloning a snapshot
/// (or publishing a successor that reuses unchanged entries) never copies
/// checkpoint bytes. Ranking is one O(n·d + n log n) pass over n
/// compatible entries with d-bin PDFs, whatever `k` asks for
/// (DESIGN.md §15 records why the pruned top-k was retired).
#[derive(Clone, Default)]
pub struct ZooSnapshot(Arc<[Arc<ZooEntry>]>);

impl ZooSnapshot {
    /// Number of models in the snapshot.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the snapshot holds no models.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entry by id.
    pub fn get(&self, id: usize) -> Option<&ZooEntry> {
        self.0.get(id).map(|e| e.as_ref())
    }

    /// All entries (shared allocations — compare with `Arc::ptr_eq` to
    /// verify zero-copy republication).
    pub fn entries(&self) -> &[Arc<ZooEntry>] {
        &self.0
    }

    /// Rebuilds the network of an entry (architecture + checkpoint); `None`
    /// for an unknown id or a checkpoint that does not load — the zoo
    /// stores whatever was published (the bytes are the publisher's), so a
    /// checkpoint is only known to be one when something opens it.
    pub fn instantiate(&self, id: usize, seed: u64) -> Option<Sequential> {
        let entry = self.0.get(id)?;
        let mut net = entry.arch.build(seed);
        checkpoint::load(&mut net, &entry.checkpoint).ok()?;
        Some(net)
    }

    /// Full JSD ranking of every compatible entry, ascending. `None` when
    /// no entry matches the input PDF's length.
    pub fn rank(&self, input_pdf: &[f64]) -> Option<Recommendation> {
        self.rank_top_k(input_pdf, usize::MAX)
    }

    /// The `k` lowest-divergence entries, ascending: the one scoring pass
    /// every ranking runs. `None` when `k` is 0 or no entry matches the
    /// input PDF's length; a `k` beyond the zoo returns the whole ranking.
    ///
    /// The query is normalized once. Each entry whose PDF has the query's
    /// length is normalized into one reused buffer — the sum and division
    /// of [`normalize_pdf`], so every divergence has the bits of
    /// [`crate::jsd::jsd`] on the raw masses — and scored. A stable sort
    /// orders ties by zoo id, so top-k is the full ranking's prefix.
    pub fn rank_top_k(&self, input_pdf: &[f64], k: usize) -> Option<Recommendation> {
        // Compatibility first: a query no entry matches returns None
        // without being validated.
        let mut compatible = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, e)| e.train_pdf.len() == input_pdf.len())
            .peekable();
        if k == 0 || compatible.peek().is_none() {
            return None;
        }
        let query = normalize_pdf(input_pdf);
        let mut norm = Vec::with_capacity(query.len());
        let mut ranked: Vec<(usize, f64)> = compatible
            .map(|(i, e)| {
                let total: f64 = e.train_pdf.iter().sum();
                norm.clear();
                norm.extend(e.train_pdf.iter().map(|&v| v / total));
                (i, jsd_normalized(&query, &norm))
            })
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked.truncate(k);
        Some(Recommendation { ranked })
    }
}

impl ZooEntry {
    /// Serializes the entry into a store [`Document`] (the paper's "model
    /// Zoo tracks for each model its training data distribution": the PDF
    /// rides along as an indexable field set).
    pub fn to_document(&self, zoo_id: usize) -> Document {
        Document::new()
            .with("zoo_id", zoo_id as i64)
            .with("name", self.name.as_str())
            .with("arch", self.arch.name())
            .with("arch_param", self.arch.param() as i64)
            .with("checkpoint", Bytes::from(self.checkpoint.clone()))
            .with(
                "train_pdf",
                Value::Array(self.train_pdf.iter().map(|&p| Value::F64(p)).collect()),
            )
            .with("scan", self.scan as i64)
    }

    /// Rebuilds an entry from a document written by
    /// [`ZooEntry::to_document`]. Returns `None` on missing/invalid fields.
    pub fn from_document(doc: &Document) -> Option<ZooEntry> {
        let arch = ArchSpec::from_parts(
            doc.get_str("arch")?,
            usize::try_from(doc.get_i64("arch_param")?).ok()?,
        )?;
        Some(ZooEntry {
            name: doc.get_str("name")?.to_string(),
            arch,
            checkpoint: doc.get_bytes("checkpoint")?.to_vec(),
            train_pdf: match doc.get("train_pdf")? {
                Value::Array(pdf) => pdf
                    .iter()
                    .map(|p| match p {
                        Value::F64(p) => Some(*p),
                        _ => None,
                    })
                    .collect::<Option<_>>()?,
                _ => return None,
            },
            scan: usize::try_from(doc.get_i64("scan")?).ok()?,
        })
    }
}

impl ModelZoo {
    /// Persists every entry into a collection (cleared first so ids in the
    /// store mirror zoo ids). Combine with
    /// [`Collection::snapshot`](fairdms_datastore::Collection::snapshot)
    /// for on-disk durability.
    pub fn save_to_collection(&self, coll: &Collection) {
        for id in coll.ids() {
            coll.delete(id);
        }
        for (i, entry) in self.current.0.iter().enumerate() {
            coll.insert(&entry.to_document(i));
        }
    }

    /// Rebuilds a zoo from a collection written by
    /// [`ModelZoo::save_to_collection`]. Entries are restored in `zoo_id`
    /// order so ids are preserved; malformed documents — including ones
    /// whose persisted PDF carries no valid probability mass (possible in
    /// stores written before registration validated mass) — are skipped
    /// rather than aborting the restore.
    pub fn load_from_collection(coll: &Collection) -> ModelZoo {
        let mut entries: Vec<(i64, ZooEntry)> = coll
            .ids()
            .into_iter()
            .filter_map(|id| {
                let doc = coll.get(id)?;
                let zoo_id = doc.get_i64("zoo_id")?;
                let entry = ZooEntry::from_document(&doc)?;
                is_valid_pdf_mass(&entry.train_pdf).then_some((zoo_id, entry))
            })
            .collect();
        entries.sort_by_key(|(id, _)| *id);
        let mut zoo = ModelZoo::new();
        for (_, entry) in entries {
            zoo.add(entry);
        }
        zoo
    }
}

/// A ranked recommendation over the Zoo.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// `(zoo id, JSD to the input PDF)`, ascending by divergence.
    pub ranked: Vec<(usize, f64)>,
}

impl Recommendation {
    /// Best (lowest-divergence) entry, or `None` when the ranking is
    /// empty.
    ///
    /// [`ZooSnapshot::rank`] / [`ZooSnapshot::rank_top_k`] return `None`
    /// instead of an empty recommendation, so for their results this is
    /// always `Some` — but `ranked` is a public field and an empty
    /// `Recommendation` is constructible, so every accessor here answers
    /// `None` on one.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.ranked.first().copied()
    }

    /// Median-ranked entry (the paper's FineTune-M baseline), or `None`
    /// when the ranking is empty.
    pub fn median(&self) -> Option<(usize, f64)> {
        self.ranked.get(self.ranked.len() / 2).copied()
    }

    /// Worst-ranked entry (the paper's FineTune-W baseline), or `None`
    /// when the ranking is empty.
    pub fn worst(&self) -> Option<(usize, f64)> {
        self.ranked.last().copied()
    }
}

/// The model manager: the distance-threshold policy over a zoo ranking.
/// The threshold is validated once, at construction.
#[derive(Clone, Copy, Debug)]
pub struct ModelManager {
    /// JSD above which fine-tuning is not attempted (paper: user-defined).
    distance_threshold: f64,
}

impl Default for ModelManager {
    fn default() -> Self {
        ModelManager::new(0.5)
    }
}

impl ModelManager {
    /// A manager with an explicit threshold. Panics outside `[0, 1]`
    /// (JSD's range) and on NaN.
    pub fn new(distance_threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&distance_threshold),
            "JSD threshold must be in [0, 1], got {distance_threshold}"
        );
        ModelManager { distance_threshold }
    }

    /// JSD above which fine-tuning is not attempted.
    pub fn distance_threshold(&self) -> f64 {
        self.distance_threshold
    }

    /// The head of a ranking, `(zoo id, divergence)`, when it is close
    /// enough to fine-tune: the one place the threshold is applied.
    pub fn within_threshold(&self, head: Option<(usize, f64)>) -> Option<(usize, f64)> {
        head.filter(|&(_, divergence)| divergence <= self.distance_threshold)
    }

    /// The fine-tuning foundation for a dataset with this PDF, as
    /// `(zoo id, divergence)`: the best entry of `zoo` when it is within
    /// the threshold. `None` means train from scratch (also when no entry
    /// matches the PDF's length).
    pub fn decide(&self, zoo: &ZooSnapshot, input_pdf: &[f64]) -> Option<(usize, f64)> {
        self.within_threshold(zoo.rank_top_k(input_pdf, 1).and_then(|r| r.best()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::rng::TensorRng;

    fn bragg_entry(name: &str, pdf: Vec<f64>, seed: u64) -> ZooEntry {
        let arch = ArchSpec::BraggNN { patch: 15 };
        let net = arch.build(seed);
        ZooEntry {
            name: name.to_string(),
            arch,
            checkpoint: checkpoint::save(&net),
            train_pdf: pdf,
            scan: seed as usize,
        }
    }

    #[test]
    fn ranking_orders_by_divergence() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("far", vec![0.0, 0.0, 1.0], 0));
        zoo.add(bragg_entry("near", vec![0.5, 0.4, 0.1], 1));
        zoo.add(bragg_entry("exact", vec![0.6, 0.3, 0.1], 2));
        let rec = zoo.snapshot().rank(&[0.6, 0.3, 0.1]).unwrap();
        assert_eq!(rec.best().unwrap().0, 2);
        assert_eq!(rec.worst().unwrap().0, 0);
        assert_eq!(rec.median().unwrap().0, 1);
        assert!(rec.best().unwrap().1 < rec.median().unwrap().1);
        assert!(rec.median().unwrap().1 < rec.worst().unwrap().1);
    }

    #[test]
    fn empty_recommendation_accessors_return_none_not_panic() {
        // Regression: `worst` used `self.ranked.last().unwrap()` and
        // `best` indexed `ranked[0]`, so a (publicly constructible) empty
        // recommendation panicked instead of answering.
        let empty = Recommendation { ranked: vec![] };
        assert_eq!(empty.best(), None);
        assert_eq!(empty.median(), None);
        assert_eq!(empty.worst(), None);
    }

    #[test]
    fn ranking_paths_never_hand_out_an_empty_recommendation() {
        // The Some/None contract: every Some(Recommendation) from rank /
        // rank_top_k carries at least one entry, so best() on it is Some.
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("only", vec![0.5, 0.5], 0));
        let snap = zoo.snapshot();
        for rec in [
            snap.rank(&[0.4, 0.6]),
            snap.rank_top_k(&[0.4, 0.6], 1),
            snap.rank_top_k(&[0.4, 0.6], 10),
        ] {
            let rec = rec.expect("compatible zoo must rank");
            assert!(!rec.ranked.is_empty());
            assert!(rec.best().is_some() && rec.worst().is_some());
        }
        // Incompatible / impossible queries collapse to None, never to
        // Some(empty).
        assert!(snap.rank(&[1.0]).is_none());
        assert!(snap.rank_top_k(&[1.0], 3).is_none());
        assert!(snap.rank_top_k(&[0.4, 0.6], 0).is_none());
    }

    #[test]
    fn decision_respects_threshold() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("only", vec![1.0, 0.0], 0));
        let snap = zoo.snapshot();
        let near = ModelManager::new(0.9).decide(&snap, &[0.9, 0.1]);
        assert!(matches!(near, Some((0, _))));
        let far = ModelManager::new(0.1).decide(&snap, &[0.0, 1.0]);
        assert_eq!(far, None);
    }

    #[test]
    fn empty_zoo_means_scratch() {
        let zoo = ModelZoo::new().snapshot();
        assert_eq!(ModelManager::default().decide(&zoo, &[0.5, 0.5]), None);
        assert!(zoo.rank(&[1.0]).is_none());
    }

    #[test]
    fn stale_pdf_lengths_are_skipped() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("old-k", vec![0.5, 0.5], 0)); // k=2 era
        zoo.add(bragg_entry("new-k", vec![0.3, 0.3, 0.4], 1)); // k=3 era
        let rec = zoo.snapshot().rank(&[0.3, 0.3, 0.4]).unwrap();
        assert_eq!(rec.ranked.len(), 1);
        assert_eq!(rec.best().unwrap().0, 1);
    }

    #[test]
    fn instantiate_restores_exact_outputs() {
        let arch = ArchSpec::BraggNN { patch: 15 };
        let original = arch.build(42);
        let mut zoo = ModelZoo::new();
        let id = zoo.add_model("m", arch, &original, vec![1.0], 0);
        let rebuilt = zoo.snapshot().instantiate(id, 999).unwrap();
        let x = TensorRng::seeded(5).uniform(&[3, 1, 15, 15], 0.0, 1.0);
        assert_eq!(original.infer(&x), rebuilt.infer(&x));
    }

    #[test]
    fn zoo_ids_are_stable() {
        let mut zoo = ModelZoo::new();
        let a = zoo.add(bragg_entry("a", vec![1.0], 0));
        let b = zoo.add(bragg_entry("b", vec![1.0], 1));
        assert_eq!((a, b), (0, 1));
        let snap = zoo.snapshot();
        assert_eq!(snap.get(a).unwrap().name, "a");
        assert_eq!(zoo.len(), 2);
        assert!(snap.instantiate(99, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "training-data PDF")]
    fn empty_pdf_rejected() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("bad", vec![], 0));
    }

    #[test]
    fn pdfs_without_valid_mass_are_rejected_at_registration() {
        // The empty PDF is `empty_pdf_rejected`.
        for bad in [vec![0.0, 0.0], vec![-0.1, 1.1], vec![f64::NAN, 1.0]] {
            let added = std::panic::catch_unwind(|| {
                ModelZoo::new().add(bragg_entry("bad", bad.clone(), 0))
            });
            assert!(added.is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn zoo_entry_document_roundtrip() {
        let entry = bragg_entry("rt", vec![0.1, 0.9], 3);
        let doc = entry.to_document(9);
        assert_eq!(doc.get_i64("zoo_id"), Some(9));
        let back = ZooEntry::from_document(&doc).unwrap();
        assert_eq!(back.name, entry.name);
        assert_eq!(back.arch, entry.arch);
        assert_eq!(back.checkpoint, entry.checkpoint);
        assert_eq!(back.scan, entry.scan);
        // The PDF is stored as f64: it comes back bit for bit.
        assert_eq!(back.train_pdf, entry.train_pdf);
    }

    #[test]
    fn zoo_collection_roundtrip_preserves_behaviour() {
        use fairdms_datastore::RawCodec;
        use std::sync::Arc;
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("a", vec![0.9, 0.1], 0));
        zoo.add(bragg_entry("b", vec![0.1, 0.9], 1));
        zoo.add(bragg_entry("c", vec![0.5, 0.5], 2));

        let coll = Collection::new("zoo", Arc::new(RawCodec));
        zoo.save_to_collection(&coll);
        assert_eq!(coll.len(), 3);
        // Saving again replaces rather than duplicates.
        zoo.save_to_collection(&coll);
        assert_eq!(coll.len(), 3);

        let restored = ModelZoo::load_from_collection(&coll);
        assert_eq!(restored.len(), 3);
        let restored = restored.snapshot();
        let before = zoo.snapshot().rank(&[0.85, 0.15]).unwrap().ranked;
        let after = restored.rank(&[0.85, 0.15]).unwrap().ranked;
        assert_eq!(before.len(), after.len());
        assert_eq!(before, after, "same ids, same divergence bits");
        // Checkpoints still instantiate.
        assert!(restored.instantiate(0, 0).is_some());
    }

    #[test]
    fn malformed_zoo_documents_are_skipped() {
        use fairdms_datastore::RawCodec;
        use std::sync::Arc;
        let coll = Collection::new("zoo", Arc::new(RawCodec));
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("good", vec![1.0], 0));
        zoo.save_to_collection(&coll);
        coll.insert(&Document::new().with("zoo_id", 1i64).with("name", "broken"));
        coll.insert(&Document::new().with("unrelated", 5i64));
        let restored = ModelZoo::load_from_collection(&coll);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.snapshot().get(0).unwrap().name, "good");
    }

    #[test]
    fn zero_mass_persisted_pdfs_are_skipped_on_restore() {
        // Stores written before registration validated PDF mass may carry
        // entries whose PDF sums to zero; restoring must skip them (like
        // any other malformed document), not abort the whole load.
        use fairdms_datastore::RawCodec;
        use std::sync::Arc;
        let coll = Collection::new("zoo", Arc::new(RawCodec));
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("good", vec![0.6, 0.4], 0));
        zoo.save_to_collection(&coll);
        let mut legacy = bragg_entry("zero-mass", vec![0.5, 0.5], 1).to_document(1);
        legacy.set("train_pdf", vec![0.0f32, 0.0]);
        coll.insert(&legacy);
        let restored = ModelZoo::load_from_collection(&coll);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.snapshot().get(0).unwrap().name, "good");
    }

    #[test]
    fn zoo_snapshot_is_frozen_while_registry_grows() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("a", vec![0.9, 0.1], 0));
        let snap = zoo.snapshot();
        zoo.add(bragg_entry("b", vec![0.1, 0.9], 1));
        assert_eq!(snap.len(), 1);
        assert_eq!(zoo.len(), 2);
        // Ranking against the snapshot sees only the frozen entries.
        let rec = snap.rank(&[0.1, 0.9]).unwrap();
        assert_eq!(rec.ranked.len(), 1);
        assert_eq!(rec.best().unwrap().0, 0);
        // The snapshot still instantiates its checkpoints.
        assert!(snap.instantiate(0, 0).is_some());
        assert!(snap.get(1).is_none());
        // A fresh snapshot picks up the new entry.
        assert_eq!(zoo.snapshot().len(), 2);
        assert!(ZooSnapshot::default().is_empty());
    }

    #[test]
    fn from_document_rejects_unknown_arch() {
        let mut doc = bragg_entry("x", vec![1.0], 0).to_document(0);
        doc.set("arch", "NotANetwork");
        assert!(ZooEntry::from_document(&doc).is_none());
    }

    #[test]
    fn republication_shares_unchanged_entry_allocations() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("a", vec![0.9, 0.1], 0));
        zoo.add(bragg_entry("b", vec![0.1, 0.9], 1));
        let snap1 = zoo.snapshot();
        // A publication after a new registration reuses every unchanged
        // Arc<ZooEntry> — zero checkpoint bytes copied.
        zoo.add(bragg_entry("c", vec![0.5, 0.5], 2));
        let snap2 = zoo.snapshot();
        assert_eq!(snap2.len(), 3);
        for i in 0..snap1.len() {
            assert!(
                Arc::ptr_eq(&snap1.entries()[i], &snap2.entries()[i]),
                "entry {i} must be structurally shared across publications"
            );
        }
        // Republication with no zoo change hands back the same snapshot.
        let snap3 = zoo.snapshot();
        assert!(Arc::ptr_eq(&snap2.0, &snap3.0));
    }

    /// A ranking as `(id, divergence bits)`: equal means same ids, same
    /// bits.
    pub(super) fn bits(ranked: &[(usize, f64)]) -> Vec<(usize, u64)> {
        ranked.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    #[test]
    fn top_k_agrees_with_full_ranking_prefix() {
        let mut zoo = ModelZoo::new();
        let mut rng = TensorRng::seeded(77);
        for i in 0..64 {
            let pdf: Vec<f64> = (0..8).map(|_| rng.next_uniform(0.01, 1.0) as f64).collect();
            zoo.add(bragg_entry(&format!("m{i}"), pdf, i));
        }
        let snap = zoo.snapshot();
        let query: Vec<f64> = (0..8).map(|_| rng.next_uniform(0.01, 1.0) as f64).collect();
        let full = snap.rank(&query).unwrap().ranked;
        // The scoring pass lands on the bits `jsd` computes from the raw
        // (un-normalised) masses.
        for &(id, div) in &full {
            assert_eq!(
                div.to_bits(),
                crate::jsd::jsd(&query, &snap.get(id).unwrap().train_pdf).to_bits()
            );
        }
        for k in [1, 3, 8, 64, 100] {
            let top = snap.rank_top_k(&query, k).unwrap().ranked;
            assert_eq!(bits(&top), bits(&full[..k.min(full.len())]), "top-{k}");
        }
    }

    #[test]
    fn top_k_skips_incompatible_lengths_and_empty_requests() {
        let mut zoo = ModelZoo::new();
        zoo.add(bragg_entry("k2", vec![0.5, 0.5], 0));
        zoo.add(bragg_entry("k3", vec![0.3, 0.3, 0.4], 1));
        let snap = zoo.snapshot();
        let top = snap.rank_top_k(&[0.2, 0.3, 0.5], 5).unwrap();
        assert_eq!(top.ranked.len(), 1);
        assert_eq!(top.best().unwrap().0, 1);
        assert!(snap.rank_top_k(&[0.2, 0.3, 0.5], 0).is_none());
        assert!(snap.rank_top_k(&[0.25; 4], 2).is_none());
        assert!(ZooSnapshot::default().rank_top_k(&[1.0], 1).is_none());
        // A `k` no zoo could fill reserves nothing for it.
        for k in [usize::MAX - 1, usize::MAX] {
            assert_eq!(
                snap.rank_top_k(&[0.2, 0.3, 0.5], k).unwrap().ranked,
                top.ranked
            );
        }
    }

    #[test]
    fn new_rejects_out_of_range_thresholds() {
        assert_eq!(ModelManager::new(0.0).distance_threshold(), 0.0);
        assert_eq!(ModelManager::new(1.0).distance_threshold(), 1.0);
        for bad in [-0.1, 1.7, f64::NAN] {
            let built = std::panic::catch_unwind(|| ModelManager::new(bad));
            assert!(built.is_err(), "threshold {bad} must be rejected");
        }
    }
}

#[cfg(test)]
mod top_k_properties {
    use super::*;
    use proptest::prelude::*;

    fn entry(pdf: Vec<f64>, i: usize) -> ZooEntry {
        ZooEntry {
            name: format!("m{i}"),
            arch: ArchSpec::BraggNN { patch: 15 },
            checkpoint: Vec::new(),
            train_pdf: pdf,
            scan: i,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn top_k_is_the_full_rankings_first_k(
            masses in proptest::collection::vec(0.01f64..1.0, 2..120),
            repeats in proptest::collection::vec(0usize..4, 1..24),
            qmass in proptest::collection::vec(0.01f64..1.0, 5usize),
            k in 1usize..12,
        ) {
            let d = 5usize;
            let pdfs: Vec<&[f64]> = masses.chunks_exact(d).collect();
            prop_assume!(!pdfs.is_empty());
            // Registering some PDFs more than once makes ties: a stable
            // ranking orders them by zoo id on both paths.
            let mut zoo = ModelZoo::new();
            for (i, &r) in repeats.iter().enumerate() {
                for _ in 0..=r {
                    zoo.add(entry(pdfs[i % pdfs.len()].to_vec(), zoo.len()));
                }
            }
            let snap = zoo.snapshot();
            let full = snap.rank(&qmass).unwrap().ranked;
            prop_assert_eq!(full.len(), zoo.len());
            for w in full.windows(2) {
                prop_assert!(w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
            }
            let top = snap.rank_top_k(&qmass, k).unwrap().ranked;
            prop_assert_eq!(
                super::tests::bits(&top),
                super::tests::bits(&full[..k.min(full.len())])
            );
        }
    }
}
