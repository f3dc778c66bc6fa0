//! The embedded document store: the MongoDB stand-in behind fairDS.
//!
//! The paper's Data Store requirements (§II-A): (i) scale to large data,
//! (ii) efficient lookup via embedding/cluster indexing, (iii) data updates,
//! (iv) parallel reads during training, (v) parallel writes during update.
//! [`Collection`] covers (i), (iii), (iv) and (v): documents live in hash
//! shards guarded by independent `parking_lot::RwLock`s (parallel reads and
//! writes), and are stored *encoded* (through the collection's [`Codec`])
//! so read paths pay the same deserialization cost the paper measures.
//! Lookup by cluster (ii) is fairDS's read index, kept current from this
//! store's change log ([`Collection::changes_since`]); the store itself
//! keeps no index over document fields.

use crate::codec::Codec;
use crate::value::Document;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable identifier of a stored document.
pub type DocId = u64;

const DEFAULT_SHARDS: usize = 16;

/// Mutations the change log remembers. A derived cache that falls further
/// behind than this rebuilds from the store instead of catching up; 4,096
/// ids are 32 KiB per collection and cover sixty-odd ingest batches.
const CHANGE_LOG_CAPACITY: usize = 4096;

struct Shard {
    docs: HashMap<DocId, Bytes>,
}

/// A named set of documents with a shared codec, in hash shards.
pub struct Collection {
    name: String,
    codec: Arc<dyn Codec>,
    shards: Vec<RwLock<Shard>>,
    next_id: AtomicU64,
    /// The number of mutations ever logged: advanced by one per inserted,
    /// updated or deleted document. Readers key derived caches (e.g.
    /// fairDS's read index) on this so they refresh exactly once per store
    /// change instead of re-querying per call.
    revision: AtomicU64,
    /// The ids of the last [`CHANGE_LOG_CAPACITY`] mutations, oldest
    /// first: the entry at position `i` took the revision from
    /// `revision - len + i` to one more. `revision` only moves under this
    /// lock, after the entries it counts are in place.
    changes: Mutex<VecDeque<DocId>>,
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection")
            .field("name", &self.name)
            .field("codec", &self.codec.name())
            .field("len", &self.len())
            .finish()
    }
}

impl Collection {
    /// Creates an empty collection using `codec` for the stored payloads.
    pub fn new(name: &str, codec: Arc<dyn Codec>) -> Self {
        let shards = (0..DEFAULT_SHARDS)
            .map(|_| {
                RwLock::new(Shard {
                    docs: HashMap::new(),
                })
            })
            .collect();
        Collection {
            name: name.to_string(),
            codec,
            shards,
            next_id: AtomicU64::new(0),
            revision: AtomicU64::new(0),
            changes: Mutex::new(VecDeque::with_capacity(CHANGE_LOG_CAPACITY)),
        }
    }

    /// Monotone mutation counter: advances by one per document inserted,
    /// updated, or deleted. Equal revisions observed before and after a
    /// derived computation guarantee the computation saw a stable set of
    /// documents (publish with `Release`, read with `Acquire`).
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Logs the mutated `ids` and advances the revision past all of them
    /// in one step, so a reader sees none or all of a batch. Every mutation
    /// passes through here *after* its document write, so whoever observes
    /// the new revision (or the log entries) also observes the documents.
    fn bump_revision(&self, ids: &[DocId]) {
        let mut log = self.changes.lock();
        let tail = &ids[ids.len().saturating_sub(CHANGE_LOG_CAPACITY)..];
        let excess = (log.len() + tail.len()).saturating_sub(CHANGE_LOG_CAPACITY);
        log.drain(..excess);
        log.extend(tail);
        self.revision.fetch_add(ids.len() as u64, Ordering::Release);
    }

    /// The ids mutated since the store was at revision `since`, in
    /// mutation order (an id mutated twice appears twice); `since` plus
    /// their number is the revision they lead to. `None` once the log has
    /// been trimmed past `since` — the caller must re-read the store.
    pub fn changes_since(&self, since: u64) -> Option<Vec<DocId>> {
        let log = self.changes.lock();
        // Stable while the log is locked: the revision only moves under it.
        let behind = self.revision.load(Ordering::Acquire).checked_sub(since)?;
        let start = log.len().checked_sub(usize::try_from(behind).ok()?)?;
        Some(log.range(start..).copied().collect())
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The codec documents are stored with.
    pub fn codec(&self) -> &dyn Codec {
        self.codec.as_ref()
    }

    #[inline]
    fn shard_of(&self, id: DocId) -> &RwLock<Shard> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Inserts a document, returning its id. Encoding happens on the insert
    /// path.
    pub fn insert(&self, doc: &Document) -> DocId {
        self.insert_many(std::slice::from_ref(doc))[0]
    }

    /// Inserts many documents, returning their (consecutive) ids in order.
    /// Documents are encoded before any lock is taken, and the batch is
    /// published under a single revision advance.
    pub fn insert_many(&self, docs: &[Document]) -> Vec<DocId> {
        let first = self.next_id.fetch_add(docs.len() as u64, Ordering::Relaxed);
        let ids: Vec<DocId> = (first..first + docs.len() as u64).collect();
        let encoded: Vec<Bytes> = docs
            .iter()
            .map(|doc| Bytes::from(self.codec.encode(doc)))
            .collect();
        for (&id, payload) in ids.iter().zip(encoded) {
            self.shard_of(id).write().docs.insert(id, payload);
        }
        self.bump_revision(&ids);
        ids
    }

    /// Fetches and decodes a document.
    pub fn get(&self, id: DocId) -> Option<Document> {
        let raw = self.get_raw(id)?;
        Some(
            self.codec
                .decode(&raw)
                .expect("stored document failed to decode: codec mismatch or corruption"),
        )
    }

    /// Fetches the stored (encoded) payload without decoding.
    pub fn get_raw(&self, id: DocId) -> Option<Bytes> {
        self.shard_of(id).read().docs.get(&id).cloned()
    }

    /// Replaces a document in place, keeping its id. Returns false when the
    /// id does not exist. The new document is encoded before the lock; the
    /// existence check and the write are one step under the shard's write
    /// lock, so an update racing a delete of the same id never resurrects it.
    pub fn update(&self, id: DocId, doc: &Document) -> bool {
        let encoded = Bytes::from(self.codec.encode(doc));
        match self.shard_of(id).write().docs.get_mut(&id) {
            Some(payload) => *payload = encoded,
            None => return false,
        }
        self.bump_revision(&[id]);
        true
    }

    /// Deletes a document. Returns false when the id does not exist; of two
    /// racing deletes of one id, exactly one returns true.
    pub fn delete(&self, id: DocId) -> bool {
        if self.shard_of(id).write().docs.remove(&id).is_none() {
            return false;
        }
        self.bump_revision(&[id]);
        true
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().docs.len()).sum()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All document ids, ascending.
    pub fn ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().docs.keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Total stored (encoded) bytes.
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().docs.values().map(|b| b.len()).sum::<usize>())
            .sum()
    }

    /// The id the next insert will be assigned (snapshot metadata).
    pub fn next_id(&self) -> DocId {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Restores an already-encoded payload under a specific id (snapshot
    /// restore path — bypasses re-encoding).
    pub(crate) fn insert_raw_with_id(&self, id: DocId, payload: Bytes) {
        self.shard_of(id).write().docs.insert(id, payload);
        self.bump_revision(&[id]);
    }

    /// Forces the id counter (snapshot restore path).
    pub(crate) fn set_next_id(&self, v: DocId) {
        self.next_id.store(v, Ordering::Relaxed);
    }

    /// Full scan with a decoded-document predicate; returns matching ids in
    /// ascending order. It derives membership from the documents
    /// themselves, so it is the reference tests hold derived indexes to.
    pub fn scan(&self, pred: impl Fn(&Document) -> bool) -> Vec<DocId> {
        self.ids()
            .into_iter()
            .filter(|&id| self.get(id).is_some_and(|d| pred(&d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RawCodec;
    use std::thread;

    fn doc(cluster: i64, scan: i64) -> Document {
        Document::new()
            .with("cluster", cluster)
            .with("scan", scan)
            .with("pixels", vec![cluster as f32; 16])
    }

    #[test]
    fn crud_roundtrip() {
        let coll = Collection::new("t", Arc::new(RawCodec));
        let id = coll.insert(&doc(1, 10));
        assert_eq!(coll.len(), 1);
        let got = coll.get(id).unwrap();
        assert_eq!(got.get_i64("cluster"), Some(1));
        assert!(coll.update(id, &doc(2, 10)));
        assert_eq!(coll.get(id).unwrap().get_i64("cluster"), Some(2));
        assert!(coll.delete(id));
        assert!(coll.get(id).is_none());
        assert!(!coll.delete(id));
        assert!(!coll.update(id, &doc(0, 0)));
    }

    #[test]
    fn parallel_writers_do_not_lose_documents() {
        let coll = Arc::new(Collection::new("t", Arc::new(RawCodec)));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&coll);
            handles.push(thread::spawn(move || {
                for i in 0..200 {
                    c.insert(&doc(t as i64, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(coll.len(), 1600);
        for t in 0..8 {
            assert_eq!(coll.scan(|d| d.get_i64("cluster") == Some(t)).len(), 200);
        }
    }

    #[test]
    fn parallel_readers_see_consistent_data() {
        let coll = Arc::new(Collection::new("t", Arc::new(RawCodec)));
        let ids: Vec<DocId> = (0..100).map(|i| coll.insert(&doc(i % 5, i))).collect();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&coll);
            let ids = ids.clone();
            handles.push(thread::spawn(move || {
                for &id in &ids {
                    let d = c.get(id).unwrap();
                    assert_eq!(d.get_f32s("pixels").unwrap().len(), 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn revision_tracks_every_mutation() {
        let coll = Collection::new("t", Arc::new(RawCodec));
        let r0 = coll.revision();
        let id = coll.insert(&doc(1, 0));
        let r1 = coll.revision();
        assert!(r1 > r0, "insert must bump the revision");
        assert!(coll.update(id, &doc(2, 0)));
        let r2 = coll.revision();
        assert!(r2 > r1, "update must bump the revision");
        assert!(coll.delete(id));
        let r3 = coll.revision();
        assert!(r3 > r2, "delete must bump the revision");
        // Failed mutations and reads leave it unchanged.
        assert!(!coll.delete(id));
        assert!(!coll.update(id, &doc(0, 0)));
        let _ = coll.scan(|d| d.get_i64("cluster") == Some(1));
        assert_eq!(coll.revision(), r3);
    }

    #[test]
    fn change_log_lists_mutations_in_order() {
        let coll = Collection::new("t", Arc::new(RawCodec));
        let r0 = coll.revision();
        let a = coll.insert(&doc(1, 0));
        let batch = coll.insert_many(&[doc(2, 1), doc(3, 2)]);
        let r1 = coll.revision();
        assert!(coll.update(a, &doc(4, 0)));
        assert!(coll.delete(batch[0]));
        // Failed mutations log nothing.
        assert!(!coll.delete(batch[0]));
        let all = coll.changes_since(r0).expect("within the log");
        assert_eq!(all, vec![a, batch[0], batch[1], a, batch[0]]);
        assert_eq!(r0 + all.len() as u64, coll.revision());
        assert_eq!(coll.changes_since(r1), Some(vec![a, batch[0]]));
        assert_eq!(coll.changes_since(coll.revision()), Some(Vec::new()));
        assert_eq!(coll.changes_since(coll.revision() + 1), None);
    }

    #[test]
    fn trimmed_change_log_returns_none() {
        let coll = Collection::new("t", Arc::new(RawCodec));
        let id = coll.insert(&doc(0, 0));
        let r1 = coll.revision();
        for i in 0..CHANGE_LOG_CAPACITY as i64 {
            assert!(coll.update(id, &doc(i, 0)));
        }
        // Exactly CAPACITY entries since r1: still derivable; one further
        // back is gone.
        assert_eq!(
            coll.changes_since(r1).map(|c| c.len()),
            Some(CHANGE_LOG_CAPACITY)
        );
        assert_eq!(coll.changes_since(r1 - 1), None);
        // One batch larger than the log keeps only its tail.
        let docs: Vec<Document> = (0..CHANGE_LOG_CAPACITY as i64 + 5)
            .map(|i| doc(i, 1))
            .collect();
        let r2 = coll.revision();
        let ids = coll.insert_many(&docs);
        assert_eq!(coll.revision(), r2 + ids.len() as u64);
        assert_eq!(coll.changes_since(r2), None);
        assert_eq!(coll.changes_since(r2 + 5), Some(ids[5..].to_vec()));
    }

    #[test]
    fn concurrent_inserts_lose_no_log_entry() {
        let coll = Arc::new(Collection::new("t", Arc::new(RawCodec)));
        let r0 = coll.revision();
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4i64)
            .map(|t| {
                let c = Arc::clone(&coll);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    let mut ids = Vec::new();
                    let mut pairs = Vec::new();
                    for i in 0..50 {
                        ids.push(c.insert(&doc(t, i)));
                        let pair = c.insert_many(&[doc(t, i), doc(t, i)]);
                        ids.extend(&pair);
                        pairs.push((pair[0], pair[1]));
                    }
                    (ids, pairs)
                })
            })
            .collect();
        let (mut inserted, mut pairs) = (Vec::new(), Vec::new());
        for h in handles {
            let (ids, batches) = h.join().unwrap();
            inserted.extend(ids);
            pairs.extend(batches);
        }
        let mut logged = coll.changes_since(r0).expect("600 entries fit the log");
        assert_eq!(coll.revision(), r0 + logged.len() as u64);
        // A batch is published whole: its entries sit side by side.
        for (a, b) in pairs {
            let at = logged.iter().position(|&id| id == a).expect("logged");
            assert_eq!(logged.get(at + 1), Some(&b), "batch {a},{b} interleaved");
        }
        inserted.sort_unstable();
        logged.sort_unstable();
        assert_eq!(logged, inserted, "every insert is logged exactly once");
    }
}
