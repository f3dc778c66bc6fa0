//! The data-reuse plane: a content-addressed embedding memo table.
//!
//! fairDMS's headline mechanism is **data reuse**: hash incoming frames
//! and serve stored DNN outputs for data already seen, so only new data
//! pays for a forward pass (paper §II-A). Here the reused output is the
//! *embedding*, the first step of every read ([`SystemSnapshot::dataset_pdf`],
//! `certainty`, `pseudo_label`, `nearest_labeled`). [`EmbedCache::embed`]
//! is the one path through the table: probe every row, forward **only the
//! misses** as one partial batch, scatter them back, install them. The
//! probe and the install are each one pass over the request's rows
//! grouped by shard: one lock per touched shard, and one update of each
//! shared counter, per pass.
//!
//! * **Content-addressed.** The key is a fast 64-bit hash of the row's
//!   `f32` bit patterns plus its length ([`fairdms_tensor::hash`]),
//!   confirmed by a full-row equality check before a hit is served — a
//!   64-bit collision degrades to a miss, never to a wrong embedding.
//! * **Owned by one snapshot.** Each published [`SystemSnapshot`] has its
//!   own table, as it has its own read index, so a table only ever holds
//!   its owner's embeddings: a retrain's snapshot starts from a fresh
//!   table ([`EmbedCache::warm`]ed by the install) and a reader still
//!   holding the old snapshot keeps hitting the old one. Only the
//!   counters are shared ([`EmbedCacheCounters`]).
//! * **Sharded and bounded.** Entries live in independent second-chance
//!   (clock) LRU segments — one per 512 entries of capacity, at most
//!   eight — selected by the high hash bits; there is no global lock.
//!   Insertion beyond capacity evicts via the clock hand (recently-hit
//!   entries get a second chance), overwriting the victim in place.
//!
//! [`SystemSnapshot`]: crate::fairds::SystemSnapshot
//! [`SystemSnapshot::dataset_pdf`]: crate::fairds::SystemSnapshot::dataset_pdf

use fairdms_tensor::{hash::row_hashes, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Embedding-cache sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EmbedCacheConfig {
    /// Total entry budget across all shards. `0` disables caching
    /// entirely (every probe misses, nothing is stored). The shard count
    /// is derived from it ([`EmbedCache::new`]).
    pub capacity: usize,
}

/// Capacity each shard stands for: a cache gets one shard per this many
/// entries, so a small cache is one segment with exact LRU-clock order.
const ENTRIES_PER_SHARD: usize = 512;

/// Shard-count ceiling — more segments than this buy no lock spread on the
/// thread counts a deployment runs.
const MAX_SHARDS: usize = 8;

impl Default for EmbedCacheConfig {
    fn default() -> Self {
        EmbedCacheConfig {
            // 4096 entries of a 225-pixel frame + 16-d embedding ≈ 4 MiB:
            // enough to hold several full scans of the paper's Bragg
            // workload, small enough to be default-on.
            capacity: 4096,
        }
    }
}

/// Point-in-time copy of the cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmbedCacheStats {
    /// Probes served from the table (hash + full row match).
    pub hits: u64,
    /// Probes that missed. A disabled cache probes nothing.
    pub misses: u64,
    /// Entries displaced by the clock hand to make room.
    pub evictions: u64,
    /// Always 0: no table is shared across embedders, so no probe is ever
    /// refused as stale. Kept because the wire format carries it.
    pub stale_generation: u64,
}

impl EmbedCacheStats {
    /// Fraction of probes served from the table (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Monotone statistics of every table one [`crate::fairds::FairDS`]
/// publishes, surfaced through the service's metrics endpoint. Counters
/// only — all `Relaxed`, nothing is ordered by them.
#[derive(Debug, Default)]
pub struct EmbedCacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EmbedCacheCounters {
    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> EmbedCacheStats {
        EmbedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_generation: 0,
        }
    }
}

/// One memoized embedding.
struct Entry {
    hash: u64,
    /// The full input row — the collision check (and the reason a hit can
    /// be trusted bit-for-bit).
    key: Box<[f32]>,
    value: Box<[f32]>,
    /// Second-chance bit: "hit since the clock hand last passed". Set by
    /// probes only (a fresh insert starts unreferenced), cleared once by
    /// the hand before the entry becomes evictable.
    referenced: bool,
}

/// The hasher of a shard's index: its keys are [`row_hashes`] output,
/// already fully mixed, so hashing them again would only cost time.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher, through `write_u64`.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Adds `n` to a shared counter, touching its cache line only when `n > 0`.
fn count(counter: &AtomicU64, n: usize) {
    if n > 0 {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Copies `src` into `dst`, reusing `dst`'s allocation when the widths agree.
fn overwrite(dst: &mut Box<[f32]>, src: &[f32]) {
    if dst.len() == src.len() {
        dst.copy_from_slice(src);
    } else {
        *dst = src.into();
    }
}

/// One independent segment: a slot arena + hash index + clock hand.
#[derive(Default)]
struct Shard {
    /// `hash → slot` index. One slot per hash: an insert whose hash is
    /// resident replaces that entry in place — the same row, or a true
    /// 64-bit collision — so capacity accounting stays exact and
    /// correctness comes from the full-row check.
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Entry>,
    hand: usize,
}

impl Shard {
    /// Copies the cached embedding into `dst` when `hash` and the full row
    /// match.
    fn get_into(&mut self, hash: u64, row: &[f32], dst: &mut [f32]) -> bool {
        let Some(&slot) = self.index.get(&hash) else {
            return false;
        };
        let e = &mut self.slots[slot];
        if e.key.as_ref() != row {
            return false; // 64-bit collision — extremely rare
        }
        dst.copy_from_slice(&e.value);
        e.referenced = true;
        true
    }

    /// Installs `row → value`, evicting via second chance when at
    /// `capacity`. Returns the number of evictions (0 or 1).
    fn insert(&mut self, capacity: usize, hash: u64, row: &[f32], value: &[f32]) -> usize {
        if capacity == 0 {
            return 0;
        }
        if let Some(&slot) = self.index.get(&hash) {
            let e = &mut self.slots[slot];
            overwrite(&mut e.key, row);
            overwrite(&mut e.value, value);
            return 0;
        }
        if self.slots.len() < capacity {
            self.index.insert(hash, self.slots.len());
            self.slots.push(Entry {
                hash,
                key: row.into(),
                value: value.into(),
                referenced: false,
            });
            return 0;
        }
        // Second-chance clock: skip (and strip) referenced entries, evict
        // the first unreferenced one, overwriting it in place. Bounded by
        // 2×capacity steps.
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let victim = &mut self.slots[slot];
            if victim.referenced {
                victim.referenced = false;
                continue;
            }
            self.index.remove(&victim.hash);
            self.index.insert(hash, slot);
            victim.hash = hash;
            overwrite(&mut victim.key, row);
            overwrite(&mut victim.value, value);
            return 1;
        }
    }
}

/// Sharded, content-addressed embedding memo table of one published
/// snapshot. See the [module docs](self) for the design.
pub struct EmbedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    counters: Arc<EmbedCacheCounters>,
}

impl EmbedCache {
    /// An empty table counting into `counters`, its capacity split across
    /// `(capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS)` shards.
    pub fn new(cfg: EmbedCacheConfig, counters: Arc<EmbedCacheCounters>) -> Self {
        let shards = (cfg.capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS);
        EmbedCache {
            // Round the per-shard budget up so total capacity is never
            // silently below the configured one.
            per_shard_capacity: cfg.capacity.div_ceil(shards),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            counters,
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    /// Total entry budget.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        // High bits select the shard; the index reads the low ones. The
        // hash's finalizer avalanches fully, so both are uniform.
        ((hash >> 48) as usize) % self.shards.len()
    }

    /// `(shard, row)` for every row, ordered by shard and then by row: the
    /// rows one shard lock covers are adjacent.
    fn route(&self, hashes: &[u64]) -> Vec<(usize, usize)> {
        let mut routed: Vec<(usize, usize)> = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| (self.shard_of(h), i))
            .collect();
        routed.sort_unstable();
        routed
    }

    /// Embeds `images` (`[n, d]`) into `[n, dim]`: hits are copied straight
    /// into the output, **only the misses** go through one `forward` call,
    /// scattered back and installed. A batch with no hit is forwarded whole
    /// and `forward`'s own output returned; a disabled table is `forward`
    /// itself. Bit-identical to `forward(images)` for a row-independent,
    /// deterministic `forward`, as every embedder in this workspace is.
    pub fn embed(
        &self,
        images: &Tensor,
        dim: usize,
        forward: impl FnOnce(&Tensor) -> Tensor,
    ) -> Tensor {
        let n = images.shape()[0];
        if !self.is_enabled() {
            return forward(images);
        }
        if n == 0 {
            return Tensor::zeros(&[0, dim]);
        }
        let hashes = row_hashes(images);
        let mut out = Tensor::zeros(&[n, dim]);
        let missed = self.probe(&self.route(&hashes), &hashes, images, &mut out);
        if missed.len() == n {
            let z = forward(images);
            self.install(&missed, &hashes, images, &z);
            return z;
        }
        if !missed.is_empty() {
            let mut rows: Vec<usize> = missed.iter().map(|&(_, i)| i).collect();
            rows.sort_unstable();
            let z = forward(&images.gather_rows(&rows));
            out.scatter_rows_from(&rows, &z);
            self.install(&missed, &hashes, images, &out);
        }
        out
    }

    /// Installs row `i` of `embeddings` as the embedding of row `i` of
    /// `images`: the warm path of an O(copy) retrain install, whose
    /// training job already embedded every row, so the new snapshot's
    /// table starts hot.
    pub fn warm(&self, images: &Tensor, embeddings: &Tensor) {
        if !self.is_enabled() {
            return;
        }
        let hashes = row_hashes(images);
        self.install(&self.route(&hashes), &hashes, images, embeddings);
    }

    /// The probe pass over `routed` rows ([`EmbedCache::route`]'s order):
    /// copies every hit into its row of `out`, under one lock per touched
    /// shard, and returns the missed `(shard, row)` pairs in the same
    /// order. Counts the pass's hits and misses once.
    fn probe(
        &self,
        routed: &[(usize, usize)],
        hashes: &[u64],
        images: &Tensor,
        out: &mut Tensor,
    ) -> Vec<(usize, usize)> {
        let mut missed = Vec::new();
        for run in routed.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0].lock();
            for &(s, i) in run {
                if !shard.get_into(hashes[i], images.row(i), out.row_mut(i)) {
                    missed.push((s, i));
                }
            }
        }
        count(&self.counters.hits, routed.len() - missed.len());
        count(&self.counters.misses, missed.len());
        missed
    }

    /// The install pass: `row i → values.row(i)` for every routed row, under
    /// one lock per touched shard. Counts the pass's evictions once.
    fn install(&self, routed: &[(usize, usize)], hashes: &[u64], images: &Tensor, values: &Tensor) {
        let mut evicted = 0usize;
        for run in routed.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0].lock();
            for &(_, i) in run {
                let (row, value) = (images.row(i), values.row(i));
                evicted += shard.insert(self.per_shard_capacity, hashes[i], row, value);
            }
        }
        count(&self.counters.evictions, evicted);
    }

    /// A point-in-time copy of the counters every table of a `FairDS` shares.
    pub fn stats(&self) -> EmbedCacheStats {
        self.counters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::hash::hash_row;
    use fairdms_tensor::rng::TensorRng;

    fn row(seed: f32, d: usize) -> Vec<f32> {
        (0..d).map(|i| seed + i as f32 * 0.5).collect()
    }

    fn table(cfg: EmbedCacheConfig) -> EmbedCache {
        EmbedCache::new(cfg, Arc::default())
    }

    /// One probe pass over the one-row batch `r`, filed under `hash`.
    fn probe_as(cache: &EmbedCache, hash: u64, r: &[f32]) -> Option<Vec<f32>> {
        let mut dst = Tensor::zeros(&[1, 4]);
        let missed = cache.probe(&cache.route(&[hash]), &[hash], &matrix(&[r]), &mut dst);
        missed.is_empty().then(|| dst.row(0).to_vec())
    }

    fn probe(cache: &EmbedCache, r: &[f32]) -> Option<Vec<f32>> {
        probe_as(cache, hash_row(r), r)
    }

    /// One install pass of the one-row batch `r → z`, filed under `hash`.
    fn insert(cache: &EmbedCache, hash: u64, r: &[f32], z: &[f32]) {
        cache.install(&cache.route(&[hash]), &[hash], &matrix(&[r]), &matrix(&[z]));
    }

    fn resident(cache: &EmbedCache) -> usize {
        cache.shards.iter().map(|s| s.lock().slots.len()).sum()
    }

    fn matrix<R: AsRef<[f32]>>(rows: &[R]) -> Tensor {
        let width = rows[0].as_ref().len();
        let data = rows
            .iter()
            .flat_map(|r| r.as_ref().iter().copied())
            .collect();
        Tensor::from_vec(data, &[rows.len(), width])
    }

    #[test]
    fn round_trips_by_content() {
        let cache = table(EmbedCacheConfig::default());
        let r = row(1.0, 8);
        let z = row(9.0, 4);
        assert!(probe(&cache, &r).is_none());
        insert(&cache, hash_row(&r), &r, &z);
        // Same content, fresh allocation: still a hit.
        let r2 = row(1.0, 8);
        assert_eq!(probe(&cache, &r2).as_deref(), Some(&z[..]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
    }

    #[test]
    fn full_row_confirmation_rules_out_forged_hash_matches() {
        let cache = table(EmbedCacheConfig::default());
        let r = row(4.0, 8);
        let h = hash_row(&r);
        insert(&cache, h, &r, &row(0.0, 4));
        // Probe with the *same hash* but different content (a simulated
        // 64-bit collision): the full-row check must refuse the hit.
        let imposter = row(5.0, 8);
        assert!(probe_as(&cache, h, &imposter).is_none());
    }

    #[test]
    fn capacity_is_bounded_and_eviction_counts() {
        let cache = table(EmbedCacheConfig { capacity: 8 });
        for i in 0..32 {
            let r = row(i as f32, 8);
            insert(&cache, hash_row(&r), &r, &row(0.0, 4));
        }
        assert!(resident(&cache) <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn second_chance_protects_recently_hit_entries() {
        // One shard, capacity 2: hit entry A, then insert pressure must
        // evict the un-hit B first.
        let cache = table(EmbedCacheConfig { capacity: 2 });
        let (a, b) = (row(1.0, 8), row(2.0, 8));
        insert(&cache, hash_row(&a), &a, &row(10.0, 4));
        insert(&cache, hash_row(&b), &b, &row(20.0, 4));
        // Touch A so only A carries the second-chance bit.
        assert!(probe(&cache, &a).is_some());
        let newcomer = row(4.0, 8);
        insert(&cache, hash_row(&newcomer), &newcomer, &row(40.0, 4));
        assert!(
            probe(&cache, &a).is_some(),
            "recently-hit entry must survive one insertion wave"
        );
        assert!(probe(&cache, &newcomer).is_some());
        assert!(
            probe(&cache, &b).is_none(),
            "the un-hit entry is the victim"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    /// A row-independent stand-in for an embedder's forward pass.
    fn forward(x: &Tensor) -> Tensor {
        let z: Vec<Vec<f32>> = (0..x.shape()[0])
            .map(|i| vec![x.row(i)[0] * 10.0, x.row(i)[1], 0.0, 1.0])
            .collect();
        matrix(&z)
    }

    #[test]
    fn a_batch_counts_and_forwards_as_row_by_row_probes_would() {
        let cache = table(EmbedCacheConfig::default());
        let (a, b, c, d) = (row(1.0, 8), row(2.0, 8), row(3.0, 8), row(4.0, 8));
        cache.warm(&matrix(&[&a, &b]), &forward(&matrix(&[&a, &b])));
        // Two hits, a row that arrives twice, and one more miss.
        let batch = matrix(&[&a, &c, &b, &c, &d]);
        let mut calls = Vec::new();
        let z = cache.embed(&batch, 4, |x| {
            calls.push(x.clone());
            forward(x)
        });
        assert_eq!(z, forward(&batch));
        // One forward pass over the misses, in row order; both copies of
        // `c` miss, and installing them leaves one entry.
        assert_eq!(calls, vec![matrix(&[&c, &c, &d])]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 3, 0));
        assert_eq!(resident(&cache), 4);
        let again = cache.embed(&batch, 4, |_| panic!("every row is resident"));
        assert_eq!(again, z);
        assert_eq!(cache.stats().hits, 7);
    }

    #[test]
    fn rows_fill_the_shards_evenly() {
        // 4,096 rows over the default table's 8 shards: 512 a shard, σ ≈ 21,
        // so ±15% (±3.6σ) holds any hash whose high bits are uniform, and
        // a shard selector that reads bits the hash leaves unmixed piles
        // the rows into a few shards.
        let cache = table(EmbedCacheConfig::default());
        assert_eq!(cache.shards.len(), 8);
        let random = TensorRng::seeded(17).uniform(&[4_096, 225], 0.0, 1.0);
        let counters: Vec<Vec<f32>> = (0..4_096).map(|i| row(i as f32, 225)).collect();
        for rows in [random, matrix(&counters)] {
            let mut fill = [0usize; 8];
            for h in row_hashes(&rows) {
                fill[cache.shard_of(h)] += 1;
            }
            assert!(fill.iter().all(|f| (435..=589).contains(f)), "{fill:?}");
        }
    }

    #[test]
    fn warm_populates_a_fresh_table_in_bulk() {
        let cache = table(EmbedCacheConfig { capacity: 64 });
        let rows: Vec<Vec<f32>> = (0..16).map(|i| row(i as f32, 8)).collect();
        let values: Vec<Vec<f32>> = (0..16).map(|i| row(100.0 + i as f32, 4)).collect();
        cache.warm(&matrix(&rows), &matrix(&values));
        for i in 0..16 {
            assert_eq!(
                probe(&cache, &rows[i]).as_deref(),
                Some(&values[i][..]),
                "warmed row {i} must hit"
            );
        }
    }

    #[test]
    fn warm_respects_capacity_and_counts_evictions() {
        let cache = table(EmbedCacheConfig { capacity: 8 });
        let rows: Vec<Vec<f32>> = (0..32).map(|i| row(i as f32, 8)).collect();
        let values = vec![row(0.0, 4); 32];
        cache.warm(&matrix(&rows), &matrix(&values));
        assert!(resident(&cache) <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn shard_count_is_derived_from_capacity() {
        for (capacity, shards) in [(0, 1), (4, 1), (1_024, 2), (4_096, 8), (1 << 20, 8)] {
            let cache = table(EmbedCacheConfig { capacity });
            assert_eq!(cache.shards.len(), shards, "capacity {capacity}");
            assert!(cache.capacity() >= capacity, "capacity {capacity}");
        }
        // Rounding the per-shard budget up never loses configured room.
        for capacity in [1, 511, 513, 1_500, 4_097, 9_999] {
            let cache = table(EmbedCacheConfig { capacity });
            assert!(cache.capacity() >= capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn zero_capacity_disables_cleanly() {
        let cache = table(EmbedCacheConfig { capacity: 0 });
        assert!(!cache.is_enabled());
        assert_eq!(cache.capacity(), 0);
        let r = row(1.0, 8);
        insert(&cache, hash_row(&r), &r, &row(0.0, 4));
        assert!(probe(&cache, &r).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn concurrent_probes_and_inserts_stay_consistent() {
        let cache = Arc::new(table(EmbedCacheConfig { capacity: 256 }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let r = row(((t * 37 + i) % 64) as f32, 16);
                    if let Some(dst) = probe(&cache, &r) {
                        // A hit must carry the value inserted for this row.
                        assert_eq!(dst[0], r[0] * 2.0, "foreign value served");
                    } else {
                        let z = vec![r[0] * 2.0, 0.0, 0.0, 0.0];
                        insert(&cache, hash_row(&r), &r, &z);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(resident(&cache) <= cache.capacity());
    }
}
