//! The data-reuse plane: a content-addressed embedding memo table.
//!
//! fairDMS's headline mechanism is **data reuse** — hash incoming frames
//! and serve cached DNN outputs for data the system has already seen, so
//! only genuinely new data pays for a forward pass (paper §II-A). In this
//! reproduction the reused DNN output is the *embedding*: every read-plane
//! operation ([`SystemSnapshot::dataset_pdf`], `certainty`,
//! `pseudo_label`, `nearest_labeled`) starts by embedding its image batch,
//! and at an experiment facility the same frames recur constantly
//! (repeated scans, re-queried datasets, monitor batches over a sliding
//! window).
//!
//! [`EmbedCache`] memoizes that first step:
//!
//! * **Content-addressed.** The key is a fast 64-bit hash of the row's
//!   `f32` bit patterns plus its length ([`fairdms_tensor::hash`]),
//!   confirmed by a full-row equality check before a hit is served — a
//!   64-bit collision degrades to a miss, never to a wrong embedding.
//! * **Generation-fenced.** Every entry is tagged with the embedder
//!   *generation* (the published [`SystemSnapshot::version`]). A system
//!   retrain publishes a new generation; entries from the old embedder
//!   stop matching instantly — no scan, no flush, just a fence check on
//!   the hit path — so a retrain can never serve pre-publication
//!   embeddings. Inserts from superseded snapshots are dropped for the
//!   same reason.
//! * **Sharded and lock-light.** Entries live in independent second-
//!   chance (clock) LRU segments — one per 512 entries of capacity, at
//!   most eight — selected by the high hash bits; a hit takes one short
//!   shard lock, and concurrent batches touch disjoint shards most of the
//!   time. There is no global lock anywhere.
//! * **Bounded.** Capacity is fixed at construction and split across
//!   shards; insertion beyond capacity evicts via the clock hand
//!   (recently-hit entries get a second chance before leaving).
//!
//! The consumer-side pattern is *miss-only batched inference*
//! ([`SystemSnapshot::embed_cached`]): probe the cache per row, gather
//! only the misses into one partial batch for a single forward pass
//! (one GEMM instead of N), scatter the results back, install them.
//!
//! [`SystemSnapshot::dataset_pdf`]: crate::fairds::SystemSnapshot::dataset_pdf
//! [`SystemSnapshot::version`]: crate::fairds::SystemSnapshot::version
//! [`SystemSnapshot::embed_cached`]: crate::fairds::SystemSnapshot::embed_cached

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

use fairdms_check::atomic::AtomicU64 as CheckedAtomicU64;

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
    /// Probes served from the table (hash + generation + full row match).
    pub hits: u64,
    /// Probes that paid a forward pass (including disabled-cache probes).
    pub misses: u64,
    /// Entries displaced by the clock hand to make room.
    pub evictions: u64,
    /// Probes whose key matched an entry from a *previous* embedder
    /// generation — the fence working as designed after a retrain.
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

/// One entry of a bulk warm: `(row hash, input row, embedding)` — the
/// same triple [`EmbedCache::insert`] takes, borrowed from the warmer's
/// matrices.
pub type WarmEntry<'a> = (u64, &'a [f32], &'a [f32]);

/// One memoized embedding.
struct Entry {
    hash: u64,
    generation: u64,
    /// The full input row — the collision check (and the reason a hit can
    /// be trusted bit-for-bit).
    key: Box<[f32]>,
    value: Box<[f32]>,
    /// Second-chance bit: "hit since the clock hand last passed". Set by
    /// probes only (a fresh insert starts unreferenced), cleared once by
    /// the hand before the entry becomes evictable.
    referenced: bool,
}

/// One independent segment: a slot arena + hash index + clock hand.
#[derive(Default)]
struct Shard {
    /// `hash → slot` index. One slot per hash: a true 64-bit collision
    /// (different rows, same hash) keeps the resident entry and the
    /// newcomer simply stays uncached — correctness comes from the
    /// full-row check, capacity accounting stays exact.
    index: std::collections::HashMap<u64, usize>,
    slots: Vec<Entry>,
    hand: usize,
}

impl Shard {
    /// Copies the cached embedding into `dst` when `hash`+`generation`+
    /// full row match.
    fn get_into(&mut self, generation: u64, hash: u64, row: &[f32], dst: &mut [f32]) -> Probe {
        let Some(&slot) = self.index.get(&hash) else {
            return Probe::Miss;
        };
        let e = &mut self.slots[slot];
        if e.generation != generation {
            // Fence: the entry predates (or postdates) this snapshot's
            // embedder. Do NOT serve it; leave replacement to inserts
            // from the *current* generation.
            return Probe::Stale;
        }
        if e.key.as_ref() != row {
            return Probe::Miss; // 64-bit collision — extremely rare
        }
        dst.copy_from_slice(&e.value);
        e.referenced = true;
        Probe::Hit
    }

    /// Installs `row → value`, evicting via second chance when at
    /// `capacity`. Returns the number of evictions (0 or 1).
    fn insert(
        &mut self,
        capacity: usize,
        generation: u64,
        hash: u64,
        row: &[f32],
        value: &[f32],
    ) -> u64 {
        if capacity == 0 {
            return 0;
        }
        if let Some(&slot) = self.index.get(&hash) {
            let e = &mut self.slots[slot];
            // Generations only move forward, re-checked here *under the
            // shard lock*: the caller's fence test races the publisher,
            // so a straggler insert from a just-superseded snapshot can
            // reach this point after a current-generation reader already
            // installed the row's new embedding — it must not downgrade
            // that fresh entry back to the old embedder's value.
            if generation < e.generation {
                return 0;
            }
            // Same hash resident: refresh it (a stale-generation entry is
            // replaced here — this is how old generations drain without a
            // flush). A colliding different row of the same generation
            // also lands here; replacing is as correct as keeping.
            e.generation = generation;
            e.key = row.into();
            e.value = value.into();
            return 0;
        }
        let entry = Entry {
            hash,
            generation,
            key: row.into(),
            value: value.into(),
            referenced: false,
        };
        if self.slots.len() < capacity {
            self.index.insert(hash, self.slots.len());
            self.slots.push(entry);
            return 0;
        }
        // Second-chance clock: skip (and strip) referenced entries, evict
        // the first unreferenced one. Bounded by 2×capacity steps.
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
            self.slots[slot] = entry;
            return 1;
        }
    }
}

/// What one shard probe found.
enum Probe {
    Hit,
    Miss,
    Stale,
}

/// Sharded, generation-fenced, content-addressed embedding memo table.
/// See the [module docs](self) for the design.
pub struct EmbedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// The only generation inserts are accepted for — advanced by each
    /// system-plane publication ([`EmbedCache::advance_generation`]).
    /// A `fairdms_check` wrapper (std passthrough in default builds) so
    /// the fence-advance protocol is model-checkable; the stats counters
    /// below stay plain std atomics (they guard nothing).
    generation: CheckedAtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_generation: AtomicU64,
}

impl std::fmt::Debug for EmbedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedCache")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("generation", &self.generation())
            .field("stats", &self.stats())
            .finish()
    }
}

impl EmbedCache {
    /// A cache with the given capacity, split across
    /// `(capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS)` shards.
    pub fn new(cfg: EmbedCacheConfig) -> Self {
        let shards = (cfg.capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS);
        EmbedCache {
            // Round the per-shard budget up so total capacity is never
            // silently below the configured one.
            per_shard_capacity: cfg.capacity.div_ceil(shards),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            generation: CheckedAtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_generation: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    /// Total entry budget.
    pub fn capacity(&self) -> usize {
        if self.per_shard_capacity == 0 {
            0
        } else {
            self.per_shard_capacity * self.shards.len()
        }
    }

    /// The generation inserts are currently accepted for.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Moves the fence to a freshly published embedder generation.
    /// Resident entries of older generations stop matching immediately
    /// (served as [`EmbedCacheStats::stale_generation`] misses) and are
    /// replaced lazily by inserts; in-flight inserts tagged with an older
    /// generation are dropped at the door.
    pub fn advance_generation(&self, generation: u64) {
        // `fetch_max`, not `store`: a slow publisher must never move the
        // fence backwards and resurrect stale entries.
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }

    #[inline]
    fn shard_index(&self, hash: u64) -> usize {
        // High bits select the shard; low bits feed the HashMap. The
        // splitmix finalizer avalanches fully, so both are uniform.
        ((hash >> 48) as usize) % self.shards.len()
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_index(hash)]
    }

    /// Probes for `row` under `generation`, copying the embedding into
    /// `dst` on a hit. Counts the probe either way.
    pub fn get_into(&self, generation: u64, hash: u64, row: &[f32], dst: &mut [f32]) -> bool {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let probe = self
            .shard_of(hash)
            .lock()
            .get_into(generation, hash, row, dst);
        match probe {
            Probe::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            Probe::Stale => {
                self.stale_generation.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
            Probe::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Installs a freshly computed embedding — but only when `generation`
    /// is still the cache's current one: a superseded snapshot must not
    /// repopulate the table with embeddings of a replaced embedder.
    pub fn insert(&self, generation: u64, hash: u64, row: &[f32], value: &[f32]) {
        if !self.is_enabled() || generation != self.generation() {
            return;
        }
        let evicted = self.shard_of(hash).lock().insert(
            self.per_shard_capacity,
            generation,
            hash,
            row,
            value,
        );
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Bulk-installs freshly computed embeddings for a (typically brand
    /// new) generation — the warm path of an O(copy) retrain install:
    /// the training job already embedded every captured row, so the new
    /// generation can start hot without a single forward pass.
    ///
    /// Entries are bucketed by shard first and installed under **one lock
    /// acquisition per shard** instead of one per row; the per-entry fence
    /// check of [`EmbedCache::insert`] is hoisted to a single generation
    /// comparison up front (callers pass the generation they are warming,
    /// and a superseded warmer is dropped wholesale).
    pub fn warm_insert<'a>(
        &self,
        generation: u64,
        entries: impl IntoIterator<Item = WarmEntry<'a>>,
    ) {
        if !self.is_enabled() || generation != self.generation() {
            return;
        }
        let mut buckets: Vec<Vec<WarmEntry<'_>>> = vec![Vec::new(); self.shards.len()];
        for e in entries {
            buckets[self.shard_index(e.0)].push(e);
        }
        let mut evicted = 0u64;
        for (i, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock();
            for (hash, row, value) in bucket {
                evicted += shard.insert(self.per_shard_capacity, generation, hash, row, value);
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> EmbedCacheStats {
        EmbedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_generation: self.stale_generation.load(Ordering::Relaxed),
        }
    }

    /// Resident entry count (sums shard lengths; diagnostic only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slots.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::hash::hash_row;

    fn row(seed: f32, d: usize) -> Vec<f32> {
        (0..d).map(|i| seed + i as f32 * 0.5).collect()
    }

    fn probe(cache: &EmbedCache, generation: u64, r: &[f32]) -> Option<Vec<f32>> {
        let mut dst = vec![0.0f32; 4];
        cache
            .get_into(generation, hash_row(r), r, &mut dst)
            .then_some(dst)
    }

    #[test]
    fn round_trips_by_content() {
        let cache = EmbedCache::new(EmbedCacheConfig::default());
        let r = row(1.0, 8);
        let z = row(9.0, 4);
        assert!(probe(&cache, 0, &r).is_none());
        cache.insert(0, hash_row(&r), &r, &z);
        // Same content, fresh allocation: still a hit.
        let r2 = row(1.0, 8);
        assert_eq!(probe(&cache, 0, &r2).as_deref(), Some(&z[..]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
    }

    #[test]
    fn generation_fence_blocks_old_entries_and_old_inserts() {
        let cache = EmbedCache::new(EmbedCacheConfig::default());
        let r = row(2.0, 8);
        cache.insert(0, hash_row(&r), &r, &row(0.0, 4));
        cache.advance_generation(1);
        // The gen-0 entry must not serve a gen-1 probe.
        assert!(probe(&cache, 1, &r).is_none());
        assert_eq!(cache.stats().stale_generation, 1);
        // A straggler snapshot of gen 0 cannot reinstall its embedding…
        let r_new = row(3.0, 8);
        cache.insert(0, hash_row(&r_new), &r_new, &row(1.0, 4));
        assert!(probe(&cache, 0, &r_new).is_none());
        // …but the current generation can, and then hits.
        cache.insert(1, hash_row(&r_new), &r_new, &row(1.0, 4));
        assert_eq!(probe(&cache, 1, &r_new).as_deref(), Some(&row(1.0, 4)[..]));
        // Fence never moves backwards.
        cache.advance_generation(0);
        assert_eq!(cache.generation(), 1);
    }

    #[test]
    fn straggler_insert_cannot_downgrade_a_newer_entry() {
        // A superseded snapshot that passed the (unlocked) fence check
        // just before the publication must not overwrite the row's fresh
        // current-generation entry with the old embedder's value: the
        // shard re-checks generation monotonicity under its lock.
        let cache = EmbedCache::new(EmbedCacheConfig::default());
        cache.advance_generation(1);
        let r = row(6.0, 8);
        let h = hash_row(&r);
        cache.insert(1, h, &r, &row(11.0, 4));
        // Simulate the straggler racing past EmbedCache::insert's fence:
        // drive the shard-level path with the stale generation directly.
        cache.shard_of(h).lock().insert(64, 0, h, &r, &row(99.0, 4));
        assert_eq!(
            probe(&cache, 1, &r).as_deref(),
            Some(&row(11.0, 4)[..]),
            "gen-1 entry must survive a stale gen-0 refresh"
        );
    }

    #[test]
    fn full_row_confirmation_rules_out_forged_hash_matches() {
        let cache = EmbedCache::new(EmbedCacheConfig::default());
        let r = row(4.0, 8);
        let h = hash_row(&r);
        cache.insert(0, h, &r, &row(0.0, 4));
        // Probe with the *same hash* but different content (a simulated
        // 64-bit collision): the full-row check must refuse the hit.
        let imposter = row(5.0, 8);
        let mut dst = vec![0.0f32; 4];
        assert!(!cache.get_into(0, h, &imposter, &mut dst));
    }

    #[test]
    fn capacity_is_bounded_and_eviction_counts() {
        let cache = EmbedCache::new(EmbedCacheConfig { capacity: 8 });
        for i in 0..32 {
            let r = row(i as f32, 8);
            cache.insert(0, hash_row(&r), &r, &row(0.0, 4));
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn second_chance_protects_recently_hit_entries() {
        // One shard, capacity 2: hit entry A, then insert pressure must
        // evict the un-hit B first.
        let cache = EmbedCache::new(EmbedCacheConfig { capacity: 2 });
        let (a, b) = (row(1.0, 8), row(2.0, 8));
        cache.insert(0, hash_row(&a), &a, &row(10.0, 4));
        cache.insert(0, hash_row(&b), &b, &row(20.0, 4));
        // Touch A so only A carries the second-chance bit.
        assert!(probe(&cache, 0, &a).is_some());
        let newcomer = row(4.0, 8);
        cache.insert(0, hash_row(&newcomer), &newcomer, &row(40.0, 4));
        assert!(
            probe(&cache, 0, &a).is_some(),
            "recently-hit entry must survive one insertion wave"
        );
        assert!(probe(&cache, 0, &newcomer).is_some());
        assert!(
            probe(&cache, 0, &b).is_none(),
            "the un-hit entry is the victim"
        );
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn warm_insert_populates_a_fresh_generation_in_bulk() {
        let cache = EmbedCache::new(EmbedCacheConfig { capacity: 64 });
        cache.advance_generation(3);
        let rows: Vec<Vec<f32>> = (0..16).map(|i| row(i as f32, 8)).collect();
        let values: Vec<Vec<f32>> = (0..16).map(|i| row(100.0 + i as f32, 4)).collect();
        let hashes: Vec<u64> = rows.iter().map(|r| hash_row(r)).collect();
        cache.warm_insert(
            3,
            (0..16).map(|i| (hashes[i], rows[i].as_slice(), values[i].as_slice())),
        );
        for i in 0..16 {
            assert_eq!(
                probe(&cache, 3, &rows[i]).as_deref(),
                Some(&values[i][..]),
                "warmed row {i} must hit"
            );
        }
        // A warm for a superseded generation is dropped wholesale.
        let stale = row(99.0, 8);
        let h = hash_row(&stale);
        cache.warm_insert(2, [(h, stale.as_slice(), values[0].as_slice())]);
        assert!(probe(&cache, 2, &stale).is_none());
        assert!(probe(&cache, 3, &stale).is_none());
    }

    #[test]
    fn warm_insert_respects_capacity_and_counts_evictions() {
        let cache = EmbedCache::new(EmbedCacheConfig { capacity: 8 });
        let rows: Vec<Vec<f32>> = (0..32).map(|i| row(i as f32, 8)).collect();
        let values = row(0.0, 4);
        cache.warm_insert(
            0,
            rows.iter()
                .map(|r| (hash_row(r), r.as_slice(), &values[..])),
        );
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn shard_count_is_derived_from_capacity() {
        for (capacity, shards) in [(0, 1), (4, 1), (1_024, 2), (4_096, 8), (1 << 20, 8)] {
            let cache = EmbedCache::new(EmbedCacheConfig { capacity });
            assert_eq!(cache.shards.len(), shards, "capacity {capacity}");
            assert!(cache.capacity() >= capacity, "capacity {capacity}");
        }
        // Rounding the per-shard budget up never loses configured room.
        for capacity in [1, 511, 513, 1_500, 4_097, 9_999] {
            let cache = EmbedCache::new(EmbedCacheConfig { capacity });
            assert!(cache.capacity() >= capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn zero_capacity_disables_cleanly() {
        let cache = EmbedCache::new(EmbedCacheConfig { capacity: 0 });
        assert!(!cache.is_enabled());
        assert_eq!(cache.capacity(), 0);
        let r = row(1.0, 8);
        cache.insert(0, hash_row(&r), &r, &row(0.0, 4));
        assert!(probe(&cache, 0, &r).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn concurrent_probes_and_inserts_stay_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(EmbedCache::new(EmbedCacheConfig { capacity: 256 }));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let r = row(((t * 37 + i) % 64) as f32, 16);
                    let h = hash_row(&r);
                    let mut dst = vec![0.0f32; 4];
                    if cache.get_into(0, h, &r, &mut dst) {
                        // A hit must carry the value inserted for this row.
                        assert_eq!(dst[0], r[0] * 2.0, "foreign value served");
                    } else {
                        let z = vec![r[0] * 2.0, 0.0, 0.0, 0.0];
                        cache.insert(0, h, &r, &z);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(cache.len() <= cache.capacity());
    }
}
