//! Lock-free request metrics.
//!
//! Every server operation records into per-operation [`OpStats`]: a count,
//! a total, a min/max, and a log₂-bucketed latency histogram — all plain
//! atomics so the hot path never takes a lock (recording is a handful of
//! `fetch_add`/`fetch_min` operations; see the "Rust Atomics and Locks"
//! guidance on statistics counters). Snapshots are taken with
//! `Ordering::Relaxed` loads: the numbers are monotone counters, so a torn
//! snapshot is at worst momentarily stale, never inconsistent in a way
//! that matters for reporting.
//!
//! Since the write plane went asynchronous, each operation tracks **two**
//! latency distributions instead of one:
//!
//! * **queue wait** — admission to dequeue: how long the request sat in
//!   (or blocked on) the plane's bounded queue before a worker picked it
//!   up. A saturated plane shows up here. Only writes have a queue: a
//!   read is served on its caller's thread and records its run time only.
//! * **run** — dequeue to reply: how long the handler actually took. A
//!   slow handler shows up here. For a background training job this spans
//!   the whole job (prepare → epochs on the executor → fenced completion),
//!   so `update_model` run time still means "how long until my model was
//!   published", while every *other* op's run time stays milliseconds.
//!
//! The old single number conflated the two: once training moved off the
//! actor, "ingest took 3 s" could mean either a saturated queue or a slow
//! handler, and dashboards could not tell which plane to scale.

use fairdms_core::fairds::ReadIndexCounters;
use fairdms_core::reuse::{EmbedCacheCounters, EmbedCacheStats};
use fairdms_datastore::wire::{OutOfBounds, Reader, WriteExt};
use fairdms_flows::jobs::{JobPool, TenantId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket *i* holds durations in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended.
pub const BUCKETS: usize = 24;

/// Atomic statistics for one operation kind.
#[derive(Debug)]
pub struct OpStats {
    count: AtomicU64,
    errors: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            count: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(d: Duration) -> usize {
    let micros = d.as_micros().max(1) as u64;
    ((63 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl OpStats {
    /// Records one completed call.
    pub fn record(&self, elapsed: Duration, ok: bool) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.histogram[bucket_of(elapsed)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> OpSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        OpSnapshot {
            count,
            errors: self.errors.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: match self.min_ns.load(Ordering::Relaxed) {
                u64::MAX => 0,
                v => v,
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            histogram: std::array::from_fn(|i| self.histogram[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data copy of an [`OpStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Completed calls.
    pub count: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Sum of service times in nanoseconds.
    pub total_ns: u64,
    /// Fastest call (0 when no calls yet).
    pub min_ns: u64,
    /// Slowest call.
    pub max_ns: u64,
    /// log₂-µs latency histogram.
    pub histogram: [u64; BUCKETS],
}

impl OpSnapshot {
    /// Mean service time, or zero when no calls completed.
    pub fn mean(&self) -> Duration {
        match self.total_ns.checked_div(self.count) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    /// Approximate quantile from the histogram: the upper bound of the
    /// bucket holding it, clamped to the slowest recorded call. The last
    /// bucket is open-ended, so a quantile landing there answers `max_ns`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return Duration::ZERO;
        }
        let max = Duration::from_nanos(self.max_ns);
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.histogram.iter().enumerate().take(BUCKETS - 1) {
            seen += c;
            if seen >= target {
                return Duration::from_micros(1u64 << (i + 1)).min(max);
            }
        }
        max
    }
}

/// Operations tracked by the registry, in display order: the names of the
/// operation table's rows, in tag order.
pub use crate::net::codec::OPS;

/// Declares a registry and its plain-data snapshot from **one field
/// table**, so a counter is spelled once: the table generates the
/// registry's atomic fields, the snapshot struct, the `snapshot()` loads
/// and the wire codec's `put_u64s`/`get_u64s`, all in table order.
///
/// * `registry` / `snapshot` braces hold the fields that are not plain
///   counters — attachments on the registry side; on the snapshot side
///   structured fields with the closure `snapshot()` fills them by (the
///   codec writes those itself).
/// * `atomic(vis)` lines are `AtomicU64`s of that visibility on the
///   registry and `pub u64`s on the snapshot.
/// * `read` lines exist only on the snapshot: a `u64` filled by a closure
///   over the registry (a counter owned by an attached component).
macro_rules! u64_table {
    (
        $(#[$reg_meta:meta])*
        registry $Reg:ident { $($(#[$e_meta:meta])* $e:ident: $e_ty:ty,)* }
        $(#[$snap_meta:meta])*
        snapshot $Snap:ident { $($(#[$s_meta:meta])* $s:ident: $s_ty:ty = $s_load:expr,)* }
        atomic($a_vis:vis) { $($(#[$a_meta:meta])* $a:ident,)* }
        read { $($(#[$r_meta:meta])* $r:ident = $r_load:expr,)* }
    ) => {
        $(#[$reg_meta])*
        pub struct $Reg {
            $($(#[$e_meta])* $e: $e_ty,)*
            $($(#[$a_meta])* $a_vis $a: AtomicU64,)*
        }

        $(#[$snap_meta])*
        pub struct $Snap {
            $($(#[$s_meta])* pub $s: $s_ty,)*
            $($(#[$a_meta])* pub $a: u64,)*
            $($(#[$r_meta])* pub $r: u64,)*
        }

        impl $Reg {
            /// A point-in-time copy of everything.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $($s: ($s_load)(self),)*
                    $($a: self.$a.load(Ordering::Relaxed),)*
                    $($r: ($r_load)(self),)*
                }
            }
        }

        impl $Snap {
            /// Appends every table field to a wire payload, in table order.
            pub(crate) fn put_u64s(&self, out: &mut Vec<u8>) {
                $(out.put_u64(self.$a);)*
                $(out.put_u64(self.$r);)*
            }

            /// Reads every table field back, in table order.
            pub(crate) fn get_u64s(&mut self, r: &mut Reader<'_>) -> Result<(), OutOfBounds> {
                $(self.$a = r.u64()?;)*
                $(self.$r = r.u64()?;)*
                Ok(())
            }
        }
    };
}

u64_table! {
    /// The server-wide metrics registry: run-time and queue-wait [`OpStats`]
    /// per operation plus system-plane and training-executor counters.
    #[derive(Debug, Default)]
    registry Metrics {
        ops: [OpStats; OPS.len()],
        queue: [OpStats; OPS.len()],
        /// The counters every published snapshot's embedding cache shares,
        /// attached at server spawn so snapshots can report
        /// `embed_cache_{hits,misses,evictions,stale_generation}`.
        embed_cache: OnceLock<Arc<EmbedCacheCounters>>,
        /// Handle onto the read plane's IVF index counters, attached at
        /// server spawn so snapshots report the `read_index_*` fields
        /// (DESIGN.md §12). Read-only view, same contract as
        /// [`Metrics::attach_embed_cache`].
        read_index: OnceLock<Arc<ReadIndexCounters>>,
        /// Handle onto the wire plane's connection/frame counters, attached
        /// when a network listener is spawned over this deployment
        /// (DESIGN.md §13). Zeroed in snapshots until then.
        net: OnceLock<Arc<NetCounters>>,
        /// Weak handle onto the training [`JobPool`] plus this deployment's
        /// tenant id, attached at server spawn so snapshots report the
        /// `training_jobs_queued` gauge (DESIGN.md §14). Weak on purpose: the
        /// registry outlives the server teardown path and must not keep the
        /// pool's worker threads alive past shutdown.
        training_pool: OnceLock<(Weak<JobPool>, TenantId)>,
    }
    /// Plain-data copy of the whole registry.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    snapshot MetricsSnapshot {
        /// Per-operation run-time snapshots (dequeue → reply), in [`OPS`]
        /// order.
        ops: Vec<(&'static str, OpSnapshot)> = |m: &Metrics| snapshot_table(&m.ops),
        /// Per-operation queue-wait snapshots (admission → dequeue), in
        /// [`OPS`] order.
        queue: Vec<(&'static str, OpSnapshot)> = |m: &Metrics| snapshot_table(&m.queue),
        /// Data-reuse plane counters
        /// (`embed_cache_{hits,misses,evictions,stale_generation}`), zeroed
        /// when no cache is attached.
        embed_cache: EmbedCacheStats =
            |m: &Metrics| m.embed_cache.get().map(|c| c.stats()).unwrap_or_default(),
        /// Wire-plane connection/frame counters (DESIGN.md §13), zeroed when
        /// no network listener is attached to this deployment.
        net: NetStats = |m: &Metrics| m.net.get().map(|c| c.snapshot()).unwrap_or_default(),
    }
    atomic(pub) {
        /// Certainty-triggered system-plane retrains that *completed and
        /// installed* (an asynchronously superseded retrain never counts).
        system_retrains,
        /// Store documents installed by **copying** the retrain job's shipped
        /// embeddings/clusters back (the O(copy) install path — zero forward
        /// passes on the actor).
        retrain_docs_copied,
        /// Store documents ingested mid-flight that a retrain install had to
        /// freshly embed in its delta batch. Persistently large values mean
        /// ingest outpaces retraining and the install is drifting back toward
        /// O(store) work on the actor.
        retrain_docs_delta_embedded,
        /// Training jobs (model updates and system retrains) handed to the
        /// training executor, plus the retrains `UpdateModel` runs inline.
        training_jobs_started,
        /// Training jobs whose result was published (model registered /
        /// system plane installed).
        training_jobs_completed,
        /// Training jobs cancelled by a newer trigger for the same plane, or
        /// whose completed result was rejected by the version fence because
        /// the plane they trained from had been replaced mid-flight.
        training_jobs_superseded,
        /// Admission-queue-full events where the client *blocked* until the
        /// queue drained and the request then proceeded normally. Healthy
        /// backpressure, not failure — dashboards alerting on request loss
        /// should watch `rejected` instead. (Before this split the two were
        /// conflated under `rejected`.)
        backpressure_waits,
        /// Requests that actually failed admission — a write found the
        /// actor's channel disconnected (server shut down or its actor
        /// died), or a read arrived after shutdown began — so the client
        /// observed `Unavailable`.
        rejected,
    }
    read {
        /// Training jobs admitted but not yet picked up by a pool worker — the
        /// bounded-admission gauge (DESIGN.md §14). Zeroed after pool shutdown.
        training_jobs_queued = |m: &Metrics| m
            .training_pool
            .get()
            .and_then(|(pool, tenant)| pool.upgrade().map(|p| p.queued(*tenant) as u64))
            .unwrap_or_default(),
        /// Read-index probes served (one per routed query); zeroed when no
        /// counters are attached.
        read_index_probes = |m: &Metrics| m.read_index_u64(ReadIndexCounters::probes),
        /// Balls discarded by triangle-inequality pruning across all probes.
        read_index_balls_pruned = |m: &Metrics| m.read_index_u64(ReadIndexCounters::balls_pruned),
        /// Candidate rows whose distances the GEMM batch actually evaluated
        /// (brute work would be `probes × cluster rows`; the gap is the
        /// read-index win).
        read_index_candidates_scanned =
            |m: &Metrics| m.read_index_u64(ReadIndexCounters::candidates_scanned),
        /// Store documents decoded to build the read index or bring it up to
        /// date — what store mutations cost the routed reads after them.
        read_index_rows_decoded = |m: &Metrics| m.read_index_u64(ReadIndexCounters::rows_decoded),
    }
}

u64_table! {
    /// Lock-free counters of the wire plane (DESIGN.md §13): one instance per
    /// deployment, shared by every listener's accept loop and every
    /// connection's reader/writer threads. All monotone except
    /// `connections_active`, a gauge.
    #[derive(Debug, Default)]
    registry NetCounters {}
    /// Plain-data copy of [`NetCounters`], carried in every
    /// [`MetricsSnapshot`] (zeroed when no listener is attached).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    snapshot NetStats {}
    atomic(pub(self)) {
        /// Connections accepted over the lifetime of the deployment
        /// (over-limit rejections not included).
        connections_opened,
        /// Currently open connections (gauge).
        connections_active,
        /// Connections answered [`crate::api::ServiceError::Busy`] at accept
        /// because the limit was reached.
        connections_busy_rejected,
        /// Request frames decoded off sockets.
        frames_in,
        /// Reply frames written to sockets.
        frames_out,
        /// Of `frames_out`, replies a connection's reader thread wrote itself
        /// at window 1 instead of queueing them to its sequencer (one that a
        /// full socket cut short counts: only its tail is queued).
        replies_inline,
        /// Total inbound wire bytes (frame headers included).
        bytes_in,
        /// Total outbound wire bytes (frame headers included).
        bytes_out,
        /// Frames/messages rejected by the decoder (each also ends its
        /// connection with a protocol-error frame).
        decode_errors,
        /// Connections that closed with every accepted request answered.
        drains_graceful,
        /// Connections torn down mid-stream (peer vanished, transport error).
        drains_abrupt,
    }
    read {}
}

fn snapshot_table(stats: &[OpStats; OPS.len()]) -> Vec<(&'static str, OpSnapshot)> {
    OPS.iter()
        .zip(stats)
        .map(|(&name, s)| (name, s.snapshot()))
        .collect()
}

impl NetCounters {
    /// A fresh, zeroed counter block.
    pub fn new() -> Self {
        NetCounters::default()
    }

    /// Records an accepted connection; returns the new active count
    /// (after increment), which the accept loop compares against the
    /// configured connection limit.
    pub fn conn_opened(&self) -> u64 {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current active-connection gauge.
    pub fn active(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Records a connection close with its drain outcome: `graceful` means
    /// every request read off the socket was answered (and flushed) before
    /// the close; abrupt means the peer vanished or the transport failed
    /// mid-stream and in-flight replies were discarded.
    pub fn conn_closed(&self, graceful: bool) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
        if graceful {
            self.drains_graceful.fetch_add(1, Ordering::Relaxed);
        } else {
            self.drains_abrupt.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an over-limit connection answered `Busy` and closed.
    pub fn busy_rejected(&self) {
        self.connections_busy_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one decoded inbound frame of `bytes` total wire bytes
    /// (header included).
    pub fn frame_in(&self, bytes: u64) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one written outbound frame of `bytes` total wire bytes.
    pub fn frame_out(&self, bytes: u64) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Marks the outbound frame just recorded as written by the
    /// connection's reader thread.
    pub fn reply_inline(&self) {
        self.replies_inline.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a frame or message that failed to decode (hostile length
    /// prefix, unknown tag, truncated payload).
    pub fn decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn idx(name: &str) -> usize {
        OPS.iter()
            .position(|&o| o == name)
            .unwrap_or_else(|| panic!("unknown op '{name}'"))
    }

    /// Run-time stats slot for an operation name (dequeue → reply); panics
    /// on unknown names (the set of operations is closed).
    pub fn op(&self, name: &str) -> &OpStats {
        self.op_at(Self::idx(name))
    }

    /// Run-time slot by [`crate::api::Request::op_index`]: the request
    /// path records by tag and never searches the names.
    pub(crate) fn op_at(&self, op: usize) -> &OpStats {
        &self.ops[op]
    }

    /// Queue-wait slot by operation index.
    pub(crate) fn queue_at(&self, op: usize) -> &OpStats {
        &self.queue[op]
    }

    /// Attaches the deployment's embedding-reuse counters so they appear
    /// in every subsequent [`Metrics::snapshot`]. First attachment wins.
    pub fn attach_embed_cache(&self, counters: Arc<EmbedCacheCounters>) {
        let _ = self.embed_cache.set(counters);
    }

    /// Attaches the deployment's read-index counters so IVF probe/prune
    /// statistics appear in every subsequent [`Metrics::snapshot`]. First
    /// attachment wins.
    pub fn attach_read_index(&self, counters: Arc<ReadIndexCounters>) {
        let _ = self.read_index.set(counters);
    }

    /// One counter of the attached read index; zero when none is attached.
    fn read_index_u64(&self, counter: fn(&ReadIndexCounters) -> u64) -> u64 {
        self.read_index.get().map_or(0, |c| counter(c))
    }

    /// Attaches the deployment's wire-plane counters so connection/frame
    /// statistics appear in every subsequent [`Metrics::snapshot`]. First
    /// attachment wins: every listener spawned over the same deployment
    /// shares one counter block.
    pub fn attach_net(&self, counters: Arc<NetCounters>) {
        let _ = self.net.set(counters);
    }

    /// Attaches the training pool this deployment submits to (and the
    /// tenant it submits as) so snapshots report the `training_jobs_queued`
    /// gauge. First attachment wins. The handle is weak; once the pool
    /// shuts down the gauge reads 0.
    pub fn attach_training_pool(&self, pool: Weak<JobPool>, tenant: TenantId) {
        let _ = self.training_pool.set((pool, tenant));
    }
}

impl MetricsSnapshot {
    /// Fraction of embedding probes served from the data-reuse cache
    /// (0 when idle or detached).
    pub fn embed_cache_hit_ratio(&self) -> f64 {
        self.embed_cache.hit_ratio()
    }

    /// Run-time snapshot for one operation.
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// Queue-wait snapshot for one operation.
    pub fn queue_op(&self, name: &str) -> Option<&OpSnapshot> {
        self.queue.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// Total completed calls across operations.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|(_, s)| s.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn record_accumulates() {
        let s = OpStats::default();
        s.record(Duration::from_micros(10), true);
        s.record(Duration::from_micros(30), false);
        let snap = s.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.mean(), Duration::from_micros(20));
        assert!(snap.min_ns <= snap.max_ns);
        assert_eq!(snap.histogram.iter().sum::<u64>(), 2);
    }

    #[test]
    fn bucketing_is_monotone_in_duration() {
        let mut prev = 0;
        for us in [1u64, 2, 4, 100, 10_000, 1_000_000] {
            let b = bucket_of(Duration::from_micros(us));
            assert!(b >= prev, "bucket({us}µs)={b} < {prev}");
            prev = b;
        }
        // Sub-microsecond and enormous durations stay in range.
        assert_eq!(bucket_of(Duration::from_nanos(1)), 0);
        assert!(bucket_of(Duration::from_secs(86_400)) < BUCKETS);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let s = OpStats::default();
        for us in 1..=1000u64 {
            s.record(Duration::from_micros(us), true);
        }
        let snap = s.snapshot();
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        assert!(snap.quantile(1.0) >= Duration::from_micros(512));
        assert_eq!(OpSnapshot::default_zero().quantile(0.9), Duration::ZERO);

        // Every answer lies inside the recorded range: one 20 s call sits
        // in the open-ended last bucket, whose upper bound (2^24 µs) is
        // below it; calls at 10 µs sit in [8, 16) µs, whose bound is above.
        for (call, reps) in [(Duration::from_secs(20), 1), (Duration::from_micros(10), 5)] {
            let s = OpStats::default();
            for _ in 0..reps {
                s.record(call, true);
            }
            let snap = s.snapshot();
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(snap.quantile(q), call, "quantile({q}) of {call:?}");
            }
        }
    }

    impl OpSnapshot {
        fn default_zero() -> Self {
            OpSnapshot {
                count: 0,
                errors: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
                histogram: [0; BUCKETS],
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = Arc::new(Metrics::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    m.op("pdf").record(Duration::from_micros(5), true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().op("pdf").unwrap().count, 8000);
    }

    #[test]
    #[should_panic(expected = "unknown op")]
    fn unknown_op_panics() {
        Metrics::new().op("nope");
    }

    #[test]
    fn queue_wait_and_run_time_are_independent_distributions() {
        // The split exists so "slow op" can be attributed: a request that
        // waited 8 ms and ran 1 ms must not read the same as one that
        // waited 1 ms and ran 8 ms.
        let m = Metrics::new();
        m.queue_at(Metrics::idx("ingest"))
            .record(Duration::from_millis(8), true);
        m.op("ingest").record(Duration::from_millis(1), true);
        let snap = m.snapshot();
        let q = snap.queue_op("ingest").unwrap();
        let r = snap.op("ingest").unwrap();
        assert_eq!(q.count, 1);
        assert_eq!(r.count, 1);
        assert!(q.mean() > r.mean(), "queue {q:?} vs run {r:?}");
        // Ops without queue traffic stay zeroed.
        assert_eq!(snap.queue_op("pdf").unwrap().count, 0);
        assert_eq!(snap.training_jobs_started, 0);
        assert_eq!(snap.training_jobs_completed, 0);
        assert_eq!(snap.training_jobs_superseded, 0);
    }
}
