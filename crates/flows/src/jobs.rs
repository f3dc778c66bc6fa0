//! A generic background job pool with cooperative cancellation and fair
//! multi-tenant scheduling.
//!
//! The fairDMS training executor runs on it: a job is "fine-tune a model
//! for up to N epochs" and must be cancellable mid-flight when a newer
//! trigger supersedes it.
//!
//! Each spawned job receives a [`CancelToken`]: a shared atomic flag the
//! submitter keeps a clone of. Cancellation is *cooperative* — raising the
//! flag never interrupts a thread; the job polls the token at its own safe
//! points (a trainer checks between epochs) and winds down. Jobs deliver
//! their results however they like (typically by sending a message back to
//! the submitting actor), which keeps the pool free of result-type
//! generics and lets one pool run heterogeneous job kinds.
//!
//! # Tenancy and fairness
//!
//! One pool can be shared by N tenants (DESIGN.md §14): every job is
//! enqueued under a [`TenantId`] into that tenant's own bounded FIFO, and
//! idle workers pick the next job by **round-robin** across the tenant
//! queues: a worker sweeps the tenants from a rotating cursor, serves the
//! first backlogged one, and moves the cursor past it. The bound this
//! buys: between two jobs of one backlogged tenant, at most `n − 1` jobs
//! of the other `n − 1` tenants are served — a flooding tenant cannot
//! starve anyone.
//!
//! # Bounded admission
//!
//! Per-tenant queues are **bounded** ([`JobPool::set_capacity`]).
//! A tenant that enqueues faster than the workers drain gets
//! [`QueueFull`] backpressure from [`JobPool::try_spawn_for`] — the
//! service layer answers `Busy` — so superseded-but-still-queued jobs
//! behind a long-running one never grow a queue past its capacity. Queue
//! depths are observable via [`JobPool::queued`] for metrics gauges.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fairdms_check::thread::JoinHandle;

/// Identifies one tenant's queue inside a shared [`JobPool`]. Single-tenant
/// deployments use [`DEFAULT_TENANT`].
pub type TenantId = u32;

/// The tenant the single-tenant convenience API ([`JobPool::spawn`])
/// submits under.
pub const DEFAULT_TENANT: TenantId = 0;

/// Default per-tenant queue capacity: generous enough that only a genuine
/// flood hits it, small enough that a flood is bounded memory.
pub const DEFAULT_TENANT_CAPACITY: usize = 1024;

/// Shared cancellation flag of one job.
///
/// Clonable and cheap; all clones observe the same flag. The underlying
/// atomic is exposed via [`CancelToken::flag`] so domain-specific controls
/// (e.g. `fairdms_nn::trainer::TrainControl`) can alias it without a
/// dependency between the crates.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The shared atomic behind the token, for bridging into other
    /// cancellation vocabularies that poll an `Arc<AtomicBool>`.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Admission refusal: the tenant's queue is at capacity. The job was *not*
/// enqueued; the caller owns the backpressure decision (the service layer
/// answers `Busy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The tenant whose queue is full.
    pub tenant: TenantId,
    /// That tenant's configured capacity.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} training queue is full ({} queued jobs)",
            self.tenant, self.capacity
        )
    }
}

impl std::error::Error for QueueFull {}

type Job = Box<dyn FnOnce(&CancelToken) + Send>;

struct TenantQueue {
    tenant: TenantId,
    capacity: usize,
    jobs: VecDeque<(Job, CancelToken)>,
}

#[derive(Default)]
struct PoolState {
    tenants: Vec<TenantQueue>,
    /// Index into `tenants` where the next sweep starts.
    cursor: usize,
    shutdown: bool,
}

impl PoolState {
    fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantQueue {
        if let Some(i) = self.tenants.iter().position(|t| t.tenant == tenant) {
            return &mut self.tenants[i];
        }
        self.tenants.push(TenantQueue {
            tenant,
            capacity: DEFAULT_TENANT_CAPACITY,
            jobs: VecDeque::new(),
        });
        self.tenants.last_mut().expect("just pushed")
    }

    /// Round-robin pop: serve the first backlogged tenant at or after the
    /// cursor, then move the cursor past it.
    fn pop_next(&mut self) -> Option<(Job, CancelToken)> {
        let n = self.tenants.len();
        let idx = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&idx| !self.tenants[idx].jobs.is_empty())?;
        self.cursor = (idx + 1) % n;
        self.tenants[idx].jobs.pop_front()
    }
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signalled on every enqueue and on shutdown.
    available: Condvar,
}

/// A fixed pool of named worker threads draining per-tenant bounded queues
/// of cancellable jobs under round-robin (see the module docs for the
/// fairness and admission contracts).
///
/// Submitters never block: admission either succeeds immediately or
/// answers [`QueueFull`], so backpressure is explicit and the actors that
/// submit training work stay responsive.
pub struct JobPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobPool {
    /// A pool of `workers` threads named `{name}-{i}`.
    pub fn new(workers: usize, name: &str) -> Self {
        assert!(workers > 0, "job pool needs at least one worker");
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState::default()),
            available: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                // fairdms_check::thread — std passthrough normally; under
                // a model execution the worker becomes a model thread so
                // the checker can explore pool interleavings.
                fairdms_check::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| panic!("failed to spawn {name} worker: {e}"))
            })
            .collect();
        JobPool {
            inner,
            workers: handles,
        }
    }

    /// Sets (or creates) a tenant's queue capacity: the most queued (not
    /// yet running) jobs before [`JobPool::try_spawn_for`] answers
    /// [`QueueFull`]. Jobs already queued are kept even if the new capacity
    /// is below the current depth; the bound applies to subsequent
    /// admissions.
    pub fn set_capacity(&self, tenant: TenantId, capacity: usize) {
        self.inner.state.lock().tenant_mut(tenant).capacity = capacity;
    }

    /// Submits a job for `tenant` under a caller-provided token. Answers
    /// [`QueueFull`] — without enqueueing — when the tenant's queue is at
    /// capacity. A job whose token is already cancelled when a worker picks
    /// it up still runs; it is expected to observe the token at its first
    /// safe point and return immediately.
    pub fn try_spawn_for(
        &self,
        tenant: TenantId,
        token: CancelToken,
        job: impl FnOnce(&CancelToken) + Send + 'static,
    ) -> Result<(), QueueFull> {
        {
            let mut st = self.inner.state.lock();
            assert!(!st.shutdown, "spawn after job pool shutdown");
            let t = st.tenant_mut(tenant);
            if t.jobs.len() >= t.capacity {
                return Err(QueueFull {
                    tenant,
                    capacity: t.capacity,
                });
            }
            t.jobs.push_back((Box::new(job), token));
        }
        self.inner.available.notify_one();
        Ok(())
    }

    /// Submits a job for [`DEFAULT_TENANT`] with a fresh token and returns
    /// the token, through which the submitter can later cancel (supersede)
    /// the job. Panics if the default tenant's queue is at capacity — the
    /// single-tenant convenience API treats a thousand-deep backlog as a
    /// bug, not a load condition; admission-aware callers use
    /// [`JobPool::try_spawn_for`].
    pub fn spawn(&self, job: impl FnOnce(&CancelToken) + Send + 'static) -> CancelToken {
        let token = CancelToken::new();
        if let Err(full) = self.try_spawn_for(DEFAULT_TENANT, token.clone(), job) {
            panic!("job pool overflow on the non-admission-aware path: {full}");
        }
        token
    }

    /// Whether `tenant` has queue capacity for one more job right now. A
    /// submitter that is the *only* enqueuer for its tenant (the fairDMS
    /// actor is, by construction) can use this as a race-free admission
    /// pre-check before committing resources to preparing the job.
    pub fn has_capacity(&self, tenant: TenantId) -> bool {
        let mut st = self.inner.state.lock();
        let t = st.tenant_mut(tenant);
        t.jobs.len() < t.capacity
    }

    /// Queued (not yet running) jobs of one tenant — the
    /// `training_jobs_queued` gauge.
    pub fn queued(&self, tenant: TenantId) -> usize {
        self.inner
            .state
            .lock()
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .map_or(0, |t| t.jobs.len())
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let next = {
            let mut st = inner.state.lock();
            loop {
                match st.pop_next() {
                    Some(job) => break Some(job),
                    // Shutdown drains: exit only once every queue is empty.
                    None if st.shutdown => break None,
                    None => inner.available.wait(&mut st),
                }
            }
        };
        match next {
            Some((job, token)) => {
                // A panicking job must not shrink the pool: capacity
                // silently decaying one bad job at a time ends with every
                // later job queued forever. Failure delivery is the job's
                // own duty: any completion signal it owes (a result
                // channel, a condvar-guarded slot) must be wired to
                // fire during the unwind — channels disconnect when they
                // drop; Condvar-style slots need an armed drop-guard, or a
                // waiter blocks forever on a panic nothing ever reports.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&token)));
            }
            None => return,
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    use parking_lot::Mutex;
    use proptest::prelude::*;

    #[test]
    fn jobs_run_and_deliver_results_through_their_own_channel() {
        let pool = JobPool::new(2, "test-pool");
        let (tx, rx) = crossbeam_channel::unbounded();
        for i in 0..8usize {
            let tx = tx.clone();
            pool.spawn(move |_| {
                tx.send(i * i).unwrap();
            });
        }
        let mut got: Vec<usize> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn cancellation_is_observable_inside_the_job() {
        let pool = JobPool::new(1, "cancel-pool");
        let (tx, rx) = crossbeam_channel::bounded(1);
        let seen = Arc::new(AtomicBool::new(false));
        let seen2 = Arc::clone(&seen);
        let token = pool.spawn(move |ctl| {
            // Epoch-loop stand-in: spin until the token is raised.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !ctl.is_cancelled() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            seen2.store(ctl.is_cancelled(), Ordering::Release);
            tx.send(()).unwrap();
        });
        token.cancel();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(seen.load(Ordering::Acquire), "job never saw the token");
        assert!(token.is_cancelled());
    }

    #[test]
    fn supersession_cancels_the_old_job_not_the_new_one() {
        // One worker ⇒ jobs serialize; cancelling job A must not leak into
        // job B's fresh token.
        let pool = JobPool::new(1, "supersede-pool");
        let log = Arc::new(Mutex::new(Vec::new()));
        let la = Arc::clone(&log);
        let a = pool.spawn(move |ctl| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !ctl.is_cancelled() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            la.lock().push(("a", ctl.is_cancelled()));
        });
        let lb = Arc::clone(&log);
        let b = pool.spawn(move |ctl| {
            lb.lock().push(("b", ctl.is_cancelled()));
        });
        a.cancel(); // supersede A; B keeps its own un-cancelled token
        drop(pool); // joins: A winds down, then B runs
        assert_eq!(*log.lock(), vec![("a", true), ("b", false)]);
        assert!(!b.is_cancelled());
    }

    #[test]
    fn drop_joins_all_workers_after_draining() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = JobPool::new(3, "drain-pool");
            for _ in 0..12 {
                let c = Arc::clone(&counter);
                pool.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop: shutdown notifies the workers, which drain, then join
        assert_eq!(counter.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn a_panicking_job_leaves_the_pool_at_full_width() {
        // Two workers, one panicking job, then two jobs that each hold their
        // worker: both start only if the panic left both workers alive.
        let pool = JobPool::new(2, "panic-pool");
        let (hold_tx, hold_rx) = crossbeam_channel::bounded::<()>(1);
        let (started_tx, started_rx) = crossbeam_channel::unbounded();
        pool.spawn(|_| panic!("deliberate job panic"));
        for _ in 0..2 {
            let (hold_rx, started_tx) = (hold_rx.clone(), started_tx.clone());
            pool.spawn(move |_| {
                let _ = started_tx.send(());
                let _ = hold_rx.recv();
            });
        }
        for _ in 0..2 {
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a worker died with the panicking job");
        }
        drop(hold_tx);
    }

    #[test]
    fn admission_is_bounded_per_tenant() {
        let pool = JobPool::new(1, "bounded-pool");
        pool.set_capacity(7, 2);
        // Occupy the single worker so queued jobs cannot drain.
        let (hold_tx, hold_rx) = crossbeam_channel::bounded::<()>(1);
        let (running_tx, running_rx) = crossbeam_channel::bounded::<()>(1);
        pool.spawn(move |_| {
            running_tx.send(()).unwrap();
            let _ = hold_rx.recv();
        });
        running_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        assert_eq!(pool.try_spawn_for(7, CancelToken::new(), |_| {}), Ok(()));
        assert_eq!(pool.try_spawn_for(7, CancelToken::new(), |_| {}), Ok(()));
        assert_eq!(
            pool.try_spawn_for(7, CancelToken::new(), |_| {}),
            Err(QueueFull {
                tenant: 7,
                capacity: 2
            })
        );
        assert_eq!(pool.queued(7), 2);
        // Another tenant is unaffected by 7's full queue.
        assert_eq!(pool.try_spawn_for(8, CancelToken::new(), |_| {}), Ok(()));
        assert_eq!(pool.queued(8), 1);
        hold_tx.send(()).unwrap();
        drop(pool);
    }

    #[test]
    fn round_robin_interleaves_backlogged_tenants() {
        let pool = JobPool::new(1, "drr-pool");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Occupy the worker while both backlogs build, so the scheduling
        // decision happens with everything queued.
        let (hold_tx, hold_rx) = crossbeam_channel::bounded::<()>(1);
        let (running_tx, running_rx) = crossbeam_channel::bounded::<()>(1);
        pool.spawn(move |_| {
            running_tx.send(()).unwrap();
            let _ = hold_rx.recv();
        });
        running_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        for i in 0..4u32 {
            for tenant in [1u32, 2u32] {
                let order = Arc::clone(&order);
                pool.try_spawn_for(tenant, CancelToken::new(), move |_| {
                    order.lock().push((tenant, i));
                })
                .unwrap();
            }
        }
        hold_tx.send(()).unwrap();
        drop(pool); // drains, then joins
        let got = order.lock().clone();
        assert_eq!(got.len(), 8);
        // Strict alternation: never two consecutive jobs from the same
        // tenant while the other is backlogged.
        for w in got.windows(2) {
            assert_ne!(w[0].0, w[1].0, "tenants must alternate: {got:?}");
        }
        // FIFO within each tenant.
        for tenant in [1u32, 2u32] {
            let seq: Vec<u32> = got
                .iter()
                .filter(|(t, _)| *t == tenant)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(seq, vec![0, 1, 2, 3]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Popping a staged backlog to empty returns every job once, in
        /// FIFO order per tenant, and runs at most `n − 1` other jobs
        /// between two jobs of a tenant that is still backlogged.
        #[test]
        fn round_robin_bounds_the_wait(
            backlogs in proptest::collection::vec(0usize..=20, 2..6),
        ) {
            let n = backlogs.len();
            let ran = Arc::new(Mutex::new(Vec::new()));
            let mut st = PoolState::default();
            for (tenant, &depth) in backlogs.iter().enumerate() {
                let queue = &mut st.tenant_mut(tenant as TenantId).jobs;
                for seq in 0..depth {
                    let ran = Arc::clone(&ran);
                    let job: Job = Box::new(move |_| ran.lock().push((tenant, seq)));
                    queue.push_back((job, CancelToken::new()));
                }
            }
            while let Some((job, token)) = st.pop_next() {
                job(&token);
            }
            let ran = ran.lock().clone();
            prop_assert_eq!(ran.len(), backlogs.iter().sum::<usize>());
            for (tenant, &depth) in backlogs.iter().enumerate() {
                let pos: Vec<usize> = (0..ran.len()).filter(|&i| ran[i].0 == tenant).collect();
                let seqs: Vec<usize> = pos.iter().map(|&i| ran[i].1).collect();
                prop_assert_eq!(seqs, (0..depth).collect::<Vec<_>>());
                // Every tenant is backlogged from the first pop on, so its
                // first job is bounded too.
                let mut prev = None;
                for &p in &pos {
                    let waited = prev.map_or(p, |q: usize| p - q - 1);
                    prop_assert!(waited < n, "tenant {} waited {} jobs: {:?}", tenant, waited, ran);
                    prev = Some(p);
                }
            }
        }
    }
}
