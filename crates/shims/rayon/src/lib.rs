//! Offline shim for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! Implements the parallel-iterator subset this workspace uses — enough to
//! keep the GEMM/clustering/labeling hot paths genuinely parallel without
//! registry access. Work is executed with `std::thread::scope`, splitting
//! the index space into one contiguous chunk per worker. That is a cruder
//! schedule than rayon's work stealing, but the workspace's kernels are
//! uniform per element, where contiguous chunking is within noise of
//! stealing.
//!
//! Supported surface:
//!
//! * `slice.par_iter()`, `(0..n).into_par_iter()`, `vec.into_par_iter()`
//!   with `.enumerate()`, `.map(...)`, `.for_each(...)`, `.collect()`,
//!   `.sum()`;
//! * `slice.par_iter_mut()` and `slice.par_chunks_mut(n)` with
//!   `.enumerate().for_each(...)`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] (pool width applies to
//!   work submitted from inside the closure) and [`current_num_threads`];
//! * [`scope`] with [`Scope::spawn`].
//!
//! Deliberate divergences from rayon:
//!
//! * there is no persistent pool: a region that runs on more than one
//!   worker spawns its workers and joins them before returning, so callers
//!   gate on work (`fairdms_tensor::ops::PAR_MIN_WORK`) before opening one;
//!   a [`Scope::spawn`] is one thread spawn, and it is a region too;
//! * `ThreadPool::install` runs the closure on the calling thread and only
//!   overrides the width of the regions it opens (a scope's tasks inherit
//!   it);
//! * [`regions_opened`] (hidden, shim-only) counts the regions the calling
//!   thread has spawned workers for, so a test can assert that a
//!   request-sized call opens none.
#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    /// Pool-width override installed by [`ThreadPool::install`].
    static POOL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Regions this thread has spawned workers for.
    static REGIONS_OPENED: Cell<u64> = const { Cell::new(0) };
}

/// How many parallel regions the calling thread has opened so far — calls
/// that spawned workers, not ones that ran inline because the pool or the
/// index space was one wide. A diagnostic of this shim (rayon has no such
/// call): tests take a delta around a call to pin down that it stayed on
/// its thread.
#[doc(hidden)]
pub fn regions_opened() -> u64 {
    REGIONS_OPENED.with(Cell::get)
}

fn count_region() {
    REGIONS_OPENED.with(|c| c.set(c.get() + 1));
}

/// Worker count a parallel region opened by the calling thread would use
/// (mirrors `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    pool_width()
}

/// Worker count for the calling context.
fn pool_width() -> usize {
    // Under a fairdms-check model execution, parallel kernels run
    // sequentially: the scheduler owns thread interleaving, and data-
    // parallel work over disjoint chunks has no schedule-dependent
    // behaviour worth exploring (it would only blow up the state space).
    #[cfg(feature = "check")]
    if fairdms_check::rt::is_model_thread() {
        return 1;
    }
    let over = POOL_OVERRIDE.with(|c| c.get());
    if over > 0 {
        return over;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs `f(i)` for `i in 0..n` in parallel, returning results in order.
fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = pool_width().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    count_region();
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (w, slot_chunk) in out.chunks_mut(chunk).enumerate() {
            let base = w * chunk;
            scope.spawn(move || {
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker filled every slot"))
        .collect()
}

/// Runs `f` over an owned list of work items split across the pool.
fn run_partitioned<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    let workers = pool_width().min(n.max(1));
    if workers <= 1 || n <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    count_region();
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = items;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let batch: Vec<T> = rest.drain(..take).collect();
            scope.spawn(move || batch.into_iter().for_each(f));
        }
    });
}

/// A lazily-evaluated parallel pipeline: an index space `0..len` plus a
/// per-index producer. All combinators compose producers; terminals execute
/// through `run_indexed`.
pub struct ParPipeline<T, F> {
    len: usize,
    produce: F,
    _marker: PhantomData<fn() -> T>,
}

impl<T, F> ParPipeline<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fn new(len: usize, produce: F) -> Self {
        ParPipeline {
            len,
            produce,
            _marker: PhantomData,
        }
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> ParPipeline<(usize, T), impl Fn(usize) -> (usize, T) + Sync> {
        let p = self.produce;
        ParPipeline::new(self.len, move |i| (i, p(i)))
    }

    /// Maps each item.
    pub fn map<U, G>(self, g: G) -> ParPipeline<U, impl Fn(usize) -> U + Sync>
    where
        U: Send,
        G: Fn(T) -> U + Sync,
    {
        let p = self.produce;
        ParPipeline::new(self.len, move |i| g(p(i)))
    }

    /// Maps each item to an iterator and flattens, preserving item order.
    pub fn flat_map<U, I, G>(self, g: G) -> ParFlatMap<I, impl Fn(usize) -> I + Sync>
    where
        U: Send,
        I: IntoIterator<Item = U> + Send,
        G: Fn(T) -> I + Sync,
    {
        let p = self.produce;
        ParFlatMap {
            len: self.len,
            produce: move |i| g(p(i)),
            _marker: PhantomData,
        }
    }

    /// Runs the pipeline for its side effects.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(T) + Sync,
    {
        let p = self.produce;
        run_indexed(self.len, |i| g(p(i)));
    }

    /// Collects results in index order.
    pub fn collect<C: FromParPipeline<T>>(self) -> C {
        C::from_pipeline(run_indexed(self.len, self.produce))
    }

    /// Sums the produced items.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T> + Send,
        T: Send,
    {
        run_indexed(self.len, self.produce).into_iter().sum()
    }
}

/// A flat-mapped parallel pipeline (inner iterators evaluated in parallel,
/// flattened in index order at collection time).
pub struct ParFlatMap<I, F> {
    len: usize,
    produce: F,
    _marker: PhantomData<fn() -> I>,
}

impl<I, F> ParFlatMap<I, F>
where
    I: IntoIterator + Send,
    I::Item: Send,
    F: Fn(usize) -> I + Sync,
{
    /// Collects the flattened results in index order.
    pub fn collect<C: FromParPipeline<I::Item>>(self) -> C {
        let nested = run_indexed(self.len, self.produce);
        C::from_pipeline(nested.into_iter().flatten().collect())
    }
}

/// Collection types a pipeline can collect into.
pub trait FromParPipeline<T> {
    /// Builds the collection from in-order results.
    fn from_pipeline(items: Vec<T>) -> Self;
}

impl<T> FromParPipeline<T> for Vec<T> {
    fn from_pipeline(items: Vec<T>) -> Self {
        items
    }
}

/// `par_iter` over shared slices.
pub trait ParIterSlice<T: Sync> {
    /// A parallel iterator of `&T`.
    fn par_iter<'a>(&'a self) -> ParPipeline<&'a T, impl Fn(usize) -> &'a T + Sync>;
}

impl<T: Sync> ParIterSlice<T> for [T] {
    fn par_iter<'a>(&'a self) -> ParPipeline<&'a T, impl Fn(usize) -> &'a T + Sync> {
        ParPipeline::new(self.len(), move |i| &self[i])
    }
}

impl<T: Sync> ParIterSlice<T> for Vec<T> {
    fn par_iter<'a>(&'a self) -> ParPipeline<&'a T, impl Fn(usize) -> &'a T + Sync> {
        ParPipeline::new(self.len(), move |i| &self[i])
    }
}

/// `into_par_iter` over owned index spaces and vectors.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Converts into a parallel pipeline.
    fn into_par_iter(self) -> ParPipeline<Self::Item, impl Fn(usize) -> Self::Item + Sync>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParPipeline<usize, impl Fn(usize) -> usize + Sync> {
        let start = self.start;
        let len = self.end.saturating_sub(self.start);
        ParPipeline::new(len, move |i| start + i)
    }
}

/// Mutable parallel iteration over slices.
pub trait ParIterMutSlice<T: Send> {
    /// One exclusive reference per element.
    fn par_iter_mut(&mut self) -> ParMut<'_, T>;
    /// Exclusive chunks of `size` elements (last may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParIterMutSlice<T> for [T] {
    fn par_iter_mut(&mut self) -> ParMut<'_, T> {
        ParMut { slice: self }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "par_chunks_mut: zero chunk size");
        ParChunksMut { slice: self, size }
    }
}

impl<T: Send> ParIterMutSlice<T> for Vec<T> {
    fn par_iter_mut(&mut self) -> ParMut<'_, T> {
        self.as_mut_slice().par_iter_mut()
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        self.as_mut_slice().par_chunks_mut(size)
    }
}

/// Parallel `&mut T` iterator.
pub struct ParMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParMut<'a, T> {
    /// Pairs each element with its index.
    pub fn enumerate(self) -> ParMutEnumerate<'a, T> {
        ParMutEnumerate { slice: self.slice }
    }

    /// Applies `g` to every element in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(&mut T) + Sync,
    {
        let items: Vec<&mut T> = self.slice.iter_mut().collect();
        run_partitioned(items, g);
    }
}

/// Enumerated parallel `&mut T` iterator.
pub struct ParMutEnumerate<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> ParMutEnumerate<'_, T> {
    /// Applies `g(i, &mut item)` to every element in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn((usize, &mut T)) + Sync,
    {
        let items: Vec<(usize, &mut T)> = self.slice.iter_mut().enumerate().collect();
        run_partitioned(items, |(i, r)| g((i, r)));
    }
}

/// Parallel exclusive-chunk iterator.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate {
            slice: self.slice,
            size: self.size,
        }
    }

    /// Applies `g` to every chunk in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(&mut [T]) + Sync,
    {
        let chunks: Vec<&mut [T]> = self.slice.chunks_mut(self.size).collect();
        run_partitioned(chunks, g);
    }
}

/// Enumerated parallel exclusive-chunk iterator.
pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Applies `g(i, chunk)` to every chunk in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn((usize, &mut [T])) + Sync,
    {
        let chunks: Vec<(usize, &mut [T])> = self.slice.chunks_mut(self.size).enumerate().collect();
        run_partitioned(chunks, |(i, c)| g((i, c)));
    }
}

/// Builder for a fixed-width pool (shim: the width is a thread-local
/// override applied while [`ThreadPool::install`] runs).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A new builder with the default width.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, BuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Pool construction error (the shim never fails; the type exists so
/// `.unwrap()`/`?` call sites compile).
#[derive(Debug)]
pub struct BuildError;

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for BuildError {}

/// A scoped pool-width override.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's width governing nested parallel work
    /// submitted from inside `f` on the calling thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_OVERRIDE.with(|c| c.replace(self.num_threads));
        let out = f();
        POOL_OVERRIDE.with(|c| c.set(prev));
        out
    }
}

/// Runs `op` with a [`Scope`] whose spawned tasks may borrow from the
/// caller, and returns once every task has finished (mirrors
/// `rayon::scope`). Each task runs on a thread of its own, at the caller's
/// pool width; the regions a task opens are counted as the caller's.
///
/// A panic in a task or in `op` resumes on the caller after every task has
/// been joined; when both panicked, the task's payload wins, since `op`
/// typically panics because its task went away.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    let tally = Arc::new(Tally::default());
    let out = std::thread::scope(|threads| {
        let scope = Scope {
            threads,
            width: pool_width(),
            tally: Arc::clone(&tally),
        };
        panic::catch_unwind(AssertUnwindSafe(|| op(&scope)))
    });
    let nested = tally.nested.load(Ordering::Acquire);
    REGIONS_OPENED.with(|c| c.set(c.get() + nested));
    let task_panic = tally
        .task_panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(payload) = task_panic {
        panic::resume_unwind(payload);
    }
    out.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// What a scope's tasks report back to its caller.
#[derive(Default)]
struct Tally {
    /// Regions the tasks opened.
    nested: AtomicU64,
    /// The first task panic.
    task_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The handle [`scope`] passes to its closure and to every task.
#[derive(Clone)]
pub struct Scope<'scope, 'env: 'scope> {
    threads: &'scope std::thread::Scope<'scope, 'env>,
    width: usize,
    tally: Arc<Tally>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Runs `body` on a thread of its own; [`scope`] joins it before
    /// returning.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        count_region();
        let scope = self.clone();
        self.threads.spawn(move || {
            POOL_OVERRIDE.with(|c| c.set(scope.width));
            let ran = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
            let tally = &scope.tally;
            tally.nested.fetch_add(regions_opened(), Ordering::AcqRel);
            if let Err(payload) = ran {
                let mut slot = tally.task_panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
        });
    }
}

/// The prelude, mirroring `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIterMutSlice, ParIterSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn par_iter_enumerate_map_sum() {
        let data = vec![1.0f64; 512];
        let s: f64 = data
            .par_iter()
            .enumerate()
            .map(|(i, &x)| x * i as f64)
            .sum();
        assert_eq!(s, (0..512).sum::<usize>() as f64);
    }

    #[test]
    fn chunks_mut_writes_disjoint_regions() {
        let mut buf = vec![0usize; 103];
        buf.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        assert!(buf.iter().all(|&v| v > 0));
        assert_eq!(buf[0], 1);
        assert_eq!(buf[102], 11);
    }

    #[test]
    fn par_iter_mut_touches_every_element() {
        let mut buf = vec![0i64; 97];
        buf.par_iter_mut()
            .enumerate()
            .for_each(|(i, v)| *v = i as i64);
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn regions_are_counted_only_when_workers_are_spawned() {
        let wide = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let narrow = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let before = crate::regions_opened();
        narrow.install(|| (0..64usize).into_par_iter().for_each(|_| {}));
        wide.install(|| (0..1usize).into_par_iter().for_each(|_| {}));
        assert_eq!(crate::regions_opened(), before, "both ran inline");
        wide.install(|| {
            (0..64usize).into_par_iter().for_each(|_| {});
            vec![0u8; 64].par_iter_mut().for_each(|v| *v = 1);
        });
        assert_eq!(crate::regions_opened(), before + 2);
    }

    #[test]
    fn scope_tasks_borrow_inherit_the_width_and_count_as_the_callers_regions() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let mut out = [0usize; 2];
        let before = crate::regions_opened();
        let (a, b) = out.split_at_mut(1);
        pool.install(|| {
            crate::scope(|s| {
                s.spawn(|_| {
                    a[0] = crate::current_num_threads();
                    (0..64usize).into_par_iter().for_each(|_| {});
                });
                b[0] = 7;
            })
        });
        assert_eq!(out, [3, 7]);
        assert_eq!(
            crate::regions_opened(),
            before + 2,
            "the spawn and its region"
        );
    }

    #[test]
    fn a_task_panic_resumes_on_the_caller_after_the_join() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::scope(move |s| {
                s.spawn(move |_| {
                    drop(tx);
                    panic!("task failed");
                });
                // The caller notices its task went away and panics too;
                // the task's payload is the one that surfaces.
                rx.recv().expect("task exited");
            })
        }));
        let payload = caught.expect_err("the panic must surface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
    }

    #[test]
    fn install_overrides_width() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let out: Vec<usize> = pool.install(|| (0..64usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out.len(), 64);
    }
}
