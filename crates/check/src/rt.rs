//! Runtime hooks: the seam between the shim crates and the scheduler.
//!
//! The shim crates (`parking_lot`, `crossbeam-channel`, `rayon`) and the
//! wrapper modules in this crate call these free functions at every
//! synchronization-relevant operation. On a thread that is not part of a
//! model execution every hook is a no-op, so instrumented shims stay
//! usable from ordinary tests. On a model thread each hook forwards to
//! the per-execution [`Scheduler`] held in a
//! thread-local.
//!
//! Resources are identified by `u64` ids; for heap objects the stable
//! address works ([`obj_id`]), with [`sub_res`] deriving per-aspect
//! sub-resources (e.g. a channel's not-empty vs not-full queues).
//!
//! Every hook that can surface in a diagnostic is `#[track_caller]` so
//! the reported site is the shim caller, not the hook itself.

use std::cell::RefCell;
use std::sync::Arc;
use std::sync::Once;

use crate::sched::Scheduler;
pub use crate::sched::Wake;

struct ModelCtx {
    sched: Arc<Scheduler>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<ModelCtx>> = const { RefCell::new(None) };
}

pub(crate) fn set_ctx(sched: Arc<Scheduler>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(ModelCtx { sched, tid }));
}

pub(crate) fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

fn with_ctx<R>(f: impl FnOnce(&Arc<Scheduler>, usize) -> R) -> Option<R> {
    CTX.with(|c| {
        let b = c.borrow();
        b.as_ref().map(|ctx| f(&ctx.sched, ctx.tid))
    })
}

pub(crate) fn current() -> Option<(Arc<Scheduler>, usize)> {
    with_ctx(|s, t| (Arc::clone(s), t))
}

/// True when the calling thread belongs to an active model execution.
/// Shims use this to pick the instrumented path; production threads
/// (where it is false) never touch the scheduler.
pub fn is_model_thread() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Stable id for a heap object: its address. Valid for the object's
/// lifetime, which bounds every model execution that can observe it.
pub fn obj_id<T: ?Sized>(obj: &T) -> u64 {
    obj as *const T as *const u8 as u64
}

/// Derives the `n`-th sub-resource of a base resource (distinct aspects
/// of one object, e.g. a channel's not-empty / not-full wait queues).
pub fn sub_res(base: u64, n: u64) -> u64 {
    // Odd multiplier + offset keeps sub-resources disjoint from object
    // addresses (which are at least word-aligned) and from each other.
    base.wrapping_mul(2).wrapping_add(1).wrapping_add(n << 48)
}

/// A plain scheduler yield point before a shared-memory operation.
#[track_caller]
pub fn op_yield(op: &'static str) {
    if let Some((s, t)) = current() {
        s.yield_op(t, op);
    }
}

/// Parks the model thread on `res` until [`unblock_all`] (or a notify /
/// release hook) frees it. `timeoutable` marks operations with a real
/// timeout (`recv_timeout`): the model fires the timeout only when no
/// other progress is possible, which both avoids timing dependence and
/// resolves would-be deadlocks through the documented timeout path.
#[track_caller]
pub fn block_on(res: u64, timeoutable: bool, op: &'static str) -> Wake {
    match current() {
        Some((s, t)) => s.block_on(t, res, timeoutable, op),
        None => Wake::Normal,
    }
}

/// Marks every model thread parked on `res` runnable.
pub fn unblock_all(res: u64) {
    if let Some((s, _)) = current() {
        s.unblock(res);
    }
}

/// Records a successful lock acquisition: a lock-order-graph edge from
/// every lock currently held (cycle ⇒ failure with both acquisition
/// sites).
#[track_caller]
pub fn lock_acquired(res: u64) {
    if let Some((s, t)) = current() {
        s.lock_acquired(t, res);
    }
}

/// Records a lock release and wakes its waiters.
pub fn lock_released(res: u64) {
    if let Some((s, t)) = current() {
        s.lock_released(t, res);
    }
}

/// Condvar wait, first half: atomically releases `mutex_res` (waking
/// its waiters) and parks as a waiter on `cv`. Returns once notified
/// and scheduled; the caller then re-acquires the mutex through the
/// normal lock path.
#[track_caller]
pub fn cv_wait(cv: u64, mutex_res: u64) {
    if let Some((s, t)) = current() {
        s.cv_wait(t, cv, mutex_res);
    }
}

/// Wakes one (lowest-tid — deterministic) or all waiters of `cv`.
pub fn cv_notify(cv: u64, all: bool) {
    if let Some((s, _)) = current() {
        s.cv_notify(cv, all);
    }
}

/// Installs (once, process-wide) a panic hook that silences panics on
/// model threads: model panics are captured and re-reported through
/// [`crate::Report`], so the default stderr backtrace is pure noise —
/// and the scheduler's wind-down panics would otherwise spam one line
/// per parked thread. Non-model threads keep the previous hook.
pub(crate) fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if is_model_thread() {
                return;
            }
            previous(info);
        }));
    });
}
