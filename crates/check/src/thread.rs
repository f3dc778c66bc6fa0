//! Model-aware thread spawning.
//!
//! Mirrors the `std::thread` surface the workspace uses (`spawn`,
//! `Builder::new().name(..).spawn(..)`, `JoinHandle::join`). Spawned
//! from an ordinary thread this *is* `std::thread` — same OS threads,
//! same join semantics. Spawned from a model thread (under the `check`
//! feature) the child is registered with the execution's scheduler: it
//! runs as a real OS thread but only when holding the scheduler token,
//! its panics are captured as model failures instead of unwinding the
//! process, and `join` parks through the scheduler until the child
//! has finished.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Handle to a spawned thread; joinable exactly like std's.
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        handle: std::thread::JoinHandle<Option<T>>,
        tid: usize,
        sched: std::sync::Arc<crate::sched::Scheduler>,
    },
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning its value or the panic
    /// payload. Under the model, parks through the scheduler so other
    /// threads keep running.
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Std(h) => h.join(),
            Inner::Model { handle, tid, sched } => {
                if let Some((s, me)) = crate::rt::current() {
                    debug_assert!(std::sync::Arc::ptr_eq(&s, &sched));
                    sched.join_thread(me, tid);
                }
                match handle.join() {
                    Ok(Some(v)) => Ok(v),
                    Ok(None) => Err(Box::new(
                        "model thread panicked (failure recorded in the model report)".to_string(),
                    )),
                    Err(e) => Err(e),
                }
            }
        }
    }
}

/// Thread factory mirroring `std::thread::Builder`.
pub struct Builder {
    inner: std::thread::Builder,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    /// Creates a builder with default parameters.
    pub fn new() -> Builder {
        Builder {
            inner: std::thread::Builder::new(),
        }
    }

    /// Names the thread (shows up in panics and debuggers).
    pub fn name(self, name: String) -> Builder {
        Builder {
            inner: self.inner.name(name),
        }
    }

    /// Spawns the thread. From a model thread the child joins the model
    /// (see module docs); otherwise a plain `std::thread` spawn.
    #[track_caller]
    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if let Some((sched, _)) = crate::rt::current() {
            let tid = sched.register_thread();
            let child_sched = std::sync::Arc::clone(&sched);
            let handle = self.inner.spawn(move || {
                crate::rt::set_ctx(std::sync::Arc::clone(&child_sched), tid);
                child_sched.thread_begin(tid);
                let result = catch_unwind(AssertUnwindSafe(f));
                let value = match result {
                    Ok(v) => Some(v),
                    Err(payload) => {
                        child_sched.thread_panicked(tid, payload.as_ref());
                        None
                    }
                };
                // Finishing makes a scheduling decision, which can itself
                // surface a failure (deadlock among the remaining threads)
                // and raise the wind-down panic — contain it here.
                let _ = catch_unwind(AssertUnwindSafe(|| child_sched.thread_finish(tid)));
                crate::rt::clear_ctx();
                value
            })?;
            // Give the explorer a decision point right after the spawn so
            // "child runs first" is part of the schedule space.
            crate::rt::op_yield("spawn");
            return Ok(JoinHandle {
                inner: Inner::Model { handle, tid, sched },
            });
        }
        let handle = self.inner.spawn(f)?;
        Ok(JoinHandle {
            inner: Inner::Std(handle),
        })
    }
}

/// Spawns a thread with default parameters; see [`Builder::spawn`].
#[track_caller]
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}
