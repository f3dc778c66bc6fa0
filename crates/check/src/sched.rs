//! The controlled scheduler and interleaving explorer.
//!
//! ## Execution model
//!
//! A *model* is a closure that builds a concurrent structure, spawns
//! model threads ([`crate::thread::spawn`]), and asserts invariants.
//! Model threads are real OS threads, but a token-passing scheduler
//! serializes them: exactly one model thread runs at a time, and every
//! instrumented operation (shim lock/channel ops, [`crate::atomic`],
//! the [`crate::rt`] hooks) is a *yield point* where the scheduler
//! decides who runs the next operation. One decision sequence = one
//! interleaving.
//!
//! ## Exploration
//!
//! [`Model::check_exhaustive`] re-runs the closure under stateless DFS
//! over decision sequences: the first run takes the default choice at
//! every yield point (keep running the current thread — zero
//! preemptions), and each subsequent run forces a prefix that flips the
//! deepest decision with an untried alternative. Alternatives that would
//! exceed the *preemption bound* are pruned (CHESS-style: most bugs
//! surface within 2–3 preemptions, and the bound keeps the schedule
//! space polynomial). [`Model::check_random`] samples seeded random
//! schedules instead. Both require the model closure to be
//! deterministic apart from scheduling (no wall-clock, no OS RNG).
//!
//! ## Blocking, deadlock, livelock
//!
//! A model thread never blocks in the OS. A blocking operation
//! (contended lock, empty-channel recv, condvar wait) parks the thread
//! in the scheduler as *blocked on a resource*; the releasing operation
//! marks it runnable again. If no thread is runnable and some are
//! blocked, the schedule is a **deadlock** and is reported with every
//! thread's blocked site. A schedule exceeding `max_steps` is reported
//! as a **livelock**.
//!
//! ## Failure = replayable trace
//!
//! Any failure — deadlock, lock-order cycle, livelock, or a plain
//! assertion panic on a model thread — aborts the execution,
//! winds every model thread down, and surfaces as a [`Failure`]
//! carrying the [`Trace`] (the chosen thread id at every decision).
//! [`Model::replay`] re-runs exactly that schedule.

use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Failures, traces, reports
// ---------------------------------------------------------------------------

/// What class of concurrency bug a failed execution exhibited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread runnable while some remain blocked.
    Deadlock,
    /// A cycle in the lock-acquisition-order graph.
    LockOrderCycle,
    /// The schedule exceeded `max_steps` without completing.
    Livelock,
    /// A model thread panicked (failed assertion or library panic).
    Panic,
    /// A replayed trace diverged from the model's actual behaviour.
    Divergence,
}

/// The schedule that produced an execution: the chosen thread id at
/// every decision point. `Display` renders the comma-separated form
/// [`Trace::parse`] accepts, so traces can be checked into tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace(pub Vec<usize>);

impl Trace {
    /// Parses `"0,1,1,2"` (whitespace tolerated). Empty string = empty.
    pub fn parse(s: &str) -> Result<Trace, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Trace(Vec::new()));
        }
        s.split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad trace element {part:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Trace)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// One failed execution: kind, human-readable diagnosis, and the
/// deterministic schedule that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Bug class.
    pub kind: FailureKind,
    /// Diagnosis, including the source sites involved.
    pub message: String,
    /// The schedule; feed to [`Model::replay`].
    pub trace: Trace,
    /// Random-mode seed of the failing execution, when applicable.
    pub seed: Option<u64>,
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Distinct interleavings executed.
    pub interleavings: usize,
    /// True when DFS exhausted the (preemption-bounded) schedule space.
    pub exhausted: bool,
    /// First failure found, if any (exploration stops at the first).
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with a replay recipe if the exploration found a failure.
    pub fn assert_pass(&self, what: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "model check '{what}' failed after {} interleaving(s): {:?}: {}\n  \
                 trace: \"{}\"{}\n  replay: Model::default().replay(\"{}\", ...)",
                self.interleavings,
                f.kind,
                f.message,
                f.trace,
                f.seed.map(|s| format!("\n  seed: {s}")).unwrap_or_default(),
                f.trace,
            );
        }
    }

    /// Panics unless at least `n` distinct interleavings were explored —
    /// the coverage floor the CI models assert.
    pub fn assert_min_interleavings(&self, n: usize, what: &str) {
        assert!(
            self.interleavings >= n,
            "model '{what}' explored only {} interleavings (< {n})",
            self.interleavings
        );
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// Why a parked operation woke up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// The resource was released / the thread was notified.
    Normal,
    /// Woken as the deadlock-resolution timeout (only for operations
    /// registered as timeoutable, e.g. `recv_timeout`).
    Timeout,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked {
        res: u64,
        timeoutable: bool,
    },
    /// Parked on a condvar: not runnable until notified, and `res` keys
    /// the condvar identity for notify targeting.
    CondWait {
        res: u64,
    },
    Finished,
}

struct ThreadSlot {
    status: Status,
    /// Last blocking site, for deadlock diagnostics.
    site: &'static Location<'static>,
    op: &'static str,
    /// Wake kind to report when the parked operation resumes.
    wake: Wake,
}

/// One scheduling decision (for DFS backtracking and trace replay).
#[derive(Clone, Debug)]
struct Decision {
    n_candidates: usize,
    chosen_idx: usize,
    chosen_tid: usize,
    /// True when the previously-running thread was itself a candidate
    /// (so any `idx != 0` alternative is a preemption).
    preempt_base: bool,
    is_preemption: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// DFS: follow `forced` prefix, then default choice (index 0).
    Dfs,
    /// Uniform choice via xorshift from the per-execution seed.
    Random,
    /// Follow a recorded tid trace exactly; default choice past its end.
    Replay,
}

struct LockHeld {
    res: u64,
    site: &'static Location<'static>,
}

#[derive(Clone)]
struct LockEdge {
    from_site: &'static Location<'static>,
    to_site: &'static Location<'static>,
}

struct State {
    threads: Vec<ThreadSlot>,
    current: usize,
    mode: Mode,
    /// DFS: forced candidate indices. Replay: forced tids.
    forced: Vec<usize>,
    rng: u64,
    seed: Option<u64>,
    decisions: Vec<Decision>,
    preemptions: usize,
    max_steps: usize,
    failure: Option<Failure>,
    aborting: bool,
    all_finished: bool,

    // --- lock-order analysis (reset per execution) ---
    held: Vec<Vec<LockHeld>>,
    /// Lock-order graph: `from` resource → acquired-while-held locks.
    lock_edges: HashMap<u64, Vec<(u64, LockEdge)>>,
}

/// The per-execution token-passing scheduler. One instance per
/// interleaving; model threads hold it through a thread-local (see
/// [`crate::rt`]).
pub struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
}

/// Panic payload used to wind model threads down after a failure.
/// Swallowed by the model-thread wrapper; never user-visible.
pub(crate) struct SchedAbort;

const MAX_MODEL_THREADS: usize = 64;

impl Scheduler {
    fn new(mode: Mode, forced: Vec<usize>, seed: Option<u64>, max_steps: usize) -> Arc<Scheduler> {
        let root = ThreadSlot {
            status: Status::Runnable,
            site: Location::caller(),
            op: "start",
            wake: Wake::Normal,
        };
        Arc::new(Scheduler {
            state: Mutex::new(State {
                threads: vec![root],
                current: 0,
                mode,
                forced,
                rng: seed.unwrap_or(0) ^ 0x9e37_79b9_7f4a_7c15,
                seed,
                decisions: Vec::new(),
                preemptions: 0,
                max_steps,
                failure: None,
                aborting: false,
                all_finished: false,
                held: vec![Vec::new()],
                lock_edges: HashMap::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a failure (first wins), switches to abort mode, and wakes
    /// every parked thread so the execution winds down.
    fn fail(&self, s: &mut State, kind: FailureKind, message: String) {
        if s.failure.is_none() {
            s.failure = Some(Failure {
                kind,
                message,
                trace: Trace(s.decisions.iter().map(|d| d.chosen_tid).collect()),
                seed: s.seed,
            });
        }
        s.aborting = true;
        self.cv.notify_all();
    }

    /// Raises the wind-down panic unless this thread is already
    /// unwinding (a panic-during-panic aborts the process; an unwinding
    /// thread simply free-runs to completion instead).
    fn raise_abort(&self) {
        if !std::thread::panicking() {
            std::panic::panic_any(SchedAbort);
        }
        // Unwinding: be polite to any real spin retry loops above us.
        std::thread::yield_now();
    }

    // -- decision engine ---------------------------------------------------

    /// Candidate order: current thread first (if runnable) so that
    /// choice index 0 is always the preemption-free default, then the
    /// rest by ascending tid (address-free ⇒ deterministic across runs).
    fn candidates(s: &State) -> (Vec<usize>, bool) {
        let cur = s.current;
        let cur_runnable = matches!(s.threads.get(cur).map(|t| t.status), Some(Status::Runnable));
        let mut c = Vec::new();
        if cur_runnable {
            c.push(cur);
        }
        for (tid, t) in s.threads.iter().enumerate() {
            if tid != cur && matches!(t.status, Status::Runnable) {
                c.push(tid);
            }
        }
        (c, cur_runnable)
    }

    /// Makes one scheduling decision and hands the token over. Returns
    /// immediately when the calling thread keeps the token. Must be
    /// called with the state lock held; reacquires it internally.
    fn schedule_next(self: &Arc<Self>, mut s: std::sync::MutexGuard<'_, State>, me: usize) {
        if s.aborting {
            drop(s);
            self.raise_abort();
            return;
        }
        if s.decisions.len() >= s.max_steps {
            let msg = format!(
                "schedule exceeded {} steps without completing (livelock?)",
                s.max_steps
            );
            self.fail(&mut s, FailureKind::Livelock, msg);
            drop(s);
            self.raise_abort();
            return;
        }
        let (cands, preempt_base) = Self::candidates(&s);
        if cands.is_empty() {
            if s.threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                s.all_finished = true;
                self.cv.notify_all();
                return;
            }
            // Deadlock-resolution pass 1: fire a timeoutable wait.
            let timeoutable = s.threads.iter().position(|t| {
                matches!(
                    t.status,
                    Status::Blocked {
                        timeoutable: true,
                        ..
                    }
                )
            });
            if let Some(tid) = timeoutable {
                s.threads[tid].status = Status::Runnable;
                s.threads[tid].wake = Wake::Timeout;
                // Record as a single-candidate decision so replays stay aligned.
                s.decisions.push(Decision {
                    n_candidates: 1,
                    chosen_idx: 0,
                    chosen_tid: tid,
                    preempt_base: false,
                    is_preemption: false,
                });
                s.current = tid;
                self.cv.notify_all();
                self.wait_for_token(s, me);
                return;
            }
            let blocked: Vec<String> = s
                .threads
                .iter()
                .enumerate()
                .filter_map(|(tid, t)| match t.status {
                    Status::Blocked { .. } | Status::CondWait { .. } => Some(format!(
                        "thread {tid} blocked in {} at {}:{}",
                        t.op,
                        t.site.file(),
                        t.site.line()
                    )),
                    _ => None,
                })
                .collect();
            let msg = format!("deadlock: no runnable thread; {}", blocked.join("; "));
            self.fail(&mut s, FailureKind::Deadlock, msg);
            drop(s);
            self.raise_abort();
            return;
        }

        let step = s.decisions.len();
        let idx = if step < s.forced.len() {
            match s.mode {
                Mode::Replay => {
                    let want_tid = s.forced[step];
                    match cands.iter().position(|&t| t == want_tid) {
                        Some(i) => i,
                        None => {
                            let msg = format!(
                                "replay diverged at step {step}: trace wants thread \
                                 {want_tid}, candidates are {cands:?}"
                            );
                            self.fail(&mut s, FailureKind::Divergence, msg);
                            drop(s);
                            self.raise_abort();
                            return;
                        }
                    }
                }
                _ => s.forced[step].min(cands.len() - 1),
            }
        } else {
            match s.mode {
                Mode::Random => {
                    // xorshift64*
                    let mut x = s.rng;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    s.rng = x;
                    let draw = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize;
                    draw % cands.len()
                }
                _ => 0,
            }
        };
        let chosen = cands[idx];
        let is_preemption = preempt_base && idx != 0;
        if is_preemption {
            s.preemptions += 1;
        }
        s.decisions.push(Decision {
            n_candidates: cands.len(),
            chosen_idx: idx,
            chosen_tid: chosen,
            preempt_base,
            is_preemption,
        });
        s.current = chosen;
        if chosen == me {
            return;
        }
        self.cv.notify_all();
        self.wait_for_token(s, me);
    }

    /// Parks until this thread holds the token (or the execution aborts).
    fn wait_for_token(self: &Arc<Self>, mut s: std::sync::MutexGuard<'_, State>, me: usize) {
        loop {
            if s.aborting {
                drop(s);
                self.raise_abort();
                return;
            }
            if s.current == me && matches!(s.threads[me].status, Status::Runnable) {
                return;
            }
            if matches!(s.threads[me].status, Status::Finished) {
                // Only reachable for the root thread after finish; nothing
                // to wait for.
                return;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    // -- operations used by rt / thread / explorer -------------------------

    /// A plain yield point: one decision about who runs the next op.
    #[track_caller]
    pub(crate) fn yield_op(self: &Arc<Self>, me: usize, op: &'static str) {
        let mut s = self.lock();
        s.threads[me].site = Location::caller();
        s.threads[me].op = op;
        self.schedule_next(s, me);
    }

    /// Parks on `res` until [`Scheduler::unblock`] releases it.
    #[track_caller]
    pub(crate) fn block_on(
        self: &Arc<Self>,
        me: usize,
        res: u64,
        timeoutable: bool,
        op: &'static str,
    ) -> Wake {
        let mut s = self.lock();
        s.threads[me].site = Location::caller();
        s.threads[me].op = op;
        s.threads[me].status = Status::Blocked { res, timeoutable };
        s.threads[me].wake = Wake::Normal;
        self.schedule_next(s, me);
        let s = self.lock();
        s.threads[me].wake
    }

    /// Marks every thread blocked on `res` runnable (they still wait to
    /// be scheduled).
    pub(crate) fn unblock(&self, res: u64) {
        let mut s = self.lock();
        for t in s.threads.iter_mut() {
            if let Status::Blocked { res: r, .. } = t.status {
                if r == res {
                    t.status = Status::Runnable;
                    t.wake = Wake::Normal;
                }
            }
        }
    }

    // -- condvars ----------------------------------------------------------

    /// Atomically: record the mutex release (unblock its waiters), park
    /// this thread as a waiter on condvar `cv`, and hand the token over.
    /// Returns once notified *and* scheduled. The caller is responsible
    /// for having dropped the real mutex guard first and for reacquiring
    /// afterwards.
    #[track_caller]
    pub(crate) fn cv_wait(self: &Arc<Self>, me: usize, cv: u64, mutex_res: u64) {
        let mut s = self.lock();
        s.threads[me].site = Location::caller();
        s.threads[me].op = "condvar wait";
        // Mutex release half (mirror of lock_released, under one lock).
        s.held[me].retain(|h| h.res != mutex_res);
        for t in s.threads.iter_mut() {
            if let Status::Blocked { res: r, .. } = t.status {
                if r == mutex_res {
                    t.status = Status::Runnable;
                }
            }
        }
        s.threads[me].status = Status::CondWait { res: cv };
        self.schedule_next(s, me);
    }

    /// Wakes one (lowest-tid) or all waiters of condvar `cv`.
    pub(crate) fn cv_notify(&self, cv: u64, all: bool) {
        let mut s = self.lock();
        let mut woken = 0;
        for t in s.threads.iter_mut() {
            if let Status::CondWait { res } = t.status {
                if res == cv {
                    t.status = Status::Runnable;
                    t.wake = Wake::Normal;
                    woken += 1;
                    if !all && woken == 1 {
                        break;
                    }
                }
            }
        }
    }

    // -- lock-order graph --------------------------------------------------

    /// Registers a lock acquisition: lock-order edges from every lock
    /// currently held by this thread, with cycle detection over the edges
    /// seen this execution.
    #[track_caller]
    pub(crate) fn lock_acquired(self: &Arc<Self>, me: usize, res: u64) {
        let site = Location::caller();
        let mut s = self.lock();
        let held: Vec<(u64, &'static Location<'static>)> =
            s.held[me].iter().map(|h| (h.res, h.site)).collect();
        for (from, from_site) in held {
            if from == res {
                continue;
            }
            let edges = s.lock_edges.entry(from).or_default();
            if !edges.iter().any(|(to, _)| *to == res) {
                edges.push((
                    res,
                    LockEdge {
                        from_site,
                        to_site: site,
                    },
                ));
            }
            // Cycle check: can we get from `res` back to `from`?
            if let Some(path) = Self::find_path(&s.lock_edges, res, from) {
                let mut msg = format!(
                    "lock-order cycle: acquiring lock at {}:{} while holding lock \
                     acquired at {}:{}; reverse order exists:",
                    site.file(),
                    site.line(),
                    from_site.file(),
                    from_site.line()
                );
                for e in path {
                    msg.push_str(&format!(
                        " [{}:{} -> {}:{}]",
                        e.from_site.file(),
                        e.from_site.line(),
                        e.to_site.file(),
                        e.to_site.line()
                    ));
                }
                self.fail(&mut s, FailureKind::LockOrderCycle, msg);
                drop(s);
                self.raise_abort();
                return;
            }
        }
        s.held[me].push(LockHeld { res, site });
    }

    fn find_path(
        edges: &HashMap<u64, Vec<(u64, LockEdge)>>,
        from: u64,
        to: u64,
    ) -> Option<Vec<LockEdge>> {
        // DFS with a path stack; graphs here are tiny.
        fn go(
            edges: &HashMap<u64, Vec<(u64, LockEdge)>>,
            at: u64,
            to: u64,
            seen: &mut Vec<u64>,
            path: &mut Vec<LockEdge>,
        ) -> bool {
            if let Some(outs) = edges.get(&at) {
                for (next, e) in outs {
                    if seen.contains(next) {
                        continue;
                    }
                    path.push(e.clone());
                    if *next == to {
                        return true;
                    }
                    seen.push(*next);
                    if go(edges, *next, to, seen, path) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }
        let mut path = Vec::new();
        let mut seen = vec![from];
        go(edges, from, to, &mut seen, &mut path).then_some(path)
    }

    /// Registers a lock release: drop from held set, wake its waiters.
    pub(crate) fn lock_released(&self, me: usize, res: u64) {
        let mut s = self.lock();
        s.held[me].retain(|h| h.res != res);
        for t in s.threads.iter_mut() {
            if let Status::Blocked { res: r, .. } = t.status {
                if r == res {
                    t.status = Status::Runnable;
                }
            }
        }
    }

    // -- model-thread lifecycle --------------------------------------------

    /// Registers a child model thread. The child starts runnable (its
    /// OS thread gates on the token in [`Scheduler::thread_begin`]).
    pub(crate) fn register_thread(&self) -> usize {
        let mut s = self.lock();
        let tid = s.threads.len();
        assert!(tid < MAX_MODEL_THREADS, "model spawned too many threads");
        s.threads.push(ThreadSlot {
            status: Status::Runnable,
            site: Location::caller(),
            op: "spawned",
            wake: Wake::Normal,
        });
        s.held.push(Vec::new());
        tid
    }

    /// First call on a fresh model thread: parks until first scheduled.
    pub(crate) fn thread_begin(self: &Arc<Self>, me: usize) {
        let s = self.lock();
        self.wait_for_token(s, me);
    }

    /// Records a (non-abort) panic on a model thread as a failure.
    pub(crate) fn thread_panicked(&self, me: usize, payload: &dyn std::any::Any) {
        if payload.is::<SchedAbort>() {
            return;
        }
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "model thread panicked (non-string payload)".to_string());
        let mut s = self.lock();
        self.fail(
            &mut s,
            FailureKind::Panic,
            format!("thread {me} panicked: {msg}"),
        );
    }

    /// Marks a model thread finished, wakes joiners, hands the token on.
    pub(crate) fn thread_finish(self: &Arc<Self>, me: usize) {
        let mut s = self.lock();
        s.threads[me].status = Status::Finished;
        let res = thread_res(me);
        for t in s.threads.iter_mut() {
            if let Status::Blocked { res: r, .. } = t.status {
                if r == res {
                    t.status = Status::Runnable;
                }
            }
        }
        if s.aborting {
            self.cv.notify_all();
            // Wind-down: don't schedule, just leave.
            return;
        }
        self.schedule_next(s, me);
    }

    /// Model-aware join: parks until `tid` finishes.
    #[track_caller]
    pub(crate) fn join_thread(self: &Arc<Self>, me: usize, tid: usize) {
        let res = thread_res(tid);
        loop {
            {
                let s = self.lock();
                if matches!(s.threads[tid].status, Status::Finished) {
                    break;
                }
                if s.aborting {
                    drop(s);
                    return; // real join below will complete as threads unwind
                }
            }
            self.block_on(me, res, false, "thread join");
        }
    }

    /// Explorer-side wait for logical completion of every model thread.
    fn wait_all_finished(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut s = self.lock();
        loop {
            if s.threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
    }
}

/// Join/finish resource id of a model thread.
fn thread_res(tid: usize) -> u64 {
    // High tag keeps these ids disjoint from address-derived ones.
    0xF000_0000_0000_0000u64 | tid as u64
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// Exploration configuration: one instance checks one model closure.
#[derive(Clone, Copy, Debug)]
pub struct Model {
    /// CHESS-style preemption budget for exhaustive DFS (a switch the
    /// running thread forces by blocking or finishing is free).
    pub preemption_bound: usize,
    /// Hard cap on interleavings explored by one call.
    pub max_interleavings: usize,
    /// Hard cap on decisions per execution (livelock guard).
    pub max_steps: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            preemption_bound: 3,
            max_interleavings: 20_000,
            max_steps: 20_000,
        }
    }
}

impl Model {
    /// A model with an explicit preemption bound.
    pub fn with_preemption_bound(bound: usize) -> Self {
        Model {
            preemption_bound: bound,
            ..Model::default()
        }
    }

    fn run_once(
        &self,
        mode: Mode,
        forced: Vec<usize>,
        seed: Option<u64>,
        f: &(dyn Fn() + Sync),
    ) -> (Vec<Decision>, Option<Failure>) {
        assert!(
            !crate::rt::is_model_thread(),
            "nested model exploration is not supported"
        );
        crate::rt::install_quiet_panic_hook();
        let sched = Scheduler::new(mode, forced, seed, self.max_steps);
        crate::rt::set_ctx(Arc::clone(&sched), 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
        if let Err(payload) = result {
            sched.thread_panicked(0, payload.as_ref());
        }
        // Finishing makes one last scheduling decision, which can itself
        // surface a failure (e.g. a deadlock among surviving threads) and
        // raise the wind-down panic — keep it out of the test thread.
        let fin = Arc::clone(&sched);
        let _ =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || fin.thread_finish(0)));
        crate::rt::clear_ctx();
        let finished = sched.wait_all_finished();
        let mut s = sched.lock();
        if !finished && s.failure.is_none() {
            let msg = "model threads failed to wind down within 60s".to_string();
            s.failure = Some(Failure {
                kind: FailureKind::Livelock,
                message: msg,
                trace: Trace(s.decisions.iter().map(|d| d.chosen_tid).collect()),
                seed: s.seed,
            });
        }
        (std::mem::take(&mut s.decisions), s.failure.clone())
    }

    /// Computes the next DFS forced prefix, or `None` when the bounded
    /// schedule space is exhausted.
    fn next_prefix(&self, decisions: &[Decision]) -> Option<Vec<usize>> {
        let mut preempts_before = Vec::with_capacity(decisions.len());
        let mut acc = 0usize;
        for d in decisions {
            preempts_before.push(acc);
            acc += d.is_preemption as usize;
        }
        for k in (0..decisions.len()).rev() {
            let d = &decisions[k];
            let alt = d.chosen_idx + 1;
            if alt >= d.n_candidates {
                continue;
            }
            let alt_preempts = if d.preempt_base && alt != 0 { 1 } else { 0 };
            if preempts_before[k] + alt_preempts > self.preemption_bound {
                continue;
            }
            let mut prefix: Vec<usize> = decisions[..k].iter().map(|p| p.chosen_idx).collect();
            prefix.push(alt);
            return Some(prefix);
        }
        None
    }

    /// Explores the bounded schedule space exhaustively (DFS), stopping
    /// at the first failure or at `max_interleavings`.
    pub fn check_exhaustive(&self, f: impl Fn() + Sync) -> Report {
        let mut forced: Vec<usize> = Vec::new();
        let mut n = 0usize;
        loop {
            let (decisions, failure) = self.run_once(Mode::Dfs, forced.clone(), None, &f);
            n += 1;
            if failure.is_some() {
                return Report {
                    interleavings: n,
                    exhausted: false,
                    failure,
                };
            }
            if n >= self.max_interleavings {
                return Report {
                    interleavings: n,
                    exhausted: false,
                    failure: None,
                };
            }
            match self.next_prefix(&decisions) {
                Some(p) => forced = p,
                None => {
                    return Report {
                        interleavings: n,
                        exhausted: true,
                        failure: None,
                    }
                }
            }
        }
    }

    /// Runs `iters` seeded random schedules (seeds `seed..seed+iters`,
    /// each reported on failure), stopping at the first failure.
    pub fn check_random(&self, seed: u64, iters: usize, f: impl Fn() + Sync) -> Report {
        for i in 0..iters {
            let (_, failure) = self.run_once(
                Mode::Random,
                Vec::new(),
                Some(seed.wrapping_add(i as u64)),
                &f,
            );
            if failure.is_some() {
                return Report {
                    interleavings: i + 1,
                    exhausted: false,
                    failure,
                };
            }
        }
        Report {
            interleavings: iters,
            exhausted: false,
            failure: None,
        }
    }

    /// Replays one recorded schedule (`trace` as printed by a failure:
    /// comma-separated thread ids) deterministically.
    pub fn replay(&self, trace: &str, f: impl Fn() + Sync) -> Report {
        let t = Trace::parse(trace).expect("malformed trace");
        let (_, failure) = self.run_once(Mode::Replay, t.0, None, &f);
        Report {
            interleavings: 1,
            exhausted: false,
            failure,
        }
    }
}
