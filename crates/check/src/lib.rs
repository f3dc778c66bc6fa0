//! # fairdms-check
//!
//! The concurrency-correctness plane (DESIGN.md §11). Every hand-rolled
//! concurrent structure in this workspace — the `JobPool` supersession
//! machinery, the wire plane's reply lane and client read hand-over —
//! routes its synchronization through the project-owned shim crates. This
//! crate exploits that seam three ways:
//!
//! * [`sched`] — a loom-lite **controlled scheduler**: tests register N
//!   model threads, every shim `Mutex`/`RwLock`/`Condvar`/channel
//!   operation (plus the [`atomic`] wrappers) becomes a yield point, and
//!   [`Model`] explores interleavings — exhaustive DFS with a
//!   bounded-preemption budget (à la CHESS) for small models, seeded
//!   random schedules for larger ones, with deterministic schedule replay
//!   from a printed trace.
//! * Dynamic analyses riding the same instrumentation: **deadlock
//!   detection** (no thread runnable while some are blocked, reported
//!   with every blocked site) and a **lock-order graph** with cycle
//!   detection that turns a potential deadlock into a test failure
//!   carrying both acquisition sites. Safe Rust cannot express a data
//!   race and every crate forbids `unsafe`, so there is no race
//!   detector.
//! * [`lint`] — `repolint`, an xtask-style source gate
//!   (`cargo run -p fairdms-check --bin repolint`) enforcing repo
//!   invariants clippy cannot express: no `std::sync` primitives or
//!   sleep-polling outside the shims, `// SAFETY:` on every `unsafe`,
//!   no `static mut`, and an allowlist for `Ordering::Relaxed`.
//!
//! The scheduler, its analyses, and the lint engine are always compiled
//! (so the crate's own tests run in the tier-1 suite); the `check`
//! *feature* only switches the wrappers and shim hooks from passthroughs
//! to instrumented operations. A default build is therefore bit-identical
//! to a world without this crate.
//!
//! ## Writing a model-check test
//!
//! ```
//! use fairdms_check::Model;
//!
//! let report = Model::default().check_exhaustive(|| {
//!     // Build the structure under test, spawn model threads with
//!     // fairdms_check::thread::spawn, assert invariants, join.
//! });
//! report.assert_pass("empty model");
//! ```
//!
//! On failure, [`Report::assert_pass`] panics with the failure kind, the
//! schedule trace, and a ready-to-paste [`Model::replay`] call that
//! reproduces it deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod lint;
pub mod rt;
pub mod sched;
pub mod thread;

pub use sched::{Failure, FailureKind, Model, Report, Trace};
