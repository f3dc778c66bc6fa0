//! # fairdms-bench
//!
//! The experiment harness. Every evaluation figure in the paper (Figs 2,
//! 6–16) has a regenerator in [`figures`]; run them with
//!
//! ```text
//! cargo run --release -p fairdms-bench --bin figures -- <fig2|fig6|…|all>
//! ```
//!
//! Each regenerator prints the figure's rows/series as an aligned table
//! and writes a CSV under `results/`. Scale defaults are laptop-sized;
//! `--full` raises them toward paper scale (see DESIGN.md §4 for the
//! documented scale substitutions).
//!
//! Beside them: [`load`], the one load generator (a multi-tenant
//! deployment behind TCP and a connection driver) that the wire benches,
//! the scalability figure and the load examples run on; [`report`], the
//! `results/BENCH_*.json` records; [`calibrate`], the measured fetch and
//! training costs behind Figs 6–8; the simulators those figures and
//! Fig 15 run on (DESIGN.md §1–§3): [`netsim`] (link models and timed
//! storage backends), [`codec`] (the pickle and blosc payload formats) and
//! [`pipesim`] (the prefetching loader pipeline); [`uncertainty`], the
//! Monte-Carlo dropout driver and degradation monitor behind Fig 2;
//! [`table`], the figures' tables and CSVs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod codec;
pub mod figures;
pub mod load;
pub mod netsim;
pub mod pipesim;
pub mod report;
pub mod table;
pub mod uncertainty;

/// Run-scale selector for figure regenerators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run (used by integration tests).
    Smoke,
    /// Default laptop-scale run (minutes for the full suite).
    Default,
    /// Closer to paper scale (tens of minutes).
    Full,
}

impl Scale {
    /// Picks one of three values by scale.
    pub fn pick<T: Copy>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// The directory figure CSVs are written into (created on demand).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("cannot create results/ directory");
    dir
}
