//! End-to-end benchmark of the fairDMS service through its TCP front door,
//! with per-layer probes. See the README beside this package.

pub mod json;
pub mod metrics;
pub mod pacer;
pub mod report;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
