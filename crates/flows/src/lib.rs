//! # fairdms-flows
//!
//! The background job pool the service's training executor runs on
//! ([`jobs::JobPool`], DESIGN.md §7): cancellable jobs in bounded
//! per-tenant queues, served round-robin (§14).
//!
//! The paper orchestrates its case study with Globus Flows, funcX and
//! Globus transfer (§III-C). This repository models what they cost instead
//! of running copies of them: the one cost a figure charges, Fig 15's
//! facility→cluster transfer, is a link model in `fairdms_bench::netsim`
//! (DESIGN.md §3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod jobs;
