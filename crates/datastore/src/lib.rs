//! # fairdms-datastore
//!
//! The storage substrate of fairDS. The paper adopts MongoDB as the data
//! store (§II-A); this crate is the in-process document store the service
//! keeps its corpus in:
//!
//! * [`value`] — a BSON-like document model ([`Document`], [`Value`]);
//! * [`codec`] — the [`Codec`] contract and [`RawCodec`], the tight layout
//!   every collection the service opens stores through;
//! * [`store`] — a sharded, concurrently readable/writable collection with
//!   a change log, covering the paper's Data Store requirements of scale,
//!   updates and parallel reads and writes (indexed lookup by cluster is
//!   fairDS's read index, which that log keeps current);
//! * [`snapshot`] — a collection to bytes and back;
//! * [`wire`] — the bounds-checked little-endian primitives the codecs,
//!   snapshots and the service's socket protocol (DESIGN.md §13) are
//!   built from.
//!
//! The storage configurations the paper's Figs 6–8 compare — MongoDB with
//! Pickle or Blosc and NFS, each behind a modeled 100 GbE link — are
//! simulators, and live in `fairdms_bench::{netsim, codec, pipesim}` beside those figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod value;
pub mod wire;

pub use codec::{Codec, CodecError, RawCodec};
pub use snapshot::SnapshotError;
pub use store::{Collection, DocId};
pub use value::{Document, Value};
