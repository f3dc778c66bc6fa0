//! # fairdms-datastore
//!
//! The storage substrate of fairDS. The paper adopts MongoDB as the data
//! store (§II-A) and evaluates training I/O against three configurations
//! (Figs 6–8): MongoDB with **Pickle** serialization, MongoDB with **Blosc**
//! compression, and direct **NFS** file reads. This crate reproduces that
//! stack in-process:
//!
//! * [`value`] — a BSON-like document model ([`Document`], [`Value`]);
//! * [`codec`] — the three serializers. [`codec::RawCodec`] is the tight
//!   memcpy-style layout (the H5-on-NFS stand-in), [`codec::PickleCodec`]
//!   emulates pickle's per-object tagging and f64 promotion (slow decode,
//!   fat payload), and [`codec::BloscCodec`] does real byte-shuffle +
//!   run-length compression (CPU-heavy encode, small payload);
//! * [`store`] — a sharded, concurrently readable/writable collection with
//!   secondary indexes, covering the paper's Data Store requirements
//!   (scale, indexed lookup, updates, parallel reads and writes);
//! * [`netsim`] — latency+bandwidth link models and the [`netsim::SampleStore`]
//!   backends that pair real (de)serialization cost with modeled wire time,
//!   which is how the repo reproduces the authors' 100 GbE testbed
//!   (substitution documented in DESIGN.md);
//! * [`wire`] — the bounds-checked little-endian primitives all of the
//!   above (and the service's real socket protocol, DESIGN.md §13) are
//!   built from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod netsim;
pub mod snapshot;
pub mod store;
pub mod value;
pub mod wire;

pub use codec::{BloscCodec, Codec, CodecError, PickleCodec, RawCodec};
pub use snapshot::SnapshotError;
pub use store::{Collection, DocId};
pub use value::{Document, Value};
