//! The wire plane: fairDMS over real sockets (DESIGN.md §13).
//!
//! Everything below the in-process [`crate::server::DmsClient`] already
//! models the paper's concurrent service (admission queues, read pool,
//! mutation actor). This module puts an actual network boundary in front
//! of it:
//!
//! * [`frame`] — length-prefixed framing with a hard `max_frame_len`
//!   guard, safe against hostile length prefixes;
//! * [`codec`] — bounds-checked binary codecs for `Request` / `Reply` /
//!   `ServiceError`, built on [`fairdms_datastore::wire`];
//! * [`server`] — [`server::NetServer`]: threaded TCP/UDS listener with a
//!   bounded connection limit (over-limit sockets are *answered* `Busy`),
//!   per-connection pipelining into the deployment's existing queues, an
//!   in-order reply sequencer, and graceful drain;
//! * [`client`] — [`client::PipelinedClient`] (multi-handle, pipelined)
//!   and [`client::DmsTcpClient`] (blocking mirror of `DmsClient`).
//!
//! The perf story is **pipelining plus the inline-read fast path**: a
//! connection's reader dispatches every decoded request immediately, so
//! the server overlaps requests from one socket exactly as it overlaps
//! requests from many in-process threads, and the reply sequencer
//! batches responses into single writes. Read-only requests short-cut
//! further — the reader thread executes them inline against the
//! immutable service snapshot (`DmsClient::serve_read_inline`) and hands
//! the sequencer a pre-resolved reply, skipping the read-pool round trip
//! and its two thread parks entirely (`NetServerConfig::inline_reads`,
//! on by default). `benches/net_plane.rs` measures the resulting
//! throughput multiple over strict request-response usage of the same
//! stack: 6.65× at 256 connections in `results/BENCH_net_plane.json`,
//! gated at ≥3×.

pub mod client;
pub mod codec;
pub mod frame;
pub mod server;

pub use client::{DmsTcpClient, Pending, PipelinedClient};
pub use codec::WireError;
pub use frame::{Frame, FrameError, FrameKind};
pub use server::{NetServer, NetServerConfig, NetServerHandle, TenantRouter};
