//! The wire plane: fairDMS over real sockets (DESIGN.md §13).
//!
//! Everything below the in-process [`crate::server::DmsClient`] already
//! models the paper's concurrent service (snapshot reads, admission
//! queue, mutation actor). This module puts an actual network boundary in front
//! of it:
//!
//! * [`frame`] — length-prefixed framing with a hard `max_frame_len`
//!   guard, safe against hostile length prefixes;
//! * [`codec`] — bounds-checked binary codecs for `Request` / `Reply` /
//!   `ServiceError`, built on [`fairdms_datastore::wire`];
//! * [`server`] — [`server::NetServer`]: threaded TCP/UDS listener with a
//!   bounded connection limit (over-limit sockets are *answered* `Busy`),
//!   per-connection pipelining into the deployment's actor queue, and
//!   graceful drain;
//! * [`sequencer`] — which thread writes a reply: the connection's reader
//!   itself at window 1, its in-order reply sequencer otherwise;
//! * [`client`] — [`client::PipelinedClient`]: multi-handle, pipelined,
//!   and — through [`crate::api::DmsApi`] — the same blocking typed
//!   helpers as `DmsClient`.
//!
//! The perf story is **pipelining plus reads on the reader thread**: a
//! connection's reader dispatches every decoded mutating request
//! immediately, so the actor overlaps requests from one socket exactly as
//! it overlaps requests from many in-process threads, and the reply
//! sequencer batches responses into single writes. Read-only requests
//! never leave the reader thread — it executes them against the immutable
//! service snapshot (`DmsClient::serve_read`, the same entry in-process
//! callers use) and, on a connection at window 1, writes the reply too:
//! such a read wakes the server's reader and the calling client thread
//! and nothing else. One connection's reads therefore run one after
//! another; reads from different connections run in parallel, one reader
//! thread each. `benches/net_plane.rs` measures what pipelining buys over
//! strict request-response usage of the same stack, gated at ≥1.5× on 256
//! connections; the one-connection ratio is recorded, not gated
//! (`results/BENCH_net_plane.json`).

pub mod client;
pub mod codec;
pub mod frame;
pub mod sequencer;
pub mod server;

pub use client::{Pending, PipelinedClient};
pub use codec::WireError;
pub use frame::{Frame, FrameError, FrameKind};
pub use server::{NetServer, NetServerConfig, NetServerHandle, TenantRouter};
