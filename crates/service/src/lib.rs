//! # fairdms-service
//!
//! The deployment layer of the fairDMS reproduction: the paper presents
//! fairDMS as a *service platform* (Figs 3–5) with user-plane operations
//! invoked by experiment clients and system-plane maintenance running in
//! the background. This crate packages the [`fairdms_core`] workflow
//! behind a concurrent request/reply server with a **split user plane**:
//!
//! * [`api`] — the typed request/response vocabulary, error model, the
//!   read/write classification ([`api::Request::is_read_only`]) and the
//!   one typed client surface ([`api::DmsApi`]);
//! * [`server`] — one tenant's deployment: a thin mutation actor
//!   (bounded-queue admission, O(ms) operations only), a **background
//!   training executor** running cancellable, supersedable training jobs
//!   (`UpdateModel` fine-tunes, certainty-triggered retrains) whose
//!   results are version-fenced before publication, while `DatasetPdf` /
//!   `LookupMatching` / `Recommend` / `FetchModel` / `Certainty` are
//!   answered on the caller's thread from an immutable snapshot (an
//!   `Arc` the actor publishes through a shim `RwLock`) — so neither
//!   reads *nor ingest* ever stall behind a training run;
//! * [`metrics`] — lock-free per-operation queue-wait/run-time statistics
//!   and training-job counters, served to clients without ever entering
//!   an admission queue;
//! * [`net`] — the wire plane (DESIGN.md §13): a pipelined TCP/UDS
//!   listener over the same deployment and the matching socket client
//!   ([`net::PipelinedClient`]);
//! * [`multi`] — the tenant plane (DESIGN.md §14): [`multi::MultiDms`]
//!   hosts N isolated deployments behind one process, sharing one
//!   fair-scheduled training pool and one wire listener, with per-tenant
//!   admission quotas. It is the service's only constructor: a single
//!   experiment is a one-tenant `MultiDms`.
//!
//! ```no_run
//! use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
//! use fairdms_core::fairds::{FairDS, FairDsConfig};
//! use fairdms_core::fairms::ModelManager;
//! use fairdms_core::models::ArchSpec;
//! use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
//! use fairdms_service::{DmsApi, MultiDms, TenantSpec}; // DmsApi: the typed helpers
//!
//! let side = 8;
//! let embedder = AutoencoderEmbedder::new(side * side, 32, 8, 0);
//! let fairds = FairDS::in_memory(Box::new(embedder), FairDsConfig::default());
//! let trainer = RapidTrainer::new(
//!     fairds,
//!     ModelManager::default(),
//!     RapidTrainerConfig::new(ArchSpec::BraggNN { patch: side }, side),
//! );
//! let dms = MultiDms::builder(1)
//!     .tenant(TenantSpec::new(0), trainer, Box::new(|_| vec![0.5, 0.5]))
//!     .spawn();
//! let client = dms.client(0).expect("tenant 0 is registered");
//! // Mutations serialize through the actor...
//! // client.train_system(...)?; client.update_model(...)?;
//! // ...while reads are answered on the calling thread, concurrently,
//! // from published snapshots:
//! // client.dataset_pdf(...)?; client.recommend(...)?; client.metrics()?;
//! // Remote clients reach the same tenant through one listener:
//! // dms.serve_tcp(("127.0.0.1", 0), Default::default())?;
//! dms.shutdown();
//! ```
//!
//! `DESIGN.md` §6 documents the snapshot-publication architecture and its
//! consistency guarantees; §7 documents the write-plane split (actor vs.
//! training executor, epoch-boundary cancellation, version fencing).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod metrics;
pub mod multi;
pub mod net;
pub mod server;
mod training;

pub use api::{
    DmsApi, RankedModels, Reply, Request, ServiceError, ServiceResult, TenantId, MAX_EMBED_EPOCHS,
    MAX_LOOKUP_COUNT,
};
pub use metrics::{Metrics, MetricsSnapshot, NetStats, OpSnapshot};
pub use multi::{MultiDms, MultiDmsBuilder, TenantSpec};
pub use net::{NetServerConfig, NetServerHandle, PipelinedClient};
pub use server::{DmsClient, DmsServerConfig, FallbackLabeler, ServiceView};
