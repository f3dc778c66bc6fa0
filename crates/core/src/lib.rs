//! # fairdms-core
//!
//! The paper's primary contribution: **fairDMS**, a FAIR data-and-model
//! service for rapid ML model training at high-data-rate instruments.
//!
//! The crate wires the workspace substrates into the architecture of the
//! paper's Figs 3–5:
//!
//! * [`embedding`] — self-supervised embedding models (autoencoder,
//!   SimCLR-style contrastive, BYOL) behind a pluggable [`embedding::Embedder`]
//!   interface, plus the physics-inspired augmentations of §IV;
//! * [`fairds`] — the data service: embed → cluster → index → PDF-matched
//!   retrieval and nearest-embedding pseudo-labeling, with the fuzzy-
//!   certainty staleness monitor that triggers system-plane retraining;
//! * [`read_index`] — the one store-derived index behind fairDS's two store
//!   queries (nearest stored row, PDF-matched draws), kept current from
//!   the store's change log;
//! * [`fairms`] — the model service: a Zoo of checkpoints indexed by their
//!   training-set cluster PDFs, ranked by Jensen–Shannon divergence;
//! * [`workflow`] — the rapid model-update workflow combining both
//!   services, with the legacy (Voigt + train-from-scratch) baselines and
//!   the timing attribution used in the paper's case study (Fig 15);
//! * [`reuse`] — the data-reuse plane: the content-addressed,
//!   generation-fenced embedding memo table every snapshot read probes
//!   before paying for a forward pass (the paper's hash-and-reuse
//!   mechanism, §II-A);
//! * [`models`] — BraggNN and CookieNetAE, the paper's two benchmark
//!   applications (§III-A);
//! * [`jsd`](mod@jsd) — the divergence measure; [`uncertainty`] — MC-dropout
//!   degradation monitoring (Fig 2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod embedding;
pub mod fairds;
pub mod fairms;
pub mod jsd;
pub mod models;
pub mod read_index;
pub mod reuse;
pub mod uncertainty;
pub mod workflow;

pub use embedding::{AutoencoderEmbedder, ByolEmbedder, ContrastiveEmbedder, Embedder};
pub use fairds::{
    FairDS, FairDsConfig, PseudoLabelStats, ReadIndexConfig, ReadIndexCounters, RetrainJob,
    SystemSnapshot,
};
pub use fairms::{ModelManager, ModelZoo, Recommendation, ZooEntry, ZooSnapshot};
pub use jsd::jsd;
pub use models::ArchSpec;
pub use reuse::{EmbedCache, EmbedCacheConfig, EmbedCacheStats};
pub use workflow::{RapidTrainer, TrainStrategy, UpdateJob, UpdateReport};
