//! Request/response vocabulary of the fairDMS service.
//!
//! The paper (Fig 5) divides fairDMS into *user plane* operations invoked
//! by clients (query labeled data, request a model recommendation, update
//! a model) and *system plane* operations executed in the background
//! (training the embedding/clustering models, refreshing the store,
//! re-indexing the Zoo). [`Request`] enumerates the user-plane surface; the
//! system plane runs inside the server, triggered by the certainty monitor.
//!
//! Requests are further classified by [`Request::is_read_only`]: read-only
//! operations are answered on the calling thread from the published
//! snapshot and never queue behind training, while mutating operations
//! serialize through the actor (see [`crate::server`] and DESIGN.md §6).
//!
//! [`DmsApi`] is the one client surface: a transport implements
//! [`DmsApi::call`] and inherits the typed helpers.

use crate::metrics::MetricsSnapshot;
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::PseudoLabelStats;
use fairdms_core::workflow::UpdateReport;
use fairdms_datastore::Document;
use fairdms_tensor::Tensor;

/// Identifier of one tenant — one isolated experiment deployment — inside
/// a [`crate::multi::MultiDms`] (DESIGN.md §14). Carried on every wire
/// frame; a socket client names it when it connects
/// ([`crate::net::PipelinedClient::connect_tcp_tenant`]).
pub type TenantId = fairdms_flows::jobs::TenantId;

/// Errors surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The server was asked to operate before its system plane was trained.
    NotReady,
    /// A request referenced a zoo entry that does not exist.
    UnknownModel(usize),
    /// The request payload failed validation (shape mismatch, empty input…).
    Invalid(String),
    /// The server is shutting down and no longer accepts work.
    Unavailable,
    /// A background training job did not publish: either a newer trigger
    /// for the same plane cancelled it at an epoch boundary, or it
    /// completed against a system plane that had been replaced mid-flight
    /// and was rejected by the version fence. The request can be retried
    /// against the current state; nothing was registered.
    Superseded,
    /// The wire plane's connection limit was reached: the server accepted
    /// the socket, answered this error, and closed it without dropping a
    /// byte on the floor (DESIGN.md §13). Retry after backing off, or
    /// against another endpoint.
    Busy,
    /// The wire protocol broke down between a network client and the
    /// server: a frame failed to decode, the transport died mid-message,
    /// or the peer spoke something that is not the fairDMS framing. The
    /// connection this happened on is no longer usable. Never produced by
    /// the in-process client.
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NotReady => write!(f, "system plane not trained"),
            ServiceError::UnknownModel(id) => write!(f, "unknown zoo model {id}"),
            ServiceError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Unavailable => write!(f, "service unavailable"),
            ServiceError::Superseded => {
                write!(f, "training job superseded by a newer trigger")
            }
            ServiceError::Busy => write!(f, "connection limit reached"),
            ServiceError::Protocol(msg) => write!(f, "wire protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Most documents one [`Request::LookupMatching`] may ask for; a larger
/// `count` answers [`ServiceError::Invalid`]. 65,536 documents of the
/// 1–2 KB a deployment stores already fill the wire plane's 64 MiB frame.
pub const MAX_LOOKUP_COUNT: usize = 1 << 16;

/// Most epochs one [`Request::TrainSystem`] may ask for; more answers
/// [`ServiceError::Invalid`]. The fit runs inline on the tenant's actor,
/// which serves no ingest, update or shutdown until it returns, so the
/// bound is on how long one request may hold a tenant: 1,000 is a hundred
/// times the default and eighty times what the figure regenerators run at
/// paper scale (12), and on a 16,384-frame store (the e2e deployment:
/// 1.5 s an epoch at batch 32 on two vCPUs) it is 25 minutes, where
/// `usize::MAX` is forever.
pub const MAX_EMBED_EPOCHS: usize = 1000;

/// User-plane requests. An operation's wire tag, metrics name, plane and
/// field order are its row of the operation table in [`crate::net::codec`];
/// [`Request::is_read_only`] and [`Request::op_name`] are generated from it.
#[derive(Debug)]
pub enum Request {
    /// System-plane bootstrap: fit embedding + clustering on a historical
    /// corpus. Returns [`Reply::SystemTrained`].
    TrainSystem {
        /// Flattened historical images `[N, side²]`.
        images: Tensor,
        /// Embedding training hyper-parameters: `lr` and `temperature`
        /// finite and positive, `tau` in `[0, 1]`, `batch_size` at least 1,
        /// at most [`MAX_EMBED_EPOCHS`] epochs.
        embed_cfg: EmbedTrainConfig,
    },
    /// Store labeled samples (embedded + cluster-indexed on ingest).
    IngestLabeled {
        /// Flattened images `[N, side²]`.
        images: Tensor,
        /// Matching labels `[N, L]`.
        labels: Tensor,
        /// Provenance scan index.
        scan: usize,
    },
    /// The cluster-occupancy PDF of a dataset.
    DatasetPdf {
        /// Flattened images.
        images: Tensor,
    },
    /// Pseudo-label a dataset with the server's fallback labeler.
    PseudoLabel {
        /// Flattened images.
        images: Tensor,
        /// Embedding-distance reuse threshold.
        threshold: f32,
    },
    /// PDF-matched retrieval of labeled historical documents.
    LookupMatching {
        /// Target cluster PDF (length must equal the fitted K).
        pdf: Vec<f64>,
        /// Number of documents to draw (at most [`MAX_LOOKUP_COUNT`]).
        count: usize,
    },
    /// Rank the model Zoo against a dataset PDF.
    Recommend {
        /// Input dataset PDF.
        pdf: Vec<f64>,
        /// `Some(k)` returns only the `k` lowest-divergence entries via
        /// the snapshot's partial-ranking path (pruned by the √JSD
        /// triangle inequality); `None` ranks the whole zoo. A `k` beyond
        /// the zoo's length returns the whole ranking.
        top_k: Option<usize>,
    },
    /// Full rapid-model-update (pseudo-label → recommend → train →
    /// register). Returns the new checkpoint and the timing report.
    UpdateModel {
        /// Flattened images of the new (unlabeled) dataset.
        images: Tensor,
        /// Provenance scan index.
        scan: usize,
    },
    /// Publish an externally trained model into the Zoo.
    PublishModel {
        /// Human-readable name.
        name: String,
        /// Serialized checkpoint ([`fairdms_nn::checkpoint`] format).
        checkpoint: Vec<u8>,
        /// Training-dataset PDF (the index key).
        pdf: Vec<f64>,
        /// Provenance scan index.
        scan: usize,
    },
    /// Fetch a checkpoint from the Zoo.
    FetchModel {
        /// Zoo id.
        zoo_id: usize,
    },
    /// Fuzzy-clustering certainty of a dataset under the current system
    /// models (the staleness signal).
    Certainty {
        /// Flattened images.
        images: Tensor,
    },
    /// Snapshot of the server's request metrics.
    Metrics,
}

/// A ranked zoo recommendation as returned over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedModels {
    /// `(zoo id, JSD)` ascending by divergence; empty when the zoo has no
    /// compatible entries.
    pub ranked: Vec<(usize, f64)>,
    /// Whether the best entry clears the manager's distance threshold.
    pub fine_tunable: bool,
}

/// Successful replies, one variant per request kind.
#[derive(Debug)]
pub enum Reply {
    /// System plane trained; carries the selected cluster count K.
    SystemTrained {
        /// Number of clusters fitted.
        k: usize,
    },
    /// Samples stored; carries the number ingested and whether the ingest
    /// triggered a system-plane retrain.
    Ingested {
        /// Documents written.
        count: usize,
        /// True when the certainty monitor fired and a system-plane
        /// retrain was *triggered*. The retrain completes asynchronously
        /// on the training executor — poll `system_retrains` / the
        /// snapshot version for installation.
        retrained: bool,
    },
    /// Dataset PDF.
    Pdf(Vec<f64>),
    /// Pseudo-labels with reuse statistics.
    Labeled {
        /// `[N, L]` label matrix.
        labels: Tensor,
        /// Reuse/fallback counts.
        stats: PseudoLabelStats,
    },
    /// Retrieved documents.
    Documents(Vec<Document>),
    /// Zoo ranking.
    Ranked(RankedModels),
    /// Model update finished.
    Updated {
        /// Serialized checkpoint of the updated model.
        checkpoint: Vec<u8>,
        /// Timing/foundation report (the Fig 15 quantities).
        report: UpdateReport,
    },
    /// Model published under this zoo id.
    Published {
        /// Assigned zoo id.
        zoo_id: usize,
    },
    /// Checkpoint bytes for a fetch.
    Model {
        /// Serialized checkpoint.
        checkpoint: Vec<u8>,
        /// Training-set PDF stored with the entry.
        pdf: Vec<f64>,
    },
    /// Certainty in `[0, 1]`.
    Certainty(f64),
    /// Metrics snapshot.
    Metrics(MetricsSnapshot),
}

/// What a client ultimately receives.
pub type ServiceResult = Result<Reply, ServiceError>;

/// A reply variant that does not answer the request that was sent. Over a
/// socket that is a peer fault, so every transport reports it as an error
/// instead of unwinding the caller.
fn mismatch(got: &Reply) -> ServiceError {
    ServiceError::Protocol(format!("mismatched reply variant for request: {got:?}"))
}

/// The typed client surface of a fairDMS deployment, the same over every
/// transport: implement [`DmsApi::call`] and the helpers follow. Code
/// written against `&impl DmsApi` runs unchanged in-process
/// ([`crate::server::DmsClient`]) and over a socket
/// ([`crate::net::PipelinedClient`]).
pub trait DmsApi {
    /// Sends one request and blocks for its reply.
    fn call(&self, req: Request) -> ServiceResult;

    /// Bootstrap the system plane. Returns the fitted K.
    fn train_system(
        &self,
        images: Tensor,
        embed_cfg: EmbedTrainConfig,
    ) -> Result<usize, ServiceError> {
        match self.call(Request::TrainSystem { images, embed_cfg })? {
            Reply::SystemTrained { k } => Ok(k),
            other => Err(mismatch(&other)),
        }
    }

    /// Ingest labeled data; returns `(count, retrained)`.
    fn ingest(
        &self,
        images: Tensor,
        labels: Tensor,
        scan: usize,
    ) -> Result<(usize, bool), ServiceError> {
        match self.call(Request::IngestLabeled {
            images,
            labels,
            scan,
        })? {
            Reply::Ingested { count, retrained } => Ok((count, retrained)),
            other => Err(mismatch(&other)),
        }
    }

    /// Dataset cluster PDF.
    fn dataset_pdf(&self, images: Tensor) -> Result<Vec<f64>, ServiceError> {
        match self.call(Request::DatasetPdf { images })? {
            Reply::Pdf(p) => Ok(p),
            other => Err(mismatch(&other)),
        }
    }

    /// Pseudo-label with the server's fallback. Pass `f32::NAN` to use the
    /// server's default threshold.
    fn pseudo_label(
        &self,
        images: Tensor,
        threshold: f32,
    ) -> Result<(Tensor, PseudoLabelStats), ServiceError> {
        match self.call(Request::PseudoLabel { images, threshold })? {
            Reply::Labeled { labels, stats } => Ok((labels, stats)),
            other => Err(mismatch(&other)),
        }
    }

    /// PDF-matched document retrieval.
    fn lookup(&self, pdf: Vec<f64>, count: usize) -> Result<Vec<Document>, ServiceError> {
        match self.call(Request::LookupMatching { pdf, count })? {
            Reply::Documents(d) => Ok(d),
            other => Err(mismatch(&other)),
        }
    }

    /// Zoo ranking for a dataset PDF (the full, sorted ranking).
    fn recommend(&self, pdf: Vec<f64>) -> Result<RankedModels, ServiceError> {
        match self.call(Request::Recommend { pdf, top_k: None })? {
            Reply::Ranked(r) => Ok(r),
            other => Err(mismatch(&other)),
        }
    }

    /// The `k` lowest-divergence zoo entries for a dataset PDF, ascending
    /// — served by the snapshot's pruned partial-ranking path, which
    /// avoids sorting (and usually scoring) the whole zoo.
    fn recommend_top_k(&self, pdf: Vec<f64>, k: usize) -> Result<RankedModels, ServiceError> {
        match self.call(Request::Recommend {
            pdf,
            top_k: Some(k),
        })? {
            Reply::Ranked(r) => Ok(r),
            other => Err(mismatch(&other)),
        }
    }

    /// Full rapid model update; returns `(checkpoint, report)`.
    fn update_model(
        &self,
        images: Tensor,
        scan: usize,
    ) -> Result<(Vec<u8>, UpdateReport), ServiceError> {
        match self.call(Request::UpdateModel { images, scan })? {
            Reply::Updated { checkpoint, report } => Ok((checkpoint, report)),
            other => Err(mismatch(&other)),
        }
    }

    /// Publish an externally trained checkpoint.
    fn publish(
        &self,
        name: &str,
        checkpoint: Vec<u8>,
        pdf: Vec<f64>,
        scan: usize,
    ) -> Result<usize, ServiceError> {
        match self.call(Request::PublishModel {
            name: name.to_string(),
            checkpoint,
            pdf,
            scan,
        })? {
            Reply::Published { zoo_id } => Ok(zoo_id),
            other => Err(mismatch(&other)),
        }
    }

    /// Fetch a checkpoint and its training PDF from the Zoo.
    fn fetch(&self, zoo_id: usize) -> Result<(Vec<u8>, Vec<f64>), ServiceError> {
        match self.call(Request::FetchModel { zoo_id })? {
            Reply::Model { checkpoint, pdf } => Ok((checkpoint, pdf)),
            other => Err(mismatch(&other)),
        }
    }

    /// Fuzzy-clustering certainty of a dataset.
    fn certainty(&self, images: Tensor) -> Result<f64, ServiceError> {
        match self.call(Request::Certainty { images })? {
            Reply::Certainty(c) => Ok(c),
            other => Err(mismatch(&other)),
        }
    }

    /// Server metrics snapshot.
    fn metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        match self.call(Request::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            other => Err(mismatch(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_are_distinct() {
        let reqs = [
            Request::Metrics,
            Request::Recommend {
                pdf: vec![],
                top_k: None,
            },
            Request::FetchModel { zoo_id: 0 },
            Request::LookupMatching {
                pdf: vec![],
                count: 0,
            },
        ];
        let names: std::collections::HashSet<_> = reqs.iter().map(|r| r.op_name()).collect();
        assert_eq!(names.len(), reqs.len());
    }

    #[test]
    fn errors_render_usefully() {
        assert!(ServiceError::UnknownModel(7).to_string().contains('7'));
        assert!(ServiceError::Invalid("x".into()).to_string().contains('x'));
        assert_eq!(
            ServiceError::NotReady.to_string(),
            "system plane not trained"
        );
    }
}
