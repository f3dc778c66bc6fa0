//! # fairdms-suite
//!
//! Umbrella crate for the fairDMS reproduction (Ali et al., "fairDMS:
//! Rapid Model Training by Data and Model Reuse", IEEE CLUSTER 2022).
//!
//! This crate re-exports the workspace members under stable names and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`). Start with `examples/quickstart.rs`:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The per-crate documentation is the reference:
//!
//! * [`core`] — fairDS + fairMS + the rapid-training workflow,
//! * [`nn`] — the neural-network substrate,
//! * [`tensor`] — tensors and parallel kernels,
//! * [`clustering`] — k-means / elbow / fuzzy memberships,
//! * [`datastore`] — document store, codecs, link models,
//! * [`dataloader`] — loader + training-pipeline simulator,
//! * [`datasets`] — synthetic instruments and the pseudo-Voigt labeler,
//! * [`flows`] — orchestration (flows / executor / transfers),
//! * [`service`] — the concurrent service deployment (MultiDms/DmsClient).
#![forbid(unsafe_code)]

pub use fairdms_clustering as clustering;
pub use fairdms_core as core;
pub use fairdms_dataloader as dataloader;
pub use fairdms_datasets as datasets;
pub use fairdms_datastore as datastore;
pub use fairdms_flows as flows;
pub use fairdms_nn as nn;
pub use fairdms_service as service;
pub use fairdms_tensor as tensor;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        // Touch one item per re-exported crate so the wiring is checked.
        let _ = crate::tensor::Tensor::zeros(&[1]);
        let _ = crate::clustering::KMeansConfig::new(2);
        let _ = crate::datastore::Document::new();
        let _ = crate::core::jsd::jsd(&[0.5, 0.5], &[0.5, 0.5]);
        let _ = crate::flows::TransferService::new();
        let _ = crate::dataloader::DataLoaderConfig::default();
        let _ = crate::datasets::voigt::FitConfig::QUICK;
        let _ = crate::nn::prelude::TrainConfig::default();
        let _ = crate::service::DmsServerConfig::default();
    }
}
