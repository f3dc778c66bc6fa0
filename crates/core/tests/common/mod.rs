//! The test double the core integration tests share.

use fairdms_core::embedding::{EmbedTrainConfig, Embedder};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::Tensor;

/// Identity embedder `width` wide: rows pass through untouched, so a test
/// places the embedding geometry (clusters, duplicates, exact ties) itself.
#[derive(Clone)]
pub struct PassthroughEmbedder {
    /// Input and embedding width.
    pub width: usize,
}

impl Embedder for PassthroughEmbedder {
    fn embed_dim(&self) -> usize {
        self.width
    }
    fn input_dim(&self) -> usize {
        self.width
    }
    fn fit_controlled(&mut self, _: &Tensor, _: &EmbedTrainConfig, _: &TrainControl) -> bool {
        true
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        images.clone()
    }
}
