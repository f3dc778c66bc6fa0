//! # fairdms-nn
//!
//! A compact, layer-based neural-network framework: the substrate behind
//! every learned component in the fairDMS reproduction (BraggNN,
//! CookieNetAE, and the autoencoder / contrastive / BYOL embedding models).
//!
//! The design mirrors classic layer-graph frameworks rather than a taped
//! autograd: each [`Layer`] caches what its backward pass needs during
//! `forward` (which trains; `infer` serves), and `backward` consumes the
//! cache, accumulates parameter gradients and returns the gradient with
//! respect to its input. This keeps the framework small,
//! allocation-predictable, and — crucially for a reproduction — easy to
//! verify with numerical gradient checks (see `tests/gradcheck.rs`).
//!
//! Feature summary:
//!
//! * layers: [`layers::Dense`], [`layers::Conv2d`], [`layers::MaxPool2d`],
//!   [`layers::Dropout`], activations, [`layers::Flatten`],
//!   [`layers::Upsample2x`], and the [`Sequential`] container (layers
//!   derive `Clone`; [`layers::LayerClone`] clones a `Box<dyn Layer>`);
//! * losses: [`loss::Mse`] and the contrastive [`loss::nt_xent`];
//! * optimizers: [`optim::Sgd`], [`optim::Adam`];
//! * a [`trainer::Trainer`] with validation tracking, early stopping and
//!   convergence-epoch detection (the unit the paper's Figs 13–14 report);
//! * [`checkpoint`]: self-describing binary parameter serialization.
//!
//! ## Example: regression on a toy function
//!
//! ```
//! use fairdms_nn::prelude::*;
//! use fairdms_tensor::{rng::TensorRng, Tensor};
//!
//! let mut rng = TensorRng::seeded(0);
//! let x = rng.uniform(&[64, 2], -1.0, 1.0);
//! // y = x0 + 2*x1
//! let y = Tensor::from_vec(
//!     x.data().chunks(2).map(|c| c[0] + 2.0 * c[1]).collect(),
//!     &[64, 1],
//! );
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, &mut rng)),
//!     Box::new(Activation::relu()),
//!     Box::new(Dense::new(8, 1, &mut rng)),
//! ]);
//! let mut opt = Sgd::new(0.05);
//! let cfg = TrainConfig { epochs: 50, batch_size: 16, ..TrainConfig::default() };
//! let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
//! assert!(report.final_val_loss() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;
pub mod trainer;

pub use layers::{Layer, Sequential};
pub use param::Param;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::layers::{
        Activation, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Sequential, Upsample2x,
    };
    pub use crate::loss::{Loss, Mse};
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::param::Param;
    pub use crate::trainer::{TrainConfig, TrainControl, TrainReport, Trainer};
}
