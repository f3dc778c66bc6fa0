//! Self-supervised embedding models and physics-inspired augmentations.
//!
//! fairDS indexes data by compact learned representations (§II-A). The
//! paper ships three interchangeable embedding methods — autoencoder,
//! contrastive, and BYOL — selectable per application, and lets users plug
//! in their own "by extending the embedding interface module"; the
//! [`Embedder`] trait is that interface.
//!
//! §IV motivates the augmentation set: two Bragg peaks are physically
//! identical when one is a rotation of the other, so the contrastive and
//! BYOL methods train against rotations, flips, small shifts, and noise —
//! and the autoencoder's pixel-wise reconstruction objective is exactly why
//! the paper found it a poor index for BraggNN models (reproduced in the
//! ablation bench).

use fairdms_nn::layers::{Activation, Dense, Sequential};
use fairdms_nn::loss::{nt_xent, Loss, Mse};
use fairdms_nn::optim::{Adam, Optimizer};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Training hyper-parameters shared by all embedding methods.
#[derive(Clone, Debug)]
pub struct EmbedTrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (images per batch; view pairs double this
    /// internally for the contrastive/BYOL methods).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// NT-Xent temperature (contrastive only).
    pub temperature: f32,
    /// Target-network EMA coefficient (BYOL only).
    pub tau: f32,
    /// Shuffle/augmentation seed.
    pub seed: u64,
}

impl Default for EmbedTrainConfig {
    fn default() -> Self {
        EmbedTrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 1e-3,
            temperature: 0.5,
            tau: 0.95,
            seed: 0,
        }
    }
}

/// A trainable image-embedding model (the paper's "embedding interface").
///
/// Training mutates (`fit_controlled` takes `&mut self`), but *embedding is
/// inference*: [`Embedder::embed`] takes `&self` and must be safe to call
/// concurrently through shared references (`Send + Sync`). That split is
/// what lets a fitted embedder be cloned into an immutable
/// [`SystemSnapshot`](crate::fairds::SystemSnapshot) and served from many
/// reader threads while another clone retrains (DESIGN.md §6): an
/// implementor derives `Clone`, which [`EmbedderClone`] boxes.
pub trait Embedder: EmbedderClone + Send + Sync {
    /// Dimensionality of the produced embeddings.
    fn embed_dim(&self) -> usize;
    /// Flattened input size the model expects.
    fn input_dim(&self) -> usize;
    /// Trains the embedding on unlabeled images (`[N, input_dim]`) under
    /// cooperative cancellation: implementations poll `ctl` at every epoch
    /// boundary and return `false` the moment it is raised
    /// (partially-trained weights are left behind and must not be
    /// published); `true` when the fit ran to the end, after freezing the
    /// nets `embed` serves ([`Sequential::freeze`]: the same bits, packed).
    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool;
    /// Embeds images into `[N, embed_dim]`, L2-normalized per row.
    /// Immutable: implementations must not touch training caches.
    fn embed(&self, images: &Tensor) -> Tensor;
}

/// The clone of an [`Embedder`] behind `Box<dyn Embedder>`, for every `Embedder + Clone`.
pub trait EmbedderClone {
    /// A deep copy of the embedder, boxed.
    fn clone_box(&self) -> Box<dyn Embedder>;
}

impl<T: Embedder + Clone + 'static> EmbedderClone for T {
    fn clone_box(&self) -> Box<dyn Embedder> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Embedder> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// Per-sample standardization: zero mean, unit variance per row. Applied
/// inside every embedder so raw detector intensities don't dominate.
fn standardize_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 2, "standardize_rows expects [n, d]");
    let (n, d) = (x.shape()[0], x.shape()[1]);
    let mut out = Vec::with_capacity(n * d);
    for i in 0..n {
        let row = x.row(i);
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var.sqrt() + 1e-6);
        out.extend(row.iter().map(|&v| (v - mean) * inv));
    }
    Tensor::from_vec(out, &[n, d])
}

// ---------------------------------------------------------------------
// Augmentations
// ---------------------------------------------------------------------

/// Additive Gaussian noise level of a view (in standardized units).
const NOISE_STD: f32 = 0.08;
/// Maximum |shift| of a view in pixels along each axis.
const MAX_SHIFT: isize = 1;

/// Square-image augmentations for self-supervised view generation.
#[derive(Clone, Copy, Debug)]
struct Augmenter {
    /// Image edge length.
    side: usize,
}

impl Augmenter {
    /// 90°-clockwise rotation.
    fn rot90(&self, img: &[f32]) -> Vec<f32> {
        let s = self.side;
        assert_eq!(img.len(), s * s, "image size mismatch");
        let mut out = vec![0.0f32; s * s];
        for y in 0..s {
            for x in 0..s {
                out[x * s + (s - 1 - y)] = img[y * s + x];
            }
        }
        out
    }

    /// Horizontal mirror.
    fn flip_h(&self, img: &[f32]) -> Vec<f32> {
        let s = self.side;
        let mut out = vec![0.0f32; s * s];
        for y in 0..s {
            for x in 0..s {
                out[y * s + (s - 1 - x)] = img[y * s + x];
            }
        }
        out
    }

    /// Integer shift with zero fill.
    fn shift(&self, img: &[f32], dy: isize, dx: isize) -> Vec<f32> {
        let s = self.side as isize;
        let mut out = vec![0.0f32; (s * s) as usize];
        for y in 0..s {
            for x in 0..s {
                let (sy, sx) = (y - dy, x - dx);
                if sy >= 0 && sy < s && sx >= 0 && sx < s {
                    out[(y * s + x) as usize] = img[(sy * s + sx) as usize];
                }
            }
        }
        out
    }

    /// A random composition: rotation power, optional flip, small shift,
    /// pixel noise.
    fn random_view(&self, img: &[f32], rng: &mut TensorRng) -> Vec<f32> {
        let mut view = img.to_vec();
        for _ in 0..rng.next_index(4) {
            view = self.rot90(&view);
        }
        if rng.next_uniform(0.0, 1.0) < 0.5 {
            view = self.flip_h(&view);
        }
        let dy = rng.next_index(2 * MAX_SHIFT as usize + 1) as isize - MAX_SHIFT;
        let dx = rng.next_index(2 * MAX_SHIFT as usize + 1) as isize - MAX_SHIFT;
        if dy != 0 || dx != 0 {
            view = self.shift(&view, dy, dx);
        }
        for v in &mut view {
            *v += rng.next_normal_with(0.0, NOISE_STD);
        }
        view
    }
}

// ---------------------------------------------------------------------
// MLP building blocks, the one fit loop and the one serving pass
// ---------------------------------------------------------------------

/// One tower: an MLP per stage, each `Dense` layers through its widths with
/// ReLU between them (none after a stage's last layer), stacked in order.
fn mlp(stages: &[&[usize]], rng: &mut TensorRng) -> Sequential {
    let mut net = Sequential::empty();
    for dims in stages {
        for w in 0..dims.len() - 1 {
            net.push(Box::new(Dense::new(dims[w], dims[w + 1], rng)));
            if w + 2 < dims.len() {
                net.push(Box::new(Activation::relu()));
            }
        }
    }
    net
}

/// The fit every built-in embedder runs: standardize the images, then
/// for each epoch check `ctl` and hand `step` every seeded batch of row
/// indices with the standardized matrix, the fit's RNG and its one
/// [`Adam`]. `false` when `ctl` was raised at an epoch boundary.
fn fit_epochs(
    images: &Tensor,
    cfg: &EmbedTrainConfig,
    ctl: &TrainControl,
    mut step: impl FnMut(&Tensor, &[usize], &mut TensorRng, &mut Adam),
) -> bool {
    let x = standardize_rows(images);
    let mut rng = TensorRng::seeded(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    for _ in 0..cfg.epochs {
        if ctl.is_cancelled() {
            return false;
        }
        for batch in rng.permutation(x.shape()[0]).chunks(cfg.batch_size.max(2)) {
            step(&x, batch, &mut rng, &mut opt);
        }
    }
    true
}

/// The serving pass every built-in embedder's `embed` is: standardize,
/// `tower.infer`, then L2-normalize each row (zero rows stay zero).
fn serve(tower: &Sequential, images: &Tensor) -> Tensor {
    let mut z = tower.infer(standardize_rows(images));
    let d = z.shape()[1].max(1);
    for row in z.data_mut().chunks_exact_mut(d) {
        let norm: f32 = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            row.iter_mut().for_each(|v| *v /= norm);
        }
    }
    z
}

// ---------------------------------------------------------------------
// Autoencoder
// ---------------------------------------------------------------------

/// Reconstruction-trained embedding (denoising-autoencoder family).
#[derive(Clone)]
pub struct AutoencoderEmbedder {
    encoder: Sequential,
    decoder: Sequential,
    input_dim: usize,
    embed_dim: usize,
}

impl AutoencoderEmbedder {
    /// An MLP autoencoder `input → hidden → embed → hidden → input`.
    pub fn new(input_dim: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seeded(seed);
        AutoencoderEmbedder {
            encoder: mlp(&[&[input_dim, hidden, embed_dim]], &mut rng),
            decoder: mlp(&[&[embed_dim, hidden, input_dim]], &mut rng),
            input_dim,
            embed_dim,
        }
    }
}

impl Embedder for AutoencoderEmbedder {
    fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        let done = fit_epochs(images, cfg, ctl, |x, batch, _, opt| {
            // The batch is the target too: the encoder keeps a copy.
            let bx = x.gather_rows(batch);
            let z = self.encoder.forward(&bx);
            let recon = self.decoder.forward(z);
            let gz = self.decoder.backward(Mse.backward(&recon, &bx));
            self.encoder.backward_params(gz);
            let mut params = self.encoder.params_mut();
            params.extend(self.decoder.params_mut());
            opt.step(params);
        });
        if done {
            self.encoder.freeze();
        }
        done
    }

    fn embed(&self, images: &Tensor) -> Tensor {
        serve(&self.encoder, images)
    }
}

// ---------------------------------------------------------------------
// Contrastive (SimCLR-style)
// ---------------------------------------------------------------------

/// NT-Xent contrastive embedding over augmented view pairs.
#[derive(Clone)]
pub struct ContrastiveEmbedder {
    encoder: Sequential,
    projector: Sequential,
    augmenter: Augmenter,
    input_dim: usize,
    embed_dim: usize,
}

impl ContrastiveEmbedder {
    /// A contrastive embedder for `side`×`side` images.
    pub fn new(side: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let input_dim = side * side;
        let mut rng = TensorRng::seeded(seed);
        ContrastiveEmbedder {
            encoder: mlp(&[&[input_dim, hidden, embed_dim]], &mut rng),
            projector: mlp(&[&[embed_dim, embed_dim, embed_dim / 2]], &mut rng),
            augmenter: Augmenter { side },
            input_dim,
            embed_dim,
        }
    }
}

impl Embedder for ContrastiveEmbedder {
    fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        let done = fit_epochs(images, cfg, ctl, |x, batch, rng, opt| {
            if batch.len() < 2 {
                return; // NT-Xent needs at least 2 pairs
            }
            // `[2B, input]`: every row's first view, then every row's second.
            let (d, mut views) = (self.input_dim, Vec::new());
            for &i in batch.iter().chain(batch) {
                views.extend(self.augmenter.random_view(x.row(i), rng));
            }
            let views = Tensor::from_vec(views, &[2 * batch.len(), d]);
            let h = self.encoder.forward(views);
            let z = self.projector.forward(h);
            let (_, grad) = nt_xent(&z, cfg.temperature);
            let gh = self.projector.backward(grad);
            self.encoder.backward_params(gh);
            let mut params = self.encoder.params_mut();
            params.extend(self.projector.params_mut());
            opt.step(params);
        });
        if done {
            self.encoder.freeze();
        }
        done
    }

    fn embed(&self, images: &Tensor) -> Tensor {
        serve(&self.encoder, images)
    }
}

// ---------------------------------------------------------------------
// BYOL
// ---------------------------------------------------------------------

/// Bootstrap-your-own-latent embedding: online/target networks with
/// stop-gradient and EMA target updates — the method the paper settled on
/// for Bragg peaks after the autoencoder failure (§IV).
///
/// The online tower is the encoder followed by the projector, one
/// [`Sequential`], and [`Embedder::embed`] serves all of it: the
/// *projected* representation. In this indexing application the
/// projector's augmentation invariance is exactly the property fairDS
/// needs (rotated peaks must land on the same index), unlike
/// transfer-learning uses where the encoder output is customary.
#[derive(Clone)]
pub struct ByolEmbedder {
    online: Sequential,
    predictor: Sequential,
    target: Sequential,
    augmenter: Augmenter,
    input_dim: usize,
    embed_dim: usize,
}

impl ByolEmbedder {
    /// A BYOL embedder for `side`×`side` images producing `embed_dim`
    /// projected embeddings (the encoder representation is `2×embed_dim`).
    pub fn new(side: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let input_dim = side * side;
        let repr_dim = embed_dim * 2;
        let mut rng = TensorRng::seeded(seed);
        let encoder = [input_dim, hidden, repr_dim];
        let projector = [repr_dim, repr_dim, embed_dim];
        let online = mlp(&[&encoder, &projector], &mut rng);
        let predictor = mlp(&[&[embed_dim, embed_dim, embed_dim]], &mut rng);
        ByolEmbedder {
            // The target starts as a copy of the online tower.
            target: online.clone(),
            online,
            predictor,
            augmenter: Augmenter { side },
            input_dim,
            embed_dim,
        }
    }

    /// EMA update of the target tower (a copy of the online tower's
    /// layers, so the two parameter lists pair up) toward the online one.
    fn ema_update(&mut self, tau: f32) {
        let online = self.online.params();
        for (tp, op) in self.target.params_mut().into_iter().zip(online) {
            for (tv, &ov) in tp.value.data_mut().iter_mut().zip(op.value.data()) {
                *tv = tau * *tv + (1.0 - tau) * ov;
            }
        }
    }

    /// Gradient of `2 − 2·cos(p, t)` with respect to `p`, rows paired.
    fn cosine_grad(p: &Tensor, t: &Tensor) -> Tensor {
        let (n, d) = (p.shape()[0], p.shape()[1]);
        let mut grad = Tensor::zeros(p.shape());
        for i in 0..n {
            let (pr, tr) = (p.row(i), t.row(i));
            let np = pr.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            let nt = tr.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            let dot: f32 = pr.iter().zip(tr).map(|(&a, &b)| a * b).sum();
            let cos = dot / (np * nt);
            let g = &mut grad.data_mut()[i * d..(i + 1) * d];
            for k in 0..d {
                // ∂(−2cos)/∂p_k, averaged over the batch.
                g[k] = -2.0 * (tr[k] / (np * nt) - cos * pr[k] / (np * np)) / n as f32;
            }
        }
        grad
    }
}

impl Embedder for ByolEmbedder {
    fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        let done = fit_epochs(images, cfg, ctl, |x, batch, rng, opt| {
            let (d, mut v1, mut v2) = (self.input_dim, Vec::new(), Vec::new());
            for &i in batch {
                v1.extend(self.augmenter.random_view(x.row(i), rng));
                v2.extend(self.augmenter.random_view(x.row(i), rng));
            }
            let v1 = Tensor::from_vec(v1, &[batch.len(), d]);
            let v2 = Tensor::from_vec(v2, &[batch.len(), d]);

            // Symmetric BYOL step: (v1 online, v2 target) and swapped.
            for (online_view, target_view) in [(v1.clone(), v2.clone()), (v2, v1)] {
                let z = self.online.forward(online_view);
                let p = self.predictor.forward(z);
                // Stop-gradient branch: inference only, no caches.
                let t = self.target.infer(target_view);

                let gz = self.predictor.backward(Self::cosine_grad(&p, &t));
                self.online.backward_params(gz);
                let mut params = self.online.params_mut();
                params.extend(self.predictor.params_mut());
                opt.step(params);
            }
            self.ema_update(cfg.tau);
        });
        if done {
            self.online.freeze();
        }
        done
    }

    fn embed(&self, images: &Tensor) -> Tensor {
        serve(&self.online, images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::ops::sq_dist;

    /// Two visually distinct synthetic classes on an 8×8 grid: a bright
    /// top-left blob vs a bright bottom-right blob.
    fn two_class_data(per_class: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let side = 8;
        let mut rng = TensorRng::seeded(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for _ in 0..per_class {
                let (cy, cx) = if class == 0 {
                    (2.0f32, 2.0f32)
                } else {
                    (5.0, 5.0)
                };
                for y in 0..side {
                    for x in 0..side {
                        let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                        data.push(10.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.15));
                    }
                }
                labels.push(class);
            }
        }
        (
            Tensor::from_vec(data, &[2 * per_class, side * side]),
            labels,
        )
    }

    /// Mean within-class vs between-class squared distance ratio.
    fn separation(z: &Tensor, labels: &[usize]) -> f32 {
        let n = z.shape()[0];
        let mut within = (0.0f32, 0usize);
        let mut between = (0.0f32, 0usize);
        for i in 0..n {
            for j in i + 1..n {
                let d = sq_dist(z.row(i), z.row(j));
                if labels[i] == labels[j] {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    between = (between.0 + d, between.1 + 1);
                }
            }
        }
        (within.0 / within.1 as f32) / (between.0 / between.1 as f32 + 1e-9)
    }

    fn quick_cfg(seed: u64) -> EmbedTrainConfig {
        EmbedTrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 2e-3,
            seed,
            ..EmbedTrainConfig::default()
        }
    }

    #[test]
    fn autoencoder_separates_visual_classes() {
        let (x, labels) = two_class_data(24, 0);
        let mut emb = AutoencoderEmbedder::new(64, 32, 8, 1);
        emb.fit_controlled(&x, &quick_cfg(2), &TrainControl::new());
        let z = emb.embed(&x);
        assert_eq!(z.shape(), &[48, 8]);
        let sep = separation(&z, &labels);
        assert!(sep < 0.5, "separation ratio {sep} (want ≪ 1)");
    }

    #[test]
    fn contrastive_separates_visual_classes() {
        let (x, labels) = two_class_data(24, 3);
        let mut emb = ContrastiveEmbedder::new(8, 32, 8, 4);
        emb.fit_controlled(&x, &quick_cfg(5), &TrainControl::new());
        let z = emb.embed(&x);
        let sep = separation(&z, &labels);
        assert!(sep < 0.7, "separation ratio {sep}");
    }

    #[test]
    fn byol_separates_visual_classes() {
        let (x, labels) = two_class_data(24, 6);
        let mut emb = ByolEmbedder::new(8, 32, 8, 7);
        emb.fit_controlled(&x, &quick_cfg(8), &TrainControl::new());
        let z = emb.embed(&x);
        let sep = separation(&z, &labels);
        assert!(sep < 0.8, "separation ratio {sep}");
    }

    #[test]
    fn embeddings_are_l2_normalized() {
        let (x, _) = two_class_data(8, 9);
        let mut emb = AutoencoderEmbedder::new(64, 16, 4, 10);
        emb.fit_controlled(&x, &quick_cfg(11), &TrainControl::new());
        let z = emb.embed(&x);
        for i in 0..z.shape()[0] {
            let norm: f32 = z.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "row {i} norm {norm}");
        }
    }

    /// Same seeds, same bits — also after a clone sharing the fit's panels
    /// is refitted on other frames: that refit thaws the clone alone.
    #[test]
    fn embedding_is_deterministic_given_seeds() {
        let ((x, _), (other, _)) = (two_class_data(8, 12), two_class_data(8, 20));
        let embedders: [fn() -> Box<dyn Embedder>; 3] = [
            || Box::new(ContrastiveEmbedder::new(8, 16, 4, 13)),
            || Box::new(AutoencoderEmbedder::new(64, 16, 4, 13)),
            || Box::new(ByolEmbedder::new(8, 16, 4, 13)),
        ];
        for (method, new) in embedders.into_iter().enumerate() {
            let fit = |x: &Tensor, mut emb: Box<dyn Embedder>| {
                assert!(emb.fit_controlled(x, &quick_cfg(14), &TrainControl::new()));
                emb
            };
            let (a, twin) = (fit(&x, new()), fit(&x, new()));
            let before = a.embed(&x);
            let b = fit(&other, a.clone());
            assert_ne!(b.embed(&x), before, "method {method}: the refit clone");
            assert_eq!(a.embed(&x), before, "method {method}");
            assert_eq!(a.embed(&x), twin.embed(&x), "method {method}");
        }
    }

    #[test]
    fn rot90_four_times_is_identity() {
        let aug = Augmenter { side: 5 };
        let img: Vec<f32> = (0..25).map(|v| v as f32).collect();
        let mut r = img.clone();
        for _ in 0..4 {
            r = aug.rot90(&r);
        }
        assert_eq!(r, img);
        // Single rotation moves the corner correctly: (0,0) → (0,4).
        let once = aug.rot90(&img);
        assert_eq!(once[4], img[0]);
    }

    #[test]
    fn flip_is_involutive_and_shift_roundtrips_interior() {
        let aug = Augmenter { side: 4 };
        let img: Vec<f32> = (0..16).map(|v| v as f32).collect();
        assert_eq!(aug.flip_h(&aug.flip_h(&img)), img);
        let shifted = aug.shift(&img, 1, 0);
        assert_eq!(shifted[4], img[0]); // row 1 holds old row 0
        assert_eq!(shifted[0], 0.0); // vacated row zero-filled
    }

    /// Blobs at distinct random centers: each image is individually
    /// identifiable, so "own rotation vs other rotations" is meaningful.
    fn distinct_blob_data(n: usize, seed: u64) -> Tensor {
        let side = 8;
        let mut rng = TensorRng::seeded(seed);
        let mut data = Vec::new();
        for _ in 0..n {
            let cy = rng.next_uniform(1.5, 6.5);
            let cx = rng.next_uniform(1.5, 6.5);
            for y in 0..side {
                for x in 0..side {
                    let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    data.push(10.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                }
            }
        }
        Tensor::from_vec(data, &[n, side * side])
    }

    #[test]
    fn byol_rotation_invariance_improves_over_autoencoder() {
        // The §IV story: BYOL trained with rotation augmentations maps an
        // image and its rotation closer (relative to unrelated images)
        // than a pixel-reconstruction autoencoder does.
        let x = distinct_blob_data(40, 15);
        let aug = Augmenter { side: 8 };
        let rotated_rows: Vec<f32> = (0..x.shape()[0])
            .flat_map(|i| aug.rot90(x.row(i)))
            .collect();
        let xr = Tensor::from_vec(rotated_rows, x.shape());

        let score = |z: &Tensor, zr: &Tensor| -> f32 {
            // Mean distance to own rotation / mean distance to others.
            let n = z.shape()[0];
            let mut own = 0.0f32;
            let mut other = 0.0f32;
            let mut other_n = 0usize;
            for i in 0..n {
                own += sq_dist(z.row(i), zr.row(i));
                for j in 0..n {
                    if j != i {
                        other += sq_dist(z.row(i), zr.row(j));
                        other_n += 1;
                    }
                }
            }
            (own / n as f32) / (other / other_n as f32 + 1e-9)
        };

        let mut cfg = quick_cfg(17);
        cfg.epochs = 25;
        cfg.batch_size = 8;
        cfg.tau = 0.9;
        cfg.lr = 3e-3;
        let mut ae = AutoencoderEmbedder::new(64, 32, 8, 16);
        ae.fit_controlled(&x, &cfg, &TrainControl::new());
        let ae_score = score(&ae.embed(&x), &ae.embed(&xr));

        let mut byol = ByolEmbedder::new(8, 32, 8, 18);
        byol.fit_controlled(&x, &cfg, &TrainControl::new());
        let byol_score = score(&byol.embed(&x), &byol.embed(&xr));

        assert!(
            byol_score < ae_score,
            "byol {byol_score} should be more rotation-invariant than AE {ae_score}"
        );
    }
}
