//! Shape-manipulation layers: flattening and nearest-neighbour upsampling.

use super::Layer;
use fairdms_tensor::Tensor;

/// Flattens `[N, …]` inputs to `[N, prod(…)]` in their own storage,
/// remembering the original shape for the backward pass.
#[derive(Clone)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor) -> Tensor {
        self.in_shape = Some(x.shape().to_vec());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        assert!(x.rank() >= 2, "Flatten expects a batch dimension");
        let dims = [x.shape()[0], x.row_size()];
        x.into_shape(&dims)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let shape = self
            .in_shape
            .as_deref()
            .expect("Flatten::backward called before forward");
        grad_out.into_shape(shape)
    }
}

/// Nearest-neighbour 2× spatial upsampling for `[N, C, H, W]` tensors —
/// the decoder-side counterpart of pooling in the autoencoder embeddings.
#[derive(Clone)]
pub struct Upsample2x {
    in_shape: Option<Vec<usize>>,
}

impl Upsample2x {
    /// Creates an upsampling layer.
    pub fn new() -> Self {
        Upsample2x { in_shape: None }
    }
}

impl Default for Upsample2x {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Upsample2x {
    fn forward(&mut self, x: Tensor) -> Tensor {
        self.in_shape = Some(x.shape().to_vec());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        assert_eq!(x.rank(), 4, "Upsample2x expects [N, C, H, W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (h * 2, w * 2);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let xd = x.data();
        for nc in 0..n * c {
            let src = &xd[nc * h * w..(nc + 1) * h * w];
            let dst = &mut out[nc * oh * ow..(nc + 1) * oh * ow];
            for y in 0..oh {
                for xx in 0..ow {
                    dst[y * ow + xx] = src[(y / 2) * w + xx / 2];
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .clone()
            .expect("Upsample2x::backward called before forward");
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = (h * 2, w * 2);
        let mut dx = vec![0.0f32; n * c * h * w];
        let gd = grad_out.data();
        for nc in 0..n * c {
            let src = &gd[nc * oh * ow..(nc + 1) * oh * ow];
            let dst = &mut dx[nc * h * w..(nc + 1) * h * w];
            for y in 0..oh {
                for xx in 0..ow {
                    dst[(y / 2) * w + xx / 2] += src[y * ow + xx];
                }
            }
        }
        Tensor::from_vec(dx, &in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::arange(24).reshape(&[2, 3, 2, 2]);
        let y = f.forward(x.clone());
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(y);
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn upsample_replicates_pixels() {
        let mut u = Upsample2x::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = u.forward(x);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_backward_sums_blocks() {
        let mut u = Upsample2x::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        u.forward(x);
        let dx = u.backward(Tensor::ones(&[1, 1, 4, 4]));
        assert_eq!(dx.data(), &[4.0, 4.0, 4.0, 4.0]);
    }
}
