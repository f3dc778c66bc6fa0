//! 2-D convolution lowered to GEMM one sample at a time.
//!
//! Each sample's `[C, H, W]` image is unrolled into a **channel-major**
//! patch matrix `T` of shape `[C·K·K, OH·OW]` — row `(c, ky, kx)` holds,
//! for every output pixel, the input value that kernel tap reads. In that
//! layout the lowering is span copies (one per kernel tap and output row,
//! the padding border filled as two spans — no per-element branch), and
//! every product reads and writes `[N, C, H, W]` buffers in place:
//!
//! * forward `Y_s = W · T` lands directly in the sample's `[OC, OH·OW]`
//!   block of the NCHW output, seeded with the bias;
//! * `∂Wᵀ += T · ∂Y_sᵀ` streams `T` as the engine's unpacked A operand
//!   and reads `∂Y_s` straight out of the NCHW gradient; a row of ones
//!   appended to `T` makes the same product emit `∂b`;
//! * `∂T = Wᵀ · ∂Y_s` is folded back into `∂X_s` by the adjoint span adds.
//!
//! `T` is one sample's worth (147 KiB for BraggNN's second layer), lives
//! in recycled per-thread scratch and never leaves cache; the backward
//! pass rebuilds it from the cached *input* instead of keeping a batch of
//! patch matrices alive between the passes. See DESIGN.md §9.

use super::{Layer, Mode};
use crate::param::Param;
use fairdms_tensor::gemm::{self, Threading};
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::cell::Cell;

/// The engine runs on the calling thread: a training step fans out over
/// whole samples a level up (`Trainer`), so a product here could only nest
/// a region inside a shard.
const SEQ: Threading = Threading::Sequential;

thread_local! {
    /// Recycled patch-matrix scratch (`T`, plus `∂T` in the backward
    /// pass). Per thread rather than per layer: `infer` takes `&self` and
    /// is called concurrently from every thread serving snapshot reads.
    static PATCHES: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on `len` floats of this thread's scratch (contents unspecified).
fn with_scratch(len: usize, f: impl FnOnce(&mut [f32])) {
    let mut buf = PATCHES.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    f(&mut buf[..len]);
    PATCHES.set(buf);
}

/// 2-D convolution over `[N, C, H, W]` inputs.
#[derive(Clone)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c * kh * kw]
    bias: Param,   // [out_c]
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

/// The extents of one lowering, and the span arithmetic both directions of
/// it share.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    /// Rows of the patch matrix.
    fn patch(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Columns of the patch matrix.
    fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements of one input sample.
    fn sample(&self) -> usize {
        self.c * self.h * self.w
    }

    /// The output positions `lo..hi` along one axis whose kernel tap `tap`
    /// reads inside the input (`o·stride + tap − pad ∈ 0..extent`); every
    /// other position reads padding.
    fn inside(&self, tap: usize, extent: usize, out_extent: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(tap).div_ceil(self.stride);
        let hi = (extent + self.pad)
            .checked_sub(tap + 1)
            .map_or(0, |last| (last / self.stride + 1).min(out_extent));
        (lo.min(hi), hi)
    }

    /// With stride 1 and output rows as long as input rows (`2·pad = k − 1`),
    /// a kernel tap reads the whole input plane displaced by a constant:
    /// patch row `[lo .. lo + len]` is plane `[from .. from + len]`, one
    /// span instead of one per output row. The elements that displacement
    /// carries across a row end are exactly the tap's padding columns.
    fn shifted_plane(&self, ky: usize, kx: usize) -> Option<(usize, usize, usize)> {
        (self.stride == 1 && self.ow == self.w).then(|| {
            let (tap, origin) = (ky * self.w + kx, (self.w + 1) * self.pad);
            // Clamped: an image smaller than its padding displaces some
            // taps clean off the plane.
            let lo = origin.saturating_sub(tap).min(self.pixels());
            let from = tap.saturating_sub(origin).min(self.pixels());
            (lo, from, self.pixels() - lo.max(from))
        })
    }

    /// Zeroes the columns of one patch row that tap column `kx` reads from
    /// the left or right padding.
    fn clear_padding_columns(&self, kx: usize, row: &mut [f32]) {
        let (lo, hi) = self.inside(kx, self.w, self.ow);
        for ox in (0..lo).chain(hi..self.ow) {
            row[ox..].iter_mut().step_by(self.ow).for_each(|v| *v = 0.0);
        }
    }

    /// Every kernel tap `(ci, ky, kx)`, in patch-row order.
    fn taps(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let k = self.k;
        (0..self.c)
            .flat_map(move |ci| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ci, ky, kx))))
    }

    /// Unrolls one `[C, H, W]` sample into `t` (`[patch, pixels]`), writing
    /// every element: interiors as span copies, padding as span fills.
    fn im2col(&self, x: &[f32], t: &mut [f32]) {
        let (w, ow, stride) = (self.w, self.ow, self.stride);
        for ((ci, ky, kx), row) in self.taps().zip(t.chunks_exact_mut(self.pixels())) {
            let plane = &x[ci * self.h * w..][..self.h * w];
            if let Some((lo, from, len)) = self.shifted_plane(ky, kx) {
                row[..lo].fill(0.0);
                row[lo + len..].fill(0.0);
                row[lo..lo + len].copy_from_slice(&plane[from..from + len]);
                self.clear_padding_columns(kx, row);
                continue;
            }
            let (oy_lo, oy_hi) = self.inside(ky, self.h, self.oh);
            let (ox_lo, ox_hi) = self.inside(kx, w, ow);
            row[..oy_lo * ow].fill(0.0);
            row[oy_hi * ow..].fill(0.0);
            for oy in oy_lo..oy_hi {
                let dst = &mut row[oy * ow..(oy + 1) * ow];
                dst[..ox_lo].fill(0.0);
                dst[ox_hi..].fill(0.0);
                let src = &plane[(oy * stride + ky - self.pad) * w..][..w];
                let src = src[ox_lo * stride + kx - self.pad..].iter().step_by(stride);
                for (d, &v) in dst[ox_lo..ox_hi].iter_mut().zip(src) {
                    *d = v;
                }
            }
        }
    }

    /// The adjoint of [`Geom::im2col`]: adds every interior span of `dt`
    /// back onto the input positions it was copied from (`dt` is scratch,
    /// and is clobbered).
    fn col2im(&self, dt: &mut [f32], dx: &mut [f32]) {
        let (w, ow, stride) = (self.w, self.ow, self.stride);
        for ((ci, ky, kx), row) in self.taps().zip(dt.chunks_exact_mut(self.pixels())) {
            let plane = &mut dx[ci * self.h * w..][..self.h * w];
            if let Some((lo, from, len)) = self.shifted_plane(ky, kx) {
                self.clear_padding_columns(kx, row);
                for (d, &v) in plane[from..from + len].iter_mut().zip(&row[lo..lo + len]) {
                    *d += v;
                }
                continue;
            }
            let (oy_lo, oy_hi) = self.inside(ky, self.h, self.oh);
            let (ox_lo, ox_hi) = self.inside(kx, w, ow);
            for oy in oy_lo..oy_hi {
                let src = &row[oy * ow + ox_lo..oy * ow + ox_hi];
                let dst = &mut plane[(oy * stride + ky - self.pad) * w..][..w];
                let dst = dst[ox_lo * stride + kx - self.pad..]
                    .iter_mut()
                    .step_by(stride);
                for (d, &v) in dst.zip(src) {
                    *d += v;
                }
            }
        }
    }
}

impl Conv2d {
    /// Creates a square-kernel convolution with He-normal weights (suited to
    /// the ReLU-family activations used throughout the repo).
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            weight: Param::new(rng.he_normal(&[out_c, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Output spatial extent for an input extent.
    fn out_extent(&self, in_extent: usize) -> usize {
        assert!(
            in_extent + 2 * self.padding >= self.kernel,
            "input extent {} too small for kernel {} with padding {}",
            in_extent,
            self.kernel,
            self.padding
        );
        (in_extent + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Checks an input's shape and derives the lowering's extents from it.
    fn geom(&self, x: &Tensor) -> (usize, Geom) {
        let (n, c, h, w) = dims4(x);
        assert_eq!(
            c, self.in_c,
            "Conv2d: expected {} input channels, got {c}",
            self.in_c
        );
        let geom = Geom {
            c,
            h,
            w,
            oh: self.out_extent(h),
            ow: self.out_extent(w),
            k: self.kernel,
            stride: self.stride,
            pad: self.padding,
        };
        (n, geom)
    }

    /// The forward pass shared by `forward` and `infer`: each sample
    /// unrolled into this thread's scratch and multiplied straight into its
    /// NCHW output block.
    fn lowered_forward(&self, x: &Tensor) -> Tensor {
        let (n, g) = self.geom(x);
        let (oc, patch, pixels) = (self.out_c, g.patch(), g.pixels());
        let (xd, wd, bias) = (x.data(), self.weight.value.data(), self.bias.value.data());
        let mut out = vec![0.0f32; n * oc * pixels];
        with_scratch(patch * pixels, |t| {
            for (xs, y) in xd
                .chunks_exact(g.sample())
                .zip(out.chunks_exact_mut(oc * pixels))
            {
                g.im2col(xs, t);
                for (y_row, &b) in y.chunks_exact_mut(pixels).zip(bias) {
                    y_row.fill(b);
                }
                gemm::matmul_acc(oc, patch, pixels, wd, t, y, SEQ);
            }
        });
        Tensor::from_vec(out, &[n, oc, g.oh, g.ow])
    }

    /// The backward pass: accumulates `∂W`/`∂b` and, when `want_dx`, returns
    /// `∂L/∂input`. The samples' parameter gradients are summed, in sample
    /// order, into one `[C·K·K + 1, OC]` partial that is then added to the
    /// parameters.
    fn lowered_backward(&mut self, grad_out: &Tensor, want_dx: bool) -> Option<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (n, g) = self.geom(x);
        let (oc, patch, pixels) = (self.out_c, g.patch(), g.pixels());
        assert_eq!(
            grad_out.shape(),
            &[n, oc, g.oh, g.ow],
            "Conv2d: gradient shape mismatch"
        );
        let (xd, gd) = (x.data(), grad_out.data());
        // `[patch, oc]`: the A operand of `∂T = Wᵀ · ∂Y`.
        let wt = want_dx.then(|| self.weight.value.transpose());

        // `∂Wᵀ` as `[patch, oc]` and, below it, `∂b` as the row the ones
        // row of `T` produces.
        let mut dwt = vec![0.0f32; (patch + 1) * oc];
        let mut dx = want_dx.then(|| vec![0.0f32; n * g.sample()]);
        with_scratch((2 * patch + 1) * pixels, |scratch| {
            let (t, dt) = scratch.split_at_mut((patch + 1) * pixels);
            t[patch * pixels..].fill(1.0);
            for s in 0..n {
                let dy = &gd[s * oc * pixels..][..oc * pixels];
                g.im2col(
                    &xd[s * g.sample()..][..g.sample()],
                    &mut t[..patch * pixels],
                );
                gemm::matmul_transb_acc(patch + 1, pixels, oc, t, dy, &mut dwt, SEQ);
                if let (Some(dx), Some(wt)) = (dx.as_deref_mut(), &wt) {
                    dt.fill(0.0);
                    gemm::matmul_acc(patch, oc, pixels, wt.data(), dy, dt, SEQ);
                    g.col2im(dt, &mut dx[s * g.sample()..][..g.sample()]);
                }
            }
        });

        let (dw, db) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        let (dwt, dbias) = dwt.split_at(patch * oc);
        for (j, dwt_row) in dwt.chunks_exact(oc).enumerate() {
            for (o, &v) in dwt_row.iter().enumerate() {
                dw[o * patch + j] += v;
            }
        }
        for (b, &v) in db.iter_mut().zip(dbias) {
            *b += v;
        }
        dx.map(|dx| Tensor::from_vec(dx, x.shape()))
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        // Keep the input for `backward`, in last step's allocation.
        let mut kept = self
            .cached_input
            .take()
            .map(Tensor::into_vec)
            .unwrap_or_default();
        kept.clear();
        kept.extend_from_slice(x.data());
        self.cached_input = Some(Tensor::from_vec(kept, x.shape()));
        self.lowered_forward(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.lowered_forward(x)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn work(&self, input: &[usize]) -> usize {
        let (oh, ow) = (self.out_extent(input[2]), self.out_extent(input[3]));
        input[0] * self.out_c * self.in_c * self.kernel * self.kernel * oh * ow
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.lowered_backward(grad_out, true)
            .expect("input gradient was requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.lowered_backward(grad_out, false);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

/// Splits a rank-4 shape into its `(n, c, h, w)` components.
fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.rank(),
        4,
        "expected [N, C, H, W] tensor, got {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (non-GEMM) convolution used as a reference implementation.
    fn conv_naive(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, c, h, wid) = dims4(x);
        let oc = w.shape()[0];
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (wid + 2 * pad - k) / stride + 1;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.data()[co];
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < wid as isize {
                                        let xv = x.at(&[ni, ci, iy as usize, ix as usize]);
                                        let wv = w.at(&[co, ci * k * k + ky * k + kx]);
                                        acc += xv * wv;
                                    }
                                }
                            }
                        }
                        out.set(&[ni, co, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    /// Direct backward pass of [`conv_naive`]: `(∂W, ∂b, ∂X)` for `∂Y = dy`.
    fn conv_naive_backward(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c, h, wid) = dims4(x);
        let (_, oc, oh, ow) = dims4(dy);
        let mut dw = Tensor::zeros(w.shape());
        let mut db = Tensor::zeros(&[oc]);
        let mut dx = Tensor::zeros(x.shape());
        for ni in 0..n {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dy.at(&[ni, co, oy, ox]);
                        db.data_mut()[co] += g;
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < wid as isize {
                                        let at = [ni, ci, iy as usize, ix as usize];
                                        let tap = [co, ci * k * k + ky * k + kx];
                                        dw.set(&tap, dw.at(&tap) + g * x.at(&at));
                                        dx.set(&at, dx.at(&at) + g * w.at(&tap));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (dw, db, dx)
    }

    #[test]
    fn forward_matches_naive_reference() {
        let mut rng = TensorRng::seeded(0);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let mut conv = Conv2d::new(2, 3, 3, stride, pad, &mut rng);
            let x = rng.uniform(&[2, 2, 6, 6], -1.0, 1.0);
            let y = conv.forward(&x, Mode::Train);
            let y_ref = conv_naive(&x, &conv.weight.value, &conv.bias.value, 3, stride, pad);
            assert_eq!(y.shape(), y_ref.shape(), "stride={stride} pad={pad}");
            assert!(
                fairdms_tensor::allclose(&y, &y_ref, 1e-4),
                "mismatch at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn lowering_matches_naive_reference_on_odd_shapes() {
        // Odd extents, every stride/padding corner, an odd batch, and a
        // non-square image so a swapped axis cannot hide.
        let mut rng = TensorRng::seeded(4);
        for &(h, w) in &[(15usize, 15usize), (9, 13)] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1] {
                    let at = format!("{h}x{w} stride={stride} pad={pad}");
                    let n = 5;
                    let mut conv = Conv2d::new(2, 3, 3, stride, pad, &mut rng);
                    conv.bias.value = rng.uniform(&[3], -0.5, 0.5);
                    let x = rng.uniform(&[n, 2, h, w], -1.0, 1.0);
                    let (wv, bv) = (conv.weight.value.clone(), conv.bias.value.clone());

                    let y = conv.forward(&x, Mode::Train);
                    let y_ref = conv_naive(&x, &wv, &bv, 3, stride, pad);
                    assert_eq!(y.shape(), y_ref.shape(), "{at}");
                    assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-4), "forward {at}");
                    assert_eq!(conv.infer(&x), y, "infer {at}");

                    let dy = rng.uniform(y.shape(), -1.0, 1.0);
                    let (dw_ref, db_ref, dx_ref) =
                        conv_naive_backward(&x, &wv, &dy, 3, stride, pad);
                    let dx = conv.backward(&dy);
                    assert!(fairdms_tensor::allclose(&dx, &dx_ref, 1e-4), "dx {at}");
                    let (dw, db) = (conv.weight.grad.clone(), conv.bias.grad.clone());
                    assert!(fairdms_tensor::allclose(&dw, &dw_ref, 1e-3), "dw {at}");
                    assert!(fairdms_tensor::allclose(&db, &db_ref, 1e-3), "db {at}");

                    // The params-only pass accumulates the same bits.
                    conv.weight.zero_grad();
                    conv.bias.zero_grad();
                    conv.backward_params(&dy);
                    assert_eq!(conv.weight.grad, dw, "params-only dw {at}");
                    assert_eq!(conv.bias.grad, db, "params-only db {at}");
                }
            }
        }
    }

    #[test]
    fn kernel_wider_than_the_padded_border_reads_only_padding_there() {
        // 5-wide kernel, padding 2, on a 3×3 image: most taps of most
        // outputs fall outside, some taps for every output.
        let mut rng = TensorRng::seeded(5);
        let mut conv = Conv2d::new(1, 2, 5, 1, 2, &mut rng);
        let x = rng.uniform(&[1, 1, 3, 3], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        let y_ref = conv_naive(&x, &conv.weight.value, &conv.bias.value, 5, 1, 2);
        assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-4));
        let dy = rng.uniform(y.shape(), -1.0, 1.0);
        let (_, _, dx_ref) = conv_naive_backward(&x, &conv.weight.value, &dy, 5, 1, 2);
        assert!(fairdms_tensor::allclose(&conv.backward(&dy), &dx_ref, 1e-4));
    }

    #[test]
    fn image_smaller_than_its_padding_is_all_border() {
        let mut rng = TensorRng::seeded(7);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[3, 2, 1, 1], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        let y_ref = conv_naive(&x, &conv.weight.value, &conv.bias.value, 3, 1, 1);
        assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-5));
        let dy = rng.uniform(y.shape(), -1.0, 1.0);
        let (dw_ref, _, dx_ref) = conv_naive_backward(&x, &conv.weight.value, &dy, 3, 1, 1);
        assert!(fairdms_tensor::allclose(&conv.backward(&dy), &dx_ref, 1e-5));
        assert!(fairdms_tensor::allclose(&conv.weight.grad, &dw_ref, 1e-5));
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = TensorRng::seeded(1);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[1, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        let gx = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
        let g1 = conv.weight.grad.clone();
        conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y.shape()));
        // Gradients accumulate across backward calls.
        assert!(fairdms_tensor::allclose(
            &conv.weight.grad,
            &g1.scale(2.0),
            1e-4
        ));
    }

    #[test]
    fn bias_gradient_counts_output_elements() {
        let mut rng = TensorRng::seeded(2);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let x = rng.uniform(&[2, 1, 3, 3], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(y.shape()));
        // 2 samples × 3×3 outputs = 18 ones summed into the single bias.
        assert!((conv.bias.grad.data()[0] - 18.0).abs() < 1e-4);
    }

    #[test]
    fn inference_leaves_the_backward_cache_alone() {
        let mut rng = TensorRng::seeded(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[4, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x, Mode::Train);
        // A validation batch of another size in between…
        conv.infer(&rng.uniform(&[3, 1, 5, 5], -1.0, 1.0));
        // …and backward still differentiates the training batch.
        assert_eq!(conv.backward(&Tensor::ones(y.shape())).shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_channel_mismatch() {
        let mut rng = TensorRng::seeded(3);
        let mut conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        conv.forward(&Tensor::zeros(&[1, 2, 5, 5]), Mode::Eval);
    }
}
