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
//! * `∂X_s = W_r · P(∂Y_s)` is the adjoint lowering: `P` unrolls the
//!   *output* gradient by the same span copies, one row per `(o, ky, kx)`
//!   holding, for every input pixel, the `∂Y` element that tap sent there,
//!   and `W_r` is `W` re-indexed to `[C, OC·K·K]` once per call. At stride
//!   `s > 1` the input pixels split into `s²` phases, each reached by its
//!   own taps only, so no structural zero is multiplied.
//!
//! `T` is one sample's worth (147 KiB for BraggNN's second layer), lives
//! in recycled per-thread scratch and never leaves cache; the backward
//! pass rebuilds it from the cached *input* instead of keeping a batch of
//! patch matrices alive between the passes. See DESIGN.md §9.

use super::Layer;
use crate::param::Param;
use fairdms_tensor::gemm::{self, Threading};
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::cell::Cell;

/// The engine runs on the calling thread: a training step fans out over
/// whole samples a level up (`Trainer`), so a product here could only nest
/// a region inside a shard.
const SEQ: Threading = Threading::Sequential;

thread_local! {
    /// Recycled lowering scratch (`T`, plus `P` and a phase's block of
    /// `∂X` in the backward pass). Per thread rather than per layer:
    /// `infer` takes `&self` and is called concurrently from every thread
    /// serving snapshot reads.
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

/// How one plane is read into one row of a lowered matrix: element
/// `(y, x)` of the `[rows, cols]` row reads plane element
/// `(y·stride + dy, x·stride + dx)` of the `[h, w]` plane, and 0 where that
/// falls outside it. Both lowerings are rows of this kind: `T` reads the
/// input at the layer's stride, `P` reads `∂Y` at stride 1.
#[derive(Clone, Copy)]
struct Window {
    h: usize,
    w: usize,
    rows: usize,
    cols: usize,
    stride: usize,
}

impl Window {
    /// The positions `lo..hi` along one axis whose read `o·stride + d`
    /// falls inside `0..extent`; every other position reads padding.
    fn inside(&self, d: isize, extent: usize, positions: usize) -> (usize, usize) {
        let lo = if d < 0 {
            d.unsigned_abs().div_ceil(self.stride)
        } else {
            0
        };
        let hi = (extent as isize - d)
            .try_into()
            .map_or(0, |past: usize| past.div_ceil(self.stride))
            .min(positions);
        (lo.min(hi), hi)
    }

    /// Writes every element of `row` from `plane`: the interior as span
    /// copies, the padding as span fills. Inlined into both lowerings: out
    /// of line, the call and its range set-up made CookieNetAE's strided
    /// forward pass (72 short rows a sample) 10–14% slower.
    #[inline(always)]
    fn lower(&self, plane: &[f32], dy: isize, dx: isize, row: &mut [f32]) {
        let (x_lo, x_hi) = self.inside(dx, self.w, self.cols);
        if self.stride == 1 && (self.rows, self.cols) == (self.h, self.w) {
            // Same extents at stride 1: the row is the whole plane displaced
            // by a constant, one span instead of one per row. The elements
            // that displacement carries across a row end are exactly the
            // columns outside `x_lo..x_hi`.
            let len = row.len() as isize;
            let shift = dy * self.w as isize + dx;
            // Clamped: a plane smaller than its padding displaces some rows
            // clean off it.
            let lo = (-shift).clamp(0, len) as usize;
            let from = shift.clamp(0, len) as usize;
            let span = row.len() - lo.max(from);
            row[..lo].fill(0.0);
            row[lo + span..].fill(0.0);
            row[lo..lo + span].copy_from_slice(&plane[from..from + span]);
            for x in (0..x_lo).chain(x_hi..self.cols) {
                row[x..]
                    .iter_mut()
                    .step_by(self.cols)
                    .for_each(|v| *v = 0.0);
            }
            return;
        }
        let (y_lo, y_hi) = self.inside(dy, self.h, self.rows);
        let (cols, stride) = (self.cols, self.stride);
        row[..y_lo * cols].fill(0.0);
        row[y_hi * cols..].fill(0.0);
        for (y, dst) in row.chunks_exact_mut(cols).enumerate().take(y_hi).skip(y_lo) {
            dst[..x_lo].fill(0.0);
            dst[x_hi..].fill(0.0);
            if x_lo == x_hi {
                continue;
            }
            // `inside` keeps both reads on the plane.
            let src = &plane[(y * stride).wrapping_add_signed(dy) * self.w..][..self.w];
            let src = src[(x_lo * stride).wrapping_add_signed(dx)..].chunks(stride);
            for (d, from) in dst[x_lo..x_hi].iter_mut().zip(src) {
                *d = from[0];
            }
        }
    }
}

/// The extents of one convolution, from which both lowerings are cut.
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

    /// Unrolls one `[C, H, W]` sample into `t` (`[patch, pixels]`, row
    /// `(ci, ky, kx)` per kernel tap), writing every element.
    fn im2col(&self, x: &[f32], t: &mut [f32]) {
        let window = Window {
            h: self.h,
            w: self.w,
            rows: self.oh,
            cols: self.ow,
            stride: self.stride,
        };
        let (k, pad) = (self.k, self.pad as isize);
        let taps = (0..self.c)
            .flat_map(move |ci| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ci, ky, kx))));
        for ((ci, ky, kx), row) in taps.zip(t.chunks_exact_mut(self.pixels())) {
            let plane = &x[ci * self.h * self.w..][..self.h * self.w];
            window.lower(plane, ky as isize - pad, kx as isize - pad, row);
        }
    }

    /// The stride phases of the input pixels that some tap reaches and
    /// that hold a pixel: one at stride 1, up to `stride²` otherwise.
    fn phases(&self) -> Vec<Phase> {
        let ys = self.axis_phases(self.h);
        let xs = self.axis_phases(self.w);
        ys.iter()
            .flat_map(|&y| xs.iter().map(move |&x| Phase { y, x }))
            .collect()
    }

    /// [`Geom::phases`] along one axis of input extent `extent`.
    fn axis_phases(&self, extent: usize) -> Vec<PhaseAxis> {
        let s = self.stride;
        (0..s.min(self.k))
            .map(|tap0| {
                // `(first + pad) ≡ tap0 (mod s)`: the first position a tap
                // `tap0 + s·t` reaches.
                let first = (tap0 + s - self.pad % s) % s;
                PhaseAxis {
                    tap0,
                    taps: (self.k - tap0).div_ceil(s),
                    first,
                    count: extent.saturating_sub(first).div_ceil(s),
                    base: (first + self.pad - tap0) / s,
                }
            })
            .filter(|a| a.count > 0)
            .collect()
    }
}

/// One axis of a stride phase: the input positions `first + s·j`
/// (`j < count`) and the taps `tap0 + s·t` (`t < taps`), the only ones
/// that reach them — position `first + s·j` receives tap `tap0 + s·t` from
/// output position `j + base − t`.
#[derive(Clone, Copy)]
struct PhaseAxis {
    tap0: usize,
    taps: usize,
    first: usize,
    count: usize,
    base: usize,
}

/// The input pixels of one stride phase and the taps that reach them: the
/// unit of the adjoint lowering `∂X = W_r · P(∂Y)`. At stride 1 there is
/// one phase, every pixel in NCHW order and every tap.
struct Phase {
    y: PhaseAxis,
    x: PhaseAxis,
}

impl Phase {
    /// Rows of `P` (the product's depth): `OC` times the phase's taps.
    fn depth(&self, oc: usize) -> usize {
        oc * self.y.taps * self.x.taps
    }

    /// Columns of `P`: the phase's input pixels.
    fn pixels(&self) -> usize {
        self.y.count * self.x.count
    }

    /// Every `(o, t, u)` row of `P`, in order.
    fn rows(&self, oc: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let (ty, tx) = (self.y.taps, self.x.taps);
        (0..oc).flat_map(move |o| (0..ty).flat_map(move |t| (0..tx).map(move |u| (o, t, u))))
    }

    /// `W_r`, `[C, depth]`: entry `(c, (o, t, u))` is the weight of tap
    /// `(tap0_y + s·t, tap0_x + s·u)` from input channel `c` to output
    /// channel `o`.
    fn weights(&self, g: &Geom, w: &[f32], oc: usize) -> Vec<f32> {
        let (k, s) = (g.k, g.stride);
        let mut wr = Vec::with_capacity(g.c * self.depth(oc));
        for ci in 0..g.c {
            for (o, t, u) in self.rows(oc) {
                let (ky, kx) = (self.y.tap0 + s * t, self.x.tap0 + s * u);
                wr.push(w[o * g.patch() + (ci * k + ky) * k + kx]);
            }
        }
        wr
    }

    /// Unrolls one sample's `[OC, OH, OW]` output gradient into `p`
    /// (`[depth, pixels]`): row `(o, t, u)` holds, for every pixel of the
    /// phase, the `∂Y` element that tap sent it.
    fn lower(&self, g: &Geom, grad_out: &[f32], oc: usize, p: &mut [f32]) {
        let window = Window {
            h: g.oh,
            w: g.ow,
            rows: self.y.count,
            cols: self.x.count,
            stride: 1,
        };
        let plane = g.pixels();
        for ((o, t, u), row) in self.rows(oc).zip(p.chunks_exact_mut(self.pixels())) {
            let dy = self.y.base as isize - t as isize;
            let dx = self.x.base as isize - u as isize;
            window.lower(&grad_out[o * plane..][..plane], dy, dx, row);
        }
    }

    /// Writes the phase's `[C, pixels]` block of `∂X` onto its positions in
    /// the sample's `[C, H, W]` gradient.
    fn scatter(&self, g: &Geom, block: &[f32], dx: &mut [f32]) {
        let s = g.stride;
        for (plane, rows) in dx
            .chunks_exact_mut(g.h * g.w)
            .zip(block.chunks_exact(self.pixels()))
        {
            for (j, src) in rows.chunks_exact(self.x.count).enumerate() {
                let dst = &mut plane[(self.y.first + s * j) * g.w + self.x.first..];
                for (to, &v) in dst.chunks_mut(s).zip(src) {
                    to[0] = v;
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
        // The input gradient's phases, and each one's `W_r`.
        let phases = if want_dx { g.phases() } else { Vec::new() };
        let wd = self.weight.value.data();
        let w_r: Vec<Vec<f32>> = phases.iter().map(|p| p.weights(&g, wd, oc)).collect();
        let lowered = phases.iter().map(|p| p.depth(oc) * p.pixels()).max();
        // At stride 1 the one phase is the sample's pixels in NCHW order and
        // its product lands in place; otherwise each phase's block is
        // staged, then written onto its pixels.
        let staged = phases.iter().map(|p| g.c * p.pixels()).max();
        let staged = if g.stride == 1 { None } else { staged };
        let (lowered, staged) = (lowered.unwrap_or(0), staged.unwrap_or(0));

        // `∂Wᵀ` as `[patch, oc]` and, below it, `∂b` as the row the ones
        // row of `T` produces.
        let mut dwt = vec![0.0f32; (patch + 1) * oc];
        let mut dx = want_dx.then(|| vec![0.0f32; n * g.sample()]);
        with_scratch((patch + 1) * pixels + lowered + staged, |scratch| {
            let (t, rest) = scratch.split_at_mut((patch + 1) * pixels);
            let (p_buf, block) = rest.split_at_mut(lowered);
            t[patch * pixels..].fill(1.0);
            for s in 0..n {
                let dy = &gd[s * oc * pixels..][..oc * pixels];
                g.im2col(
                    &xd[s * g.sample()..][..g.sample()],
                    &mut t[..patch * pixels],
                );
                gemm::matmul_transb_acc(patch + 1, pixels, oc, t, dy, &mut dwt, SEQ);
                let Some(dx) = dx.as_deref_mut() else {
                    continue;
                };
                let dx = &mut dx[s * g.sample()..][..g.sample()];
                for (phase, wr) in phases.iter().zip(&w_r) {
                    let (depth, cols) = (phase.depth(oc), phase.pixels());
                    let p = &mut p_buf[..depth * cols];
                    phase.lower(&g, dy, oc, p);
                    if g.stride == 1 {
                        gemm::matmul_acc(g.c, depth, cols, wr, p, dx, SEQ);
                    } else {
                        let block = &mut block[..g.c * cols];
                        block.fill(0.0);
                        gemm::matmul_acc(g.c, depth, cols, wr, p, block, SEQ);
                        phase.scatter(&g, block, dx);
                    }
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
    fn forward(&mut self, x: &Tensor) -> Tensor {
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
            let y = conv.forward(&x);
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
        // non-square image so a swapped axis cannot hide. The 5×5 kernel at
        // stride 2 reaches the two input phases of an axis with three taps
        // and with two.
        let mut rng = TensorRng::seeded(4);
        for &(h, w) in &[(15usize, 15usize), (9, 13)] {
            let corners = [(3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (5, 2, 1)];
            for (k, stride, pad) in corners {
                let at = format!("{h}x{w} k={k} stride={stride} pad={pad}");
                let n = 5;
                let mut conv = Conv2d::new(2, 3, k, stride, pad, &mut rng);
                conv.bias.value = rng.uniform(&[3], -0.5, 0.5);
                let x = rng.uniform(&[n, 2, h, w], -1.0, 1.0);
                let (wv, bv) = (conv.weight.value.clone(), conv.bias.value.clone());

                let y = conv.forward(&x);
                let y_ref = conv_naive(&x, &wv, &bv, k, stride, pad);
                assert_eq!(y.shape(), y_ref.shape(), "{at}");
                assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-4), "forward {at}");
                assert_eq!(conv.infer(&x), y, "infer {at}");

                let dy = rng.uniform(y.shape(), -1.0, 1.0);
                let (dw_ref, db_ref, dx_ref) = conv_naive_backward(&x, &wv, &dy, k, stride, pad);
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

    #[test]
    fn kernel_wider_than_the_padded_border_reads_only_padding_there() {
        // 5-wide kernel, padding 2, on a 3×3 image: most taps of most
        // outputs fall outside, some taps for every output.
        let mut rng = TensorRng::seeded(5);
        let mut conv = Conv2d::new(1, 2, 5, 1, 2, &mut rng);
        let x = rng.uniform(&[1, 1, 3, 3], -1.0, 1.0);
        let y = conv.forward(&x);
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
        let y = conv.forward(&x);
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
        let y = conv.forward(&x);
        let gx = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
        let g1 = conv.weight.grad.clone();
        conv.forward(&x);
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
        let y = conv.forward(&x);
        conv.backward(&Tensor::ones(y.shape()));
        // 2 samples × 3×3 outputs = 18 ones summed into the single bias.
        assert!((conv.bias.grad.data()[0] - 18.0).abs() < 1e-4);
    }

    #[test]
    fn inference_leaves_the_backward_cache_alone() {
        let mut rng = TensorRng::seeded(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[4, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x);
        // A validation batch of another size in between…
        conv.infer(&rng.uniform(&[3, 1, 5, 5], -1.0, 1.0));
        // …and backward still differentiates the training batch.
        assert_eq!(conv.backward(&Tensor::ones(y.shape())).shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_channel_mismatch() {
        let mut rng = TensorRng::seeded(3);
        let conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        conv.infer(&Tensor::zeros(&[1, 2, 5, 5]));
    }
}
