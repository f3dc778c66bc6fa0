//! Bit identity of the convolution against the lowered-GEMM oracle.
//!
//! The oracle is the lowering the convolution used before it read its
//! operands in place: each sample unrolled into a patch matrix `T`
//! (`[C·K·K, OH·OW]`, zero where a tap reads padding), `Y = W·T` through
//! [`gemm::matmul_acc`] into the bias-seeded output, `∂Wᵀ += T·∂Yᵀ` (plus a
//! row of ones for `∂b`) through [`gemm::matmul_acc`] on the explicit
//! transpose of `∂Y` (both layouts pack into the same panels), and the input
//! gradient as the adjoint lowering `∂X = W_r·P(∂Y)`, one product per stride
//! phase of the input pixels. The convolution must produce every output and
//! gradient of that oracle to the bit — the `to_bits` of `Y`, `∂X`, `∂W` and
//! `∂b` — over strides, paddings, kernels, odd extents, channel counts that
//! are not multiples of the register tile, a patch deeper than the engine's
//! depth block, degenerate borders and non-finite inputs.

use fairdms_nn::layers::{Conv2d, Layer};
use fairdms_tensor::gemm;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// The extents of one convolution.
#[derive(Clone, Copy, Debug)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    k: usize,
    s: usize,
    p: usize,
}

impl Geom {
    fn oh(&self) -> usize {
        (self.h + 2 * self.p - self.k) / self.s + 1
    }
    fn ow(&self) -> usize {
        (self.w + 2 * self.p - self.k) / self.s + 1
    }
    fn patch(&self) -> usize {
        self.c * self.k * self.k
    }
    fn pixels(&self) -> usize {
        self.oh() * self.ow()
    }
    fn sample(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Input element `(ci, y, x)` of one sample, 0 off the plane.
    fn read(&self, xs: &[f32], ci: usize, y: isize, x: isize) -> f32 {
        let inside = (0..self.h as isize).contains(&y) && (0..self.w as isize).contains(&x);
        if inside {
            xs[(ci * self.h + y as usize) * self.w + x as usize]
        } else {
            0.0
        }
    }

    /// The patch matrix of one sample, with `extra` trailing rows of ones.
    fn im2col(&self, xs: &[f32], extra: usize) -> Vec<f32> {
        let (k, s, p) = (self.k, self.s as isize, self.p as isize);
        let mut t = Vec::with_capacity((self.patch() + extra) * self.pixels());
        for ci in 0..self.c {
            for ky in 0..k as isize {
                for kx in 0..k as isize {
                    for oy in 0..self.oh() as isize {
                        for ox in 0..self.ow() as isize {
                            t.push(self.read(xs, ci, oy * s + ky - p, ox * s + kx - p));
                        }
                    }
                }
            }
        }
        t.resize((self.patch() + extra) * self.pixels(), 1.0);
        t
    }

    /// The stride phases along one axis of input extent `extent`:
    /// `(tap0, taps, first, count, base)` for every phase holding a pixel.
    fn axis_phases(&self, extent: usize) -> Vec<[usize; 5]> {
        let s = self.s;
        (0..s.min(self.k))
            .map(|tap0| {
                let first = (tap0 + s - self.p % s) % s;
                [
                    tap0,
                    (self.k - tap0).div_ceil(s),
                    first,
                    extent.saturating_sub(first).div_ceil(s),
                    (first + self.p - tap0) / s,
                ]
            })
            .filter(|a| a[3] > 0)
            .collect()
    }
}

/// The oracle's forward pass.
fn oracle_forward(g: Geom, x: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
    let (oc, pixels) = (g.oc, g.pixels());
    let mut out = vec![0.0f32; x.len() / g.sample() * oc * pixels];
    for (xs, y) in x
        .chunks_exact(g.sample())
        .zip(out.chunks_exact_mut(oc * pixels))
    {
        let t = g.im2col(xs, 0);
        for (row, &bv) in y.chunks_exact_mut(pixels).zip(b) {
            row.fill(bv);
        }
        gemm::matmul_acc(oc, g.patch(), pixels, w, &t, y);
    }
    out
}

/// The oracle's backward pass: `(∂W, ∂b, ∂X)`, the parameter gradients
/// as a zeroed parameter accumulates them.
fn oracle_backward(g: Geom, x: &[f32], w: &[f32], dy: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oc, patch, pixels, s) = (g.oc, g.patch(), g.pixels(), g.s);
    let (oh, ow) = (g.oh() as isize, g.ow() as isize);
    let mut dwt = vec![0.0f32; (patch + 1) * oc];
    let mut dx = vec![0.0f32; x.len()];
    let (ys, xs) = (g.axis_phases(g.h), g.axis_phases(g.w));
    for (si, xs_in) in x.chunks_exact(g.sample()).enumerate() {
        let dys = &dy[si * oc * pixels..][..oc * pixels];
        let t = g.im2col(xs_in, 1);
        let dyt = Tensor::from_vec(dys.to_vec(), &[oc, pixels]).transpose();
        gemm::matmul_acc(patch + 1, pixels, oc, &t, dyt.data(), &mut dwt);
        let dxs = &mut dx[si * g.sample()..][..g.sample()];
        for py in &ys {
            for px in &xs {
                let ([ty0, tys, fy, cy, by], [tx0, txs, fx, cx, bx]) = (*py, *px);
                let depth = oc * tys * txs;
                let (mut wr, mut p) = (Vec::new(), Vec::new());
                for ci in 0..g.c {
                    for o in 0..oc {
                        for t in 0..tys {
                            for u in 0..txs {
                                let (ky, kx) = (ty0 + s * t, tx0 + s * u);
                                wr.push(w[o * patch + (ci * g.k + ky) * g.k + kx]);
                            }
                        }
                    }
                }
                for o in 0..oc {
                    for t in 0..tys {
                        for u in 0..txs {
                            for jy in 0..cy {
                                for jx in 0..cx {
                                    let y = (jy + by) as isize - t as isize;
                                    let xx = (jx + bx) as isize - u as isize;
                                    let inside = (0..oh).contains(&y) && (0..ow).contains(&xx);
                                    let at = o * pixels + (y * ow + xx).max(0) as usize;
                                    p.push(if inside { dys[at] } else { 0.0 });
                                }
                            }
                        }
                    }
                }
                let mut block = vec![0.0f32; g.c * cy * cx];
                gemm::matmul_acc(g.c, depth, cy * cx, &wr, &p, &mut block);
                for ci in 0..g.c {
                    for jy in 0..cy {
                        for jx in 0..cx {
                            let at = (ci * g.h + fy + s * jy) * g.w + fx + s * jx;
                            dxs[at] = block[(ci * cy + jy) * cx + jx];
                        }
                    }
                }
            }
        }
    }
    let mut dw = vec![0.0f32; oc * patch];
    for (j, row) in dwt[..patch * oc].chunks_exact(oc).enumerate() {
        for (o, &v) in row.iter().enumerate() {
            dw[o * patch + j] += v;
        }
    }
    let mut db = vec![0.0f32; oc];
    for (b, &v) in db.iter_mut().zip(&dwt[patch * oc..]) {
        *b += v;
    }
    (dw, db, dx)
}

/// The `to_bits` of every value, every NaN as one: where two NaNs meet in
/// a sum, which one an addition passes on is not fixed by the program (the
/// compiler may commute any float addition), so a NaN's sign and payload
/// are not part of the contract. That a value is NaN, and every other bit,
/// is.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Runs the convolution and the oracle on the same operands and holds
/// every output and gradient to the oracle's bits.
fn check(g: Geom, n: usize, seed: u64, specials: bool) {
    let at = format!("{g:?} n={n} specials={specials}");
    let mut rng = TensorRng::seeded(seed);
    let mut conv = Conv2d::new(g.c, g.oc, g.k, g.s, g.p, &mut rng);
    conv.params_mut()[1].value = rng.uniform(&[g.oc], -0.5, 0.5);
    let mut x = rng.uniform(&[n, g.c, g.h, g.w], -1.0, 1.0);
    let mut dy = rng.uniform(&[n, g.oc, g.oh(), g.ow()], -1.0, 1.0);
    if specials {
        let marks = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % 7 == 3 {
                *v = marks[(i / 7) % marks.len()];
            }
        }
        for (i, v) in dy.data_mut().iter_mut().enumerate() {
            if i % 11 == 5 {
                *v = marks[(i / 11) % marks.len()];
            }
        }
        // Zero-valued inputs and gradients give `-0.0` products too.
        x.data_mut()[0] = -0.0;
        dy.data_mut()[0] = -0.0;
    }
    let (w, b) = {
        let p = conv.params();
        (p[0].value.clone(), p[1].value.clone())
    };

    let y = conv.forward(x.clone());
    let y_ref = oracle_forward(g, x.data(), w.data(), b.data());
    assert_eq!(y.shape(), &[n, g.oc, g.oh(), g.ow()], "shape {at}");
    assert!(bits(y.data()) == bits(&y_ref), "Y {at}");
    assert!(
        bits(conv.infer(x.clone()).data()) == bits(&y_ref),
        "infer {at}"
    );

    let (dw_ref, db_ref, dx_ref) = oracle_backward(g, x.data(), w.data(), dy.data());
    let dx = conv.backward(dy.clone());
    assert!(bits(dx.data()) == bits(&dx_ref), "dX {at}");
    let grads = |conv: &Conv2d| {
        let p = conv.params();
        (bits(p[0].grad.data()), bits(p[1].grad.data()))
    };
    let (dw, db) = grads(&conv);
    assert!(dw == bits(&dw_ref), "dW {at}");
    assert!(db == bits(&db_ref), "db {at}");

    // The parameters-only pass accumulates the same bits.
    for p in conv.params_mut() {
        p.zero_grad();
    }
    conv.backward_params(dy.clone());
    assert!(grads(&conv) == (dw, db), "params-only {at}");
}

#[test]
fn every_stride_padding_and_kernel_matches_the_oracle() {
    let mut seed = 0;
    for (h, w) in [(15, 15), (16, 16), (9, 13)] {
        for s in [1, 2, 3] {
            for p in [0, 1, 2] {
                for k in [1, 3, 5] {
                    for (c, oc) in [(1, 3), (3, 1)] {
                        seed += 1;
                        let g = Geom {
                            c,
                            h,
                            w,
                            oc,
                            k,
                            s,
                            p,
                        };
                        check(g, 2, seed, false);
                    }
                }
            }
        }
    }
}

#[test]
fn a_patch_deeper_than_the_depth_block_matches_the_oracle() {
    // 16 channels × 5×5 taps: 400 deep, past one `KC` block, and so is the
    // input gradient's (o, t, u) depth at stride 1; 20×20 outputs take the
    // weight gradient's pixel sum past one block too.
    const { assert!(16 * 25 > gemm::KC && 20 * 20 > gemm::KC) };
    for (h, s, p) in [(20, 1, 2), (16, 1, 2), (15, 2, 1), (13, 3, 2)] {
        let g = Geom {
            c: 16,
            h,
            w: h,
            oc: 16,
            k: 5,
            s,
            p,
        };
        check(g, 2, h as u64, false);
    }
}

#[test]
fn degenerate_borders_match_the_oracle() {
    let cases = [
        // A kernel wider than the image: every output reads some padding.
        (3, 3, 5, 1, 2),
        (3, 3, 5, 1, 1),
        (2, 4, 5, 2, 2),
        // An image smaller than its padding.
        (1, 1, 3, 1, 1),
        (1, 1, 3, 1, 2),
        (2, 1, 3, 2, 2),
        (1, 2, 1, 3, 2),
    ];
    for (i, (h, w, k, s, p)) in cases.into_iter().enumerate() {
        for (c, oc) in [(1, 3), (3, 5)] {
            check(
                Geom {
                    c,
                    h,
                    w,
                    oc,
                    k,
                    s,
                    p,
                },
                3,
                100 + i as u64,
                false,
            );
        }
    }
}

#[test]
fn non_finite_and_negative_zero_inputs_match_the_oracle() {
    let cases = [(16, 16, 3, 1, 1), (15, 15, 3, 2, 1), (9, 13, 5, 3, 2)];
    for (i, (h, w, k, s, p)) in cases.into_iter().enumerate() {
        for (c, oc) in [(3, 5), (16, 8)] {
            check(
                Geom {
                    c,
                    h,
                    w,
                    oc,
                    k,
                    s,
                    p,
                },
                2,
                200 + i as u64,
                true,
            );
        }
    }
}

#[test]
fn a_strided_layer_reads_only_its_taps() {
    // The oracle itself against a direct sum at one pixel: stride 3 with a
    // 1-wide kernel leaves two of every three input pixels without a tap,
    // so their gradient is exactly zero.
    let g = Geom {
        c: 1,
        h: 7,
        w: 7,
        oc: 1,
        k: 1,
        s: 3,
        p: 0,
    };
    let mut rng = TensorRng::seeded(9);
    let x: Tensor = rng.uniform(&[1, 1, 7, 7], -1.0, 1.0);
    let dy = rng.uniform(&[1, 1, 3, 3], -1.0, 1.0);
    let (_, _, dx) = oracle_backward(g, x.data(), &[2.0], dy.data());
    assert_eq!(dx[0], 2.0 * dy.data()[0]);
    assert_eq!(dx[1], 0.0);
    check(g, 1, 9, false);
}

#[test]
fn every_channel_block_of_the_layout_matches_the_oracle() {
    // The channels-last copy moves eight channels a block, then one at a
    // time: 1, 2, 3 and 5 channels are all remainder, 8 one block of eight,
    // 13 a block and five remainders. Each at every padding, at stride 1
    // and at stride 2, on odd, non-square extents.
    let mut seed = 300;
    for c in [1, 2, 3, 5, 8, 13] {
        for p in [0, 1, 2] {
            for (h, w, s) in [(7, 9, 1), (9, 7, 2)] {
                seed += 1;
                let g = Geom {
                    c,
                    h,
                    w,
                    oc: 5,
                    k: 3,
                    s,
                    p,
                };
                check(g, 2, seed, false);
            }
        }
    }
}

#[test]
fn pixels_no_tap_reaches_read_zero() {
    // At stride 3 a 2-wide kernel leaves every third row and column without
    // a tap; at stride 2 with a 3-wide kernel and no padding, an even
    // extent's last row and column lie past the last window. The layer's
    // `∂X` storage held the input before, so a pixel it forgot to write
    // would read an input value, not the oracle's 0.
    let cases = [
        (9, 8, 2, 3, 0),
        (10, 11, 2, 3, 1),
        (8, 8, 3, 2, 0),
        (8, 7, 3, 2, 0),
    ];
    for (i, (h, w, k, s, p)) in cases.into_iter().enumerate() {
        let g = Geom {
            c: 5,
            h,
            w,
            oc: 3,
            k,
            s,
            p,
        };
        check(g, 2, 400 + i as u64, false);
        let mut rng = TensorRng::seeded(500 + i as u64);
        let mut conv = Conv2d::new(g.c, g.oc, k, s, p, &mut rng);
        let y = conv.forward(rng.uniform(&[2, g.c, h, w], 1.0, 2.0));
        let dx = conv.backward(Tensor::ones(y.shape()));
        let tapped = |extent: usize, out: usize, at: usize| {
            (0..out).any(|o| (0..k).any(|t| o * s + t == at + p)) && at < extent
        };
        for (j, &v) in dx.data().iter().enumerate() {
            let (yy, xx) = (j / w % h, j % w);
            if !tapped(h, g.oh(), yy) || !tapped(w, g.ow(), xx) {
                assert_eq!(v.to_bits(), 0, "{g:?}: pixel ({yy}, {xx})");
            }
        }
    }
}
