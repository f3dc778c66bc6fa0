//! 2-D convolution whose products read their operands in place.
//!
//! A convolution is three products per sample — `Y = W·T`, `∂Wᵀ += T·∂Yᵀ`
//! and `∂X = W_r·P(∂Y)` in the lowered form, where `T` is the patch matrix
//! (row `(c, ky, kx)` holding, for every output pixel, the input value that
//! tap reads) and `P` the adjoint lowering of the output gradient. None of
//! the three builds `T`, `P` or a packed panel: each is the register tile
//! [`gemm::shifted_tile`] — `SR` rows of packed weights against `SL`
//! consecutive elements of a zero-padded copy of its operand, read at a
//! constant offset per step of the product's depth.
//!
//! * The **forward pass** splits each `[C, H, W]` sample into zero-padded
//!   planes — at stride `s`, `s²` phase planes a channel, phase `(a, b)`
//!   holding the padded pixels `(a + s·i, b + s·j)` — in which a tap's reads
//!   over one output row are one contiguous run. Output channels `SR` at a
//!   time against `SL` output pixels, the tile seeded with the bias and its
//!   lanes stored on the NCHW output.
//! * The **weight gradient** sums over pixels, so its lanes cannot be
//!   pixels: they are `SL` consecutive taps `(kx, c)` of one kernel row —
//!   of `m` rows stacked, for a layer with few channels — which at one
//!   output pixel are one run of the sample zero-padded channels-last
//!   (`[H + 2p, W + 2p, m, C]`). Output channels `SR` at a time, the packed
//!   weights being a pixel-major copy of `∂Y`, the depth the pixels. The
//!   training pass writes that copy while the sample is in cache and keeps
//!   it for the backward pass in place of the input; `∂b` is the plain
//!   per-channel sum of `∂Y`.
//! * The **input gradient** zero-pads `∂Y` once a sample and runs one
//!   shifted product per stride phase of the input pixels: phase pixels
//!   `(first_y + s·j, first_x + s·i)` receive exactly the taps `tap0 + s·t`,
//!   each reading the padded `∂Y` at a constant offset, input channels `SR`
//!   at a time. At stride 1 there is one phase, every pixel and every tap.
//!
//! Every product keeps the engine's per-element order — the depth in
//! ascending order, `KC` at a time, each block's sum added into the output
//! — so every output and gradient is the lowered products' to the bit
//! (`tests/conv_implicit.rs` holds it to them). See DESIGN.md §9.

use super::{Layer, Spare};
use crate::param::Param;
use fairdms_tensor::gemm::{self, KC, SL, SR};
use fairdms_tensor::{rng::TensorRng, Tensor};

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
    cached: Option<Kept>,
    spare: Spare,
}

/// The training pass's input as the weight gradient reads it: each sample
/// channels-last ([`Geom::channels_last`]), `SL` readable floats past the
/// last one.
#[derive(Clone)]
struct Kept {
    shape: [usize; 4],
    nhwc: Vec<f32>,
}

/// The extents of one convolution.
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
    /// Rows of the patch matrix: the kernel taps.
    fn patch(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Output pixels of one channel.
    fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements of one input sample.
    fn sample(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Phase planes per axis: tap `ky` reads phase `ky mod stride`.
    fn tap_phases(&self) -> usize {
        self.stride.min(self.k)
    }

    /// Row pitch of a phase plane: the output width plus the reach of the
    /// widest tap within its phase.
    fn pitch(&self) -> usize {
        self.ow + (self.k - 1) / self.stride
    }

    /// Floats of one phase plane.
    fn plane(&self) -> usize {
        (self.oh + (self.k - 1) / self.stride) * self.pitch()
    }

    /// Floats of one sample's planes.
    fn planes(&self) -> usize {
        self.c * self.tap_phases().pow(2) * self.plane()
    }

    /// Writes one `[C, H, W]` sample's planes into `dst`: per channel, per
    /// phase `(a, b)`, the padded pixels `(a + s·i, b + s·j)`. Only the
    /// pixels are written; the padding must already be 0.
    fn split(&self, x: &[f32], dst: &mut [f32]) {
        let (phases, pad) = (self.tap_phases(), self.pad as isize);
        let mut planes = dst.chunks_exact_mut(self.plane());
        for xc in x.chunks_exact(self.h * self.w) {
            for a in 0..phases {
                for b in 0..phases {
                    let plane = planes.next().expect("one plane per channel phase");
                    let from = (a as isize - pad, b as isize - pad);
                    resample(xc, (self.h, self.w), from, self.stride, plane, self.pitch());
                }
            }
        }
    }

    /// Padded rows and columns of the input.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.pad, self.w + 2 * self.pad)
    }

    /// Kernel rows stacked in one cell of the weight gradient's copy of
    /// the input: as many as fill a tile's `SL` lanes with taps, so a layer
    /// with few channels does not spend its lanes on padding.
    fn stack(&self) -> usize {
        self.k.min(SL.div_ceil(self.k * self.c))
    }

    /// Floats of one sample's [`Geom::channels_last`] copy.
    fn stacked_len(&self) -> usize {
        let (hp, wp) = self.padded();
        hp * wp * self.stack() * self.c
    }

    /// Writes one `[C, H, W]` sample zero-padded and channels-last into
    /// `dst`, `m` = [`Geom::stack`] padded rows a cell (`[H + 2p, W + 2p,
    /// m, C]`, element `(y, x, j, c)` being padded pixel `(y + j, x)`): the
    /// taps `(kx, j, c)` of kernel rows `ky .. ky + m` at one output pixel
    /// are then one run of `K·m·C` floats. Only the pixels are written: the
    /// padding must already be 0, and stays so from sample to sample.
    fn channels_last(&self, x: &[f32], dst: &mut [f32]) {
        let (c, pad, m, wp, w) = (self.c, self.pad, self.stack(), self.padded().1, self.w);
        let plane = self.h * w;
        for y in 0..self.h {
            let src = |ci: usize| &x[ci * plane + y * w..][..w];
            // Padded row `y + pad` is row `j` of the cells `j` above it.
            for j in 0..m.min(y + pad + 1) {
                let at = (((y + pad - j) * wp + pad) * m + j) * c;
                // Four channels a store: a scalar store each reads 30%
                // slower, the copy being mostly cache misses.
                let mut ci = 0;
                while ci + 4 <= c {
                    let s = [src(ci), src(ci + 1), src(ci + 2), src(ci + 3)];
                    for (x, cell) in dst[at..].chunks_mut(m * c).take(w).enumerate() {
                        cell[ci..ci + 4].copy_from_slice(&[s[0][x], s[1][x], s[2][x], s[3][x]]);
                    }
                    ci += 4;
                }
                for ci in ci..c {
                    for (cell, &v) in dst[at..].chunks_mut(m * c).zip(src(ci)) {
                        cell[ci] = v;
                    }
                }
            }
        }
    }

    /// Where each tap `(ci, ky, kx)`, in patch order, reads output pixel
    /// `(0, 0)` in a sample's planes; pixel `(y, x)` is `y·pitch + x` on.
    fn tap_offsets(&self) -> Vec<usize> {
        let (k, s, phases) = (self.k, self.stride, self.tap_phases());
        let mut offs = Vec::with_capacity(self.patch());
        for ci in 0..self.c {
            for ky in 0..k {
                for kx in 0..k {
                    let plane = (ci * phases + ky % s) * phases + kx % s;
                    offs.push(plane * self.plane() + ky / s * self.pitch() + kx / s);
                }
            }
        }
        offs
    }

    /// The stride phases of the input pixels along one axis of input
    /// extent `extent` that some tap reaches and that hold a pixel: one at
    /// stride 1, up to `stride` otherwise.
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

/// One axis of a stride phase of the input pixels: the positions `first +
/// s·j` (`j < count`) and the taps `tap0 + s·t` (`t < taps`), the only
/// ones that reach them — position `first + s·j` receives tap `tap0 + s·t`
/// from output position `j + base − t`.
#[derive(Clone, Copy)]
struct PhaseAxis {
    tap0: usize,
    taps: usize,
    first: usize,
    count: usize,
    base: usize,
}

/// Writes the `[rows, pitch]` plane `dst` from the `[h, w]` plane `src`
/// read at stride `s` from `(y0, x0)`: element `(i, j)` is `src[y0 + s·i,
/// x0 + s·j]` where that falls on `src`. The elements that fall off it —
/// the padding — are left alone: a caller zeroes its scratch once and
/// rewrites only the pixels, sample after sample.
fn resample(
    src: &[f32],
    (h, w): (usize, usize),
    (y0, x0): (isize, isize),
    s: usize,
    dst: &mut [f32],
    pitch: usize,
) {
    let (lo, hi) = inside(x0, s, w, pitch);
    for (i, row) in dst.chunks_exact_mut(pitch).enumerate() {
        let y = y0 + (s * i) as isize;
        if lo == hi || !(0..h as isize).contains(&y) {
            continue;
        }
        let from = &src[y as usize * w..][..w][(x0 + (s * lo) as isize) as usize..];
        let row = &mut row[lo..hi];
        if s == 1 {
            let from = &from[..row.len()];
            // Whole `SL` runs as fixed-width moves, not a call each.
            let (mut to, mut from) = (row.chunks_exact_mut(SL), from.chunks_exact(SL));
            for (d, v) in to.by_ref().zip(from.by_ref()) {
                d.copy_from_slice(v);
            }
            let rest = to.into_remainder();
            rest.copy_from_slice(&from.remainder()[..rest.len()]);
        } else {
            for (d, &v) in row.iter_mut().zip(from.iter().step_by(s)) {
                *d = v;
            }
        }
    }
}

/// The positions `lo..hi` of `count` whose read `x0 + s·j` falls inside
/// `0..extent`; every other position reads padding.
fn inside(x0: isize, s: usize, extent: usize, count: usize) -> (usize, usize) {
    let lo = if x0 < 0 {
        x0.unsigned_abs().div_ceil(s)
    } else {
        0
    };
    let hi = (extent as isize - x0)
        .try_into()
        .map_or(0, |past: usize| past.div_ceil(s))
        .min(count);
    (lo.min(hi), hi)
}

/// A lane of a [`Tile`] that lands nowhere.
const SKIP: usize = usize::MAX;

/// `SL` consecutive positions of a grid laid out `pitch` apart — what one
/// [`gemm::shifted_tile`] computes — and the output element each lane
/// lands on, [`SKIP`] for the positions past a row's end.
struct Tile {
    at: usize,
    dest: [usize; SL],
    /// Every lane lands, on consecutive elements: the tile is one store.
    whole: bool,
}

/// The tiles covering a `rows × cols` grid laid out `pitch` apart, position
/// `(y, x)` landing on `dest(y, x)`. Each tile starts at the first position
/// the last one left uncovered: a row `SL` wide is one tile, and narrower
/// rows share one.
fn tiles(
    rows: usize,
    cols: usize,
    pitch: usize,
    dest: impl Fn(usize, usize) -> usize,
) -> Vec<Tile> {
    let mut tiles = Vec::new();
    let mut at = 0;
    while cols > 0 && at < rows * pitch {
        if at % pitch >= cols {
            at = at.next_multiple_of(pitch);
            continue;
        }
        let mut lanes = [SKIP; SL];
        for (j, lane) in lanes.iter_mut().enumerate() {
            let (y, x) = ((at + j) / pitch, (at + j) % pitch);
            if y < rows && x < cols {
                *lane = dest(y, x);
            }
        }
        let whole = lanes.iter().enumerate().all(|(j, &d)| d == lanes[0] + j);
        tiles.push(Tile {
            at,
            dest: lanes,
            whole,
        });
        at += SL;
    }
    tiles
}

/// One shifted product: `rows` outputs of `depth` taps, every tap reading
/// the source at its offset (plus the tile's position), over a grid of
/// tiles. The weights are packed tap-major `SR` rows at a time, the rows
/// past `rows` zero.
struct Shifted {
    w: Vec<Vec<[f32; SR]>>,
    offs: Vec<usize>,
    tiles: Vec<Tile>,
}

impl Shifted {
    fn new(
        rows: usize,
        offs: Vec<usize>,
        tiles: Vec<Tile>,
        w: impl Fn(usize, usize) -> f32,
    ) -> Self {
        let w = (0..rows.div_ceil(SR))
            .map(|g| {
                (0..offs.len())
                    .map(|k| {
                        std::array::from_fn(|r| {
                            let row = g * SR + r;
                            if row < rows {
                                w(row, k)
                            } else {
                                0.0
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        Shifted { w, offs, tiles }
    }

    /// Stores `seed(row)` plus the product on every tile's lanes of `out`
    /// (rows `plane` apart).
    fn run(&self, src: &[f32], seed: impl Fn(usize) -> f32, out: &mut [f32], plane: usize) {
        for (g, w) in self.w.iter().enumerate() {
            let seeds: [f32; SR] = std::array::from_fn(|r| seed(g * SR + r));
            for tile in &self.tiles {
                let mut acc = seeds.map(|s| [s; SL]);
                gemm::shifted_tile(w, &self.offs, src, tile.at, &mut acc);
                for (dst, lanes) in out[g * SR * plane..].chunks_exact_mut(plane).zip(&acc) {
                    if tile.whole {
                        dst[tile.dest[0]..][..SL].copy_from_slice(lanes);
                        continue;
                    }
                    for (&d, &v) in tile.dest.iter().zip(lanes) {
                        if d != SKIP {
                            dst[d] = v;
                        }
                    }
                }
            }
        }
    }
}

/// The input gradient's plan: `∂Y` zero-padded so every phase's taps read
/// it in place, and one [`Shifted`] product per stride phase.
struct InputGrad {
    /// Rows and columns of `∂Y`'s padding above and left of it.
    pad: (usize, usize),
    pitch: usize,
    plane: usize,
    phases: Vec<Shifted>,
    /// One sample's padded `∂Y`, `SL` floats of slack after it.
    dy: Vec<f32>,
}

impl InputGrad {
    fn new(g: &Geom, oc: usize, w: &[f32]) -> Self {
        let (ys, xs) = (g.axis_phases(g.h), g.axis_phases(g.w));
        // Room for the lowest read, `base − (taps − 1)`, and the highest,
        // `count − 1 + base`, of every phase, and for all of `∂Y`.
        let lo = |axes: &[PhaseAxis]| {
            let reach = axes.iter().map(|a| (a.taps - 1).saturating_sub(a.base));
            reach.max().unwrap_or(0)
        };
        let span = |axes: &[PhaseAxis], extent| {
            axes.iter()
                .map(|a| a.count + a.base)
                .fold(extent, usize::max)
        };
        let pad = (lo(&ys), lo(&xs));
        let (rows, pitch) = (pad.0 + span(&ys, g.oh), pad.1 + span(&xs, g.ow));
        let plane = rows * pitch;
        let (k, s, patch) = (g.k, g.stride, g.patch());
        let mut phases = Vec::new();
        for y in &ys {
            for x in &xs {
                // Depth `(o, t, u)`: output channel, then the phase's taps.
                let taps = y.taps * x.taps;
                let mut offs = Vec::with_capacity(oc * taps);
                for o in 0..oc {
                    for t in 0..y.taps {
                        for u in 0..x.taps {
                            let row = y.base + pad.0 - t;
                            offs.push(o * plane + row * pitch + x.base + pad.1 - u);
                        }
                    }
                }
                let at = |jy, jx| (y.first + s * jy) * g.w + x.first + s * jx;
                let tiles = tiles(y.count, x.count, pitch, at);
                phases.push(Shifted::new(g.c, offs, tiles, |ci, d| {
                    let (o, t, u) = (d / taps, d % taps / x.taps, d % x.taps);
                    let (ky, kx) = (y.tap0 + s * t, x.tap0 + s * u);
                    w[o * patch + (ci * k + ky) * k + kx]
                }));
            }
        }
        InputGrad {
            pad,
            pitch,
            plane,
            phases,
            dy: vec![0.0; oc * plane + SL],
        }
    }

    /// Writes one sample's `∂X` (`[C, H, W]`); pixels no tap reaches stay
    /// as they are.
    fn run(&mut self, g: &Geom, dy: &[f32], dx: &mut [f32]) {
        let from = (-(self.pad.0 as isize), -(self.pad.1 as isize));
        let planes = self.dy.chunks_exact_mut(self.plane);
        for (src, dst) in dy.chunks_exact(g.pixels()).zip(planes) {
            resample(src, (g.oh, g.ow), from, 1, dst, self.pitch);
        }
        for phase in &self.phases {
            phase.run(&self.dy, |_| 0.0, dx, g.h * g.w);
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
            cached: None,
            spare: Spare::default(),
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

    /// Checks an input shape and derives the convolution's extents from it.
    fn geom(&self, shape: &[usize]) -> (usize, Geom) {
        assert_eq!(
            shape.len(),
            4,
            "expected [N, C, H, W] tensor, got {shape:?}"
        );
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
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

    /// The forward pass, sample by sample: split into planes, multiplied
    /// into the sample's NCHW output in `out` (resized; every element is
    /// written) and, when `keep` is given, written channels-last into it
    /// while still in cache.
    fn conv_forward(
        &self,
        x: &Tensor,
        mut out: Vec<f32>,
        mut keep: Option<&mut Vec<f32>>,
    ) -> Tensor {
        let (n, g) = self.geom(x.shape());
        let plan = self.forward_plan(&g);
        let (oc, pixels, bias) = (self.out_c, g.pixels(), self.bias.value.data());
        let mut planes = vec![0.0f32; g.planes() + SL];
        out.resize(n * oc * pixels, 0.0);
        let samples = x.data().chunks_exact(g.sample());
        for (s, (xs, y)) in samples.zip(out.chunks_exact_mut(oc * pixels)).enumerate() {
            g.split(xs, &mut planes[..g.planes()]);
            let seed = |o: usize| bias.get(o).copied().unwrap_or(0.0);
            plan.run(&planes, seed, y, pixels);
            if let Some(keep) = keep.as_deref_mut() {
                let per = g.stacked_len();
                g.channels_last(xs, &mut keep[s * per..][..per]);
            }
        }
        Tensor::from_vec(out, &[n, oc, g.oh, g.ow])
    }

    /// The forward product: weights packed once a call, output channels
    /// against the split planes.
    fn forward_plan(&self, g: &Geom) -> Shifted {
        let (wd, patch, ow) = (self.weight.value.data(), g.patch(), g.ow);
        let tiles = tiles(g.oh, ow, g.pitch(), |y, x| y * ow + x);
        Shifted::new(self.out_c, g.tap_offsets(), tiles, |o, t| wd[o * patch + t])
    }

    /// The backward pass: accumulates `∂W`/`∂b` and, when `want_dx`, returns
    /// `∂L/∂input`. The samples' parameter gradients are summed, in sample
    /// order, into one partial that is then added to the parameters.
    fn conv_backward(&mut self, grad_out: Tensor, want_dx: bool) -> Option<Tensor> {
        let kept = self
            .cached
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (n, g) = self.geom(&kept.shape);
        let (oc, patch, pixels, k, c) = (self.out_c, g.patch(), g.pixels(), g.k, g.c);
        assert_eq!(
            grad_out.shape(),
            &[n, oc, g.oh, g.ow],
            "Conv2d: gradient shape mismatch"
        );
        let gd = grad_out.data();
        // `∂W`: output channels `SR` at a time, weighted by `∂Y`, against
        // `SL` of the `K·m·C` taps `(kx, j, c)` of kernel rows `ky .. ky +
        // m` at a time, over the output pixels — pixel `(y, x)`'s taps there
        // are the run of the channels-last copy from cell `(s·y + ky, s·x)`
        // on.
        let (wp, m, per) = (g.padded().1, g.stack(), g.stacked_len());
        let (cell, stacks) = (m * c, k.div_ceil(m));
        let offs: Vec<usize> = (0..g.oh)
            .flat_map(|y| (0..g.ow).map(move |x| (y * wp + x) * g.stride * cell))
            .collect();
        let (groups, runs) = (oc.div_ceil(SR), (k * cell).div_ceil(SL));
        let mut dwt = vec![[[0.0f32; SL]; SR]; groups * stacks * runs];
        let mut dbias = vec![[0.0f32; SR]; groups];
        let mut block = vec![[0.0f32; SR]; groups];
        // Pixel-major `∂Y`, `SR` channels at a time, zero past the last.
        let mut dyt = vec![[0.0f32; SR]; groups * pixels];
        let mut input_grad = want_dx.then(|| InputGrad::new(&g, oc, self.weight.value.data()));
        let mut dx = want_dx.then(|| self.spare.input_grad(n * g.sample()));

        for s in 0..n {
            let dy = &gd[s * oc * pixels..][..oc * pixels];
            // `SR` channels a store where there are that many.
            for (rows, lanes) in dy.chunks(SR * pixels).zip(dyt.chunks_exact_mut(pixels)) {
                if rows.len() == SR * pixels {
                    for (p, l) in lanes.iter_mut().enumerate() {
                        *l = std::array::from_fn(|r| rows[r * pixels + p]);
                    }
                } else {
                    for (r, row) in rows.chunks_exact(pixels).enumerate() {
                        for (l, &v) in lanes.iter_mut().zip(row) {
                            l[r] = v;
                        }
                    }
                }
            }
            // `∂b` is the plain sum over pixels of `∂Y` (the lowering's
            // `1.0·∂Y` is `∂Y`), in the depth blocks of the product.
            for p0 in (0..pixels).step_by(KC) {
                block.fill([0.0; SR]);
                for p in p0..pixels.min(p0 + KC) {
                    for (gi, acc) in block.iter_mut().enumerate() {
                        for (a, v) in acc.iter_mut().zip(dyt[gi * pixels + p]) {
                            *a += v;
                        }
                    }
                }
                for (d, acc) in dbias.iter_mut().zip(&block) {
                    for (d, a) in d.iter_mut().zip(acc) {
                        *d += a;
                    }
                }
            }
            let src = &kept.nhwc[s * per..];
            for (w, tiles) in dyt
                .chunks_exact(pixels)
                .zip(dwt.chunks_exact_mut(stacks * runs))
            {
                for (i, tile) in tiles.iter_mut().enumerate() {
                    let (ky, run) = (i / runs * m, i % runs);
                    gemm::shifted_tile(w, &offs, src, ky * wp * cell + run * SL, tile);
                }
            }
            if let (Some(grad), Some(dx)) = (input_grad.as_mut(), dx.as_deref_mut()) {
                grad.run(&g, dy, &mut dx[s * g.sample()..][..g.sample()]);
            }
        }

        let (dw, db) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        for (i, tile) in dwt.iter().enumerate() {
            let (gi, ky0, run) = (i / (stacks * runs), i / runs % stacks * m, i % runs);
            for (r, lanes) in tile.iter().enumerate() {
                for (lane, &v) in lanes.iter().enumerate() {
                    let (o, q) = (gi * SR + r, run * SL + lane);
                    let (kx, ky, ci) = (q / cell, ky0 + q / c % m, q % c);
                    if o < oc && kx < k && ky < k {
                        dw[o * patch + (ci * k + ky) * k + kx] += v;
                    }
                }
            }
        }
        for (o, b) in db.iter_mut().enumerate() {
            *b += dbias[o / SR][o % SR];
        }
        let shape = kept.shape;
        self.spare.out = grad_out.into_vec();
        dx.map(|dx| Tensor::from_vec(dx, &shape))
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        // Keep the input as the weight gradient reads it, in last step's
        // allocation while the sample's extents stay: its padding is 0
        // already, and only its pixels are rewritten.
        let (n, g) = self.geom(x.shape());
        let shape = [n, g.c, g.h, g.w];
        let mut nhwc = self
            .cached
            .take()
            .filter(|k| k.shape[1..] == shape[1..])
            .map(|k| k.nhwc)
            .unwrap_or_default();
        nhwc.resize(nhwc.len().max(n * g.stacked_len() + SL), 0.0);
        let out = std::mem::take(&mut self.spare.out);
        let y = self.conv_forward(&x, out, Some(&mut nhwc));
        self.cached = Some(Kept { shape, nhwc });
        self.spare.grad = x.into_vec();
        y
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.conv_forward(&x, Vec::new(), None)
    }

    fn work(&self, input: &[usize]) -> usize {
        let (oh, ow) = (self.out_extent(input[2]), self.out_extent(input[3]));
        input[0] * self.out_c * self.in_c * self.kernel * self.kernel * oh * ow
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.conv_backward(grad_out, true)
            .expect("input gradient was requested")
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        self.conv_backward(grad_out, false);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let y = conv.forward(x.clone());
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

                let y = conv.forward(x.clone());
                let y_ref = conv_naive(&x, &wv, &bv, k, stride, pad);
                assert_eq!(y.shape(), y_ref.shape(), "{at}");
                assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-4), "forward {at}");
                assert_eq!(conv.infer(x.clone()), y, "infer {at}");

                let dy = rng.uniform(y.shape(), -1.0, 1.0);
                let (dw_ref, db_ref, dx_ref) = conv_naive_backward(&x, &wv, &dy, k, stride, pad);
                let dx = conv.backward(dy.clone());
                assert!(fairdms_tensor::allclose(&dx, &dx_ref, 1e-4), "dx {at}");
                let (dw, db) = (conv.weight.grad.clone(), conv.bias.grad.clone());
                assert!(fairdms_tensor::allclose(&dw, &dw_ref, 1e-3), "dw {at}");
                assert!(fairdms_tensor::allclose(&db, &db_ref, 1e-3), "db {at}");

                // The params-only pass accumulates the same bits.
                conv.weight.zero_grad();
                conv.bias.zero_grad();
                conv.backward_params(dy.clone());
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
        let y = conv.forward(x.clone());
        let y_ref = conv_naive(&x, &conv.weight.value, &conv.bias.value, 5, 1, 2);
        assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-4));
        let dy = rng.uniform(y.shape(), -1.0, 1.0);
        let (_, _, dx_ref) = conv_naive_backward(&x, &conv.weight.value, &dy, 5, 1, 2);
        assert!(fairdms_tensor::allclose(
            &conv.backward(dy.clone()),
            &dx_ref,
            1e-4
        ));
    }

    #[test]
    fn image_smaller_than_its_padding_is_all_border() {
        let mut rng = TensorRng::seeded(7);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[3, 2, 1, 1], -1.0, 1.0);
        let y = conv.forward(x.clone());
        let y_ref = conv_naive(&x, &conv.weight.value, &conv.bias.value, 3, 1, 1);
        assert!(fairdms_tensor::allclose(&y, &y_ref, 1e-5));
        let dy = rng.uniform(y.shape(), -1.0, 1.0);
        let (dw_ref, _, dx_ref) = conv_naive_backward(&x, &conv.weight.value, &dy, 3, 1, 1);
        assert!(fairdms_tensor::allclose(
            &conv.backward(dy.clone()),
            &dx_ref,
            1e-5
        ));
        assert!(fairdms_tensor::allclose(&conv.weight.grad, &dw_ref, 1e-5));
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = TensorRng::seeded(1);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[1, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(x.clone());
        let gx = conv.backward(Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
        let g1 = conv.weight.grad.clone();
        conv.forward(x.clone());
        conv.backward(Tensor::ones(y.shape()));
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
        let y = conv.forward(x.clone());
        conv.backward(Tensor::ones(y.shape()));
        // 2 samples × 3×3 outputs = 18 ones summed into the single bias.
        assert!((conv.bias.grad.data()[0] - 18.0).abs() < 1e-4);
    }

    #[test]
    fn inference_leaves_the_backward_cache_alone() {
        let mut rng = TensorRng::seeded(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[4, 1, 5, 5], -1.0, 1.0);
        let y = conv.forward(x.clone());
        // A validation batch of another size in between…
        conv.infer(rng.uniform(&[3, 1, 5, 5], -1.0, 1.0));
        // …and backward still differentiates the training batch.
        assert_eq!(conv.backward(Tensor::ones(y.shape())).shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_channel_mismatch() {
        let mut rng = TensorRng::seeded(3);
        let conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        conv.infer(Tensor::zeros(&[1, 2, 5, 5]));
    }
}
