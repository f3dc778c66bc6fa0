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
//!   training pass writes that copy right after the sample's planes, while
//!   the sample is in cache ([`Geom::lay_out`]), and keeps it for the
//!   backward pass in place of the input; `∂b` is the plain per-channel sum
//!   of `∂Y`.
//! * The **input gradient** zero-pads `∂Y` once a sample and runs one
//!   shifted product per stride phase of the input pixels: phase pixels
//!   `(first_y + s·j, first_x + s·i)` receive exactly the taps `tap0 + s·t`,
//!   each reading the padded `∂Y` at a constant offset, input channels `SR`
//!   at a time. At stride 1 there is one phase, every pixel and every tap.
//!   Each `SR`-channel group of a sample's `∂Y` goes into the weight
//!   gradient's pixel-major copy and, while in cache, into the padded one.
//!   When the phases hold every input pixel (a stride no wider than the
//!   kernel), `∂X` is written whole and its storage is not zeroed first.
//!
//! What the training passes build from the input's extents alone — the
//! planes and the padded `∂Y` (whose padding stays 0: only pixels are
//! rewritten), the packed weights' storage, the tile lists, offsets and
//! index maps — is kept from step to step while those extents hold
//! ([`Scratch`]).
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
    scratch: Scratch,
}

/// The training pass's input as the weight gradient reads it: each sample
/// channels-last ([`Geom::lay_out`]), `SL` readable floats past the last
/// one.
#[derive(Clone)]
struct Kept {
    shape: [usize; 4],
    nhwc: Vec<f32>,
}

/// The training passes' per-call scratch, each part kept from one call to
/// the next while the input's extents stay those it was built for. A clone
/// starts empty: the storage is scratch, not state. [`Layer::infer`] builds
/// its own.
#[derive(Default)]
struct Scratch {
    forward: Option<Forward>,
    backward: Option<Backward>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// The extents of one convolution.
#[derive(Clone, Copy, PartialEq)]
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

    /// Floats of one channel's phase planes.
    fn channel_planes(&self) -> usize {
        self.tap_phases().pow(2) * self.plane()
    }

    /// Where each input row that some tap reads lands in its channel's
    /// planes: `(y, at)`, `at` the start of the phase-`(a, 0)` plane row
    /// holding padded row `y + pad`. Column phase `b` is [`Run::dst`] on
    /// from there.
    fn row_runs(&self) -> Vec<(usize, usize)> {
        let (s, phases, plane, pitch) =
            (self.stride, self.tap_phases(), self.plane(), self.pitch());
        (0..self.h)
            .filter_map(|y| {
                let (a, i) = ((y + self.pad) % s, (y + self.pad) / s);
                (a < phases && i < plane / pitch).then(|| (y, a * phases * plane + i * pitch))
            })
            .collect()
    }

    /// The runs one input row is split into, one per column phase `b`: the
    /// phase plane's columns `lo..hi` that read a pixel, the pixel of
    /// column `j` being `b − pad + s·j`. The same for every row.
    fn col_runs(&self) -> Vec<Run> {
        let (s, pad) = (self.stride, self.pad as isize);
        (0..self.tap_phases())
            .filter_map(|b| {
                let x0 = b as isize - pad;
                let (lo, hi) = inside(x0, s, self.w, self.pitch());
                (lo < hi).then(|| Run {
                    dst: b * self.plane() + lo,
                    src: (x0 + (s * lo) as isize) as usize,
                    len: hi - lo,
                })
            })
            .collect()
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

    /// Floats of one sample's channels-last copy.
    fn stacked_len(&self) -> usize {
        let (hp, wp) = self.padded();
        hp * wp * self.stack() * self.c
    }

    /// Lays one `[C, H, W]` sample out for the forward product — its phase
    /// planes in `planes`, each input row in whole runs — and, when `cl` is
    /// given, for the weight gradient: zero-padded and channels-last, `m` =
    /// [`Geom::stack`] padded rows a cell (`[H + 2p, W + 2p, m, C]`,
    /// element `(y, x, j, c)` being padded pixel `(y + j, x)`), so the taps
    /// `(kx, j, c)` of kernel rows `ky .. ky + m` at one output pixel are
    /// one run of `K·m·C` floats ([`Geom::cells`]). Only pixels are
    /// written: both copies' padding must already be 0, and stays so from
    /// sample to sample.
    fn lay_out(
        &self,
        (rows, cols): (&[(usize, usize)], &[Run]),
        x: &[f32],
        planes: &mut [f32],
        cl: Option<(&mut [f32], &mut Vec<f32>)>,
    ) {
        let (c, w, hw, s) = (self.c, self.w, self.h * self.w, self.stride);
        let per_channel = self.channel_planes();
        for (xc, dst) in x.chunks_exact(hw).zip(planes.chunks_exact_mut(per_channel)) {
            for &(y, at) in rows {
                for run in cols {
                    copy_run(
                        &mut dst[at + run.dst..][..run.len],
                        &xc[y * w + run.src..],
                        s,
                    );
                }
            }
        }
        let Some((cl, columns)) = cl else { return };
        // Eight channels a block while there are that many — one AVX
        // register a pixel — then one at a time.
        let mut ci = 0;
        while c - ci >= 8 {
            self.cells::<8>(x, ci, cl, columns);
            ci += 8;
        }
        for ci in ci..c {
            self.cells::<1>(x, ci, cl, columns);
        }
    }

    /// Writes channels `ci .. ci + N` of one sample into its channels-last
    /// copy `cl` ([`Geom::lay_out`]): the `N` channel planes transposed
    /// whole into `columns`, `N` floats a pixel, then moved into the cells a
    /// pixel a store. Whole planes keep the transpose one long loop, which
    /// the compiler vectorizes.
    fn cells<const N: usize>(&self, x: &[f32], ci: usize, cl: &mut [f32], columns: &mut Vec<f32>) {
        let (hw, w, pad, m, c) = (self.h * self.w, self.w, self.pad, self.stack(), self.c);
        let wp = self.padded().1;
        // Padded row `y + pad` is row `j` of the cells `j` above it.
        let at = |y: usize, j: usize| (((y + pad - j) * wp + pad) * m + j) * c + ci;
        if N == 1 {
            // One channel needs no transpose: each row straight into its
            // cells.
            for (y, row) in x[ci * hw..][..hw].chunks_exact(w).enumerate() {
                for j in 0..m.min(y + pad + 1) {
                    let cells = &mut cl[at(y, j)..][..(w - 1) * m * c + 1];
                    for (d, &v) in cells.iter_mut().step_by(m * c).zip(row) {
                        *d = v;
                    }
                }
            }
            return;
        }
        columns.resize(columns.len().max(N * hw), 0.0);
        let (columns, _) = columns[..N * hw].as_chunks_mut::<N>();
        interleave(std::array::from_fn(|i| &x[(ci + i) * hw..][..hw]), columns);
        for (y, row) in columns.chunks_exact(w).enumerate() {
            for j in 0..m.min(y + pad + 1) {
                let cells = &mut cl[at(y, j)..][..(w - 1) * m * c + N];
                for (x, column) in row.iter().enumerate() {
                    cells[x * m * c..][..N].copy_from_slice(column);
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

    /// Whether the input gradient's stride phases hold every input pixel,
    /// so that it writes every element of `∂X`: the phases of an axis are
    /// distinct residues mod the stride, so they cover it when their
    /// positions add up to its extent — at a stride no wider than the
    /// kernel. Otherwise the pixels between them get no tap and read 0.
    fn phases_cover(&self) -> bool {
        [self.h, self.w].into_iter().all(|extent| {
            let phases = self.axis_phases(extent);
            phases.iter().map(|a| a.count).sum::<usize>() == extent
        })
    }
}

/// One run of an input row in a channel's phase planes: `len` elements from
/// `dst` on, read from the row's column `src` on at the stride.
struct Run {
    dst: usize,
    src: usize,
    len: usize,
}

/// Copies `dst.len()` elements of `src` read `s` apart into `dst`.
fn copy_run(dst: &mut [f32], src: &[f32], s: usize) {
    if s == 1 {
        let src = &src[..dst.len()];
        // Whole `SL` runs as fixed-width moves, not a call each.
        let (mut to, mut from) = (dst.chunks_exact_mut(SL), src.chunks_exact(SL));
        for (d, v) in to.by_ref().zip(from.by_ref()) {
            d.copy_from_slice(v);
        }
        for (d, &v) in to.into_remainder().iter_mut().zip(from.remainder()) {
            *d = v;
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
            *d = v;
        }
    }
}

/// Transposes `N` equal rows into `dst`, one `N`-float column per
/// element: for `N` up to eight, a loop the compiler turns into wide
/// loads, shuffles and wide stores.
fn interleave<const N: usize>(rows: [&[f32]; N], dst: &mut [[f32; N]]) {
    let rows = rows.map(|r| &r[..dst.len()]);
    for (x, column) in dst.iter_mut().enumerate() {
        *column = std::array::from_fn(|r| rows[r][x]);
    }
}

/// Adds `G` channel groups' sums of their pixel-major `∂Y` over the pixels
/// into `dbias`: per group, a partial a `KC` block of pixels, summed in
/// ascending order from 0 and added in — the engine's order for the
/// lowering's row of ones. The `G` groups' sums run side by side, so their
/// adds overlap instead of waiting on one another.
fn sum_pixels<const G: usize>(dyt: &[[f32; SR]], dbias: &mut [[f32; SR]]) {
    let pixels = dyt.len() / G;
    let lanes: [&[[f32; SR]]; G] = std::array::from_fn(|g| &dyt[g * pixels..][..pixels]);
    for p0 in (0..pixels).step_by(KC) {
        let mut block = [[0.0f32; SR]; G];
        for p in p0..pixels.min(p0 + KC) {
            for (acc, lane) in block.iter_mut().zip(&lanes) {
                for (a, v) in acc.iter_mut().zip(lane[p]) {
                    *a += v;
                }
            }
        }
        for (total, acc) in dbias.iter_mut().zip(&block) {
            for (t, a) in total.iter_mut().zip(acc) {
                *t += a;
            }
        }
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
/// past `rows` zero, into storage that outlives the call, from the layer's
/// weight through a map worked out once.
struct Shifted {
    w: Vec<Vec<[f32; SR]>>,
    /// Where each packed weight is read in the layer's weight, group by
    /// group, tap by tap; [`SKIP`] for the rows past `rows`.
    from: Vec<[usize; SR]>,
    offs: Vec<usize>,
    tiles: Vec<Tile>,
}

impl Shifted {
    /// The product's plan, row `r`'s tap `k` being the layer's weight
    /// `at(r, k)`; every weight is 0 until [`Shifted::pack`].
    fn new(
        rows: usize,
        offs: Vec<usize>,
        tiles: Vec<Tile>,
        at: impl Fn(usize, usize) -> usize,
    ) -> Self {
        let groups = rows.div_ceil(SR);
        let from = (0..groups * offs.len())
            .map(|i| {
                let (g, k) = (i / offs.len(), i % offs.len());
                std::array::from_fn(|r| {
                    if g * SR + r < rows {
                        at(g * SR + r, k)
                    } else {
                        SKIP
                    }
                })
            })
            .collect();
        Shifted {
            w: vec![vec![[0.0; SR]; offs.len()]; groups],
            from,
            offs,
            tiles,
        }
    }

    /// Packs the layer's weight `w`.
    fn pack(&mut self, w: &[f32]) {
        let packed = self.w.iter_mut().flatten();
        for (lanes, from) in packed.zip(&self.from) {
            *lanes = from.map(|at| if at == SKIP { 0.0 } else { w[at] });
        }
    }

    /// [`Shifted::run`]'s tile calls alone, on `src`, storing nothing.
    fn bare(&self, src: &[f32]) {
        for w in &self.w {
            for tile in &self.tiles {
                let mut acc = [[0.0; SL]; SR];
                gemm::shifted_tile(w, &self.offs, src, tile.at, &mut acc);
                std::hint::black_box(&acc);
            }
        }
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

/// The forward pass's plan: the product, where an input row lands in the
/// planes, one sample's planes (`SL` readable floats past them), and the
/// columns a block of channels is transposed into on its way to the
/// channels-last copy ([`Geom::cells`]).
struct Forward {
    g: Geom,
    product: Shifted,
    rows: Vec<(usize, usize)>,
    cols: Vec<Run>,
    planes: Vec<f32>,
    columns: Vec<f32>,
}

impl Forward {
    fn new(g: &Geom, oc: usize) -> Self {
        let ow = g.ow;
        let tiles = tiles(g.oh, ow, g.pitch(), |y, x| y * ow + x);
        Forward {
            g: *g,
            product: Shifted::new(oc, g.tap_offsets(), tiles, |o, t| o * g.patch() + t),
            rows: g.row_runs(),
            cols: g.col_runs(),
            planes: vec![0.0; g.channel_planes() * g.c + SL],
            columns: Vec::new(),
        }
    }
}

/// The backward pass's plan and accumulators.
struct Backward {
    g: Geom,
    /// Where output pixel `(y, x)`'s taps start in a sample's channels-last
    /// copy: cell `(s·y, s·x)`.
    offs: Vec<usize>,
    /// Where each of an output-channel group's `∂Wᵀ` tiles — per stack of
    /// `m` kernel rows `ky ..`, per `SL` run of their taps — reads from
    /// pixel `(0, 0)`'s: cell `(ky, 0)`, the run's first tap.
    bases: Vec<usize>,
    /// Pixel-major `∂Y`, `SR` channels at a time, zero past the last.
    dyt: Vec<[f32; SR]>,
    /// `∂Wᵀ`'s tiles: per output-channel group, per stack of kernel rows,
    /// per `SL` run of its taps.
    dwt: Vec<[[f32; SL]; SR]>,
    /// Where each tile's lane adds into `∂W`, [`SKIP`] for the lanes past
    /// the last output channel or tap.
    dw_at: Vec<[[usize; SL]; SR]>,
    /// `∂b` per output-channel group.
    dbias: Vec<[f32; SR]>,
    /// Built by the first pass that wants `∂X`.
    input_grad: Option<InputGrad>,
}

impl Backward {
    fn new(g: &Geom, oc: usize) -> Self {
        let (wp, cell) = (g.padded().1, g.stack() * g.c);
        let offs = (0..g.oh)
            .flat_map(|y| (0..g.ow).map(move |x| (y * wp + x) * g.stride * cell))
            .collect();
        let (m, c, k, patch) = (g.stack(), g.c, g.k, g.patch());
        let (groups, stacks, runs) = (oc.div_ceil(SR), k.div_ceil(m), (k * cell).div_ceil(SL));
        // Tile `(group, stack, run)`'s lane `r, l` is tap `q = run·SL + l` =
        // `(kx, j, c)` of kernel row `stack·m + j`, for output channel
        // `group·SR + r`.
        let bases = (0..stacks * runs)
            .map(|i| i / runs * m * wp * cell + i % runs * SL)
            .collect();
        let dw_at = (0..groups * stacks * runs)
            .map(|i| {
                let (gi, ky0, run) = (i / (stacks * runs), i / runs % stacks * m, i % runs);
                std::array::from_fn(|r| {
                    std::array::from_fn(|lane| {
                        let (o, q) = (gi * SR + r, run * SL + lane);
                        let (kx, ky, ci) = (q / cell, ky0 + q / c % m, q % c);
                        let inside = o < oc && kx < k && ky < k;
                        if inside {
                            o * patch + (ci * k + ky) * k + kx
                        } else {
                            SKIP
                        }
                    })
                })
            })
            .collect();
        Backward {
            g: *g,
            offs,
            bases,
            dyt: vec![[0.0; SR]; groups * g.pixels()],
            dwt: vec![[[0.0; SL]; SR]; groups * stacks * runs],
            dw_at,
            dbias: vec![[0.0; SR]; groups],
            input_grad: None,
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
    fn new(g: &Geom, oc: usize) -> Self {
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
        let s = g.stride;
        let mut phases = Vec::new();
        for y in &ys {
            for x in &xs {
                // Depth `(o, t, u)`: output channel, then the phase's taps.
                let mut offs = Vec::with_capacity(oc * y.taps * x.taps);
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
                // Input channel `ci`'s depth `(o, t, u)` is tap `(tap0_y +
                // s·t, tap0_x + s·u)` of the weight of output channel `o`.
                let taps = y.taps * x.taps;
                let at = |ci, d| {
                    let (o, t, u) = (d / taps, d % taps / x.taps, d % x.taps);
                    let (ky, kx) = (y.tap0 + s * t, x.tap0 + s * u);
                    o * g.patch() + (ci * g.k + ky) * g.k + kx
                };
                phases.push(Shifted::new(g.c, offs, tiles, at));
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

    /// Packs each phase's weights from the layer's `w`.
    fn pack(&mut self, w: &[f32]) {
        for phase in &mut self.phases {
            phase.pack(w);
        }
    }

    /// Where row `y` of output channel `o` of `∂Y` goes in the padded copy.
    fn row(&mut self, o: usize, y: usize, ow: usize) -> &mut [f32] {
        let at = o * self.plane + (self.pad.0 + y) * self.pitch + self.pad.1;
        &mut self.dy[at..][..ow]
    }

    /// Writes one sample's `∂X` (`[C, H, W]`) from the padded `∂Y` its
    /// rows were copied into; pixels no tap reaches stay as they are.
    fn run(&self, g: &Geom, dx: &mut [f32]) {
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
            scratch: Scratch::default(),
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

    /// The forward pass, sample by sample: laid out in `plan`'s planes —
    /// and, when `keep` is given, channels-last into it — then multiplied
    /// into the sample's NCHW output in `out` (resized; every element is
    /// written). The weights are packed once a call.
    fn conv_forward(
        &self,
        x: &Tensor,
        plan: &mut Forward,
        mut out: Vec<f32>,
        mut keep: Option<&mut Vec<f32>>,
    ) -> Tensor {
        let (n, g) = self.geom(x.shape());
        plan.product.pack(self.weight.value.data());
        let (oc, pixels, bias) = (self.out_c, g.pixels(), self.bias.value.data());
        let seed = |o: usize| bias.get(o).copied().unwrap_or(0.0);
        let per = g.stacked_len();
        out.resize(n * oc * pixels, 0.0);
        let samples = x.data().chunks_exact(g.sample());
        for (s, (xs, y)) in samples.zip(out.chunks_exact_mut(oc * pixels)).enumerate() {
            let cl = keep
                .as_deref_mut()
                .map(|k| (&mut k[s * per..][..per], &mut plan.columns));
            g.lay_out((&plan.rows, &plan.cols), xs, &mut plan.planes, cl);
            plan.product.run(&plan.planes, seed, y, pixels);
        }
        Tensor::from_vec(out, &[n, oc, g.oh, g.ow])
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
        let (oc, pixels, ow) = (self.out_c, g.pixels(), g.ow);
        assert_eq!(
            grad_out.shape(),
            &[n, oc, g.oh, ow],
            "Conv2d: gradient shape mismatch"
        );
        let gd = grad_out.data();
        let mut plan = self
            .scratch
            .backward
            .take()
            .filter(|b| b.g == g)
            .unwrap_or_else(|| Backward::new(&g, oc));
        // `∂W`: output channels `SR` at a time, weighted by `∂Y`, against
        // `SL` of the `K·m·C` taps `(kx, j, c)` of kernel rows `ky .. ky +
        // m` at a time, over the output pixels — pixel `(y, x)`'s taps there
        // are the run of the channels-last copy from cell `(s·y + ky, s·x)`
        // on.
        let per = g.stacked_len();
        plan.dwt.fill([[0.0; SL]; SR]);
        plan.dbias.fill([0.0; SR]);
        let Backward {
            offs,
            bases,
            dyt,
            dwt,
            dw_at,
            dbias,
            input_grad,
            ..
        } = &mut plan;
        let mut input_grad = want_dx.then(|| {
            let grad = input_grad.get_or_insert_with(|| InputGrad::new(&g, oc));
            grad.pack(self.weight.value.data());
            grad
        });
        // Every element of `∂X` is written when the stride phases hold
        // every input pixel; otherwise the pixels between them read 0.
        let mut dx = want_dx.then(|| match g.phases_cover() {
            true => self.spare.overwritten_grad(n * g.sample()),
            false => self.spare.input_grad(n * g.sample()),
        });

        for s in 0..n {
            let dy = &gd[s * oc * pixels..][..oc * pixels];
            // Each group of `SR` channels of `∂Y` into its pixel-major copy —
            // four rows a transpose where there are that many — and, while
            // they are in cache, row by row into the padded one.
            for (gi, rows) in dy.chunks(SR * pixels).enumerate() {
                let lanes = &mut dyt[gi * pixels..][..pixels];
                let channels = rows.len() / pixels;
                let channel = |r: usize| &rows[r * pixels..][..pixels];
                if channels == SR {
                    interleave(std::array::from_fn(channel), lanes);
                } else {
                    for r in 0..channels {
                        for (lane, &v) in lanes.iter_mut().zip(channel(r)) {
                            lane[r] = v;
                        }
                    }
                }
                if let Some(grad) = input_grad.as_deref_mut() {
                    for r in 0..channels {
                        for (y, row) in channel(r).chunks_exact(ow).enumerate() {
                            grad.row(gi * SR + r, y, ow).copy_from_slice(row);
                        }
                    }
                }
            }
            // `∂b` is the plain sum over pixels of `∂Y` (the lowering's
            // `1.0·∂Y` is `∂Y`), four channel groups at a time, then two,
            // then one.
            let (groups, mut gi) = (dbias.len(), 0);
            while groups - gi >= 4 {
                sum_pixels::<4>(&dyt[gi * pixels..][..4 * pixels], &mut dbias[gi..][..4]);
                gi += 4;
            }
            if groups - gi >= 2 {
                sum_pixels::<2>(&dyt[gi * pixels..][..2 * pixels], &mut dbias[gi..][..2]);
                gi += 2;
            }
            if groups > gi {
                sum_pixels::<1>(&dyt[gi * pixels..][..pixels], &mut dbias[gi..][..1]);
            }
            let src = &kept.nhwc[s * per..];
            for (w, tiles) in dyt
                .chunks_exact(pixels)
                .zip(dwt.chunks_exact_mut(bases.len()))
            {
                for (tile, &base) in tiles.iter_mut().zip(bases.iter()) {
                    gemm::shifted_tile(w, offs, src, base, tile);
                }
            }
            if let (Some(grad), Some(dx)) = (input_grad.as_deref(), dx.as_deref_mut()) {
                grad.run(&g, &mut dx[s * g.sample()..][..g.sample()]);
            }
        }

        let (dw, db) = (self.weight.grad.data_mut(), self.bias.grad.data_mut());
        for (tile, at) in dwt.iter().zip(dw_at.iter()) {
            for (&v, &at) in tile.iter().flatten().zip(at.iter().flatten()) {
                if at != SKIP {
                    dw[at] += v;
                }
            }
        }
        for (o, b) in db.iter_mut().enumerate() {
            *b += dbias[o / SR][o % SR];
        }
        let shape = kept.shape;
        self.scratch.backward = Some(plan);
        self.spare.out = grad_out.into_vec();
        dx.map(|dx| Tensor::from_vec(dx, &shape))
    }

    /// The register-tile calls of the last training passes alone, storing
    /// nothing: the forward product's, or the weight gradient's and — once
    /// the layer has computed one — the input gradient's, as many times as
    /// the last batch had samples, each reading the last sample's operands
    /// as the passes laid them out. What a pass would cost if its layout,
    /// packing and stores were free: the kernels bench times the layer
    /// against it.
    #[doc(hidden)]
    pub fn bare_tiles(&self, backward: bool) {
        let kept = self.cached.as_ref().expect("no training forward pass yet");
        let (n, g) = self.geom(&kept.shape);
        if !backward {
            let plan = self
                .scratch
                .forward
                .as_ref()
                .expect("kept by the forward pass");
            (0..n).for_each(|_| plan.product.bare(&plan.planes));
            return;
        }
        let plan = self
            .scratch
            .backward
            .as_ref()
            .expect("no backward pass yet");
        let src = &kept.nhwc[(n - 1) * g.stacked_len()..];
        for _ in 0..n {
            for w in plan.dyt.chunks_exact(g.pixels()) {
                for &base in &plan.bases {
                    let mut acc = [[0.0; SL]; SR];
                    gemm::shifted_tile(w, &plan.offs, src, base, &mut acc);
                    std::hint::black_box(&acc);
                }
            }
            if let Some(grad) = &plan.input_grad {
                for phase in &grad.phases {
                    phase.bare(&grad.dy);
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        // Keep the input as the weight gradient reads it, in last step's
        // allocation while the sample's extents stay: its padding is 0
        // already, and only its pixels are rewritten. So are the planes'.
        let (n, g) = self.geom(x.shape());
        let shape = [n, g.c, g.h, g.w];
        let mut nhwc = self
            .cached
            .take()
            .filter(|k| k.shape[1..] == shape[1..])
            .map(|k| k.nhwc)
            .unwrap_or_default();
        nhwc.resize(nhwc.len().max(n * g.stacked_len() + SL), 0.0);
        let mut plan = self
            .scratch
            .forward
            .take()
            .filter(|f| f.g == g)
            .unwrap_or_else(|| Forward::new(&g, self.out_c));
        let out = std::mem::take(&mut self.spare.out);
        let y = self.conv_forward(&x, &mut plan, out, Some(&mut nhwc));
        self.scratch.forward = Some(plan);
        self.cached = Some(Kept { shape, nhwc });
        self.spare.grad = x.into_vec();
        y
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let (_, g) = self.geom(x.shape());
        self.conv_forward(&x, &mut Forward::new(&g, self.out_c), Vec::new(), None)
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
    fn bare_tiles_change_nothing_the_passes_compute() {
        let mut rng = TensorRng::seeded(8);
        let mut conv = Conv2d::new(3, 5, 3, 2, 1, &mut rng);
        let mut twin = conv.clone();
        let x = rng.uniform(&[2, 3, 7, 9], -1.0, 1.0);
        let dy = rng.uniform(&[2, 5, 4, 5], -1.0, 1.0);
        for _ in 0..2 {
            let y = conv.forward(x.clone());
            conv.bare_tiles(false);
            let dx = conv.backward(dy.clone());
            conv.bare_tiles(true);
            assert_eq!(y.data(), twin.forward(x.clone()).data());
            assert_eq!(dx.data(), twin.backward(dy.clone()).data());
        }
        assert_eq!(conv.weight.grad.data(), twin.weight.grad.data());
        assert_eq!(conv.bias.grad.data(), twin.bias.grad.data());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn rejects_channel_mismatch() {
        let mut rng = TensorRng::seeded(3);
        let conv = Conv2d::new(3, 1, 3, 1, 0, &mut rng);
        conv.infer(Tensor::zeros(&[1, 2, 5, 5]));
    }
}
