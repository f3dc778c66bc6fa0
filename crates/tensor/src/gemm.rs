//! The blocked GEMM engine: cache-blocked, panel-packed, register-tiled
//! dense matrix multiplication.
//!
//! Every dense layer's forward and backward pass, every embedding-cache
//! miss and every K-means or read-index distance in this workspace bottoms
//! out in one of three dense products (`A×B`, `A×Bᵀ`, `Aᵀ×B`), and
//! `results/BENCH_embed_cache.json` showed the naive row-loop kernel paying
//! ~4 ms per cache-miss batch. This module replaces that loop with the
//! standard high-performance GEMM decomposition (Goto/BLIS-style), portable
//! to stable Rust without intrinsics:
//!
//! * **Cache blocking.** The product is computed in `[MC×KC] × [KC×NC]`
//!   blocks so the working set of the inner loops stays resident: one
//!   packed B block (≤ `KC×NC` floats) per L2/L3, one `NR`-wide B panel
//!   (`KC×NR` floats) per L1, `MR` rows of A streamed through registers.
//! * **B-panel packing.** Each `[KC×NC]` block of B is repacked once into
//!   contiguous `NR`-wide column panels (k-major inside a panel, zero-padded
//!   at the right edge), so the micro-kernel's inner loop reads one
//!   contiguous, aligned `[f32; NR]` row per k step regardless of B's
//!   original layout — which is also what lets `matmul_transb_bias` run at
//!   full speed without materializing `Bᵀ`: transposition happens during
//!   the pack, touching each element once. An operand that outlives many
//!   products is packed once instead ([`PackedB`]): the block loop then
//!   borrows its panels, and everything from there on is the same code.
//! * **Register micro-kernel.** An `MR×NR` accumulator array of plain
//!   `f32` lives entirely in registers; the hand-unrolled `NR`-wide inner
//!   statements autovectorize on stable rustc (the accumulator array is
//!   exactly the shape LLVM's SLP vectorizer wants). No `std::arch`
//!   intrinsics, no nightly `portable_simd` — the offline shim toolchain
//!   stays buildable everywhere.
//! * **Deterministic parallelism.** Rayon parallelizes over contiguous
//!   row ranges of C only, in **one parallel region per call**: each worker
//!   runs the whole block loop (packing included) over its own rows, so a
//!   deep product never pays a region per depth block. Each output row is
//!   always accumulated by exactly one task in a **fixed order** —
//!   ascending k within a `KC` block, blocks in ascending order,
//!   accumulator flushed into C once per block — so the result is
//!   bit-identical regardless of thread count, pool width, or whether the
//!   sequential or parallel dispatch ran. The embedding cache's
//!   cached-vs-uncached bit-identity contract (DESIGN.md §8) rests on this:
//!   a row's embedding must not depend on which batch, which thread, or
//!   which panel position computed it.
//!
//! The entry points are the products something runs: [`matmul`] and
//! [`matmul_acc`] (`A×B`: a dense layer's `∂X`), [`matmul_transb_bias`]
//! and [`matmul_packed_bias`] (`A×Bᵀ + bias`: a dense layer's forward
//! pass, per call or against frozen panels), [`matmul_transa_acc`] (`Aᵀ×B`
//! added into C: a dense layer's `∂W`), [`sq_dist_into`] and
//! [`sq_dist_packed_into`] (`‖aᵢ − bⱼ‖²`: K-means assignment and the read
//! index), and the convolution's register tile [`shifted_tile`]. A call's
//! work alone decides whether it splits ([`PAR_MIN_WORK`]); the rayon pool
//! it runs in decides how wide.
//!
//! Because blocked accumulation *reassociates* floating-point sums relative
//! to a naive `j`-inner loop, agreement with [`matmul_naive`] is a
//! relative-tolerance contract, not bit equality (see DESIGN.md §9) —
//! determinism of the blocked kernel itself is exact.
//!
//! [`matmul_naive`]: crate::ops::matmul_naive

use crate::ops::PAR_MIN_WORK;
use crate::Tensor;
use rayon::prelude::*;
use std::cell::Cell;

/// Row-panel height: rows of C (and A) swept across one packed B block
/// before moving to the next, sized so a panel's A rows (`MC×KC` floats ≈
/// 32 KiB) sit in L2.
pub const MC: usize = 32;

/// Depth block: k-extent of one packed B block (`KC×NR` floats ≈ 8 KiB per
/// L1-resident panel).
pub const KC: usize = 256;

/// Column block: n-extent of one packed B block (`KC×NC` floats ≈ 256 KiB,
/// L2/L3-resident, repacked once and reused by every row panel).
pub const NC: usize = 256;

/// Micro-kernel rows: A values broadcast per k step. Four rows give the
/// SLP vectorizer four independent `[f32; NR]` accumulator chains — wider
/// tiles were measured slower here because the deeper zip chains defeat
/// vectorization of the inner statements.
pub const MR: usize = 4;

/// Micro-kernel columns: width of one packed B panel and of each
/// accumulator row — 8 f32 lanes, one AVX2 vector, the unroll the inner
/// statements are written for.
pub const NR: usize = 8;

/// How the B operand is stored; the pack step normalizes both layouts into
/// identical panels, so everything downstream is layout-oblivious.
#[derive(Clone, Copy)]
enum BSrc<'a> {
    /// Row-major `[k, n]`.
    Normal(&'a [f32]),
    /// Row-major `[n, k]`; the logical operand is its transpose.
    Transposed(&'a [f32]),
    /// Already in panels: the pack step borrows them.
    Packed(&'a PackedB),
}

/// A right-hand operand packed once, for as long as it lives: the panels
/// `gemm_rows` would build from it on every call, block after block in
/// the order the block loop walks them. A product against it runs the same
/// loop, macro-kernel and accumulation order as a product against the
/// unpacked operand — every result is that product's, bit for bit — and
/// skips the pack step; parallel workers share the one copy.
///
/// For an operand that outlives many products: a published network's
/// weights, the read index's embedding blocks. Whoever owns one owns the
/// source it was packed from and must drop it when the source changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Column blocks of `NC` in ascending order; within one, depth blocks
    /// of `KC` in ascending order, each laid out as [`pack_b`] writes it.
    data: Vec<f32>,
}

impl PackedB {
    /// Packs `b`, stored `[n, k]` (the operand of [`matmul_transb_bias`]).
    pub fn pack_transposed(b: &Tensor) -> PackedB {
        let (n, k) = dims2(b, "PackedB::pack_transposed: B");
        PackedB::pack_src(BSrc::Transposed(b.data()), k, n)
    }

    /// Slice-level [`PackedB::pack_transposed`]: `rows` is `[n, k]` flat.
    /// `k` of zero packs no rows.
    pub fn from_rows(k: usize, rows: &[f32]) -> PackedB {
        let n = rows.len().checked_div(k).unwrap_or(0);
        assert_eq!(rows.len(), n * k, "PackedB::from_rows: ragged rows");
        PackedB::pack_src(BSrc::Transposed(rows), k, n)
    }

    fn pack_src(b: BSrc<'_>, k: usize, n: usize) -> PackedB {
        let mut data = Vec::with_capacity(n.next_multiple_of(NR) * k);
        let mut block = Vec::new();
        for jc in (0..n).step_by(NC) {
            let nc_b = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc_b = KC.min(k - pc);
                data.extend_from_slice(pack_b(b, k, n, pc, kc_b, jc, nc_b, &mut block));
            }
        }
        PackedB { k, n, data }
    }

    /// Depth of the operand (rows of the logical `[k, n]` matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the logical `[k, n]` operand — rows packed so far, for
    /// one built with [`PackedB::from_rows`] and [`PackedB::push_row`].
    pub fn n(&self) -> usize {
        self.n
    }

    /// Where the `[pc..pc+kc_b, jc..jc+nc_b]` block sits in `data`. Every
    /// column block before `jc` is full (`NC·k` floats, `NC` being whole
    /// panels), and every depth block before `pc` holds this column
    /// block's panels `KC` deep.
    fn block_range(
        k: usize,
        jc: usize,
        nc_b: usize,
        pc: usize,
        kc_b: usize,
    ) -> std::ops::Range<usize> {
        let lanes = nc_b.next_multiple_of(NR);
        let start = jc * k + lanes * pc;
        start..start + lanes * kc_b
    }

    /// Appends one column to the logical operand — one more row of the
    /// `[n, k]` storage [`PackedB::from_rows`] packs — leaving exactly the
    /// panels a from-scratch pack of all the rows yields. The row lands in
    /// one lane of one panel per depth block: O(k), plus, for an operand
    /// deeper than `KC`, a shift of the last column block whenever a row
    /// opens a new panel.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.k, "PackedB::push_row: row width");
        let k = self.k;
        let jc = self.n / NC * NC;
        let col = self.n - jc;
        let lane = col % NR;
        if lane == 0 {
            // A new zeroed panel at the end of every depth block of the
            // last column block, deepest first so the offsets still hold.
            let mut end = self.data.len();
            for pc in (0..k).step_by(KC).rev() {
                let kc_b = KC.min(k - pc);
                self.data
                    .splice(end..end, std::iter::repeat_n(0.0, kc_b * NR));
                end -= col * kc_b;
            }
        }
        for pc in (0..k).step_by(KC) {
            let kc_b = KC.min(k - pc);
            let block = PackedB::block_range(k, jc, col + 1, pc, kc_b);
            let panel = &mut self.data[block][col / NR * kc_b * NR..];
            for (dst, &x) in panel.chunks_exact_mut(NR).zip(&row[pc..pc + kc_b]) {
                dst[lane] = x;
            }
        }
        self.n += 1;
    }
}

/// Fused operation applied exactly once per output element, when the
/// **final** depth block's accumulator flushes into C — the epilogue
/// position. Earlier depth blocks always flush with `Epilogue::None`, so
/// the transform sees the completed dot product.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// Plain GEMM: flush the accumulator, nothing else.
    None,
    /// `C[i,j] += bias[j]` (row-broadcast bias of the dense layers).
    Bias(&'a [f32]),
    /// `C[i,j] = max(a_norms[i] + b_norms[j] − 2·C[i,j], 0)`: turns the
    /// accumulated dot product into the squared Euclidean distance
    /// `‖aᵢ − bⱼ‖²` via the norm expansion, clamped at zero against the
    /// catastrophic cancellation the expansion suffers for near-identical
    /// rows. The result is a *pruning-grade* distance (relative-tolerance
    /// agreement with [`crate::ops::sq_dist`], not bit equality) — exact
    /// consumers must re-derive the winner with `sq_dist` afterwards.
    SqDist {
        a_norms: &'a [f32],
        b_norms: &'a [f32],
    },
}

thread_local! {
    /// Packed-B scratch, one per thread, recycled across calls so steady
    /// state GEMM performs no allocations beyond the output itself.
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Scratch for the pre-transposed A of [`matmul_transa_acc`].
    static TRANS_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `C = A × B` through the blocked engine.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul: A");
    let (k2, n) = dims2(b, "matmul: B");
    assert_eq!(k, k2, "matmul: inner dimensions {k} vs {k2} differ");
    let mut out = vec![0.0f32; m * n];
    matmul_acc(m, k, n, a.data(), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice-level `C += A × B` (`A` `[m, k]`, `B` `[k, n]`, `C` `[m, n]`, all
/// row-major): the engine's accumulate-into-C flush made public, so a
/// caller can seed `C` (a bias, an earlier partial sum) and write the
/// product straight into a slice of a larger buffer.
pub fn matmul_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_acc: A extent");
    assert_eq!(b.len(), k * n, "matmul_acc: B extent");
    assert_eq!(c.len(), m * n, "matmul_acc: C extent");
    gemm_driver(m, k, n, a, BSrc::Normal(b), Epilogue::None, c);
}

/// Pairwise squared Euclidean distances `D[i,j] = ‖aᵢ − bⱼ‖²` between the
/// rows of `A` (`[m, k]`) and the rows of `B` (`[n, k]`), written into
/// caller-owned scratch `out` (`[m, n]`), so a steady-state read path
/// recycles one buffer instead of allocating per probe batch (the §9
/// scratch-recycling contract). One `A × Bᵀ` GEMM with the norm expansion
/// `‖a‖² + ‖b‖² − 2·a·b` fused into the epilogue — no second pass over the
/// output, no materialized dot-product matrix. `out` is fully overwritten;
/// its previous contents are irrelevant.
///
/// `a_norms`/`b_norms` are the precomputed squared row norms (see
/// [`crate::ops::row_sq_norms`]); callers cache them alongside the rows so
/// repeated distance evaluations pay only the GEMM.
///
/// The result is clamped at zero but **reassociated**: agreement with a
/// per-pair [`crate::ops::sq_dist`] loop is a relative-tolerance contract
/// (the norm expansion cancels catastrophically for near-identical rows).
/// Exact consumers — the read index's bit-identity protocol — use these
/// values only to *bound* candidates and recompute the survivors with
/// `sq_dist`.
#[allow(clippy::too_many_arguments)]
pub fn sq_dist_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    a_norms: &[f32],
    b_norms: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "sq_dist_into: A extent");
    assert_eq!(b.len(), n * k, "sq_dist_into: B extent");
    assert_eq!(a_norms.len(), m, "sq_dist_into: a_norms length");
    assert_eq!(b_norms.len(), n, "sq_dist_into: b_norms length");
    assert_eq!(out.len(), m * n, "sq_dist_into: output extent");
    out.fill(0.0);
    let epilogue = Epilogue::SqDist { a_norms, b_norms };
    gemm_driver(m, k, n, a, BSrc::Transposed(b), epilogue, out);
}

/// `C = A × Bᵀ + bias` (`B` stored `[n, k]`) with the row-broadcast bias
/// folded into the GEMM epilogue: the transpose happens inside the pack
/// step, never materialized, and the bias is added exactly once per
/// element, when the final depth block's accumulator is flushed — no
/// second pass over `[m, n]`.
///
/// Bit-identical to [`matmul`] of the explicit transpose followed by
/// [`Tensor::add_row_broadcast`]: both layouts pack into the same panels,
/// and both orderings add the bias as one final operation after the full
/// accumulation.
pub fn matmul_transb_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_transb_bias: A");
    let (n, k2) = dims2(b, "matmul_transb_bias: B");
    assert_eq!(k, k2, "matmul_transb_bias: inner dimensions differ");
    assert_eq!(
        bias.numel(),
        n,
        "matmul_transb_bias: bias length {} must equal output columns {n}",
        bias.numel()
    );
    let mut out = vec![0.0f32; m * n];
    let (b, epilogue) = (BSrc::Transposed(b.data()), Epilogue::Bias(bias.data()));
    gemm_driver(m, k, n, a.data(), b, epilogue, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A × B + bias` against a [`PackedB`]: [`matmul_transb_bias`] of the
/// `[n, k]` operand it was packed from, bit for bit, without the pack
/// step — the forward pass of a frozen dense layer.
pub fn matmul_packed_bias(a: &Tensor, b: &PackedB, bias: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_packed_bias: A");
    assert_eq!(k, b.k, "matmul_packed_bias: inner dimensions differ");
    assert_eq!(
        bias.numel(),
        b.n,
        "matmul_packed_bias: bias length {} must equal output columns {}",
        bias.numel(),
        b.n
    );
    let mut out = vec![0.0f32; m * b.n];
    let epilogue = Epilogue::Bias(bias.data());
    gemm_driver(m, k, b.n, a.data(), BSrc::Packed(b), epilogue, &mut out);
    Tensor::from_vec(out, &[m, b.n])
}

/// [`sq_dist_into`] against the rows packed into `b`
/// ([`PackedB::from_rows`]): the same distances, bit for bit, without the
/// pack step. `b_norms` are those rows' squared norms.
pub fn sq_dist_packed_into(
    m: usize,
    a: &[f32],
    b: &PackedB,
    a_norms: &[f32],
    b_norms: &[f32],
    out: &mut [f32],
) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "sq_dist_packed_into: A extent");
    assert_eq!(a_norms.len(), m, "sq_dist_packed_into: a_norms length");
    assert_eq!(b_norms.len(), n, "sq_dist_packed_into: b_norms length");
    assert_eq!(out.len(), m * n, "sq_dist_packed_into: output extent");
    out.fill(0.0);
    let epilogue = Epilogue::SqDist { a_norms, b_norms };
    gemm_driver(m, k, n, a, BSrc::Packed(b), epilogue, out);
}

/// `C += Aᵀ × B` (`A` stored `[k, m]`, `B` `[k, n]`) into the row-major
/// `[m, n]` slice `c`; see [`matmul_acc`].
///
/// A is pre-transposed once into recycled thread-local scratch — an
/// O(k·m) copy against the O(m·k·n) product — so the macro-kernel always
/// streams unit-stride A rows and the accumulation order (hence the
/// result) is exactly that of [`matmul_acc`] on the explicit transpose.
/// Each depth block of `KC` flushes into `c` once: over a depth of at
/// most [`KC`], accumulating into `c` gives the bits of adding in a
/// separate product; a deeper one adds into `c` block by block.
pub fn matmul_transa_acc(a: &Tensor, b: &Tensor, c: &mut [f32]) {
    let (k, m) = dims2(a, "matmul_transa_acc: A");
    let (k2, n) = dims2(b, "matmul_transa_acc: B");
    assert_eq!(
        k, k2,
        "matmul_transa_acc: inner dimensions {k} vs {k2} differ"
    );
    assert_eq!(c.len(), m * n, "matmul_transa_acc: C extent");
    let mut at = TRANS_A.with(Cell::take);
    at.clear();
    at.resize(m * k, 0.0);
    let ad = a.data();
    for (p, a_row) in ad.chunks_exact(m).enumerate() {
        for (i, &v) in a_row.iter().enumerate() {
            at[i * k + p] = v;
        }
    }
    gemm_driver(m, k, n, &at, BSrc::Normal(b.data()), Epilogue::None, c);
    TRANS_A.with(|c| c.set(at));
}

/// Rank-2 extents with a uniform panic message.
fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "{what} must be rank-2");
    (t.shape()[0], t.shape()[1])
}

/// The dispatch driver: settles the degenerate shapes, decides from the
/// work whether to split, and runs [`gemm_rows`] once on the calling thread
/// or once per worker over contiguous row ranges — one parallel region per
/// call, whatever the depth.
fn gemm_driver(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BSrc<'_>,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Degenerate depth: the product is all-zero; the fused epilogue
        // still owes its transform over the zero dot products.
        match epilogue {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                for row in out.chunks_mut(n) {
                    for (o, &bv) in row.iter_mut().zip(bias) {
                        *o += bv;
                    }
                }
            }
            Epilogue::SqDist { a_norms, b_norms } => {
                for (i, row) in out.chunks_mut(n).enumerate() {
                    for (o, &bn) in row.iter_mut().zip(b_norms) {
                        *o = (a_norms[i] + bn).max(0.0);
                    }
                }
            }
        }
        return;
    }

    // Split only with enough work to win back a region, and enough rows
    // that the workers' private repacks of B (`k·n` each) stay small
    // beside their `rows·k·n` of arithmetic: an eight-row product eight
    // thousand deep is all repack, and splitting it doubles the cost. Rows
    // per worker come in whole register tiles, as many workers as the pool
    // is wide; a one-wide pool hands them all to this thread. Where a row
    // lands — which worker, which panel, interior tile or tail — never
    // changes its bits, so the split is free to follow the pool width.
    let rows_per_task = if m * k * n >= PAR_MIN_WORK && m >= 2 * MC {
        m.div_ceil(rayon::current_num_threads())
            .next_multiple_of(MR)
    } else {
        m
    };
    if rows_per_task >= m {
        gemm_rows(k, n, a, 0, b, epilogue, out);
    } else {
        out.par_chunks_mut(rows_per_task * n)
            .enumerate()
            .for_each(|(ti, c_rows)| {
                gemm_rows(k, n, a, ti * rows_per_task, b, epilogue, c_rows);
            });
    }
}

/// The block loop over the C rows `row_base ..` held in `c_rows`: takes one
/// `[KC×NC]` block of B at a time in panels ([`pack_b`]) and sweeps it
/// across every `MC`-row panel. The epilogue is handed to the macro-kernel
/// only for the final depth block — every earlier block flushes plain.
/// Parallel workers each pack an unpacked operand for themselves: the copy
/// is `k·n` against `rows·k·n` multiply–adds, and it buys a region per
/// call instead of one per block. A [`PackedB`] they share.
fn gemm_rows(
    k: usize,
    n: usize,
    a: &[f32],
    row_base: usize,
    b: BSrc<'_>,
    epilogue: Epilogue<'_>,
    c_rows: &mut [f32],
) {
    let k_blocks = k.div_ceil(KC);
    let mut scratch = PACK_B.with(Cell::take);
    let mut jc = 0;
    while jc < n {
        let nc_b = NC.min(n - jc);
        for kb in 0..k_blocks {
            let pc = kb * KC;
            let kc_b = KC.min(k - pc);
            let packed = pack_b(b, k, n, pc, kc_b, jc, nc_b, &mut scratch);
            // The epilogue rides on the last depth block only.
            let ep = if kb + 1 == k_blocks {
                epilogue
            } else {
                Epilogue::None
            };
            for (pi, c_panel) in c_rows.chunks_mut(MC * n).enumerate() {
                let row0 = row_base + pi * MC;
                macro_kernel(a, k, row0, c_panel, n, packed, kc_b, pc, jc, nc_b, ep);
            }
        }
        jc += NC;
    }
    PACK_B.with(|c| c.set(scratch));
}

/// The `[pc..pc+kc_b, jc..jc+nc_b]` block of B in `NR`-wide column panels:
/// panel `t` holds columns `jc + t·NR ..`, stored k-major
/// (`packed[t·kc_b·NR + p·NR + v] = B[pc+p, jc + t·NR + v]`), zero-padded
/// past the right edge so the micro-kernel never branches on column count.
/// A [`PackedB`] lends the panels it holds; any other operand is packed
/// into `scratch`.
#[allow(clippy::too_many_arguments)]
fn pack_b<'s>(
    b: BSrc<'s>,
    k: usize,
    n: usize,
    pc: usize,
    kc_b: usize,
    jc: usize,
    nc_b: usize,
    scratch: &'s mut Vec<f32>,
) -> &'s [f32] {
    if let BSrc::Packed(b) = b {
        return &b.data[PackedB::block_range(k, jc, nc_b, pc, kc_b)];
    }
    let panels = nc_b.div_ceil(NR);
    // Every lane of a full panel is overwritten below, so only the edge
    // panel's padding needs zeroing — no sweep over the whole block.
    scratch.resize(panels * kc_b * NR, 0.0);
    for t in 0..panels {
        let j0 = jc + t * NR;
        let jw = NR.min(jc + nc_b - j0);
        let dst_panel = &mut scratch[t * kc_b * NR..(t + 1) * kc_b * NR];
        if jw < NR {
            dst_panel.fill(0.0);
        }
        match b {
            BSrc::Normal(bd) if jw == NR => {
                // Fixed-width rows: each copy is one vector move, not a
                // `memcpy` call sized at run time.
                for (p, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
                    let off = (pc + p) * n + j0;
                    dst.copy_from_slice(&bd[off..off + NR]);
                }
            }
            BSrc::Normal(bd) => {
                for (p, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
                    let off = (pc + p) * n + j0;
                    dst[..jw].copy_from_slice(&bd[off..off + jw]);
                }
            }
            BSrc::Transposed(bd) => {
                // Stored [n, k]: logical B[p, j] = bd[j*k + p]. Walk each
                // source row (contiguous in k) once, scattering into the
                // k-major panel — every element touched exactly once.
                for (v, j) in (j0..j0 + jw).enumerate() {
                    let src = &bd[j * k + pc..j * k + pc + kc_b];
                    for (p, &x) in src.iter().enumerate() {
                        dst_panel[p * NR + v] = x;
                    }
                }
            }
            BSrc::Packed(_) => unreachable!("lent above"),
        }
    }
    scratch
}

/// Updates one `MC`-row panel of C with one packed `[KC×NC]` block of B:
/// `MR×NR` register tiles over the interior, single-row tiles over the
/// row tail — both accumulating each output row in the identical order
/// (ascending k, accumulator flushed once), so tile position never
/// changes a row's floating-point result.
// `inline(never)`: folded into `gemm_rows`' block loop, the micro-kernels
// lose their SLP vectorization (measured 4 GFLOP/s against 50) — the
// kernel CI floor in `benches/kernels.rs` is the guard.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn macro_kernel(
    a: &[f32],
    k: usize,
    row0: usize,
    c_panel: &mut [f32],
    n: usize,
    packed: &[f32],
    kc_b: usize,
    pc: usize,
    jc: usize,
    nc_b: usize,
    epilogue: Epilogue<'_>,
) {
    let rows = c_panel.len() / n;
    let panels = nc_b.div_ceil(NR);
    for t in 0..panels {
        let j0 = jc + t * NR;
        let jw = NR.min(jc + nc_b - j0);
        let bpanel = &packed[t * kc_b * NR..(t + 1) * kc_b * NR];
        let mut r = 0;
        while r + MR <= rows {
            micro_kernel_mr(
                a,
                k,
                row0 + r,
                pc,
                kc_b,
                bpanel,
                c_panel,
                n,
                r,
                j0,
                jw,
                epilogue,
            );
            r += MR;
        }
        while r < rows {
            micro_kernel_1(
                a,
                k,
                row0 + r,
                pc,
                kc_b,
                bpanel,
                c_panel,
                n,
                r,
                j0,
                jw,
                epilogue,
            );
            r += 1;
        }
    }
}

/// Applies the epilogue transform to the `jw`-wide slice of output row
/// `grow` (the *global* C row index, which selects `a_norms[grow]`) after
/// the final depth block's accumulator has been added in.
#[inline]
fn apply_epilogue(crow: &mut [f32], epilogue: Epilogue<'_>, grow: usize, j0: usize) {
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for (o, &bv) in crow.iter_mut().zip(&bias[j0..]) {
                *o += bv;
            }
        }
        Epilogue::SqDist { a_norms, b_norms } => {
            let an = a_norms[grow];
            for (o, &bn) in crow.iter_mut().zip(&b_norms[j0..]) {
                *o = (an + bn - 2.0 * *o).max(0.0);
            }
        }
    }
}

/// The `MR×NR` register tile: `MR` A rows against one B panel. The
/// accumulator array is `MR` rows of `[f32; NR]` — exactly the shape the
/// SLP vectorizer turns into `MR` vector registers — and the inner loop is
/// one broadcast-multiply-accumulate per row per k step.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_mr(
    a: &[f32],
    k: usize,
    arow0: usize,
    pc: usize,
    kc_b: usize,
    bpanel: &[f32],
    c_panel: &mut [f32],
    n: usize,
    r: usize,
    j0: usize,
    jw: usize,
    epilogue: Epilogue<'_>,
) {
    let arow = |r: usize| {
        let base = (arow0 + r) * k + pc;
        &a[base..base + kc_b]
    };
    let (a0, a1, a2, a3) = (arow(0), arow(1), arow(2), arow(3));
    let mut acc = [[0.0f32; NR]; MR];
    // Pure-iterator walk: `chunks_exact` + `zip` let the optimizer drop
    // every per-iteration bounds check, which is what keeps the loop at
    // vector throughput instead of branch throughput.
    let ks = bpanel
        .chunks_exact(NR)
        .zip(a0.iter().zip(a1).zip(a2.iter().zip(a3)));
    for (bv, ((&a0p, &a1p), (&a2p, &a3p))) in ks {
        let bv: &[f32; NR] = bv.try_into().expect("NR panel");
        let av = [a0p, a1p, a2p, a3p];
        for (accr, &a_rp) in acc.iter_mut().zip(&av) {
            for (x, &bj) in accr.iter_mut().zip(bv) {
                *x += a_rp * bj;
            }
        }
    }
    for (ri, accr) in acc.iter().enumerate() {
        let base = (r + ri) * n + j0;
        let crow = &mut c_panel[base..base + jw];
        for (o, &x) in crow.iter_mut().zip(accr) {
            *o += x;
        }
        apply_epilogue(crow, epilogue, arow0 + ri, j0);
    }
}

/// Single-row tile for the panel's row tail. Accumulation order per output
/// element is identical to [`micro_kernel_mr`] — `[f32; NR]` accumulator,
/// ascending k, one flush — so a row computes the same bits whether it
/// lands in an interior tile or the tail.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel_1(
    a: &[f32],
    k: usize,
    arow: usize,
    pc: usize,
    kc_b: usize,
    bpanel: &[f32],
    c_panel: &mut [f32],
    n: usize,
    r: usize,
    j0: usize,
    jw: usize,
    epilogue: Epilogue<'_>,
) {
    let a0 = &a[arow * k + pc..arow * k + pc + kc_b];
    let mut acc = [0.0f32; NR];
    for (bv, &a_rp) in bpanel.chunks_exact(NR).zip(a0) {
        let bv: &[f32; NR] = bv.try_into().expect("NR panel");
        for (x, &bj) in acc.iter_mut().zip(bv) {
            *x += a_rp * bj;
        }
    }
    let base = r * n + j0;
    let crow = &mut c_panel[base..base + jw];
    for (o, &x) in crow.iter_mut().zip(&acc) {
        *o += x;
    }
    apply_epilogue(crow, epilogue, arow, j0);
}

/// Output rows of a [`shifted_tile`]: output channels in a convolution's
/// forward pass and weight gradient, input channels in its input gradient.
/// Four rows of `SL` lanes keep eight AVX2 accumulators; eight rows, in a
/// standalone probe, lost the vectorization (3 GFLOP/s against 44).
pub const SR: usize = 4;

/// Lanes of a [`shifted_tile`]: consecutive elements of the shifted
/// operand — output pixels in a convolution's forward pass and input
/// gradient, kernel taps in its weight gradient.
pub const SL: usize = 16;

/// The convolution's register tile: `out[r][j] += Σ_k w[k][r] ·
/// src[base + offs[k] + j]` — `SR` rows of weights, packed depth-major,
/// against `SL` consecutive elements of the source at each depth step's
/// offset. Each of a convolution's three products is this tile over a
/// zero-padded copy of one operand in which what the lanes need is one
/// run: a tap's reads over an output row (forward pass, input gradient),
/// or a pixel's taps along a kernel row, channels last (weight gradient).
/// The operand is read where it lies, with no patch matrix and no packed
/// panel.
///
/// The per-element order is the engine's: the accumulator starts at
/// `0.0`, takes the depth in ascending order, and is added into `out` once
/// per `KC` steps — so a caller that seeds `out` as the engine's output
/// was seeded gets the engine's product of the lowered operands, bit for
/// bit. The caller keeps `SL` readable elements past every `base +
/// offs[k]`; lanes it does not keep may read anything.
// Constant-bound index loops over a `[[f32; SL]; SR]` accumulator are
// what the SLP vectorizer turns into whole-register multiply–adds;
// iterator-chain forms of the same tile lost most of that.
#[allow(clippy::needless_range_loop)]
pub fn shifted_tile(
    w: &[[f32; SR]],
    offs: &[usize],
    src: &[f32],
    base: usize,
    out: &mut [[f32; SL]; SR],
) {
    assert_eq!(w.len(), offs.len(), "shifted_tile: one offset per tap");
    for (wb, ob) in w.chunks(KC).zip(offs.chunks(KC)) {
        let mut acc = [[0.0f32; SL]; SR];
        for (wk, &off) in wb.iter().zip(ob) {
            let x: &[f32; SL] = src[base + off..][..SL].try_into().expect("SL lanes");
            for r in 0..SR {
                let (wr, acc) = (wk[r], &mut acc[r]);
                for j in 0..SL {
                    acc[j] += wr * x[j];
                }
            }
        }
        for r in 0..SR {
            for j in 0..SL {
                out[r][j] += acc[r][j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allclose_rel, ops, rng::TensorRng};

    const RTOL: f32 = 1e-5;
    const ATOL: f32 = 1e-6;

    /// [`sq_dist_into`] into a fresh `[m, n]` buffer.
    fn sq_dist_matrix(a: &Tensor, b: &Tensor, a_norms: &[f32], b_norms: &[f32]) -> Vec<f32> {
        let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[0]);
        let mut out = vec![0.0f32; m * n];
        sq_dist_into(m, k, n, a.data(), b.data(), a_norms, b_norms, &mut out);
        out
    }

    #[test]
    fn blocked_matches_naive_across_tile_edges() {
        // Shapes straddling every tile parameter: MR/NR/MC/KC/NC edges.
        let cases = [
            (1, 1, 1),
            (MR, NR, KC),
            (MR + 1, NR + 1, KC + 1),
            (MC - 1, KC - 1, NC - 1),
            (MC + 1, 7, NC + 3),
            (2 * MC, KC, NR),
            (3, 2 * KC + 5, 2 * NR + 3),
        ];
        for &(m, k, n) in &cases {
            let mut rng = TensorRng::seeded((m * 31 + k * 7 + n) as u64);
            let a = rng.uniform(&[m, k], -1.0, 1.0);
            let b = rng.uniform(&[k, n], -1.0, 1.0);
            assert!(
                allclose_rel(&matmul(&a, &b), &ops::matmul_naive(&a, &b), RTOL, ATOL),
                "mismatch at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn forced_threading_modes_are_bit_identical() {
        // Above the split gate: a one-wide pool runs the product on this
        // thread, a two-wide one splits it across workers.
        let (m, k, n) = (150, 381, 300);
        const { assert!(150 * 381 * 300 >= PAR_MIN_WORK && 150 >= 2 * MC) };
        let on_pool = |threads: usize, a: &Tensor, b: &Tensor| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| matmul(a, b))
        };
        let mut rng = TensorRng::seeded(5);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let seq = on_pool(1, &a, &b);
        let par = on_pool(2, &a, &b);
        assert_eq!(
            seq, par,
            "sequential and parallel dispatch must agree bitwise"
        );
        assert_eq!(seq, matmul(&a, &b));
    }

    #[test]
    fn fused_bias_is_bit_identical_to_broadcast() {
        let mut rng = TensorRng::seeded(9);
        let x = rng.uniform(&[33, 70], -1.0, 1.0);
        let w = rng.uniform(&[19, 70], -1.0, 1.0);
        let bias = rng.uniform(&[19], -0.5, 0.5);
        let fused = matmul_transb_bias(&x, &w, &bias);
        let mut unfused = matmul(&x, &w.transpose());
        unfused.add_row_broadcast(&bias);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn zero_depth_product_is_bias_only() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[2, 0]);
        let bias = Tensor::from_vec(vec![1.5, -2.5], &[2]);
        let y = matmul_transb_bias(&a, &b, &bias);
        assert_eq!(y.shape(), &[3, 2]);
        for r in 0..3 {
            assert_eq!(y.row(r), bias.data());
        }
        assert!(matmul(&Tensor::zeros(&[3, 0]), &Tensor::zeros(&[0, 2]))
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn sq_dist_matrix_matches_pairwise_loop() {
        // Shapes straddling the tile edges, like the GEMM agreement test.
        for &(m, k, n) in &[(1, 1, 1), (5, 9, 3), (MC + 1, KC + 3, NR + 1), (33, 16, 70)] {
            let mut rng = TensorRng::seeded((m * 13 + k * 5 + n) as u64);
            let a = rng.uniform(&[m, k], -1.0, 1.0);
            let b = rng.uniform(&[n, k], -1.0, 1.0);
            let an = ops::row_sq_norms(a.data(), k);
            let bn = ops::row_sq_norms(b.data(), k);
            let d = sq_dist_matrix(&a, &b, &an, &bn);
            for (i, &ani) in an.iter().enumerate() {
                for (j, &bnj) in bn.iter().enumerate() {
                    let exact = ops::sq_dist(a.row(i), b.row(j));
                    let got = d[i * n + j];
                    assert!(got >= 0.0, "negative distance at ({i},{j})");
                    let tol = 1e-4 * (ani + bnj) + 1e-6;
                    assert!(
                        (got - exact).abs() <= tol,
                        "({i},{j}): fused {got} vs exact {exact} (tol {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn sq_dist_into_recycles_scratch_bit_identically() {
        let mut rng = TensorRng::seeded(17);
        let (m, k, n) = (9, 40, 21);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[n, k], -1.0, 1.0);
        let an = ops::row_sq_norms(a.data(), k);
        let bn = ops::row_sq_norms(b.data(), k);
        let mut first = vec![f32::NAN; m * n];
        sq_dist_into(m, k, n, a.data(), b.data(), &an, &bn, &mut first);
        // A dirty buffer, then the same buffer again: same bits.
        let mut second = first.clone();
        second.reverse();
        for _ in 0..2 {
            sq_dist_into(m, k, n, a.data(), b.data(), &an, &bn, &mut second);
            assert_eq!(first, second, "scratch reuse changed bits");
        }
    }

    #[test]
    fn sq_dist_row_subset_is_bit_identical_to_full_batch() {
        // The read index slices query groups out of a batch; each row's
        // distances must not depend on which rows ride along.
        let mut rng = TensorRng::seeded(23);
        let (m, k, n) = (12, 33, 17);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[n, k], -1.0, 1.0);
        let an = ops::row_sq_norms(a.data(), k);
        let bn = ops::row_sq_norms(b.data(), k);
        let full = sq_dist_matrix(&a, &b, &an, &bn);
        for i in [0usize, 5, 11] {
            let one = Tensor::from_vec(a.row(i).to_vec(), &[1, k]);
            let d1 = sq_dist_matrix(&one, &b, &an[i..i + 1], &bn);
            assert_eq!(d1, &full[i * n..(i + 1) * n], "row {i}");
        }
    }

    #[test]
    fn sq_dist_zero_depth_is_norm_sum() {
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[3, 0]);
        let d = sq_dist_matrix(&a, &b, &[1.0, 2.0], &[0.5, 0.0, 4.0]);
        assert_eq!(d, &[1.5, 1.0, 5.0, 2.5, 2.0, 6.0]);
    }
}
