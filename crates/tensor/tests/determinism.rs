//! Determinism regression tests for the blocked GEMM engine.
//!
//! The engine's contract is **bit-identical output for identical inputs**,
//! regardless of thread count, of whether the sequential or parallel
//! dispatch path runs, and of which other rows share the batch. The
//! embedding cache's cached-vs-uncached bit-identity proptest
//! (`crates/core/tests/proptest_reuse.rs`) rests on exactly this invariant:
//! a cache hit replays bytes produced by an earlier forward pass, possibly
//! computed at a different batch size or pool width, and must equal what
//! embedding the row today would produce.
//!
//! A product splits when its work clears the gate (`m·k·n ≥ PAR_MIN_WORK`
//! and `m ≥ 2·MC`), across as many workers as the pool it runs in is wide:
//! on a one-wide pool it runs on the calling thread. So every pool-width
//! case here is sized above the gate — checked at compile time — and runs
//! at width 1 against widths of two and more.
//!
//! Every assertion here is `assert_eq!` on raw `f32` buffers — tolerance
//! has no place in these tests.

use fairdms_tensor::gemm::{self, PackedB, MC};
use fairdms_tensor::ops::{self, PAR_MIN_WORK};
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Runs `f` on a rayon pool of the given width.
fn on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Whether an `[m×k]·[k×n]` product splits on a pool two or more wide.
const fn splits(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= PAR_MIN_WORK && m >= 2 * MC
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // Edges off every tile multiple: 263 rows (MR = 4, MC = 32), two depth
    // blocks (KC = 256), 251 columns (NR = 8).
    const M: usize = 263;
    const K: usize = 259;
    const N: usize = 251;
    const { assert!(splits(M, K, N)) };
    let mut rng = TensorRng::seeded(101);
    let a = rng.uniform(&[M, K], -2.0, 2.0);
    let b = rng.uniform(&[K, N], -2.0, 2.0);
    let reference = on_pool(1, || gemm::matmul(&a, &b));
    for threads in [2usize, 3, 8] {
        let got = on_pool(threads, || gemm::matmul(&a, &b));
        assert_eq!(
            reference.data(),
            got.data(),
            "matmul differs at {threads} threads"
        );
    }
}

#[test]
fn all_entry_points_are_bit_identical_across_thread_counts() {
    const M: usize = 301;
    const K: usize = 263;
    const N: usize = 215;
    const { assert!(splits(M, K, N)) };
    let mut rng = TensorRng::seeded(202);
    let a = rng.uniform(&[M, K], -2.0, 2.0);
    let b = rng.uniform(&[K, N], -2.0, 2.0);
    let bt = b.transpose();
    let at = a.transpose();
    let bias = rng.uniform(&[N], -1.0, 1.0);
    let packed = PackedB::pack_transposed(&bt);
    let (an, bn) = (
        ops::row_sq_norms(a.data(), K),
        ops::row_sq_norms(bt.data(), K),
    );

    let all = || {
        let mut acc = vec![0.5f32; M * N];
        gemm::matmul_acc(M, K, N, a.data(), b.data(), &mut acc);
        let mut transa = vec![0.5f32; M * N];
        gemm::matmul_transa_acc(&at, &b, &mut transa);
        let mut dists = vec![0.0f32; M * N];
        gemm::sq_dist_into(M, K, N, a.data(), bt.data(), &an, &bn, &mut dists);
        let mut packed_dists = vec![0.0f32; M * N];
        gemm::sq_dist_packed_into(M, a.data(), &packed, &an, &bn, &mut packed_dists);
        [
            gemm::matmul(&a, &b).data().to_vec(),
            acc,
            transa,
            gemm::matmul_transb_bias(&a, &bt, &bias).data().to_vec(),
            gemm::matmul_packed_bias(&a, &packed, &bias).data().to_vec(),
            dists,
            packed_dists,
        ]
    };
    let names = [
        "matmul",
        "matmul_acc",
        "matmul_transa_acc",
        "matmul_transb_bias",
        "matmul_packed_bias",
        "sq_dist_into",
        "sq_dist_packed_into",
    ];
    let reference = on_pool(1, all);
    for threads in [2usize, 7] {
        let got = on_pool(threads, all);
        for ((name, want), got) in names.iter().zip(&reference).zip(&got) {
            assert_eq!(want, got, "{name} @ {threads}");
        }
    }
}

#[test]
fn sequential_and_parallel_dispatch_are_bit_identical() {
    // One shape below the gate (no pool splits it) and one above (a
    // one-wide pool runs it on this thread, a two-wide one splits it);
    // either path must give the same bits, and the region count says
    // which path ran.
    const BELOW: (usize, usize, usize) = (37, 45, 29);
    const ABOVE: (usize, usize, usize) = (150, 381, 300);
    const { assert!(!splits(BELOW.0, BELOW.1, BELOW.2) && splits(ABOVE.0, ABOVE.1, ABOVE.2)) };
    let mut rng = TensorRng::seeded(303);
    for (m, k, n) in [BELOW, ABOVE] {
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let (at, bt) = (a.transpose(), b.transpose());
        let bias = Tensor::zeros(&[n]);
        let products = || {
            let before = rayon::regions_opened();
            let mut transa = vec![0.0f32; m * n];
            gemm::matmul_transa_acc(&at, &b, &mut transa);
            let out = [
                gemm::matmul(&a, &b).data().to_vec(),
                gemm::matmul_transb_bias(&a, &bt, &bias).data().to_vec(),
                transa,
            ];
            (out, rayon::regions_opened() - before)
        };
        let (seq, seq_regions) = on_pool(1, products);
        let (par, par_regions) = on_pool(2, products);
        assert_eq!(seq_regions, 0, "a one-wide pool splits nothing");
        let split = splits(m, k, n);
        assert_eq!(par_regions, if split { 3 } else { 0 }, "at {m}x{k}x{n}");
        assert_eq!(seq[0], par[0], "matmul seq vs par at {m}x{k}x{n}");
        assert_eq!(seq[1], par[1], "transb seq vs par at {m}x{k}x{n}");
        assert_eq!(seq[2], par[2], "transa seq vs par at {m}x{k}x{n}");
    }
}

#[test]
fn row_subsets_are_bit_identical_to_full_batch_rows() {
    // The EmbedCache contract in miniature: embedding a gathered subset of
    // rows must produce byte-for-byte the same vectors as those rows of the
    // full-batch product. Holds because each output row's accumulation
    // order is a function of (that row of A, B) only — independent of m,
    // of panel position, and of which threads run.
    let mut rng = TensorRng::seeded(404);
    let a = rng.uniform(&[160, 48], -2.0, 2.0);
    let b = rng.uniform(&[48, 120], -2.0, 2.0);
    let full = gemm::matmul(&a, &b);

    for subset in [vec![0usize], vec![5, 17, 93], (0..160).step_by(7).collect()] {
        let sub_a = a.gather_rows(&subset);
        let sub = gemm::matmul(&sub_a, &b);
        for (j, &i) in subset.iter().enumerate() {
            assert_eq!(
                full.row(i),
                sub.row(j),
                "row {i} differs when embedded in a {}-row batch",
                subset.len()
            );
        }
    }
}

#[test]
fn fused_bias_is_bit_identical_to_unfused_broadcast() {
    let mut rng = TensorRng::seeded(505);
    for (m, k, n) in [(9usize, 33usize, 17usize), (140, 64, 150)] {
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let w = rng.uniform(&[n, k], -2.0, 2.0);
        let bias = rng.uniform(&[n], -1.0, 1.0);
        let fused = gemm::matmul_transb_bias(&a, &w, &bias);
        let mut unfused = gemm::matmul(&a, &w.transpose());
        unfused.add_row_broadcast(&bias);
        assert_eq!(
            fused.data(),
            unfused.data(),
            "fused bias differs at {m}x{k}x{n}"
        );
    }
}

#[test]
fn repeated_calls_are_bit_identical() {
    // Same inputs, same process, many calls: scratch-buffer recycling
    // (packed panels, transpose scratch) must never leak state between
    // calls of different shapes.
    let mut rng = TensorRng::seeded(606);
    let a1 = rng.uniform(&[50, 300], -2.0, 2.0);
    let b1 = rng.uniform(&[300, 40], -2.0, 2.0);
    let a2 = rng.uniform(&[7, 5], -2.0, 2.0);
    let b2 = rng.uniform(&[5, 3], -2.0, 2.0);
    let first_big = gemm::matmul(&a1, &b1);
    let first_small = gemm::matmul(&a2, &b2);
    for _ in 0..3 {
        // Interleave shapes so each call inherits the other's scratch.
        assert_eq!(gemm::matmul(&a2, &b2).data(), first_small.data());
        assert_eq!(gemm::matmul(&a1, &b1).data(), first_big.data());
    }
}

#[test]
fn hash_of_large_product_is_stable_across_widths() {
    // Belt-and-braces: fold the whole output through the repo's fnv-style
    // hasher at several widths; any reassociation anywhere flips the hash.
    const M: usize = 389;
    const K: usize = 197;
    const N: usize = 227;
    const { assert!(splits(M, K, N)) };
    let mut rng = TensorRng::seeded(707);
    let a = rng.uniform(&[M, K], -2.0, 2.0);
    let b = rng.uniform(&[K, N], -2.0, 2.0);
    let digest = |t: &Tensor| fairdms_tensor::hash::hash_row(t.data());
    let h1 = on_pool(1, || digest(&gemm::matmul(&a, &b)));
    for threads in [2usize, 4, 8] {
        let h = on_pool(threads, || digest(&gemm::matmul(&a, &b)));
        assert_eq!(h1, h, "digest differs at {threads} threads");
    }
}
