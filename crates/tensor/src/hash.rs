//! Fast content hashing of tensor rows.
//!
//! The data-reuse plane (DESIGN.md §8) keys its embedding memo table on
//! the *content* of each incoming image row: a repeated experiment frame
//! must map to the same cache slot no matter which batch it arrives in.
//! The hash here is the fast first stage of that lookup — a 64-bit
//! mix over the row's `f32` bit patterns plus its length — and is always
//! followed by a full-row equality check at the caller, so a (rare)
//! 64-bit collision can never alias two distinct frames.
//!
//! Design notes:
//!
//! * Hashing works on `f32::to_bits`, i.e. the exact byte content. Two
//!   rows hash equal only when they are bit-identical — which is also the
//!   only case the memo table may treat them as the same frame, because
//!   embeddings are exact functions of the bits. (`-0.0` vs `0.0` and
//!   NaN payloads therefore hash *differently*; that is deliberate —
//!   equality-of-bits is the cache contract, not numeric equality.)
//! * The mixer is a wyhash-style multiply–xor–shift over one `u64` (two
//!   lanes) at a time: ~1 mul per 8 bytes, far cheaper than byte-wise
//!   FNV on the 900-byte rows of a 15×15 detector patch, and with full
//!   avalanche so shard selection can use the low bits.

use crate::ops::{HASH_WORK, PAR_MIN_WORK};
use crate::Tensor;
use rayon::prelude::*;

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: full avalanche in three multiply/xor rounds.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit content hash of one flat `f32` row (bit patterns + length).
#[inline]
pub fn hash_row(row: &[f32]) -> u64 {
    // Seed with the length so a prefix row never hashes equal to its
    // extension even when the tail is all zero bits.
    let mut h: u64 = mix(0x9E37_79B9_7F4A_7C15 ^ row.len() as u64);
    let mut chunks = row.chunks_exact(2);
    for pair in &mut chunks {
        let lane = (pair[0].to_bits() as u64) | ((pair[1].to_bits() as u64) << 32);
        h = mix(h ^ lane);
    }
    if let [last] = chunks.remainder() {
        h = mix(h ^ last.to_bits() as u64);
    }
    h
}

/// Per-row content hashes of a rank-2 tensor (`[n, d]` → `n` hashes).
///
/// Batches of [`PAR_MIN_WORK`] or more hash rows in parallel; each row's
/// hash is identical to [`hash_row`] of that row either way.
pub fn row_hashes(t: &Tensor) -> Vec<u64> {
    assert_eq!(t.rank(), 2, "row_hashes expects [n, d]");
    let (n, d) = (t.shape()[0], t.shape()[1]);
    if d == 0 {
        return vec![hash_row(&[]); n];
    }
    if t.numel() * HASH_WORK >= PAR_MIN_WORK {
        let data = t.data();
        (0..n)
            .into_par_iter()
            .map(|i| hash_row(&data[i * d..(i + 1) * d]))
            .collect()
    } else {
        t.data().chunks_exact(d).map(hash_row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rows_hash_equal_distinct_rows_differ() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 2.0, 3.0];
        let c = [1.0f32, 2.0, 3.0000002]; // one ULP above 3.0
        assert_eq!(hash_row(&a), hash_row(&b));
        assert_ne!(hash_row(&a), hash_row(&c));
    }

    #[test]
    fn length_is_part_of_the_key() {
        // A zero-extended row must not collide with its prefix: the zero
        // tail contributes zero bits, so only the length seed separates
        // them.
        let short = [1.5f32, -2.5];
        let long = [1.5f32, -2.5, 0.0];
        assert_ne!(hash_row(&short), hash_row(&long));
        assert_ne!(hash_row(&[]), hash_row(&[0.0f32]));
    }

    #[test]
    fn bit_patterns_not_numeric_values_are_hashed() {
        // -0.0 == 0.0 numerically but the bits differ; the cache contract
        // is bit equality, so the hashes must differ too.
        assert_ne!(hash_row(&[0.0f32]), hash_row(&[-0.0f32]));
    }

    #[test]
    fn odd_and_even_widths_cover_the_remainder_lane() {
        for width in 1..9usize {
            let row: Vec<f32> = (0..width).map(|i| i as f32 * 0.25 - 1.0).collect();
            let mut tweaked = row.clone();
            tweaked[width - 1] += 1.0;
            assert_ne!(hash_row(&row), hash_row(&tweaked), "width {width}");
        }
    }

    #[test]
    fn row_hashes_matches_hash_row_and_parallel_agrees() {
        let d = 33; // odd width exercises the remainder lane
        let small = Tensor::from_vec((0..5 * d).map(|i| (i as f32).sin()).collect(), &[5, d]);
        let hashes = row_hashes(&small);
        for (i, &h) in hashes.iter().enumerate() {
            assert_eq!(h, hash_row(small.row(i)));
        }
        // Large enough to take the parallel path; rows repeat so hashes
        // must repeat positionally.
        let (n, d) = (1 << 13, 65);
        assert!(n * d * HASH_WORK >= PAR_MIN_WORK);
        let data: Vec<f32> = (0..n).flat_map(|i| vec![(i % 7) as f32; d]).collect();
        let big = Tensor::from_vec(data, &[n, d]);
        let hashes = row_hashes(&big);
        assert_eq!(hashes[0], hashes[7]);
        assert_eq!(hashes[3], hash_row(big.row(3)));
        assert_ne!(hashes[0], hashes[1]);
    }
}
