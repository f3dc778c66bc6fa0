//! Fast content hashing of tensor rows.
//!
//! The data-reuse plane (DESIGN.md §8) keys its embedding memo table on
//! the *content* of each incoming image row: a repeated experiment frame
//! must map to the same cache slot no matter which batch it arrives in.
//! The hash here is the fast first stage of that lookup — a 64-bit
//! digest of the row's `f32` bit patterns plus its length — and is always
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
//! * The row is read in chunks of 16 floats, four lanes of four floats
//!   each. A lane's two 64-bit words meet in one 64×64→128 multiply whose
//!   halves are folded by xor. The first word is keyed by the chunk's key,
//!   which advances by a Weyl step, so where a chunk sits is part of its
//!   products; the second by its lane's key, so two lanes holding the
//!   same floats do not cancel. No product depends on another, so the four multiplies of
//!   a chunk and those of the next chunk all overlap: one multiply per 16
//!   bytes and no serial chain but an xor. A ragged tail is zero-padded
//!   to one more chunk.
//! * The accumulated products and the length are finished by the
//!   splitmix64 finalizer, which avalanches fully, so the high bits the
//!   cache's shard selection reads are as uniform as the low ones.
//! * A lane word equal to its key multiplies by zero and drops its
//!   partner word. A lane key is a pair of NaN patterns no detector
//!   writes, and the chunk key moves with the chunk; a row that hits
//!   either collides, and the caller's row check turns that into a miss.

use crate::ops::{HASH_WORK, PAR_MIN_WORK};
use crate::Tensor;
use rayon::prelude::*;

/// Floats per chunk: four lanes of four.
const CHUNK: usize = 16;

/// Per-lane keys of a lane's second word. Every 32-bit half is a NaN bit
/// pattern.
const LANE_KEYS: [u64; 4] = [
    0xFFB7_2D4F_7FE9_0A63,
    0x7FDA_4C71_FF8B_97E9,
    0xFFC4_F0B3_7F9D_6817,
    0x7F8E_D3A9_FFE7_45B1,
];

/// The chunk key's Weyl step: 2⁶⁴/φ, odd, so keys never repeat within a row.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: full avalanche in three multiply/xor rounds.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The full 128-bit product of `a` and `b`, its halves folded by xor.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ (p >> 64) as u64
}

/// The four lane products of one chunk under chunk key `key`, xored.
#[inline]
fn chunk_products(c: &[f32; CHUNK], key: u64) -> u64 {
    let mut acc = 0;
    for (lane, k) in LANE_KEYS.iter().enumerate() {
        // One `u128` a lane keeps the lane in scalar registers next to its
        // multiply; as two `u64`s, the compiler vectorizes the key xors and
        // then pays more to move each word back out to the multiplier.
        let bits = (0..4).rev().fold(0u128, |v, i| {
            v << 32 | u128::from(c[4 * lane + i].to_bits())
        });
        let v = bits ^ (u128::from(*k) << 64 | u128::from(key));
        acc ^= fold_mul(v as u64, (v >> 64) as u64);
    }
    acc
}

/// 64-bit content hash of one flat `f32` row (bit patterns + length).
#[inline]
pub fn hash_row(row: &[f32]) -> u64 {
    // The length seeds the chunk keys, so a prefix row never hashes equal
    // to its extension even when the tail is all zero bits.
    let mut key = mix(0x2545_F491_4F6C_DD1D ^ row.len() as u64);
    let mut acc = 0;
    let (chunks, tail) = row.as_chunks::<CHUNK>();
    for c in chunks {
        acc ^= chunk_products(c, key);
        key = key.wrapping_add(WEYL);
    }
    if !tail.is_empty() {
        let mut padded = [0.0; CHUNK];
        padded[..tail.len()].copy_from_slice(tail);
        acc ^= chunk_products(&padded, key);
        key = key.wrapping_add(WEYL);
    }
    mix(acc ^ key)
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
    use crate::rng::TensorRng;

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
    fn one_flipped_input_bit_changes_about_half_the_output_bits() {
        // Every bit of every float, at widths 1–40 (each tail length twice
        // over, and rows of one to three chunks) and at 225 (a 15×15
        // patch). A full avalanche changes 32 of the 64 output bits on
        // average; over 32 rows that mean has σ ≈ 0.7, so 28 is a floor a
        // lane whose input never reaches the output would fall through.
        let mut rng = TensorRng::seeded(43);
        const ROWS: usize = 32;
        for width in (1..=40).chain([225]) {
            let mut rows = rng.uniform(&[ROWS, width], -4.0, 4.0);
            let hashes = row_hashes(&rows);
            for pos in 0..width {
                for bit in 0..32 {
                    let mut changed = 0;
                    for (r, &h) in hashes.iter().enumerate() {
                        let row = rows.row_mut(r);
                        row[pos] = f32::from_bits(row[pos].to_bits() ^ (1 << bit));
                        changed += (h ^ hash_row(row)).count_ones();
                        row[pos] = f32::from_bits(row[pos].to_bits() ^ (1 << bit));
                    }
                    let mean = f64::from(changed) / ROWS as f64;
                    assert!(
                        mean >= 28.0,
                        "width {width}, float {pos}, bit {bit}: {mean}"
                    );
                }
            }
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
        let (n, d) = (1 << 15, 65);
        assert!(n * d * HASH_WORK >= PAR_MIN_WORK);
        let data: Vec<f32> = (0..n).flat_map(|i| vec![(i % 7) as f32; d]).collect();
        let big = Tensor::from_vec(data, &[n, d]);
        let hashes = row_hashes(&big);
        assert_eq!(hashes[0], hashes[7]);
        assert_eq!(hashes[3], hash_row(big.row(3)));
        assert_ne!(hashes[0], hashes[1]);
    }
}
