//! Blosc-style codec: byte shuffle + run-length (PackBits) compression.
//!
//! Blosc's core trick is a *byte shuffle*: the bytes of an `f32` array are
//! regrouped so all first-bytes come first, then all second-bytes, and so
//! on. Sign/exponent bytes of neighbouring pixels in smooth scientific
//! images are nearly constant, so the shuffled stream develops long runs
//! that a cheap run-length pass compresses well. This codec performs both
//! stages for real — the CPU cost and the payload reduction measured by the
//! benches are genuine, which is what the Fig 6–8 reproduction needs.

use fairdms_datastore::wire::{Reader, WriteExt};
use fairdms_datastore::{Codec, CodecError, Document, RawCodec};

const MAGIC: u8 = 0xB1;
const FLAG_COMPRESSED: u8 = 1;
const FLAG_STORED: u8 = 0;

/// Blosc-style whole-document compressor over the raw layout.
///
/// `element_size` controls the shuffle stride; 4 matches the dominant `f32`
/// payloads of the fairDMS datasets.
#[derive(Clone, Copy, Debug)]
pub struct BloscCodec {
    element_size: usize,
}

impl Default for BloscCodec {
    fn default() -> Self {
        BloscCodec { element_size: 4 }
    }
}

impl BloscCodec {
    /// Creates a codec with an explicit shuffle stride.
    pub fn with_element_size(element_size: usize) -> Self {
        assert!(element_size >= 1, "element size must be at least 1");
        BloscCodec { element_size }
    }
}

impl Codec for BloscCodec {
    fn name(&self) -> &'static str {
        "blosc"
    }

    fn encode(&self, doc: &Document) -> Vec<u8> {
        let raw = RawCodec.encode(doc);
        let shuffled = shuffle(&raw, self.element_size);
        let compressed = packbits_encode(&shuffled);

        let mut out = Vec::with_capacity(compressed.len().min(raw.len()) + 16);
        out.put_u8(MAGIC);
        out.put_u8(self.element_size as u8);
        out.put_u32(raw.len() as u32);
        if compressed.len() < raw.len() {
            out.put_u8(FLAG_COMPRESSED);
            out.extend_from_slice(&compressed);
        } else {
            // Incompressible: store raw (like blosc's memcpy fallback).
            out.put_u8(FLAG_STORED);
            out.extend_from_slice(&raw);
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != MAGIC {
            return Err(CodecError::BadTag(MAGIC));
        }
        let element_size = r.u8()? as usize;
        if element_size == 0 {
            return Err(CodecError::BadCompression);
        }
        let raw_len = r.u32()? as usize;
        let flag = r.u8()?;
        let body = r.take(r.remaining())?;
        let raw = match flag {
            FLAG_COMPRESSED => {
                let shuffled = packbits_decode(body, raw_len)?;
                unshuffle(&shuffled, element_size)
            }
            FLAG_STORED => {
                if body.len() != raw_len {
                    return Err(CodecError::BadCompression);
                }
                body.to_vec()
            }
            other => return Err(CodecError::BadTag(other)),
        };
        RawCodec.decode(&raw)
    }
}

/// Byte shuffle with stride `elem`: the trailing `len % elem` bytes are
/// copied unshuffled (blosc handles remainders the same way).
pub fn shuffle(input: &[u8], elem: usize) -> Vec<u8> {
    if elem <= 1 || input.len() < elem {
        return input.to_vec();
    }
    let n = input.len() / elem;
    let body = n * elem;
    let mut out = Vec::with_capacity(input.len());
    for s in 0..elem {
        for i in 0..n {
            out.push(input[i * elem + s]);
        }
    }
    out.extend_from_slice(&input[body..]);
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(input: &[u8], elem: usize) -> Vec<u8> {
    if elem <= 1 || input.len() < elem {
        return input.to_vec();
    }
    let n = input.len() / elem;
    let body = n * elem;
    let mut out = vec![0u8; input.len()];
    for s in 0..elem {
        for i in 0..n {
            out[i * elem + s] = input[s * n + i];
        }
    }
    out[body..].copy_from_slice(&input[body..]);
    out
}

/// PackBits run-length encoding.
///
/// Control byte `c`: `0..=127` ⇒ copy `c+1` literal bytes; `129..=255` ⇒
/// repeat the next byte `257−c` times; `128` is never emitted.
pub fn packbits_encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut i = 0usize;
    while i < input.len() {
        // Measure the run starting at i.
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal stretch: scan until a run of ≥3 starts or 128 bytes.
        let start = i;
        let mut j = i;
        while j < input.len() && j - start < 128 {
            let c = input[j];
            let mut r = 1usize;
            while j + r < input.len() && input[j + r] == c && r < 3 {
                r += 1;
            }
            if r >= 3 {
                break;
            }
            j += 1;
        }
        let lit_len = j - start;
        out.push((lit_len - 1) as u8);
        out.extend_from_slice(&input[start..j]);
        i = j;
    }
    out
}

/// Most bytes one input byte of a PackBits stream can decode to: a
/// two-byte run control expands to 128.
const MAX_EXPANSION: usize = 64;

/// Inverse of [`packbits_encode`]; `expected_len` guards against corrupt
/// streams, and one the input cannot expand to reserves nothing.
pub fn packbits_decode(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    if expected_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(CodecError::BadCompression);
    }
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c <= 127 {
            let n = c as usize + 1;
            if i + n > input.len() {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else if c >= 129 {
            if i >= input.len() {
                return Err(CodecError::Truncated);
            }
            let n = 257 - c as usize;
            out.extend(std::iter::repeat_n(input[i], n));
            i += 1;
        }
        // c == 128: noop per the PackBits spec.
        if out.len() > expected_len {
            return Err(CodecError::BadCompression);
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::BadCompression);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::sample_doc;

    #[test]
    fn roundtrip_preserves_documents() {
        let doc = sample_doc();
        let codec = BloscCodec::default();
        assert_eq!(codec.decode(&codec.encode(&doc)).unwrap(), doc);
    }

    #[test]
    fn smooth_images_compress_well() {
        // A smooth gradient: float exponents nearly constant ⇒ long runs.
        let img: Vec<f32> = (0..64 * 64).map(|i| 100.0 + (i as f32) * 1e-3).collect();
        let doc = Document::new().with("img", img);
        let raw = RawCodec.encode(&doc).len();
        let blosc = BloscCodec::default().encode(&doc).len();
        assert!(
            (blosc as f64) < (raw as f64) * 0.8,
            "blosc {blosc} vs raw {raw}"
        );
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        // Pseudo-random bytes defeat RLE; size must not blow up.
        let mut x = 0x12345678u32;
        let noise: Vec<f32> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                // Fixed exponent (never NaN), fully random mantissa bytes.
                f32::from_bits((x & 0x007f_ffff) | 0x3f00_0000)
            })
            .collect();
        let doc = Document::new().with("noise", noise);
        let raw = RawCodec.encode(&doc).len();
        let blosc = BloscCodec::default().encode(&doc).len();
        assert!(blosc <= raw + 16, "blosc {blosc} vs raw {raw}");
        assert_eq!(
            BloscCodec::default()
                .decode(&BloscCodec::default().encode(&doc))
                .unwrap(),
            doc
        );
    }

    #[test]
    fn forged_raw_lengths_are_errors_not_reservations() {
        let img: Vec<f32> = (0..64 * 64).map(|i| 100.0 + (i as f32) * 1e-3).collect();
        let mut bytes = BloscCodec::default().encode(&Document::new().with("img", img));
        assert_eq!(bytes[6], FLAG_COMPRESSED);
        bytes[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            BloscCodec::default().decode(&bytes),
            Err(CodecError::BadCompression)
        );
        // A run at full expansion still decodes; one byte more cannot.
        let run = packbits_encode(&[7; 128]);
        assert_eq!(packbits_decode(&run, 128), Ok(vec![7; 128]));
        assert_eq!(packbits_decode(&run, 129), Err(CodecError::BadCompression));
        assert!(packbits_decode(&run, usize::MAX).is_err());
    }

    #[test]
    fn shuffle_roundtrip_with_remainder() {
        let data: Vec<u8> = (0..23).collect();
        for elem in [1usize, 2, 4, 8] {
            let s = shuffle(&data, elem);
            assert_eq!(unshuffle(&s, elem), data, "elem {elem}");
            assert_eq!(s.len(), data.len());
        }
    }

    #[test]
    fn shuffle_groups_byte_positions() {
        // Two u32 little-endian values: bytes interleave as expected.
        let data = vec![0xAA, 0x01, 0x02, 0x03, 0xBB, 0x11, 0x12, 0x13];
        let s = shuffle(&data, 4);
        assert_eq!(s, vec![0xAA, 0xBB, 0x01, 0x11, 0x02, 0x12, 0x03, 0x13]);
    }

    #[test]
    fn packbits_handles_runs_and_literals() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![1, 2, 3],
            vec![5; 300],
            vec![1, 1, 1, 2, 3, 3, 3, 3, 4],
            (0..=255u8).collect(),
        ];
        for case in cases {
            let enc = packbits_encode(&case);
            let dec = packbits_decode(&enc, case.len()).unwrap();
            assert_eq!(dec, case);
        }
    }

    #[test]
    fn packbits_detects_corruption() {
        let enc = packbits_encode(&[9u8; 50]);
        assert!(packbits_decode(&enc, 49).is_err());
        assert!(packbits_decode(&enc[..enc.len() - 1], 50).is_err());
    }

    #[test]
    fn decode_rejects_wrong_magic() {
        let codec = BloscCodec::default();
        let mut bytes = codec.encode(&sample_doc());
        bytes[0] = 0x00;
        assert!(codec.decode(&bytes).is_err());
    }
}
