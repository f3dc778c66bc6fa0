//! Serialization codecs: a [`Collection`](crate::Collection) stores every
//! document encoded through one [`Codec`].
//!
//! [`RawCodec`] is the tight little-endian layout every collection the
//! service opens stores through — the "just read the bytes" H5-on-NFS
//! baseline of the paper's Figs 6–8. The two MongoDB formats those figures
//! compare against it (pickle, blosc) are simulators and live in
//! `fairdms_bench::codec`. [`RawCodec`] round-trips every [`Document`]
//! exactly (property-tested).

use crate::value::{Document, Value};
use crate::wire::{OutOfBounds, Reader, WriteExt};

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended prematurely.
    Truncated,
    /// Unknown value tag byte.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Compressed block failed to decompress to the declared size.
    BadCompression,
    /// Documents and arrays nested deeper than [`MAX_NESTING`].
    TooDeep,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadCompression => write!(f, "corrupt compressed block"),
            CodecError::TooDeep => write!(f, "nesting deeper than {MAX_NESTING} levels"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<OutOfBounds> for CodecError {
    fn from(_: OutOfBounds) -> Self {
        CodecError::Truncated
    }
}

/// A document serializer/deserializer.
pub trait Codec: Send + Sync {
    /// Codec name, used in benchmark output (matches the paper's legends).
    fn name(&self) -> &'static str;
    /// Serializes a document.
    fn encode(&self, doc: &Document) -> Vec<u8>;
    /// Deserializes a document.
    fn decode(&self, bytes: &[u8]) -> Result<Document, CodecError>;
}

/// Most documents and arrays [`RawCodec`] decodes one inside another,
/// counting the outermost document: decoding recurses once a level, so a
/// hostile input gets an `Err`, not a stack overflow. The service writes
/// two (a document, its `train_pdf` array).
pub const MAX_NESTING: usize = 32;

// RawCodec's value tags.
pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_I64: u8 = 2;
pub(crate) const TAG_F64: u8 = 3;
pub(crate) const TAG_STR: u8 = 4;
pub(crate) const TAG_BYTES: u8 = 5;
pub(crate) const TAG_F32ARR: u8 = 6;
pub(crate) const TAG_U16ARR: u8 = 7;
pub(crate) const TAG_ARRAY: u8 = 8;
pub(crate) const TAG_DOC: u8 = 9;

/// Tight little-endian layout: arrays are written as contiguous raw bytes.
/// This is the "just read the bytes" baseline standing in for direct
/// H5-over-NFS reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct RawCodec;

impl RawCodec {
    pub(crate) fn write_doc(out: &mut Vec<u8>, doc: &Document) {
        out.put_u32(doc.len() as u32);
        for (k, v) in doc.fields() {
            out.put_u16(k.len() as u16);
            out.extend_from_slice(k.as_bytes());
            Self::write_value(out, v);
        }
    }

    fn write_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => out.put_u8(TAG_NULL),
            Value::Bool(b) => {
                out.put_u8(TAG_BOOL);
                out.put_u8(*b as u8);
            }
            Value::I64(i) => {
                out.put_u8(TAG_I64);
                out.put_i64(*i);
            }
            Value::F64(x) => {
                out.put_u8(TAG_F64);
                out.put_f64(*x);
            }
            Value::Str(s) => {
                out.put_u8(TAG_STR);
                out.put_u32(s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.put_u8(TAG_BYTES);
                out.put_u32(b.len() as u32);
                out.extend_from_slice(b);
            }
            Value::F32Array(a) => {
                out.put_u8(TAG_F32ARR);
                out.put_u32(a.len() as u32);
                out.put_f32s(a);
            }
            Value::U16Array(a) => {
                out.put_u8(TAG_U16ARR);
                out.put_u32(a.len() as u32);
                out.put_u16s(a);
            }
            Value::Array(items) => {
                out.put_u8(TAG_ARRAY);
                out.put_u32(items.len() as u32);
                for item in items {
                    Self::write_value(out, item);
                }
            }
            Value::Doc(d) => {
                out.put_u8(TAG_DOC);
                Self::write_doc(out, d);
            }
        }
    }

    /// Reads a document at nesting level `depth` (1 for the outermost).
    pub(crate) fn read_doc(r: &mut Reader<'_>, depth: usize) -> Result<Document, CodecError> {
        let n = r.u32()? as usize;
        let mut doc = Document::new();
        for _ in 0..n {
            let klen = r.u16()? as usize;
            let key = std::str::from_utf8(r.take(klen)?)
                .map_err(|_| CodecError::BadUtf8)?
                .to_string();
            doc.set(&key, Self::read_value(r, depth)?);
        }
        Ok(doc)
    }

    /// Reads one value held by a container at nesting level `depth`.
    fn read_value(r: &mut Reader<'_>, depth: usize) -> Result<Value, CodecError> {
        let tag = r.u8()?;
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(r.u8()? != 0),
            TAG_I64 => Value::I64(r.i64()?),
            TAG_F64 => Value::F64(r.f64()?),
            TAG_STR => {
                let len = r.u32()? as usize;
                Value::Str(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| CodecError::BadUtf8)?
                        .to_string(),
                )
            }
            TAG_BYTES => {
                let len = r.u32()? as usize;
                Value::Bytes(bytes::Bytes::copy_from_slice(r.take(len)?))
            }
            TAG_F32ARR => {
                let n = r.u32()? as usize;
                Value::F32Array(r.f32s(n)?)
            }
            TAG_U16ARR => {
                let n = r.u32()? as usize;
                Value::U16Array(r.u16s(n)?)
            }
            TAG_ARRAY | TAG_DOC if depth >= MAX_NESTING => return Err(CodecError::TooDeep),
            TAG_ARRAY => {
                let n = r.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(Self::read_value(r, depth + 1)?);
                }
                Value::Array(items)
            }
            TAG_DOC => Value::Doc(Self::read_doc(r, depth + 1)?),
            other => return Err(CodecError::BadTag(other)),
        })
    }
}

impl Codec for RawCodec {
    fn name(&self) -> &'static str {
        "raw"
    }

    fn encode(&self, doc: &Document) -> Vec<u8> {
        let mut out = Vec::with_capacity(doc.approx_size() + 16);
        Self::write_doc(&mut out, doc);
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document, CodecError> {
        let mut r = Reader::new(bytes);
        let doc = Self::read_doc(&mut r, 1)?;
        if !r.is_empty() {
            return Err(CodecError::Truncated);
        }
        Ok(doc)
    }
}

#[cfg(test)]
pub(crate) fn sample_doc() -> Document {
    Document::new()
        .with("id", 17i64)
        .with("flag", true)
        .with("score", -0.75f64)
        .with("name", "bragg-peak")
        .with("pixels", vec![1.5f32, -2.25, 0.0, 1e-7])
        .with("frame", vec![0u16, 65535, 1024])
        .with("blob", bytes::Bytes::from_static(b"\x00\x01\x02"))
        .with("nested", Value::Doc(Document::new().with("inner", 3i64)))
        .with(
            "list",
            Value::Array(vec![Value::I64(1), Value::Str("two".into()), Value::Null]),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip_preserves_everything() {
        let doc = sample_doc();
        let codec = RawCodec;
        let bytes = codec.encode(&doc);
        let back = codec.decode(&bytes).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn raw_rejects_truncated_input() {
        let doc = sample_doc();
        let bytes = RawCodec.encode(&doc);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(RawCodec.decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn raw_rejects_trailing_garbage() {
        let mut bytes = RawCodec.encode(&sample_doc());
        bytes.push(0xFF);
        assert_eq!(RawCodec.decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn raw_rejects_unknown_tag() {
        // Document with 1 field whose value tag is invalid.
        let mut bytes = Vec::new();
        bytes.put_u32(1);
        bytes.put_u16(1);
        bytes.push(b'x');
        bytes.push(0xAB);
        assert_eq!(RawCodec.decode(&bytes), Err(CodecError::BadTag(0xAB)));
    }

    /// A document whose field holds `levels - 1` one-element arrays, one
    /// inside another, around a null: `levels` containers in all.
    fn nested_arrays(levels: usize) -> Vec<u8> {
        let mut bytes = vec![1, 0, 0, 0, 1, 0, b'a'];
        (1..levels).for_each(|_| bytes.extend([TAG_ARRAY, 1, 0, 0, 0]));
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let too_deep = Err(CodecError::TooDeep);
        assert!(RawCodec.decode(&nested_arrays(MAX_NESTING)).is_ok());
        assert_eq!(RawCodec.decode(&nested_arrays(MAX_NESTING + 1)), too_deep);
        // A million levels must fail before they overflow the stack.
        let million = nested_arrays(1_000_001);
        assert_eq!(million.len(), 5_000_008);
        assert_eq!(RawCodec.decode(&million), too_deep);
        // A document is a level like an array, as the encoder writes it.
        let nest = |d: Document| Document::new().with("d", Value::Doc(d));
        let deepest = (1..MAX_NESTING).fold(Document::new(), |d, _| nest(d));
        let bytes = RawCodec.encode(&deepest);
        assert_eq!(RawCodec.decode(&bytes), Ok(deepest.clone()));
        assert_eq!(RawCodec.decode(&RawCodec.encode(&nest(deepest))), too_deep);
    }

    #[test]
    fn f32_array_layout_is_tight() {
        let doc = Document::new().with("a", vec![0.0f32; 100]);
        let bytes = RawCodec.encode(&doc);
        // 4 (nfields) + 2+1 (key) + 1 (tag) + 4 (len) + 400 (data) = 412.
        assert_eq!(bytes.len(), 412);
    }
}
