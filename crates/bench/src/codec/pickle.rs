//! Pickle-style codec: per-object tagging with f64 promotion.
//!
//! Python's pickle serializes every float as a tagged 8-byte object and
//! walks the object graph element-by-element; that is exactly why the paper
//! measures higher deserialization overhead for Pickle-in-MongoDB than for
//! direct reads (Figs 6–8 and §III-D). This codec reproduces those costs
//! structurally: each numeric array element is written as `tag + f64`
//! (9 bytes instead of 4) and decode must walk every tagged element and
//! narrow it back to `f32`/`u16`.

use fairdms_datastore::codec::MAX_NESTING;
use fairdms_datastore::wire::{Reader, WriteExt};
use fairdms_datastore::{Codec, CodecError, Document, Value};

// Pickle-flavored opcodes (distinct from RawCodec tags to keep the formats
// mutually unreadable, like the real systems).
const OP_DOC: u8 = b'D';
const OP_NULL: u8 = b'N';
const OP_BOOL: u8 = b'B';
const OP_INT: u8 = b'I';
const OP_FLOAT: u8 = b'F';
const OP_STR: u8 = b'S';
const OP_BYTES: u8 = b'Y';
const OP_LIST: u8 = b'L';
const OP_FLOAT_ELEM: u8 = b'f';
const OP_INT_ELEM: u8 = b'i';
const OP_STOP: u8 = b'.';
/// Encoded size of one `f` / `i` list element: its tag and 8 bytes.
const ELEM_BYTES: usize = 9;

/// The pickle-emulating codec. See the module docs for the cost rationale.
#[derive(Clone, Copy, Debug, Default)]
pub struct PickleCodec;

impl PickleCodec {
    fn write_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => out.put_u8(OP_NULL),
            Value::Bool(b) => {
                out.put_u8(OP_BOOL);
                out.put_u8(*b as u8);
            }
            Value::I64(i) => {
                out.put_u8(OP_INT);
                out.put_i64(*i);
            }
            Value::F64(x) => {
                out.put_u8(OP_FLOAT);
                out.put_f64(*x);
            }
            Value::Str(s) => {
                out.put_u8(OP_STR);
                out.put_u32(s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.put_u8(OP_BYTES);
                out.put_u32(b.len() as u32);
                out.extend_from_slice(b);
            }
            // The signature pickle behaviour: every element is an object.
            Value::F32Array(a) => {
                out.put_u8(OP_LIST);
                out.put_u8(b'f'); // element kind marker
                out.put_u32(a.len() as u32);
                for &x in a {
                    out.put_u8(OP_FLOAT_ELEM);
                    out.put_f64(x as f64);
                }
            }
            Value::U16Array(a) => {
                out.put_u8(OP_LIST);
                out.put_u8(b'i');
                out.put_u32(a.len() as u32);
                for &x in a {
                    out.put_u8(OP_INT_ELEM);
                    out.put_i64(x as i64);
                }
            }
            Value::Array(items) => {
                out.put_u8(OP_LIST);
                out.put_u8(b'o'); // heterogeneous objects
                out.put_u32(items.len() as u32);
                for item in items {
                    Self::write_value(out, item);
                }
            }
            Value::Doc(d) => {
                Self::write_doc(out, d);
            }
        }
    }

    fn write_doc(out: &mut Vec<u8>, doc: &Document) {
        out.put_u8(OP_DOC);
        out.put_u32(doc.len() as u32);
        for (k, v) in doc.fields() {
            out.put_u16(k.len() as u16);
            out.extend_from_slice(k.as_bytes());
            Self::write_value(out, v);
        }
    }

    /// Reads one value held by a container at nesting level `depth` (1
    /// for the outermost document), bounded like `RawCodec` by
    /// [`MAX_NESTING`].
    fn read_value(r: &mut Reader<'_>, depth: usize) -> Result<Value, CodecError> {
        let op = r.u8()?;
        Ok(match op {
            OP_NULL => Value::Null,
            OP_BOOL => Value::Bool(r.u8()? != 0),
            OP_INT => Value::I64(r.i64()?),
            OP_FLOAT => Value::F64(r.f64()?),
            OP_STR => {
                let len = r.u32()? as usize;
                Value::Str(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| CodecError::BadUtf8)?
                        .to_string(),
                )
            }
            OP_BYTES => {
                let len = r.u32()? as usize;
                Value::Bytes(bytes::Bytes::copy_from_slice(r.take(len)?))
            }
            OP_LIST => {
                let kind = r.u8()?;
                let n = r.u32()? as usize;
                match kind {
                    // A count the rest of the input cannot hold reserves
                    // nothing.
                    b'f' | b'i' if n > r.remaining() / ELEM_BYTES => {
                        return Err(CodecError::Truncated)
                    }
                    b'o' if depth >= MAX_NESTING => return Err(CodecError::TooDeep),
                    b'f' => {
                        let mut a = Vec::with_capacity(n);
                        for _ in 0..n {
                            if r.u8()? != OP_FLOAT_ELEM {
                                return Err(CodecError::BadTag(OP_FLOAT_ELEM));
                            }
                            a.push(r.f64()? as f32);
                        }
                        Value::F32Array(a)
                    }
                    b'i' => {
                        let mut a = Vec::with_capacity(n);
                        for _ in 0..n {
                            if r.u8()? != OP_INT_ELEM {
                                return Err(CodecError::BadTag(OP_INT_ELEM));
                            }
                            a.push(r.i64()? as u16);
                        }
                        Value::U16Array(a)
                    }
                    b'o' => {
                        let mut items = Vec::with_capacity(n.min(1 << 16));
                        for _ in 0..n {
                            items.push(Self::read_value(r, depth + 1)?);
                        }
                        Value::Array(items)
                    }
                    other => return Err(CodecError::BadTag(other)),
                }
            }
            OP_DOC if depth >= MAX_NESTING => return Err(CodecError::TooDeep),
            // Re-enter document parsing (the opcode was consumed).
            OP_DOC => Value::Doc(Self::read_doc_body(r, depth + 1)?),
            other => return Err(CodecError::BadTag(other)),
        })
    }

    /// Reads the body of a document at nesting level `depth`.
    fn read_doc_body(r: &mut Reader<'_>, depth: usize) -> Result<Document, CodecError> {
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
}

impl Codec for PickleCodec {
    fn name(&self) -> &'static str {
        "pickle"
    }

    fn encode(&self, doc: &Document) -> Vec<u8> {
        // 9 bytes per array element plus framing.
        let mut out = Vec::with_capacity(doc.approx_size() * 9 / 4 + 32);
        Self::write_doc(&mut out, doc);
        out.put_u8(OP_STOP);
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Document, CodecError> {
        let mut r = Reader::new(bytes);
        if r.u8()? != OP_DOC {
            return Err(CodecError::BadTag(OP_DOC));
        }
        let doc = Self::read_doc_body(&mut r, 1)?;
        if r.u8()? != OP_STOP || !r.is_empty() {
            return Err(CodecError::Truncated);
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::sample_doc;
    use fairdms_datastore::RawCodec;

    #[test]
    fn roundtrip_preserves_documents() {
        let doc = sample_doc();
        let bytes = PickleCodec.encode(&doc);
        assert_eq!(PickleCodec.decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn payload_is_fatter_than_raw() {
        let doc = Document::new().with("a", vec![1.0f32; 1000]);
        let raw = RawCodec.encode(&doc).len();
        let pickle = PickleCodec.encode(&doc).len();
        assert!(
            pickle as f64 > raw as f64 * 2.0,
            "pickle {pickle} vs raw {raw}"
        );
    }

    #[test]
    fn formats_are_mutually_unreadable() {
        let doc = sample_doc();
        assert!(RawCodec.decode(&PickleCodec.encode(&doc)).is_err());
        assert!(PickleCodec.decode(&RawCodec.encode(&doc)).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = PickleCodec.encode(&sample_doc());
        assert!(PickleCodec.decode(&bytes[..bytes.len() - 2]).is_err());
    }

    /// A document whose field holds `levels - 1` one-element `o` lists,
    /// one inside another, around a null: `levels` containers in all.
    fn nested_lists(levels: usize) -> Vec<u8> {
        let mut bytes = vec![OP_DOC, 1, 0, 0, 0, 1, 0, b'a'];
        (1..levels).for_each(|_| bytes.extend([OP_LIST, b'o', 1, 0, 0, 0]));
        bytes.extend([OP_NULL, OP_STOP]);
        bytes
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let too_deep = Err(CodecError::TooDeep);
        assert!(PickleCodec.decode(&nested_lists(MAX_NESTING)).is_ok());
        assert_eq!(PickleCodec.decode(&nested_lists(MAX_NESTING + 1)), too_deep);
        assert_eq!(PickleCodec.decode(&nested_lists(1_000_001)), too_deep);
        // A document is a level like a list, as the encoder writes it.
        let nest = |d: Document| Document::new().with("d", Value::Doc(d));
        let deepest = (1..MAX_NESTING).fold(Document::new(), |d, _| nest(d));
        let bytes = PickleCodec.encode(&deepest);
        assert_eq!(PickleCodec.decode(&bytes), Ok(deepest.clone()));
        let past = PickleCodec.encode(&nest(deepest));
        assert_eq!(PickleCodec.decode(&past), too_deep);
    }

    #[test]
    fn forged_list_counts_are_errors_not_reservations() {
        for kind in [b'f', b'i'] {
            let mut bytes = vec![OP_DOC, 1, 0, 0, 0, 1, 0, b'a', OP_LIST, kind];
            bytes.put_u32(u32::MAX);
            bytes.push(OP_STOP);
            assert_eq!(PickleCodec.decode(&bytes), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn f32_precision_survives_f64_promotion() {
        let vals = vec![1.0e-30f32, 3.4e38, -0.1, f32::MIN_POSITIVE];
        let doc = Document::new().with("v", vals.clone());
        let back = PickleCodec.decode(&PickleCodec.encode(&doc)).unwrap();
        assert_eq!(back.get_f32s("v").unwrap(), &vals[..]);
    }
}
