//! Binary codecs for [`Request`], [`Reply`] and [`ServiceError`]
//! (DESIGN.md §13).
//!
//! Every type on this wire has **one** layout declaration — a leaf row, a
//! struct's field list, an enum's row per variant — and both its encoder
//! and its decoder are generated from it (`Wire`), so the two cannot
//! disagree and a field or variant without a place in its declaration does
//! not compile. The user plane itself is the `operations!` table: one row
//! per operation carrying its tag, its metrics name, its plane and its two
//! messages.
//!
//! Built on the bounds-checked little-endian primitives of
//! [`fairdms_datastore::wire`]: every decode of hostile bytes fails with a
//! [`WireError`] instead of panicking or allocating unbounded memory.
//! Variable-length fields carry a `u32` count whose implied byte size is
//! validated against the remaining input **before** any allocation, so a
//! forged count cannot force a multi-gigabyte `Vec`. Decoders also insist
//! the payload is fully consumed — trailing garbage is a protocol error,
//! not silently ignored slack.
//!
//! Layout conventions (all little-endian):
//!
//! * `usize` travels as `u64`;
//! * `bool` as one byte (0/1, anything else rejected);
//! * `String`/byte blobs as `u32` length + raw bytes (strings UTF-8
//!   checked);
//! * `Option<T>` as a one-byte flag + `T` when present;
//! * `Vec<T>` as a `u32` count + the elements; pairs, fixed arrays and
//!   structs as their parts in order; enums as a tag byte + the variant's
//!   fields;
//! * [`Tensor`] as `u8` ndim + ndim × `u32` dims + row-major `f32` data
//!   (bit patterns preserved exactly — encode∘decode is the identity even
//!   for NaN payloads);
//! * [`Document`] via [`RawCodec`] with a `u32` length prefix.

use crate::api::{RankedModels, Reply, Request, ServiceError};
use crate::metrics::{MetricsSnapshot, OpSnapshot, BUCKETS};
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::PseudoLabelStats;
use fairdms_core::reuse::EmbedCacheStats;
use fairdms_core::workflow::UpdateReport;
use fairdms_datastore::wire::{OutOfBounds, Reader, WriteExt};
use fairdms_datastore::{Codec, CodecError, Document, RawCodec};
use fairdms_nn::trainer::{EpochStat, TrainReport};
use fairdms_tensor::Tensor;

/// Why a wire message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// An enum discriminant byte was not a known variant.
    BadTag {
        /// Which vocabulary the tag belongs to (`"request"`, `"reply"`…).
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A structurally valid message carried an impossible value (forged
    /// length, unknown op name, histogram width mismatch…).
    Invalid(String),
    /// The message decoded but left unread bytes behind.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::Invalid(msg) => write!(f, "invalid message: {msg}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<OutOfBounds> for WireError {
    fn from(_: OutOfBounds) -> Self {
        WireError::Truncated
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Invalid(format!("embedded document: {e:?}"))
    }
}

// ---------------------------------------------------------------------
// One layout per type
// ---------------------------------------------------------------------

/// A type with exactly one wire layout: `get` reads back what `put` of the
/// same impl wrote (module docs).
trait Wire: Sized {
    /// Fewest bytes one value can occupy: what [`get_count`] holds a
    /// claimed element count against.
    const MIN_BYTES: usize;
    /// Appends the value to a payload.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value; hostile bytes fail, they never panic.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    assert!(n <= u32::MAX as usize, "field over u32::MAX elements");
    out.put_u32(n as u32);
}

/// Reads a `u32` element count and validates the byte size it implies
/// (`count × min_bytes`) against the input that is left **before** the
/// caller allocates for it: a forged count must fail here, not in the
/// allocator. The one copy of that guard — blobs, vectors and documents
/// all come through it.
fn get_count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, WireError> {
    let n = r.u32()? as usize;
    match n.checked_mul(min_bytes) {
        Some(need) if need <= r.remaining() => Ok(n),
        _ => Err(WireError::Truncated),
    }
}

fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn get_blob<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
    let len = get_count(r, 1)?;
    Ok(r.take(len)?)
}

/// Declares the leaves, one row each: the type, its `MIN_BYTES`, how it
/// is written and how it is read back. (`#[inline]` here and on the other
/// generated impls: left to itself the compiler makes a call of every
/// `u64`, and a small reply decodes a quarter slower.)
macro_rules! wire_leaf {
    ($($T:ty, $min:literal, |$v:ident, $out:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Wire for $T {
            const MIN_BYTES: usize = $min;
            #[inline]
            fn put(&self, $out: &mut Vec<u8>) {
                let $v = self;
                $put;
            }
            #[inline]
            fn get($r: &mut Reader<'_>) -> Result<Self, WireError> {
                $get
            }
        }
    )*};
}

// Numbers are little-endian with their bit patterns preserved; `usize`
// travels as `u64` and a value this host cannot hold is refused; `bool` is
// one byte, 0 or 1; blobs and strings sit behind a `u32` length, strings
// UTF-8 checked; a `Document` is a blob of its `RawCodec` bytes.
wire_leaf! {
    u64, 8, |v, out| out.put_u64(*v), |r| Ok(r.u64()?);
    f32, 4, |v, out| out.put_f32(*v), |r| Ok(r.f32()?);
    f64, 8, |v, out| out.put_f64(*v), |r| Ok(r.f64()?);
    usize, 8, |v, out| out.put_u64(*v as u64),
        |r| usize::try_from(r.u64()?).map_err(|_| WireError::Invalid("usize overflow".into()));
    bool, 1, |v, out| out.put_u8(*v as u8),
        |r| match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        };
    Vec<u8>, 4, |v, out| put_blob(out, v), |r| Ok(get_blob(r)?.to_vec());
    String, 4, |v, out| put_blob(out, v.as_bytes()),
        |r| String::from_utf8(Wire::get(r)?).map_err(|_| WireError::BadUtf8);
    Document, 4, |v, out| put_blob(out, &RawCodec.encode(v)),
        |r| Ok(RawCodec.decode(get_blob(r)?)?);
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = get_count(r, T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
    }
}

/// Most tensors on this wire are `[N, side²]` matrices; 8 dims is far
/// beyond anything the service constructs and bounds hostile inputs.
const MAX_TENSOR_NDIM: u8 = 8;

impl Wire for Tensor {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        let shape = self.shape();
        assert!(
            shape.len() <= MAX_TENSOR_NDIM as usize,
            "tensor rank over wire limit"
        );
        out.put_u8(shape.len() as u8);
        for d in shape {
            assert!(*d <= u32::MAX as usize, "tensor dim over u32::MAX");
            out.put_u32(*d as u32);
        }
        out.put_f32s(self.data());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let ndim = r.u8()?;
        if ndim > MAX_TENSOR_NDIM {
            return Err(WireError::Invalid(format!("tensor rank {ndim} over limit")));
        }
        let mut dims = Vec::with_capacity(ndim as usize);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let d = r.u32()? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or_else(|| WireError::Invalid("tensor element count overflow".into()))?;
            dims.push(d);
        }
        // `f32s` refuses a claimed size the input does not hold before the
        // data vector exists.
        Ok(Tensor::from_vec(r.f32s(numel)?, &dims))
    }
}

/// The `MIN_BYTES` of a field named by its accessor, so a struct's field
/// list needs no types.
const fn min_bytes_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Declares struct layouts: each struct's fields in wire order. A field
/// missing from its list does not compile (`put` destructures the struct,
/// `get` builds it), so a struct cannot grow a field the wire drops.
macro_rules! wire_struct {
    ($($S:ty { $($f:ident),* })*) => {$(
        impl Wire for $S {
            const MIN_BYTES: usize = 0 $(+ min_bytes_of(|s: &Self| &s.$f))*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                let Self { $($f),* } = self;
                $($f.put(out);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($f: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    EmbedTrainConfig { epochs, batch_size, lr, temperature, tau, seed }
    PseudoLabelStats { reused, computed }
    EpochStat { epoch, train_loss, val_loss }
    TrainReport { curve, wall_secs, stopped_early, cancelled }
    UpdateReport {
        label_secs, train_secs, label_stats, foundation, divergence, epochs, train_report,
        registered_id
    }
    RankedModels { ranked, fine_tunable }
    OpSnapshot { count, errors, total_ns, min_ns, max_ns, histogram }
    EmbedCacheStats { hits, misses, evictions, stale_generation }
}

/// Declares an enum's layout, one row per variant: its tag byte, then its
/// fields in wire order. `put` matches exhaustively, so a variant without
/// a row does not compile.
macro_rules! wire_enum {
    ($E:ident, $what:literal:
        $($tag:literal => $V:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?,)*) => {
        impl Wire for $E {
            const MIN_BYTES: usize = 1;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    $E::$V $({ $($f),* })? $(( $($t),* ))? => {
                        out.put_u8($tag);
                        $($($f.put(out);)*)?
                        $($($t.put(out);)*)?
                    }
                )*}
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $f = Wire::get(r)?;)*)?
                        $($(let $t = Wire::get(r)?;)*)?
                        Ok($E::$V $({ $($f),* })? $(( $($t),* ))?)
                    })*
                    tag => Err(WireError::BadTag { what: $what, tag }),
                }
            }
        }
    };
}

/// Declares the user plane, one row per operation: its tag — the first
/// byte of the request *and* of the reply that answers it, and the slot
/// the metrics registry records it under — its metrics name, the plane
/// that serves it, and the two messages' fields in wire order.
macro_rules! operations {
    (@read_only read) => { true };
    (@read_only write) => { false };
    ($($tag:literal $name:literal $plane:ident: $Q:ident $({ $($q:ident),* })?
        => $P:ident $({ $($p:ident),* })? $(( $pt:ident ))?,)*) => {
        wire_enum!(Request, "request": $($tag => $Q $({ $($q),* })?,)*);
        wire_enum!(Reply, "reply": $($tag => $P $({ $($p),* })? $(( $pt ))?,)*);

        /// Operations tracked by the metrics registry: `OPS[tag]` is the
        /// operation's name. A gap in the tags does not compile.
        pub const OPS: [&str; [$($tag),*].len()] = {
            let mut ops = [""; [$($tag),*].len()];
            $(ops[$tag] = $name;)*
            ops
        };

        impl Request {
            /// The operation's wire tag, which is also its index in
            /// [`OPS`] and in the metrics registry.
            pub(crate) fn op_index(&self) -> usize {
                match self {
                    $(Request::$Q { .. } => $tag,)*
                }
            }

            /// Short operation label used by the metrics registry.
            pub fn op_name(&self) -> &'static str {
                OPS[self.op_index()]
            }

            /// Whether the request only reads published state and can be
            /// served from an immutable snapshot, off the actor thread.
            pub fn is_read_only(&self) -> bool {
                match self {
                    $(Request::$Q { .. } => operations!(@read_only $plane),)*
                }
            }
        }
    };
}

// `PseudoLabel` is a read: it writes no service state, and the fallback
// labeler it may call is a shared `Fn` the reader's own thread runs.
operations! {
    0 "train_system" write: TrainSystem { embed_cfg, images } => SystemTrained { k },
    1 "ingest" write: IngestLabeled { scan, images, labels } => Ingested { count, retrained },
    2 "pdf" read: DatasetPdf { images } => Pdf(pdf),
    3 "pseudo_label" read: PseudoLabel { threshold, images } => Labeled { stats, labels },
    4 "lookup" read: LookupMatching { count, pdf } => Documents(docs),
    5 "recommend" read: Recommend { top_k, pdf } => Ranked(ranked),
    6 "update_model" write: UpdateModel { scan, images } => Updated { report, checkpoint },
    7 "publish" write: PublishModel { name, scan, pdf, checkpoint } => Published { zoo_id },
    8 "fetch" read: FetchModel { zoo_id } => Model { pdf, checkpoint },
    9 "certainty" read: Certainty { images } => Certainty(certainty),
    10 "metrics" read: Metrics => Metrics(snapshot),
}

wire_enum!(ServiceError, "service error":
    0 => NotReady,
    1 => UnknownModel(zoo_id),
    2 => Invalid(msg),
    3 => Unavailable,
    4 => Superseded,
    5 => Busy,
    6 => Protocol(msg),
);

// ---------------------------------------------------------------------
// Metrics: written by hand around the counters' own field table
// ---------------------------------------------------------------------

fn put_op_table(out: &mut Vec<u8>, table: &[(&'static str, OpSnapshot)]) {
    put_count(out, table.len());
    for (name, snap) in table {
        put_blob(out, name.as_bytes());
        snap.put(out);
    }
}

/// Not a `Vec<T>`: the registry is closed, so a table longer than it or a
/// name outside it is refused instead of carried.
fn get_op_table(r: &mut Reader<'_>) -> Result<Vec<(&'static str, OpSnapshot)>, WireError> {
    let len = r.u32()? as usize;
    if len > OPS.len() {
        return Err(WireError::Invalid(format!(
            "op table claims {len} operations, registry has {}",
            OPS.len()
        )));
    }
    let mut table = Vec::with_capacity(len);
    for _ in 0..len {
        let name = String::get(r)?;
        // Map back onto the registry's static names so the decoded
        // snapshot is indistinguishable from a local one.
        let static_name = OPS
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| WireError::Invalid(format!("unknown op name {name:?}")))?;
        table.push((static_name, OpSnapshot::get(r)?));
    }
    Ok(table)
}

impl Wire for MetricsSnapshot {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        // Histogram width goes first so a peer built against a different
        // BUCKETS fails loudly instead of misparsing every histogram.
        out.put_u32(BUCKETS as u32);
        put_op_table(out, &self.ops);
        put_op_table(out, &self.queue);
        self.embed_cache.put(out);
        self.put_u64s(out);
        self.net.put_u64s(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let buckets = r.u32()? as usize;
        if buckets != BUCKETS {
            return Err(WireError::Invalid(format!(
                "histogram width {buckets} != {BUCKETS}"
            )));
        }
        // The plain counters are read back by the field table that declares
        // them (`metrics::u64_table!`), in the order `put` wrote them.
        let mut m = MetricsSnapshot {
            ops: get_op_table(r)?,
            queue: get_op_table(r)?,
            embed_cache: Wire::get(r)?,
            ..MetricsSnapshot::default()
        };
        m.get_u64s(r)?;
        m.net.get_u64s(r)?;
        Ok(m)
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

fn encode<T: Wire>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    msg.put(&mut out);
    out
}

/// Every byte must be consumed: trailing garbage is a protocol error, not
/// silently ignored slack.
fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    match T::get(&mut r) {
        Ok(_) if !r.is_empty() => Err(WireError::TrailingBytes(r.remaining())),
        decoded => decoded,
    }
}

/// Encodes a request into its wire payload (the frame layer adds the
/// seq/kind envelope).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decodes a request payload; every byte must be consumed.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    decode(bytes)
}

/// Encodes a successful reply into its wire payload.
pub fn encode_reply(rep: &Reply) -> Vec<u8> {
    encode(rep)
}

/// Decodes a reply payload; every byte must be consumed.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    decode(bytes)
}

/// Encodes a service error into its wire payload.
pub fn encode_error(err: &ServiceError) -> Vec<u8> {
    encode(err)
}

/// Decodes a service error payload; every byte must be consumed.
pub fn decode_error(bytes: &[u8]) -> Result<ServiceError, WireError> {
    decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let reqs = vec![
            Request::TrainSystem {
                images: t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]),
                embed_cfg: EmbedTrainConfig::default(),
            },
            Request::IngestLabeled {
                images: t(&[0.5; 6], &[2, 3]),
                labels: t(&[1.0, 0.0], &[2, 1]),
                scan: 7,
            },
            Request::DatasetPdf {
                images: t(&[f32::NAN], &[1, 1]),
            },
            Request::PseudoLabel {
                images: t(&[0.25; 4], &[4, 1]),
                threshold: 0.125,
            },
            Request::LookupMatching {
                pdf: vec![0.5, 0.5],
                count: 3,
            },
            Request::Recommend {
                pdf: vec![1.0],
                top_k: Some(2),
            },
            Request::UpdateModel {
                images: t(&[0.0; 2], &[1, 2]),
                scan: 0,
            },
            Request::PublishModel {
                name: "résumé-model".into(),
                checkpoint: vec![0, 1, 2, 255],
                pdf: vec![0.25, 0.75],
                scan: 9,
            },
            Request::FetchModel { zoo_id: 42 },
            Request::Certainty {
                images: t(&[1.0; 3], &[3, 1]),
            },
            Request::Metrics,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).unwrap();
            // Request has no PartialEq; re-encoding must be the identity.
            assert_eq!(
                encode_request(&back),
                bytes,
                "roundtrip changed {:?}",
                req.op_name()
            );
        }
    }

    #[test]
    fn error_roundtrip_all_variants() {
        let errs = [
            ServiceError::NotReady,
            ServiceError::UnknownModel(3),
            ServiceError::Invalid("bad shape".into()),
            ServiceError::Unavailable,
            ServiceError::Superseded,
            ServiceError::Busy,
            ServiceError::Protocol("torn frame".into()),
        ];
        for err in errs {
            let bytes = encode_error(&err);
            assert_eq!(decode_error(&bytes).unwrap(), err);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Metrics);
        bytes.push(0);
        assert_eq!(
            decode_request(&bytes).unwrap_err(),
            WireError::TrailingBytes(1),
            "trailing garbage must not be ignored"
        );
    }

    #[test]
    fn forged_vector_count_fails_before_allocating() {
        // LookupMatching with a pdf count of u32::MAX but no data.
        let mut bytes = Vec::new();
        bytes.put_u8(4); // LookupMatching
        bytes.put_u64(1); // count
        bytes.put_u32(u32::MAX); // forged pdf length
        assert_eq!(decode_request(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn forged_tensor_dims_fail_cleanly() {
        // 2×u32::MAX claimed elements — the checked_mul path.
        let mut bytes = Vec::new();
        bytes.put_u8(9); // Certainty
        bytes.put_u8(4); // ndim
        for _ in 0..4 {
            bytes.put_u32(u32::MAX);
        }
        let err = decode_request(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::Invalid(_) | WireError::Truncated),
            "got {err:?}"
        );
    }

    /// The op table is the one sequence the generic `Vec<T>` does not
    /// read: the registry is closed, so rows it has no slot for are refused.
    #[test]
    fn op_table_outside_the_registry_is_invalid() {
        let metrics_reply = |table: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = Vec::new();
            bytes.put_u8(10); // Reply::Metrics
            bytes.put_u32(BUCKETS as u32);
            table(&mut bytes);
            decode_reply(&bytes).unwrap_err()
        };
        let too_long = metrics_reply(&|b| b.put_u32(OPS.len() as u32 + 1));
        assert!(matches!(too_long, WireError::Invalid(_)), "{too_long:?}");
        let unknown = metrics_reply(&|b| {
            b.put_u32(1);
            String::from("nope").put(b);
        });
        assert!(matches!(unknown, WireError::Invalid(_)), "{unknown:?}");
    }

    /// A document nested past the codec's bound inside a reply is an
    /// error, not a client whose stack overflows.
    #[test]
    fn deeply_nested_document_in_a_reply_fails_cleanly() {
        use fairdms_datastore::codec::MAX_NESTING;
        let reply = |levels: usize| {
            // One field holding `levels - 1` nested one-element arrays.
            let mut doc = vec![1, 0, 0, 0, 1, 0, b'a'];
            (1..levels).for_each(|_| doc.extend([8, 1, 0, 0, 0]));
            doc.push(0);
            // `Documents` of one empty document ends in its blob: a `u32`
            // length and the document's four-byte field count.
            let mut bytes = encode_reply(&Reply::Documents(vec![Document::new()]));
            bytes.truncate(bytes.len() - 8);
            put_blob(&mut bytes, &doc);
            decode_reply(&bytes)
        };
        assert!(matches!(reply(MAX_NESTING), Ok(Reply::Documents(d)) if d.len() == 1));
        for levels in [MAX_NESTING + 1, 1_000_001] {
            let err = format!("{:?}", reply(levels).unwrap_err());
            assert!(err.contains("TooDeep"), "{levels} levels: {err}");
        }
    }

    #[test]
    fn nan_tensor_bits_survive_roundtrip() {
        let quiet = f32::from_bits(0x7fc0_0001);
        let req = Request::DatasetPdf {
            images: t(&[quiet, -0.0], &[1, 2]),
        };
        let bytes = encode_request(&req);
        match decode_request(&bytes).unwrap() {
            Request::DatasetPdf { images } => {
                assert_eq!(images.data()[0].to_bits(), 0x7fc0_0001);
                assert_eq!(images.data()[1].to_bits(), (-0.0f32).to_bits());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
