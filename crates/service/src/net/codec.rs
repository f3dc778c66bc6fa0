//! Binary codecs for [`Request`], [`Reply`] and [`ServiceError`]
//! (DESIGN.md §13).
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
//! * [`Tensor`] as `u8` ndim + ndim × `u32` dims + row-major `f32` data
//!   (bit patterns preserved exactly — encode∘decode is the identity even
//!   for NaN payloads);
//! * [`Document`] via [`RawCodec`] with a `u32` length prefix.

use crate::api::{RankedModels, Reply, Request, ServiceError};
use crate::metrics::{MetricsSnapshot, OpSnapshot, BUCKETS, OPS};
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
// Field helpers
// ---------------------------------------------------------------------

fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.put_u64(v as u64);
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize, WireError> {
    usize::try_from(r.u64()?).map_err(|_| WireError::Invalid("usize overflow".into()))
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.put_u8(v as u8);
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::BadTag {
            what: "bool",
            tag: b,
        }),
    }
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    assert!(v.len() <= u32::MAX as usize, "blob over u32::MAX bytes");
    out.put_u32(v.len() as u32);
    out.extend_from_slice(v);
}

fn get_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.u32()? as usize;
    Ok(r.take(len)?.to_vec())
}

fn put_string(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    String::from_utf8(get_bytes(r)?).map_err(|_| WireError::BadUtf8)
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    assert!(v.len() <= u32::MAX as usize, "vector over u32::MAX entries");
    out.put_u32(v.len() as u32);
    for x in v {
        out.put_f64(*x);
    }
}

fn get_f64_vec(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let len = r.u32()? as usize;
    // Validate the implied byte size against the input before allocating:
    // a forged count must fail here, not in the allocator.
    let need = len.checked_mul(8).ok_or(WireError::Truncated)?;
    if need > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(r.f64()?);
    }
    Ok(v)
}

fn put_opt_usize(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.put_u8(0),
        Some(x) => {
            out.put_u8(1);
            put_usize(out, x);
        }
    }
}

fn get_opt_usize(r: &mut Reader<'_>) -> Result<Option<usize>, WireError> {
    Ok(if get_bool(r)? {
        Some(get_usize(r)?)
    } else {
        None
    })
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.put_u8(0),
        Some(x) => {
            out.put_u8(1);
            out.put_f64(x);
        }
    }
}

fn get_opt_f64(r: &mut Reader<'_>) -> Result<Option<f64>, WireError> {
    Ok(if get_bool(r)? { Some(r.f64()?) } else { None })
}

/// Most tensors on this wire are `[N, side²]` matrices; 8 dims is far
/// beyond anything the service constructs and bounds hostile inputs.
const MAX_TENSOR_NDIM: u8 = 8;

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let shape = t.shape();
    assert!(
        shape.len() <= MAX_TENSOR_NDIM as usize,
        "tensor rank over wire limit"
    );
    out.put_u8(shape.len() as u8);
    for d in shape {
        assert!(*d <= u32::MAX as usize, "tensor dim over u32::MAX");
        out.put_u32(*d as u32);
    }
    for x in t.data() {
        out.put_f32(*x);
    }
}

fn get_tensor(r: &mut Reader<'_>) -> Result<Tensor, WireError> {
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
    let need = numel.checked_mul(4).ok_or(WireError::Truncated)?;
    if need > r.remaining() {
        return Err(WireError::Truncated);
    }
    let raw = r.take(need).expect("size checked");
    let mut data = Vec::with_capacity(numel);
    for chunk in raw.chunks_exact(4) {
        data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
    }
    Ok(Tensor::from_vec(data, &dims))
}

fn put_document(out: &mut Vec<u8>, doc: &Document) {
    put_bytes(out, &RawCodec.encode(doc));
}

fn get_document(r: &mut Reader<'_>) -> Result<Document, WireError> {
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    Ok(RawCodec.decode(bytes)?)
}

fn put_documents(out: &mut Vec<u8>, docs: &[Document]) {
    assert!(docs.len() <= u32::MAX as usize, "too many documents");
    out.put_u32(docs.len() as u32);
    for d in docs {
        put_document(out, d);
    }
}

fn get_documents(r: &mut Reader<'_>) -> Result<Vec<Document>, WireError> {
    let len = r.u32()? as usize;
    // Each document costs ≥4 bytes of input (its own length prefix), so
    // the count is bounded by what's actually present.
    if len.checked_mul(4).ok_or(WireError::Truncated)? > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut docs = Vec::with_capacity(len);
    for _ in 0..len {
        docs.push(get_document(r)?);
    }
    Ok(docs)
}

fn put_embed_cfg(out: &mut Vec<u8>, cfg: &EmbedTrainConfig) {
    put_usize(out, cfg.epochs);
    put_usize(out, cfg.batch_size);
    out.put_f32(cfg.lr);
    out.put_f32(cfg.temperature);
    out.put_f32(cfg.tau);
    out.put_u64(cfg.seed);
}

fn get_embed_cfg(r: &mut Reader<'_>) -> Result<EmbedTrainConfig, WireError> {
    Ok(EmbedTrainConfig {
        epochs: get_usize(r)?,
        batch_size: get_usize(r)?,
        lr: r.f32()?,
        temperature: r.f32()?,
        tau: r.f32()?,
        seed: r.u64()?,
    })
}

fn put_label_stats(out: &mut Vec<u8>, s: &PseudoLabelStats) {
    put_usize(out, s.reused);
    put_usize(out, s.computed);
}

fn get_label_stats(r: &mut Reader<'_>) -> Result<PseudoLabelStats, WireError> {
    Ok(PseudoLabelStats {
        reused: get_usize(r)?,
        computed: get_usize(r)?,
    })
}

fn put_train_report(out: &mut Vec<u8>, rep: &TrainReport) {
    assert!(rep.curve.len() <= u32::MAX as usize, "curve over u32::MAX");
    out.put_u32(rep.curve.len() as u32);
    for s in &rep.curve {
        put_usize(out, s.epoch);
        out.put_f32(s.train_loss);
        out.put_f32(s.val_loss);
    }
    out.put_f64(rep.wall_secs);
    put_bool(out, rep.stopped_early);
    put_bool(out, rep.cancelled);
}

fn get_train_report(r: &mut Reader<'_>) -> Result<TrainReport, WireError> {
    let len = r.u32()? as usize;
    // 16 bytes per epoch stat on the wire.
    if len.checked_mul(16).ok_or(WireError::Truncated)? > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut curve = Vec::with_capacity(len);
    for _ in 0..len {
        curve.push(EpochStat {
            epoch: get_usize(r)?,
            train_loss: r.f32()?,
            val_loss: r.f32()?,
        });
    }
    Ok(TrainReport {
        curve,
        wall_secs: r.f64()?,
        stopped_early: get_bool(r)?,
        cancelled: get_bool(r)?,
    })
}

fn put_update_report(out: &mut Vec<u8>, rep: &UpdateReport) {
    out.put_f64(rep.label_secs);
    out.put_f64(rep.train_secs);
    put_label_stats(out, &rep.label_stats);
    put_opt_usize(out, rep.foundation);
    put_opt_f64(out, rep.divergence);
    put_usize(out, rep.epochs);
    put_train_report(out, &rep.train_report);
    put_usize(out, rep.registered_id);
}

fn get_update_report(r: &mut Reader<'_>) -> Result<UpdateReport, WireError> {
    Ok(UpdateReport {
        label_secs: r.f64()?,
        train_secs: r.f64()?,
        label_stats: get_label_stats(r)?,
        foundation: get_opt_usize(r)?,
        divergence: get_opt_f64(r)?,
        epochs: get_usize(r)?,
        train_report: get_train_report(r)?,
        registered_id: get_usize(r)?,
    })
}

fn put_ranked(out: &mut Vec<u8>, ranked: &RankedModels) {
    assert!(
        ranked.ranked.len() <= u32::MAX as usize,
        "ranking over u32::MAX"
    );
    out.put_u32(ranked.ranked.len() as u32);
    for (id, jsd) in &ranked.ranked {
        put_usize(out, *id);
        out.put_f64(*jsd);
    }
    put_bool(out, ranked.fine_tunable);
}

fn get_ranked(r: &mut Reader<'_>) -> Result<RankedModels, WireError> {
    let len = r.u32()? as usize;
    if len.checked_mul(16).ok_or(WireError::Truncated)? > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut ranked = Vec::with_capacity(len);
    for _ in 0..len {
        let id = get_usize(r)?;
        let jsd = r.f64()?;
        ranked.push((id, jsd));
    }
    Ok(RankedModels {
        ranked,
        fine_tunable: get_bool(r)?,
    })
}

fn put_op_snapshot(out: &mut Vec<u8>, s: &OpSnapshot) {
    out.put_u64(s.count);
    out.put_u64(s.errors);
    out.put_u64(s.total_ns);
    out.put_u64(s.min_ns);
    out.put_u64(s.max_ns);
    for b in &s.histogram {
        out.put_u64(*b);
    }
}

fn get_op_snapshot(r: &mut Reader<'_>) -> Result<OpSnapshot, WireError> {
    let count = r.u64()?;
    let errors = r.u64()?;
    let total_ns = r.u64()?;
    let min_ns = r.u64()?;
    let max_ns = r.u64()?;
    let mut histogram = [0u64; BUCKETS];
    for b in histogram.iter_mut() {
        *b = r.u64()?;
    }
    Ok(OpSnapshot {
        count,
        errors,
        total_ns,
        min_ns,
        max_ns,
        histogram,
    })
}

fn put_op_table(out: &mut Vec<u8>, table: &[(&'static str, OpSnapshot)]) {
    assert!(table.len() <= u32::MAX as usize, "op table over u32::MAX");
    out.put_u32(table.len() as u32);
    for (name, snap) in table {
        put_string(out, name);
        put_op_snapshot(out, snap);
    }
}

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
        let name = get_string(r)?;
        // Map back onto the registry's static names so the decoded
        // snapshot is indistinguishable from a local one.
        let static_name = OPS
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| WireError::Invalid(format!("unknown op name {name:?}")))?;
        table.push((static_name, get_op_snapshot(r)?));
    }
    Ok(table)
}

fn put_embed_cache(out: &mut Vec<u8>, s: &EmbedCacheStats) {
    out.put_u64(s.hits);
    out.put_u64(s.misses);
    out.put_u64(s.evictions);
    out.put_u64(s.stale_generation);
}

fn get_embed_cache(r: &mut Reader<'_>) -> Result<EmbedCacheStats, WireError> {
    Ok(EmbedCacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        stale_generation: r.u64()?,
    })
}

fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    // Histogram width goes first so a peer built against a different
    // BUCKETS fails loudly instead of misparsing every histogram.
    out.put_u32(BUCKETS as u32);
    put_op_table(out, &m.ops);
    put_op_table(out, &m.queue);
    put_embed_cache(out, &m.embed_cache);
    m.put_u64s(out);
    m.net.put_u64s(out);
}

fn get_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let buckets = r.u32()? as usize;
    if buckets != BUCKETS {
        return Err(WireError::Invalid(format!(
            "histogram width {buckets} != {BUCKETS}"
        )));
    }
    // The plain counters are read back by the field table that declares
    // them (`metrics::u64_table!`), in the order `put_metrics` wrote them.
    let mut m = MetricsSnapshot {
        ops: get_op_table(r)?,
        queue: get_op_table(r)?,
        embed_cache: get_embed_cache(r)?,
        ..MetricsSnapshot::default()
    };
    m.get_u64s(r)?;
    m.net.get_u64s(r)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

const REQ_TRAIN_SYSTEM: u8 = 0;
const REQ_INGEST: u8 = 1;
const REQ_PDF: u8 = 2;
const REQ_PSEUDO_LABEL: u8 = 3;
const REQ_LOOKUP: u8 = 4;
const REQ_RECOMMEND: u8 = 5;
const REQ_UPDATE: u8 = 6;
const REQ_PUBLISH: u8 = 7;
const REQ_FETCH: u8 = 8;
const REQ_CERTAINTY: u8 = 9;
const REQ_METRICS: u8 = 10;

/// Encodes a request into its wire payload (the frame layer adds the
/// seq/kind envelope).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::TrainSystem { images, embed_cfg } => {
            out.put_u8(REQ_TRAIN_SYSTEM);
            put_embed_cfg(&mut out, embed_cfg);
            put_tensor(&mut out, images);
        }
        Request::IngestLabeled {
            images,
            labels,
            scan,
        } => {
            out.put_u8(REQ_INGEST);
            put_usize(&mut out, *scan);
            put_tensor(&mut out, images);
            put_tensor(&mut out, labels);
        }
        Request::DatasetPdf { images } => {
            out.put_u8(REQ_PDF);
            put_tensor(&mut out, images);
        }
        Request::PseudoLabel { images, threshold } => {
            out.put_u8(REQ_PSEUDO_LABEL);
            out.put_f32(*threshold);
            put_tensor(&mut out, images);
        }
        Request::LookupMatching { pdf, count } => {
            out.put_u8(REQ_LOOKUP);
            put_usize(&mut out, *count);
            put_f64_vec(&mut out, pdf);
        }
        Request::Recommend { pdf, top_k } => {
            out.put_u8(REQ_RECOMMEND);
            put_opt_usize(&mut out, *top_k);
            put_f64_vec(&mut out, pdf);
        }
        Request::UpdateModel { images, scan } => {
            out.put_u8(REQ_UPDATE);
            put_usize(&mut out, *scan);
            put_tensor(&mut out, images);
        }
        Request::PublishModel {
            name,
            checkpoint,
            pdf,
            scan,
        } => {
            out.put_u8(REQ_PUBLISH);
            put_string(&mut out, name);
            put_usize(&mut out, *scan);
            put_f64_vec(&mut out, pdf);
            put_bytes(&mut out, checkpoint);
        }
        Request::FetchModel { zoo_id } => {
            out.put_u8(REQ_FETCH);
            put_usize(&mut out, *zoo_id);
        }
        Request::Certainty { images } => {
            out.put_u8(REQ_CERTAINTY);
            put_tensor(&mut out, images);
        }
        Request::Metrics => {
            out.put_u8(REQ_METRICS);
        }
    }
    out
}

/// Decodes a request payload; every byte must be consumed.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let req = match tag {
        REQ_TRAIN_SYSTEM => {
            let embed_cfg = get_embed_cfg(&mut r)?;
            let images = get_tensor(&mut r)?;
            Request::TrainSystem { images, embed_cfg }
        }
        REQ_INGEST => {
            let scan = get_usize(&mut r)?;
            let images = get_tensor(&mut r)?;
            let labels = get_tensor(&mut r)?;
            Request::IngestLabeled {
                images,
                labels,
                scan,
            }
        }
        REQ_PDF => Request::DatasetPdf {
            images: get_tensor(&mut r)?,
        },
        REQ_PSEUDO_LABEL => {
            let threshold = r.f32()?;
            let images = get_tensor(&mut r)?;
            Request::PseudoLabel { images, threshold }
        }
        REQ_LOOKUP => {
            let count = get_usize(&mut r)?;
            let pdf = get_f64_vec(&mut r)?;
            Request::LookupMatching { pdf, count }
        }
        REQ_RECOMMEND => {
            let top_k = get_opt_usize(&mut r)?;
            let pdf = get_f64_vec(&mut r)?;
            Request::Recommend { pdf, top_k }
        }
        REQ_UPDATE => {
            let scan = get_usize(&mut r)?;
            let images = get_tensor(&mut r)?;
            Request::UpdateModel { images, scan }
        }
        REQ_PUBLISH => {
            let name = get_string(&mut r)?;
            let scan = get_usize(&mut r)?;
            let pdf = get_f64_vec(&mut r)?;
            let checkpoint = get_bytes(&mut r)?;
            Request::PublishModel {
                name,
                checkpoint,
                pdf,
                scan,
            }
        }
        REQ_FETCH => Request::FetchModel {
            zoo_id: get_usize(&mut r)?,
        },
        REQ_CERTAINTY => Request::Certainty {
            images: get_tensor(&mut r)?,
        },
        REQ_METRICS => Request::Metrics,
        t => {
            return Err(WireError::BadTag {
                what: "request",
                tag: t,
            })
        }
    };
    finish(r)?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Reply
// ---------------------------------------------------------------------

const REP_SYSTEM_TRAINED: u8 = 0;
const REP_INGESTED: u8 = 1;
const REP_PDF: u8 = 2;
const REP_LABELED: u8 = 3;
const REP_DOCUMENTS: u8 = 4;
const REP_RANKED: u8 = 5;
const REP_UPDATED: u8 = 6;
const REP_PUBLISHED: u8 = 7;
const REP_MODEL: u8 = 8;
const REP_CERTAINTY: u8 = 9;
const REP_METRICS: u8 = 10;

/// Encodes a successful reply into its wire payload.
pub fn encode_reply(rep: &Reply) -> Vec<u8> {
    let mut out = Vec::new();
    match rep {
        Reply::SystemTrained { k } => {
            out.put_u8(REP_SYSTEM_TRAINED);
            put_usize(&mut out, *k);
        }
        Reply::Ingested { count, retrained } => {
            out.put_u8(REP_INGESTED);
            put_usize(&mut out, *count);
            put_bool(&mut out, *retrained);
        }
        Reply::Pdf(pdf) => {
            out.put_u8(REP_PDF);
            put_f64_vec(&mut out, pdf);
        }
        Reply::Labeled { labels, stats } => {
            out.put_u8(REP_LABELED);
            put_label_stats(&mut out, stats);
            put_tensor(&mut out, labels);
        }
        Reply::Documents(docs) => {
            out.put_u8(REP_DOCUMENTS);
            put_documents(&mut out, docs);
        }
        Reply::Ranked(ranked) => {
            out.put_u8(REP_RANKED);
            put_ranked(&mut out, ranked);
        }
        Reply::Updated { checkpoint, report } => {
            out.put_u8(REP_UPDATED);
            put_update_report(&mut out, report);
            put_bytes(&mut out, checkpoint);
        }
        Reply::Published { zoo_id } => {
            out.put_u8(REP_PUBLISHED);
            put_usize(&mut out, *zoo_id);
        }
        Reply::Model { checkpoint, pdf } => {
            out.put_u8(REP_MODEL);
            put_f64_vec(&mut out, pdf);
            put_bytes(&mut out, checkpoint);
        }
        Reply::Certainty(c) => {
            out.put_u8(REP_CERTAINTY);
            out.put_f64(*c);
        }
        Reply::Metrics(m) => {
            out.put_u8(REP_METRICS);
            put_metrics(&mut out, m);
        }
    }
    out
}

/// Decodes a reply payload; every byte must be consumed.
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let rep = match tag {
        REP_SYSTEM_TRAINED => Reply::SystemTrained {
            k: get_usize(&mut r)?,
        },
        REP_INGESTED => Reply::Ingested {
            count: get_usize(&mut r)?,
            retrained: get_bool(&mut r)?,
        },
        REP_PDF => Reply::Pdf(get_f64_vec(&mut r)?),
        REP_LABELED => {
            let stats = get_label_stats(&mut r)?;
            let labels = get_tensor(&mut r)?;
            Reply::Labeled { labels, stats }
        }
        REP_DOCUMENTS => Reply::Documents(get_documents(&mut r)?),
        REP_RANKED => Reply::Ranked(get_ranked(&mut r)?),
        REP_UPDATED => {
            let report = get_update_report(&mut r)?;
            let checkpoint = get_bytes(&mut r)?;
            Reply::Updated { checkpoint, report }
        }
        REP_PUBLISHED => Reply::Published {
            zoo_id: get_usize(&mut r)?,
        },
        REP_MODEL => {
            let pdf = get_f64_vec(&mut r)?;
            let checkpoint = get_bytes(&mut r)?;
            Reply::Model { checkpoint, pdf }
        }
        REP_CERTAINTY => Reply::Certainty(r.f64()?),
        REP_METRICS => Reply::Metrics(get_metrics(&mut r)?),
        t => {
            return Err(WireError::BadTag {
                what: "reply",
                tag: t,
            })
        }
    };
    finish(r)?;
    Ok(rep)
}

// ---------------------------------------------------------------------
// ServiceError
// ---------------------------------------------------------------------

const ERR_NOT_READY: u8 = 0;
const ERR_UNKNOWN_MODEL: u8 = 1;
const ERR_INVALID: u8 = 2;
const ERR_UNAVAILABLE: u8 = 3;
const ERR_SUPERSEDED: u8 = 4;
const ERR_BUSY: u8 = 5;
const ERR_PROTOCOL: u8 = 6;

/// Encodes a service error into its wire payload.
pub fn encode_error(err: &ServiceError) -> Vec<u8> {
    let mut out = Vec::new();
    match err {
        ServiceError::NotReady => out.put_u8(ERR_NOT_READY),
        ServiceError::UnknownModel(id) => {
            out.put_u8(ERR_UNKNOWN_MODEL);
            put_usize(&mut out, *id);
        }
        ServiceError::Invalid(msg) => {
            out.put_u8(ERR_INVALID);
            put_string(&mut out, msg);
        }
        ServiceError::Unavailable => out.put_u8(ERR_UNAVAILABLE),
        ServiceError::Superseded => out.put_u8(ERR_SUPERSEDED),
        ServiceError::Busy => out.put_u8(ERR_BUSY),
        ServiceError::Protocol(msg) => {
            out.put_u8(ERR_PROTOCOL);
            put_string(&mut out, msg);
        }
    }
    out
}

/// Decodes a service error payload; every byte must be consumed.
pub fn decode_error(bytes: &[u8]) -> Result<ServiceError, WireError> {
    let mut r = Reader::new(bytes);
    let err = match r.u8()? {
        ERR_NOT_READY => ServiceError::NotReady,
        ERR_UNKNOWN_MODEL => ServiceError::UnknownModel(get_usize(&mut r)?),
        ERR_INVALID => ServiceError::Invalid(get_string(&mut r)?),
        ERR_UNAVAILABLE => ServiceError::Unavailable,
        ERR_SUPERSEDED => ServiceError::Superseded,
        ERR_BUSY => ServiceError::Busy,
        ERR_PROTOCOL => ServiceError::Protocol(get_string(&mut r)?),
        t => {
            return Err(WireError::BadTag {
                what: "service error",
                tag: t,
            })
        }
    };
    finish(r)?;
    Ok(err)
}

fn finish(r: Reader<'_>) -> Result<(), WireError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes(r.remaining()))
    }
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
        bytes.put_u8(REQ_LOOKUP);
        bytes.put_u64(1); // count
        bytes.put_u32(u32::MAX); // forged pdf length
        assert_eq!(decode_request(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn forged_tensor_dims_fail_cleanly() {
        // 2×u32::MAX claimed elements — the checked_mul path.
        let mut bytes = Vec::new();
        bytes.put_u8(REQ_CERTAINTY);
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
