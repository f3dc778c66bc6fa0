//! Collection persistence: snapshot to bytes / restore from bytes.
//!
//! MongoDB survives restarts; an in-memory stand-in needs an explicit
//! durability story for the same workflows (a beamline's labeled corpus
//! and model Zoo outlive one acquisition session). A snapshot captures the
//! collection name, the id counter and every *encoded* payload verbatim —
//! restore therefore costs no re-encoding (each payload is decoded once, to
//! validate it), and the stored bytes stay bit-identical across the round
//! trip regardless of codec.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic   u32   0x46444D53 ("FDMS")
//! version u8    2  (format 1 also listed index field names; refused)
//! codec   str   (u16 len + utf8) — sanity-checked on restore
//! name    str
//! next_id u64
//! n_docs  u64, then per doc: id u64, payload u32 len + bytes
//! ```

use crate::codec::Codec;
use crate::store::{Collection, DocId};
use crate::wire::{OutOfBounds, Reader, WriteExt};
use bytes::Bytes;
use std::path::Path;
use std::sync::Arc;

const MAGIC: u32 = 0x4644_4D53;
const VERSION: u8 = 2;

/// Errors raised while restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input ended prematurely or a length field overran the buffer.
    Truncated,
    /// The magic number did not match — not a fairDMS snapshot.
    BadMagic(u32),
    /// Snapshot written by an unknown format version.
    BadVersion(u8),
    /// The snapshot was written with a different codec than the one
    /// supplied for restore (payloads would be undecodable).
    CodecMismatch {
        /// Codec recorded in the snapshot.
        expected: String,
        /// Codec supplied to restore.
        found: String,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A document payload failed to decode under the supplied codec
    /// (bit rot or a tampered snapshot).
    CorruptDocument {
        /// Id of the undecodable document.
        id: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::CodecMismatch { expected, found } => {
                write!(f, "snapshot codec '{expected}' but restore codec '{found}'")
            }
            SnapshotError::BadUtf8 => write!(f, "invalid UTF-8 in snapshot header"),
            SnapshotError::CorruptDocument { id } => {
                write!(f, "document {id} failed to decode during restore")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<OutOfBounds> for SnapshotError {
    fn from(_: OutOfBounds) -> Self {
        SnapshotError::Truncated
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too long for snapshot");
    buf.put_u16(s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, SnapshotError> {
    let len = r.u16()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::BadUtf8)
}

impl Collection {
    /// Serializes the collection (documents stay in their encoded form).
    pub fn snapshot(&self) -> Vec<u8> {
        let ids = self.ids();
        let mut buf = Vec::with_capacity(64 + self.stored_bytes() + ids.len() * 12);
        buf.put_u32(MAGIC);
        buf.put_u8(VERSION);
        put_str(&mut buf, self.codec().name());
        put_str(&mut buf, self.name());
        buf.put_u64(self.next_id());
        buf.put_u64(ids.len() as u64);
        for id in ids {
            // A concurrent delete between ids() and get_raw() surfaces as a
            // missing payload; skip it (snapshot-consistency is per-doc).
            if let Some(raw) = self.get_raw(id) {
                buf.put_u64(id);
                buf.put_u32(raw.len() as u32);
                buf.extend_from_slice(&raw);
            } else {
                buf.put_u64(id);
                buf.put_u32(0);
            }
        }
        buf
    }

    /// Rebuilds a collection from [`Collection::snapshot`] bytes. The
    /// supplied codec must match the codec the snapshot was written with.
    pub fn restore(codec: Arc<dyn Codec>, bytes: &[u8]) -> Result<Collection, SnapshotError> {
        let mut r = Reader::new(bytes);
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let codec_name = read_str(&mut r)?;
        if codec_name != codec.name() {
            return Err(SnapshotError::CodecMismatch {
                expected: codec_name,
                found: codec.name().to_string(),
            });
        }
        let name = read_str(&mut r)?;
        let next_id = r.u64()? as DocId;
        let n_docs = r.u64()? as usize;
        let coll = Collection::new(&name, codec);
        for _ in 0..n_docs {
            let id = r.u64()? as DocId;
            let len = r.u32()? as usize;
            if len > 0 {
                let payload = Bytes::copy_from_slice(r.take(len)?);
                // Validate now: a payload that cannot decode would otherwise
                // panic later inside `get`.
                if coll.codec().decode(&payload).is_err() {
                    return Err(SnapshotError::CorruptDocument { id });
                }
                coll.insert_raw_with_id(id, payload);
            }
        }
        coll.set_next_id(next_id);
        Ok(coll)
    }

    /// Writes a snapshot to a file.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot())
    }

    /// Restores a collection from a snapshot file.
    pub fn load_from(
        codec: Arc<dyn Codec>,
        path: impl AsRef<Path>,
    ) -> std::io::Result<Result<Collection, SnapshotError>> {
        Ok(Collection::restore(codec, &std::fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, RawCodec};
    use crate::value::Document;

    fn populated(codec: Arc<dyn Codec>) -> Collection {
        let coll = Collection::new("snap-test", codec);
        for i in 0..50i64 {
            coll.insert(
                &Document::new()
                    .with("cluster", i % 5)
                    .with("scan", i / 10)
                    .with("pixels", vec![i as f32; 32]),
            );
        }
        // Exercise id-space holes.
        coll.delete(7);
        coll.delete(23);
        coll
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let codec: Arc<dyn Codec> = Arc::new(RawCodec);
        let coll = populated(Arc::clone(&codec));
        let snap = coll.snapshot();
        let back = Collection::restore(codec, &snap).unwrap();
        assert_eq!(back.name(), "snap-test");
        assert_eq!(back.len(), 48);
        assert_eq!(back.ids(), coll.ids());
        assert_eq!(back.next_id(), coll.next_id());
        for id in coll.ids() {
            assert_eq!(back.get_raw(id), coll.get_raw(id), "payload {id}");
        }
        // Ids continue from where the original left off.
        let new_id = back.insert(&Document::new().with("cluster", 0i64));
        assert_eq!(new_id, 50);
    }

    #[test]
    fn restore_rejects_garbage() {
        let raw: Arc<dyn Codec> = Arc::new(RawCodec);
        assert_eq!(
            Collection::restore(Arc::clone(&raw), &[]).unwrap_err(),
            SnapshotError::Truncated
        );
        assert!(matches!(
            Collection::restore(Arc::clone(&raw), &[0xde, 0xad, 0xbe, 0xef, 1]),
            Err(SnapshotError::BadMagic(_))
        ));
        let mut snap = populated(Arc::clone(&raw)).snapshot();
        snap[4] = 99; // version byte
        assert_eq!(
            Collection::restore(Arc::clone(&raw), &snap).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    /// Format 1 listed index field names between the id counter and the
    /// documents; read as format 2, that list would be taken for documents.
    #[test]
    fn restore_refuses_format_1() {
        let mut v1 = Vec::new();
        v1.put_u32(MAGIC);
        v1.put_u8(1);
        put_str(&mut v1, RawCodec.name());
        put_str(&mut v1, "old");
        v1.put_u64(1);
        v1.put_u16(1);
        put_str(&mut v1, "cluster");
        let payload = RawCodec.encode(&Document::new().with("cluster", 3i64));
        v1.put_u64(1);
        v1.put_u64(0);
        v1.put_u32(payload.len() as u32);
        v1.extend_from_slice(&payload);
        assert_eq!(
            Collection::restore(Arc::new(RawCodec), &v1).unwrap_err(),
            SnapshotError::BadVersion(1)
        );
    }

    /// The raw layout under another name: payloads `RawCodec` could decode,
    /// in a snapshot it must still refuse.
    struct Renamed;

    impl Codec for Renamed {
        fn name(&self) -> &'static str {
            "renamed"
        }
        fn encode(&self, doc: &Document) -> Vec<u8> {
            RawCodec.encode(doc)
        }
        fn decode(&self, bytes: &[u8]) -> Result<Document, CodecError> {
            RawCodec.decode(bytes)
        }
    }

    #[test]
    fn restore_rejects_codec_mismatch() {
        let coll = populated(Arc::new(Renamed));
        let snap = coll.snapshot();
        let err = Collection::restore(Arc::new(RawCodec), &snap).unwrap_err();
        assert!(matches!(err, SnapshotError::CodecMismatch { .. }));
        assert!(err.to_string().contains("renamed"), "{err}");
    }

    #[test]
    fn truncated_snapshot_fails_cleanly() {
        let coll = populated(Arc::new(RawCodec));
        let snap = coll.snapshot();
        for cut in [10, snap.len() / 2, snap.len() - 1] {
            let err = Collection::restore(Arc::new(RawCodec), &snap[..cut]).unwrap_err();
            assert_eq!(err, SnapshotError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fairdms-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coll.fdms");
        let coll = populated(Arc::new(RawCodec));
        coll.save_to(&path).unwrap();
        let back = Collection::load_from(Arc::new(RawCodec), &path)
            .unwrap()
            .unwrap();
        assert_eq!(back.len(), coll.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_collection_roundtrips() {
        let coll = Collection::new("empty", Arc::new(RawCodec));
        let back = Collection::restore(Arc::new(RawCodec), &coll.snapshot()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.next_id(), 0);
    }
}
