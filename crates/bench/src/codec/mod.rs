//! The two MongoDB payload formats Figs 6–8 compare against raw reads
//! (DESIGN.md §2). The raw layout the service stores through is
//! `fairdms_datastore::RawCodec`; nothing `fairdms-service` links reaches
//! these two.
//!
//! * [`pickle`] — [`PickleCodec`] emulates pickle's per-object tagging and
//!   f64 promotion (slow decode, fat payload).
//! * [`blosc`] — [`BloscCodec`] does real byte-shuffle + run-length
//!   compression (CPU-heavy encode, small payload).

pub mod blosc;
pub mod pickle;

pub use blosc::BloscCodec;
pub use pickle::PickleCodec;

#[cfg(test)]
pub(crate) fn sample_doc() -> fairdms_datastore::Document {
    use fairdms_datastore::{Document, Value};
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
