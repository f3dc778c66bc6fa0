//! Property tests: raw-codec round-trips over arbitrary documents, and
//! store/snapshot consistency under random operation sequences.

use bytes::Bytes;
use fairdms_datastore::{Codec, Collection, Document, RawCodec, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        // Finite floats only: NaN breaks equality-based roundtrip checks.
        (-1e12f64..1e12).prop_map(Value::F64),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|v| Value::Bytes(Bytes::from(v))),
        proptest::collection::vec(-1e6f32..1e6, 0..128).prop_map(Value::F32Array),
        proptest::collection::vec(any::<u16>(), 0..128).prop_map(Value::U16Array),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..4).prop_map(|m| {
                let mut d = Document::new();
                for (k, v) in m {
                    d.set(&k, v);
                }
                Value::Doc(d)
            }),
        ]
    })
}

fn arb_document() -> impl Strategy<Value = Document> {
    proptest::collection::btree_map("[a-z_]{1,10}", arb_value(), 0..8).prop_map(|m| {
        let mut d = Document::new();
        for (k, v) in m {
            d.set(&k, v);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raw_codec_roundtrips(doc in arb_document()) {
        let bytes = RawCodec.encode(&doc);
        prop_assert_eq!(RawCodec.decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn truncated_raw_never_roundtrips_silently(doc in arb_document()) {
        let bytes = RawCodec.encode(&doc);
        prop_assume!(bytes.len() > 5);
        let cut = bytes.len() - 1;
        // Either an error, or (rarely) a structurally valid prefix —
        // but never equal to the original.
        if let Ok(d) = RawCodec.decode(&bytes[..cut]) {
            prop_assert_ne!(d, doc);
        }
    }

    #[test]
    fn snapshot_roundtrip_under_random_ops(
        ops in proptest::collection::vec((0u8..4, 0i64..5, 0usize..32), 1..64),
    ) {
        let coll = Collection::new("p", Arc::new(RawCodec));
        let mut live: Vec<u64> = Vec::new();
        for (op, cluster, pick) in ops {
            match op {
                0 | 1 => live.push(coll.insert(&Document::new().with("cluster", cluster))),
                2 if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    coll.update(id, &Document::new().with("cluster", cluster));
                }
                3 if !live.is_empty() => {
                    let id = live.remove(pick % live.len());
                    coll.delete(id);
                }
                _ => {}
            }
        }
        prop_assert_eq!(coll.len(), live.len());
        let back = Collection::restore(Arc::new(RawCodec), &coll.snapshot()).unwrap();
        prop_assert_eq!(back.len(), coll.len());
        prop_assert_eq!(back.ids(), coll.ids());
        prop_assert_eq!(back.next_id(), coll.next_id());
        for id in coll.ids() {
            prop_assert_eq!(back.get(id), coll.get(id));
        }
    }

    #[test]
    fn snapshot_restore_never_panics_on_corruption(
        doc_count in 1usize..8,
        flip_at in 0usize..512,
        flip_to in any::<u8>(),
    ) {
        let coll = Collection::new("p", Arc::new(RawCodec));
        for i in 0..doc_count {
            coll.insert(&Document::new().with("x", i as i64));
        }
        let mut snap = coll.snapshot();
        if flip_at < snap.len() {
            snap[flip_at] = flip_to;
        }
        // Must return Ok or a structured error, never panic.
        let _ = Collection::restore(Arc::new(RawCodec), &snap);
    }
}
