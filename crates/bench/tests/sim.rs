//! Property and cross-codec tests of the simulators: pickle and blosc
//! round-trip arbitrary documents, their stored footprints order the way
//! Figs 6–8 need, a snapshot keeps their payloads verbatim, and the
//! pipeline simulator's epoch time stays inside its bounds.

use bytes::Bytes;
use fairdms_bench::codec::blosc::{packbits_decode, packbits_encode, shuffle, unshuffle};
use fairdms_bench::codec::{BloscCodec, PickleCodec};
use fairdms_bench::pipesim::{simulate, PipelineParams};
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

#[test]
fn codecs_change_stored_footprint() {
    let mk = |codec: Arc<dyn Codec>| {
        let coll = Collection::new("t", codec);
        // Smooth data compresses; pickle inflates.
        let img: Vec<f32> = (0..1024).map(|i| 10.0 + i as f32 * 1e-3).collect();
        coll.insert(&Document::new().with("img", img));
        coll.stored_bytes()
    };
    let raw = mk(Arc::new(RawCodec));
    let pickle = mk(Arc::new(PickleCodec));
    let blosc = mk(Arc::new(BloscCodec::default()));
    assert!(pickle > raw, "pickle {pickle} !> raw {raw}");
    assert!(blosc < raw, "blosc {blosc} !< raw {raw}");
}

#[test]
fn snapshots_keep_pickle_and_blosc_payloads_verbatim() {
    for codec in [
        Arc::new(PickleCodec) as Arc<dyn Codec>,
        Arc::new(BloscCodec::default()),
    ] {
        let coll = Collection::new("snap-test", Arc::clone(&codec));
        for i in 0..50i64 {
            coll.insert(
                &Document::new()
                    .with("cluster", i % 5)
                    .with("pixels", vec![i as f32; 32]),
            );
        }
        coll.delete(7);
        let back = Collection::restore(Arc::clone(&codec), &coll.snapshot()).unwrap();
        assert_eq!(back.ids(), coll.ids());
        assert_eq!(back.next_id(), coll.next_id());
        for id in coll.ids() {
            assert_eq!(back.get_raw(id), coll.get_raw(id), "payload {id}");
        }
        for c in 0..5 {
            let in_cluster = |d: &Document| d.get_i64("cluster") == Some(c);
            assert_eq!(back.scan(in_cluster), coll.scan(in_cluster));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pickle_codec_roundtrips(doc in arb_document()) {
        let bytes = PickleCodec.encode(&doc);
        prop_assert_eq!(PickleCodec.decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn blosc_codec_roundtrips(doc in arb_document()) {
        let codec = BloscCodec::default();
        let bytes = codec.encode(&doc);
        prop_assert_eq!(codec.decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn blosc_roundtrips_at_any_element_size(
        doc in arb_document(),
        elem in 1usize..16,
    ) {
        let codec = BloscCodec::with_element_size(elem);
        let bytes = codec.encode(&doc);
        prop_assert_eq!(codec.decode(&bytes).unwrap(), doc);
    }

    #[test]
    fn shuffle_is_a_permutation(data in proptest::collection::vec(any::<u8>(), 0..512), elem in 1usize..9) {
        let s = shuffle(&data, elem);
        prop_assert_eq!(s.len(), data.len());
        let mut a = s.clone();
        let mut b = data.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b); // same multiset of bytes
        prop_assert_eq!(unshuffle(&s, elem), data);
    }

    #[test]
    fn packbits_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let enc = packbits_encode(&data);
        prop_assert_eq!(packbits_decode(&enc, data.len()).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipesim_time_is_monotone_and_bounded(
        n in 1usize..400,
        batch_size in 1usize..32,
        workers in 1usize..12,
        fetch_us in 1.0f64..5_000.0,
        compute_ms in 0.0f64..10.0,
    ) {
        let p = PipelineParams {
            n_samples: n,
            batch_size,
            workers,
            prefetch_batches: 2,
            fetch_secs: vec![fetch_us * 1e-6],
            compute_secs_per_batch: compute_ms * 1e-3,
        };
        let r = simulate(&p);
        // Lower bounds: all compute serial; fetch split across workers.
        prop_assert!(r.epoch_secs >= r.total_compute_secs * 0.999);
        prop_assert!(r.epoch_secs >= r.total_fetch_secs / workers as f64 * 0.999);
        // Upper bound: fully serial execution.
        let serial = r.total_compute_secs + r.total_fetch_secs;
        prop_assert!(r.epoch_secs <= serial * 1.001 + 1e-9);
        prop_assert!(r.mean_io_wait_secs <= r.max_io_wait_secs + 1e-12);
    }

    #[test]
    fn pipesim_more_workers_never_hurt(
        n in 16usize..256,
        batch_size in 1usize..16,
        fetch_us in 10.0f64..2_000.0,
        compute_ms in 0.0f64..4.0,
    ) {
        let run = |workers: usize| {
            simulate(&PipelineParams {
                n_samples: n,
                batch_size,
                workers,
                prefetch_batches: 2,
                fetch_secs: vec![fetch_us * 1e-6],
                compute_secs_per_batch: compute_ms * 1e-3,
            })
            .epoch_secs
        };
        let mut prev = f64::INFINITY;
        for w in [1usize, 2, 4, 8] {
            let t = run(w);
            prop_assert!(t <= prev * 1.001, "workers {w}: {t} > {prev}");
            prev = t;
        }
    }
}
