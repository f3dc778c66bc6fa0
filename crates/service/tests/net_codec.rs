//! Property tests and decoder fuzzing for the wire codecs (DESIGN.md
//! §13).
//!
//! Two contracts:
//!
//! 1. **Round-trip identity** — for arbitrary well-formed messages,
//!    `decode(encode(m))` reproduces `m` exactly (checked by re-encoding,
//!    since `Request`/`Reply` carry tensors without `PartialEq`), bit
//!    patterns included.
//! 2. **Total decoder** — for *arbitrary bytes* (random garbage,
//!    truncations of valid messages, corrupted tags, hostile length
//!    prefixes) the decoders return an error; they never panic and never
//!    allocate unbounded memory. This is the property that makes it safe
//!    to point the server at an open TCP port.

use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::PseudoLabelStats;
use fairdms_core::reuse::EmbedCacheStats;
use fairdms_core::workflow::UpdateReport;
use fairdms_datastore::Document;
use fairdms_nn::trainer::{EpochStat, TrainReport};
use fairdms_service::net::codec::{
    decode_error, decode_reply, decode_request, encode_error, encode_reply, encode_request,
    WireError,
};
use fairdms_service::net::frame::{read_frame, write_frame, FrameError, FrameKind, BODY_HEADER};
use fairdms_service::{
    Metrics, MetricsSnapshot, NetStats, OpSnapshot, RankedModels, Reply, Request, ServiceError,
};
use fairdms_tensor::Tensor;
use proptest::prelude::*;

/// A tensor with arbitrary contents, including non-finite bit patterns.
fn arb_tensor(rows: usize, cols: usize, bits: &[u32]) -> Tensor {
    let n = rows.max(1) * cols.max(1);
    let data: Vec<f32> = (0..n)
        .map(|i| {
            if bits.is_empty() {
                i as f32
            } else {
                f32::from_bits(bits[i % bits.len()].wrapping_mul(i as u32 + 1))
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows.max(1), cols.max(1)])
}

/// Builds one of the eleven request variants from fuzz inputs.
fn arb_request(variant: u8, rows: usize, cols: usize, bits: &[u32], text: &str) -> Request {
    let pdf: Vec<f64> = (0..cols.max(1)).map(|i| i as f64 * 0.25).collect();
    let req = match variant % 11 {
        0 => Request::TrainSystem {
            images: arb_tensor(rows, cols, bits),
            embed_cfg: EmbedTrainConfig {
                epochs: rows,
                batch_size: cols.max(1),
                seed: bits.first().copied().unwrap_or(0) as u64,
                ..EmbedTrainConfig::default()
            },
        },
        1 => Request::IngestLabeled {
            images: arb_tensor(rows, cols, bits),
            labels: arb_tensor(rows, 2, bits),
            scan: rows,
        },
        2 => Request::DatasetPdf {
            images: arb_tensor(rows, cols, bits),
        },
        3 => Request::PseudoLabel {
            images: arb_tensor(rows, cols, bits),
            threshold: f32::from_bits(bits.first().copied().unwrap_or(0x3f00_0000)),
        },
        4 => Request::LookupMatching { pdf, count: rows },
        5 => Request::Recommend {
            pdf,
            top_k: if rows.is_multiple_of(2) {
                None
            } else {
                Some(rows)
            },
        },
        6 => Request::UpdateModel {
            images: arb_tensor(rows, cols, bits),
            scan: cols,
        },
        7 => Request::PublishModel {
            name: text.to_string(),
            checkpoint: bits.iter().map(|b| *b as u8).collect(),
            pdf,
            scan: rows,
        },
        8 => Request::FetchModel { zoo_id: rows },
        9 => Request::Certainty {
            images: arb_tensor(rows, cols, bits),
        },
        _ => Request::Metrics,
    };
    // Exhaustive on purpose: a new variant does not compile here until it
    // has a number, and does not pass until an arm above draws it.
    let drawn = match &req {
        Request::TrainSystem { .. } => 0,
        Request::IngestLabeled { .. } => 1,
        Request::DatasetPdf { .. } => 2,
        Request::PseudoLabel { .. } => 3,
        Request::LookupMatching { .. } => 4,
        Request::Recommend { .. } => 5,
        Request::UpdateModel { .. } => 6,
        Request::PublishModel { .. } => 7,
        Request::FetchModel { .. } => 8,
        Request::Certainty { .. } => 9,
        Request::Metrics => 10,
    };
    assert_eq!(drawn, variant % 11);
    req
}

/// Builds one of the eleven reply variants from fuzz inputs.
fn arb_reply(variant: u8, n: usize, flag: bool, bits: &[u32]) -> Reply {
    let pdf: Vec<f64> = (0..n).map(|i| i as f64 / 7.0).collect();
    let blob: Vec<u8> = bits.iter().map(|b| *b as u8).collect();
    let stats = PseudoLabelStats {
        reused: n,
        computed: bits.len(),
    };
    let rep = match variant % 11 {
        0 => Reply::SystemTrained { k: n },
        1 => Reply::Ingested {
            count: n,
            retrained: flag,
        },
        2 => Reply::Pdf(pdf),
        3 => Reply::Labeled {
            labels: arb_tensor(n, 2, bits),
            stats,
        },
        4 => Reply::Documents(
            (0..n)
                .map(|i| {
                    Document::new()
                        .with("pixels", arb_tensor(1, i, bits).data().to_vec())
                        .with("cluster", i as i64)
                })
                .collect(),
        ),
        5 => Reply::Ranked(RankedModels {
            ranked: (0..n).map(|i| (i, i as f64 * 0.125)).collect(),
            fine_tunable: flag,
        }),
        6 => Reply::Updated {
            checkpoint: blob,
            report: UpdateReport {
                label_secs: n as f64 * 0.5,
                train_secs: f64::from_bits(bits.first().copied().unwrap_or(0) as u64),
                label_stats: stats,
                foundation: flag.then_some(n),
                divergence: (!flag).then_some(0.25),
                epochs: n,
                train_report: TrainReport {
                    curve: (0..n)
                        .map(|epoch| EpochStat {
                            epoch,
                            train_loss: f32::from_bits(bits.get(epoch).copied().unwrap_or(7)),
                            val_loss: epoch as f32,
                        })
                        .collect(),
                    wall_secs: 0.125,
                    stopped_early: flag,
                    cancelled: !flag,
                },
                registered_id: n + 1,
            },
        },
        7 => Reply::Published { zoo_id: n },
        8 => Reply::Model {
            checkpoint: blob,
            pdf,
        },
        9 => Reply::Certainty(f64::from_bits(
            u64::from(bits.first().copied().unwrap_or(0)) << 32 | n as u64,
        )),
        _ => {
            let registry = Metrics::new();
            for (i, b) in bits.iter().enumerate() {
                let took = std::time::Duration::from_micros(u64::from(*b >> 12));
                registry
                    .op(if flag { "pdf" } else { "fetch" })
                    .record(took, i != n);
            }
            let mut m = registry.snapshot();
            m.rejected = n as u64;
            m.net.bytes_out = bits.len() as u64;
            Reply::Metrics(m)
        }
    };
    // Exhaustive on purpose, as in `arb_request`.
    let drawn = match &rep {
        Reply::SystemTrained { .. } => 0,
        Reply::Ingested { .. } => 1,
        Reply::Pdf(_) => 2,
        Reply::Labeled { .. } => 3,
        Reply::Documents(_) => 4,
        Reply::Ranked(_) => 5,
        Reply::Updated { .. } => 6,
        Reply::Published { .. } => 7,
        Reply::Model { .. } => 8,
        Reply::Certainty(_) => 9,
        Reply::Metrics(_) => 10,
    };
    assert_eq!(drawn, variant % 11);
    rep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrip_is_identity(
        variant in 0u8..11,
        rows in 1usize..6,
        cols in 1usize..9,
        bits in proptest::collection::vec(0u32..u32::MAX, 0..8),
        text in "[a-zA-Z0-9 _-]{0,16}",
    ) {
        let req = arb_request(variant, rows, cols, &bits, &text);
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).expect("well-formed request must decode");
        prop_assert_eq!(encode_request(&back), bytes);
    }

    #[test]
    fn error_roundtrip_is_identity(
        which in 0u8..7,
        id in 0usize..1_000_000,
        msg in "[a-zA-Z0-9 .!?]{0,24}",
    ) {
        let err = match which {
            0 => ServiceError::NotReady,
            1 => ServiceError::UnknownModel(id),
            2 => ServiceError::Invalid(msg.clone()),
            3 => ServiceError::Unavailable,
            4 => ServiceError::Superseded,
            5 => ServiceError::Busy,
            _ => ServiceError::Protocol(msg.clone()),
        };
        let bytes = encode_error(&err);
        prop_assert_eq!(decode_error(&bytes).unwrap(), err);
    }

    #[test]
    fn reply_roundtrip_is_identity(
        variant in 0u8..11,
        n in 0usize..12,
        flag in any::<bool>(),
        bits in proptest::collection::vec(0u32..u32::MAX, 0..6),
    ) {
        let rep = arb_reply(variant, n, flag, &bits);
        let bytes = encode_reply(&rep);
        let back = decode_reply(&bytes).expect("well-formed reply must decode");
        prop_assert_eq!(encode_reply(&back), bytes);
    }

    // ------------------------------------------------------------------
    // Decoder totality: arbitrary bytes never panic.
    // ------------------------------------------------------------------

    #[test]
    fn decoders_never_panic_on_garbage(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        // Any result is fine; panicking or hanging is the failure mode.
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
        let _ = decode_error(&bytes);
    }

    #[test]
    fn truncations_of_valid_requests_error_cleanly(
        variant in 0u8..11,
        rows in 1usize..4,
        cols in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let req = arb_request(variant, rows, cols, &[0x3f80_0000], "x");
        let bytes = encode_request(&req);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let res = decode_request(&bytes[..cut]);
            prop_assert!(res.is_err(), "truncated at {cut}/{} decoded", bytes.len());
        }
    }

    #[test]
    fn corrupted_tag_bytes_error_cleanly(
        variant in 0u8..11,
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let req = arb_request(variant, 2, 3, &[1, 2, 3], "tag");
        let mut bytes = encode_request(&req);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= xor;
        // Must not panic; may decode to a different valid message (the
        // flip hit payload data) or error — both acceptable.
        let _ = decode_request(&bytes);
    }

    #[test]
    fn frame_reader_never_panics_on_arbitrary_prefixes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        max_len in 16u32..4096,
    ) {
        let mut cursor = std::io::Cursor::new(&bytes[..]);
        match read_frame(&mut cursor, max_len) {
            Ok(f) => {
                // Whatever decoded must satisfy the declared bounds.
                prop_assert!(f.payload.len() + BODY_HEADER <= max_len as usize);
            }
            Err(FrameError::TooLong { len, max }) => {
                prop_assert!(len > max);
            }
            Err(_) => {}
        }
    }
}

/// Oversized-frame handling is deterministic, so it gets a plain test on
/// top of the fuzz: a declared length of `max + 1` is rejected while
/// `max` passes (given the bytes).
#[test]
fn frame_length_boundary_is_exact() {
    let max = 64u32;
    let payload = vec![7u8; (max as usize) - BODY_HEADER];
    let mut buf = Vec::new();
    write_frame(&mut buf, 5, 0, FrameKind::Request, &payload);
    let f = read_frame(&mut std::io::Cursor::new(&buf), max).expect("at-limit frame accepted");
    assert_eq!(f.payload, payload);

    let over = vec![7u8; (max as usize) - BODY_HEADER + 1];
    let mut buf = Vec::new();
    write_frame(&mut buf, 5, 0, FrameKind::Request, &over);
    match read_frame(&mut std::io::Cursor::new(&buf), max) {
        Err(FrameError::TooLong { len, max: m }) => {
            assert_eq!(len, max + 1);
            assert_eq!(m, max);
        }
        other => panic!("expected TooLong, got {other:?}"),
    }
}

/// The `Metrics` reply carries every counter of the field table back into
/// the field it came from — including `read_index_rows_decoded`, which the
/// snapshot and the wire lacked until the table generated both.
#[test]
fn metrics_reply_roundtrip_keeps_every_counter_in_its_field() {
    let registry = Metrics::new();
    registry
        .op("pdf")
        .record(std::time::Duration::from_micros(40), true);
    let mut m = registry.snapshot();
    // Distinct values, so a put/get order slip lands in the wrong field.
    m.system_retrains = 1;
    m.rejected = 2;
    m.training_jobs_queued = 3;
    m.read_index_candidates_scanned = 4;
    m.read_index_rows_decoded = 5;
    m.embed_cache.stale_generation = 6;
    m.net.connections_opened = 7;
    m.net.drains_abrupt = 8;
    let bytes = encode_reply(&Reply::Metrics(m.clone()));
    match decode_reply(&bytes).expect("well-formed metrics reply must decode") {
        Reply::Metrics(back) => assert_eq!(back, m),
        other => panic!("decoded {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Golden wire vectors
// ----------------------------------------------------------------------

/// One message of the user plane, for the golden-vector table.
enum Sample {
    Req(Request),
    Rep(Reply),
    Err(ServiceError),
}

impl Sample {
    fn encode(&self) -> Vec<u8> {
        match self {
            Sample::Req(m) => encode_request(m),
            Sample::Rep(m) => encode_reply(m),
            Sample::Err(m) => encode_error(m),
        }
    }

    /// Decodes `bytes` as this sample's kind of message and re-encodes the
    /// result (`Request` / `Reply` carry tensors and have no `PartialEq`).
    fn recode(&self, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        Ok(match self {
            Sample::Req(_) => encode_request(&decode_request(bytes)?),
            Sample::Rep(_) => encode_reply(&decode_reply(bytes)?),
            Sample::Err(_) => encode_error(&decode_error(bytes)?),
        })
    }
}

fn t(data: &[f32], dims: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), dims)
}

/// The messages [`GOLDEN`] holds the bytes of, in table order: every
/// variant of the three vocabularies, both `top_k` arms of `Recommend`.
fn golden_samples() -> Vec<Sample> {
    let op = |count: u64, errors: u64| OpSnapshot {
        count,
        errors,
        total_ns: 40_000 * count,
        min_ns: 9_000,
        max_ns: 71_000,
        histogram: std::array::from_fn(|i| (i as u64 % 5) * count),
    };
    let metrics = MetricsSnapshot {
        ops: vec![("pdf", op(3, 0)), ("update_model", op(2, 1))],
        queue: vec![("ingest", op(1, 0))],
        embed_cache: EmbedCacheStats {
            hits: 11,
            misses: 12,
            evictions: 13,
            stale_generation: 14,
        },
        system_retrains: 1,
        retrain_docs_copied: 2,
        retrain_docs_delta_embedded: 3,
        training_jobs_started: 4,
        training_jobs_completed: 5,
        training_jobs_superseded: 6,
        backpressure_waits: 7,
        rejected: 8,
        training_jobs_queued: 9,
        read_index_probes: 10,
        read_index_balls_pruned: 11,
        read_index_candidates_scanned: 12,
        read_index_rows_decoded: 13,
        net: NetStats {
            connections_opened: 21,
            connections_active: 22,
            connections_busy_rejected: 23,
            frames_in: 24,
            frames_out: 25,
            replies_inline: 26,
            bytes_in: 27,
            bytes_out: 28,
            decode_errors: 29,
            drains_graceful: 30,
            drains_abrupt: 31,
        },
    };
    let report = UpdateReport {
        label_secs: 0.0015,
        train_secs: 0.0525,
        label_stats: PseudoLabelStats {
            reused: 14,
            computed: 2,
        },
        foundation: Some(2),
        divergence: Some(0.05),
        epochs: 2,
        train_report: TrainReport {
            curve: vec![
                EpochStat {
                    epoch: 0,
                    train_loss: 0.5,
                    val_loss: 0.625,
                },
                EpochStat {
                    epoch: 1,
                    train_loss: 0.25,
                    val_loss: 0.375,
                },
            ],
            wall_secs: 0.05,
            stopped_early: true,
            cancelled: false,
        },
        registered_id: 4,
    };
    vec![
        Sample::Req(Request::TrainSystem {
            images: t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]),
            embed_cfg: EmbedTrainConfig {
                epochs: 3,
                batch_size: 16,
                lr: 0.01,
                temperature: 0.5,
                tau: 0.99,
                seed: 7,
            },
        }),
        Sample::Req(Request::IngestLabeled {
            images: t(&[0.5; 6], &[2, 3]),
            labels: t(&[1.0, 0.0], &[2, 1]),
            scan: 7,
        }),
        Sample::Req(Request::DatasetPdf {
            images: t(&[f32::from_bits(0x7fc0_0001), -0.0], &[1, 2]),
        }),
        Sample::Req(Request::PseudoLabel {
            images: t(&[0.25; 4], &[4, 1]),
            threshold: 0.125,
        }),
        Sample::Req(Request::LookupMatching {
            pdf: vec![0.5, 0.5],
            count: 3,
        }),
        Sample::Req(Request::Recommend {
            pdf: vec![1.0],
            top_k: Some(2),
        }),
        Sample::Req(Request::Recommend {
            pdf: vec![0.25, 0.75],
            top_k: None,
        }),
        Sample::Req(Request::UpdateModel {
            images: t(&[0.0; 2], &[1, 2]),
            scan: 0,
        }),
        Sample::Req(Request::PublishModel {
            name: "résumé-model".into(),
            checkpoint: vec![0, 1, 2, 255],
            pdf: vec![0.25, 0.75],
            scan: 9,
        }),
        Sample::Req(Request::FetchModel { zoo_id: 42 }),
        Sample::Req(Request::Certainty {
            images: t(&[1.0; 3], &[3, 1]),
        }),
        Sample::Req(Request::Metrics),
        Sample::Rep(Reply::SystemTrained { k: 5 }),
        Sample::Rep(Reply::Ingested {
            count: 32,
            retrained: true,
        }),
        Sample::Rep(Reply::Pdf(vec![0.125, 0.875])),
        Sample::Rep(Reply::Labeled {
            labels: t(&[0.5, 0.25, 0.75, 1.0], &[2, 2]),
            stats: PseudoLabelStats {
                reused: 1,
                computed: 1,
            },
        }),
        Sample::Rep(Reply::Documents(vec![
            Document::new()
                .with("pixels", vec![0.5f32, 1.5])
                .with("cluster", 1i64),
            Document::new().with("scan", 3i64),
        ])),
        Sample::Rep(Reply::Ranked(RankedModels {
            ranked: vec![(3, 0.01), (0, 0.4)],
            fine_tunable: true,
        })),
        Sample::Rep(Reply::Updated {
            checkpoint: vec![9, 8, 7],
            report,
        }),
        Sample::Rep(Reply::Published { zoo_id: 6 }),
        Sample::Rep(Reply::Model {
            checkpoint: vec![1, 2, 3],
            pdf: vec![0.5, 0.5],
        }),
        Sample::Rep(Reply::Certainty(0.75)),
        Sample::Rep(Reply::Metrics(metrics)),
        Sample::Err(ServiceError::NotReady),
        Sample::Err(ServiceError::UnknownModel(3)),
        Sample::Err(ServiceError::Invalid("bad shape".into())),
        Sample::Err(ServiceError::Unavailable),
        Sample::Err(ServiceError::Superseded),
        Sample::Err(ServiceError::Busy),
        Sample::Err(ServiceError::Protocol("torn frame".into())),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The bytes of [`golden_samples`], in order, as the hand-mirrored codec of
/// PR 18 (commit `ac7591e`) wrote them — recorded there, not regenerated
/// since. Every proper prefix of every vector failed there with
/// [`WireError::Truncated`], so the table records no other kind.
const GOLDEN: &[&str] = &[
    "00030000000000000010000000000000000ad7233c0000003fa4707d3f070000000000000002020000000200\
     00000000803f000000400000404000008040",
    "0107000000000000000202000000030000000000003f0000003f0000003f0000003f0000003f0000003f0202\
     000000010000000000803f00000000",
    "020201000000020000000100c07f00000080",
    "030000003e0204000000010000000000803e0000803e0000803e0000803e",
    "04030000000000000002000000000000000000e03f000000000000e03f",
    "0501020000000000000001000000000000000000f03f",
    "050002000000000000000000d03f000000000000e83f",
    "0600000000000000000201000000020000000000000000000000",
    "070e00000072c3a973756dc3a92d6d6f64656c090000000000000002000000000000000000d03f0000000000\
     00e83f04000000000102ff",
    "082a00000000000000",
    "090203000000010000000000803f0000803f0000803f",
    "0a",
    "000500000000000000",
    "01200000000000000001",
    "0202000000000000000000c03f000000000000ec3f",
    "03010000000000000001000000000000000202000000020000000000003f0000803e0000403f0000803f",
    "04020000002b000000020000000700636c75737465720201000000000000000600706978656c730602000000\
     0000003f0000c03f130000000100000004007363616e020300000000000000",
    "050200000003000000000000007b14ae47e17a843f00000000000000009a9999999999d93f01",
    "06fa7e6abc7493583fe17a14ae47e1aa3f0e000000000000000200000000000000010200000000000000019a\
     9999999999a93f02000000000000000200000000000000000000000000003f0000203f010000000000000000\
     00803e0000c03e9a9999999999a93f0100040000000000000003000000090807",
    "070600000000000000",
    "0802000000000000000000e03f000000000000e03f03000000010203",
    "09000000000000e83f",
    "0a18000000020000000300000070646603000000000000000000000000000000c0d401000000000028230000\
     0000000058150100000000000000000000000000030000000000000006000000000000000900000000000000\
     0c0000000000000000000000000000000300000000000000060000000000000009000000000000000c000000\
     0000000000000000000000000300000000000000060000000000000009000000000000000c00000000000000\
     00000000000000000300000000000000060000000000000009000000000000000c0000000000000000000000\
     000000000300000000000000060000000000000009000000000000000c0000007570646174655f6d6f64656c\
     0200000000000000010000000000000080380100000000002823000000000000581501000000000000000000\
     0000000002000000000000000400000000000000060000000000000008000000000000000000000000000000\
     0200000000000000040000000000000006000000000000000800000000000000000000000000000002000000\
     0000000004000000000000000600000000000000080000000000000000000000000000000200000000000000\
     0400000000000000060000000000000008000000000000000000000000000000020000000000000004000000\
     0000000006000000000000000100000006000000696e6765737401000000000000000000000000000000409c\
     0000000000002823000000000000581501000000000000000000000000000100000000000000020000000000\
     0000030000000000000004000000000000000000000000000000010000000000000002000000000000000300\
     0000000000000400000000000000000000000000000001000000000000000200000000000000030000000000\
     0000040000000000000000000000000000000100000000000000020000000000000003000000000000000400\
     00000000000000000000000000000100000000000000020000000000000003000000000000000b0000000000\
     00000c000000000000000d000000000000000e00000000000000010000000000000002000000000000000300\
     0000000000000400000000000000050000000000000006000000000000000700000000000000080000000000\
     000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000001500\
     00000000000016000000000000001700000000000000180000000000000019000000000000001a0000000000\
     00001b000000000000001c000000000000001d000000000000001e000000000000001f00000000000000",
    "00",
    "010300000000000000",
    "0209000000626164207368617065",
    "03",
    "04",
    "05",
    "060a000000746f726e206672616d65",
];

/// The wire is a contract with peers built from other commits: the codec
/// may be rewritten, the bytes may not move. Data, not a second codec.
#[test]
fn golden_vectors_pin_the_wire_byte_for_byte() {
    let samples = golden_samples();
    assert_eq!(samples.len(), GOLDEN.len());
    for (i, (sample, hex)) in samples.iter().zip(GOLDEN).enumerate() {
        let want = unhex(hex);
        assert_eq!(sample.encode(), want, "vector {i}: encode moved");
        assert_eq!(
            sample.recode(&want).expect("golden vector decodes"),
            want,
            "vector {i}: decode then encode is not the identity"
        );
        for cut in 0..want.len() {
            assert_eq!(
                sample.recode(&want[..cut]).unwrap_err(),
                WireError::Truncated,
                "vector {i} cut at {cut}/{}",
                want.len()
            );
        }
    }
}
