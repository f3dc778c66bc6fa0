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
use fairdms_service::net::codec::{
    decode_error, decode_reply, decode_request, encode_error, encode_reply, encode_request,
};
use fairdms_service::net::frame::{read_frame, write_frame, FrameError, FrameKind, BODY_HEADER};
use fairdms_service::{Metrics, Reply, Request, ServiceError};
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
    match variant % 11 {
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
    }
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
        variant in 0u8..6,
        n in 0usize..12,
        flag in any::<bool>(),
        bits in proptest::collection::vec(0u32..u32::MAX, 0..6),
    ) {
        let pdf: Vec<f64> = (0..n).map(|i| i as f64 / 7.0).collect();
        let rep = match variant {
            0 => Reply::SystemTrained { k: n },
            1 => Reply::Ingested { count: n, retrained: flag },
            2 => Reply::Pdf(pdf),
            3 => Reply::Ranked(fairdms_service::RankedModels {
                ranked: (0..n).map(|i| (i, i as f64 * 0.125)).collect(),
                fine_tunable: flag,
            }),
            4 => Reply::Published { zoo_id: n },
            _ => Reply::Model {
                checkpoint: bits.iter().map(|b| *b as u8).collect(),
                pdf,
            },
        };
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
