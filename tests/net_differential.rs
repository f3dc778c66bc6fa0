//! Differential test for the wire plane (DESIGN.md §13): every `Request`
//! variant sent through [`PipelinedClient`] must produce a reply
//! **bit-identical** to the same request served by an in-process
//! [`DmsClient`] against an identically-seeded deployment.
//!
//! Two independent server stacks are spawned from the same seed; one is
//! additionally exposed over TCP. The same request sequence (cloned by a
//! wire round-trip, which exercises the request codec on the local path
//! too) drives both, and each reply pair is compared by its encoded
//! bytes after zeroing the only nondeterministic fields — wall-clock
//! seconds in the update report. `Metrics` is compared structurally,
//! since latency histograms legitimately differ.

use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{to_training_tensors, BraggPatch, BraggSimulator, DriftModel};
use fairdms_service::net::codec::{decode_request, encode_reply, encode_request};
use fairdms_service::net::{NetServer, NetServerConfig, PipelinedClient};
use fairdms_service::server::{DmsClient, DmsServer, DmsServerConfig, ServerHandle};
use fairdms_service::{Reply, Request, ServiceError, ServiceResult};
use fairdms_tensor::Tensor;

const SIDE: usize = 15;

fn flat(patches: &[BraggPatch]) -> (Tensor, Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn spawn_deployment(seed: u64) -> (DmsClient, ServerHandle) {
    let fairds = FairDS::in_memory(
        Box::new(ByolEmbedder::new(SIDE, 64, 16, seed)),
        FairDsConfig {
            k: Some(4),
            seed,
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    tcfg.seed = seed;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let cfg = DmsServerConfig {
        auto_retrain: false,
        ..DmsServerConfig::default()
    };
    DmsServer::spawn(trainer, Box::new(|_| vec![0.5, 0.5]), cfg)
}

/// Clones a request by round-tripping it through the wire codec — the
/// only clone the protocol itself guarantees is faithful.
fn wire_clone(req: &Request) -> Request {
    decode_request(&encode_request(req)).expect("canonical request must decode")
}

/// Zeroes the wall-clock fields a reply may carry; everything else must
/// match bit-for-bit.
fn normalize(rep: &mut Reply) {
    if let Reply::Updated { report, .. } = rep {
        report.label_secs = 0.0;
        report.train_secs = 0.0;
        report.train_report.wall_secs = 0.0;
    }
}

/// Asserts two service results are wire-identical (modulo wall clock).
fn assert_identical(label: &str, local: ServiceResult, remote: ServiceResult) -> ServiceResult {
    match (local, remote) {
        (Ok(mut l), Ok(mut r)) => {
            normalize(&mut l);
            normalize(&mut r);
            assert_eq!(
                encode_reply(&l),
                encode_reply(&r),
                "{label}: TCP reply bytes diverge from in-process reply"
            );
            Ok(l)
        }
        (Err(l), Err(r)) => {
            assert_eq!(l, r, "{label}: error replies diverge");
            Err(l)
        }
        (l, r) => panic!("{label}: Ok/Err disagreement: local={l:?} remote={r:?}"),
    }
}

#[test]
fn every_request_variant_is_bit_identical_over_tcp() {
    let (local, local_srv) = spawn_deployment(42);
    let (backing, backing_srv) = spawn_deployment(42);
    let net = NetServer::serve_tcp(
        backing.clone(),
        ("127.0.0.1", 0),
        NetServerConfig::default(),
    )
    .expect("bind");
    let remote = PipelinedClient::connect_tcp(net.local_addr().unwrap()).unwrap();

    let run = |label: &str, req: Request| -> ServiceResult {
        let twin = wire_clone(&req);
        assert_identical(label, local.call(req), remote.call(&twin))
    };

    // Shared deterministic data.
    let sim = BraggSimulator::new(DriftModel::none(), 42);
    let history: Vec<BraggPatch> = (0..2).flat_map(|s| sim.scan(s, 40)).collect();
    let (hx, hy) = flat(&history);
    let (x1, _) = flat(&sim.scan(3, 24));
    let embed_cfg = EmbedTrainConfig {
        epochs: 2,
        batch_size: 32,
        ..EmbedTrainConfig::default()
    };

    // Error path first: both untrained deployments refuse routed reads.
    let err = run(
        "DatasetPdf (untrained)",
        Request::DatasetPdf { images: hx.clone() },
    );
    assert_eq!(err.unwrap_err(), ServiceError::NotReady);

    // 1. TrainSystem — identical seeds must select the same K.
    let k = match run(
        "TrainSystem",
        Request::TrainSystem {
            images: hx.clone(),
            embed_cfg,
        },
    ) {
        Ok(Reply::SystemTrained { k }) => k,
        other => panic!("TrainSystem: {other:?}"),
    };
    assert!(k > 0);

    // 2. IngestLabeled.
    let ingested = run(
        "IngestLabeled",
        Request::IngestLabeled {
            images: hx.clone(),
            labels: hy.clone(),
            scan: 0,
        },
    );
    assert!(matches!(ingested, Ok(Reply::Ingested { count: 80, .. })));

    // 3. DatasetPdf — also supplies the pdf used by the lookup/recommend
    //    requests below.
    let pdf = match run("DatasetPdf", Request::DatasetPdf { images: x1.clone() }) {
        Ok(Reply::Pdf(p)) => p,
        other => panic!("DatasetPdf: {other:?}"),
    };
    assert_eq!(pdf.len(), k);

    // 4. PseudoLabel.
    run(
        "PseudoLabel",
        Request::PseudoLabel {
            images: x1.clone(),
            threshold: 0.5,
        },
    )
    .unwrap();

    // 5. LookupMatching.
    run(
        "LookupMatching",
        Request::LookupMatching {
            pdf: pdf.clone(),
            count: 8,
        },
    )
    .unwrap();

    // 6. Recommend against an empty zoo, both shapes of top_k.
    run(
        "Recommend (full)",
        Request::Recommend {
            pdf: pdf.clone(),
            top_k: None,
        },
    )
    .unwrap();
    run(
        "Recommend (top-1)",
        Request::Recommend {
            pdf: pdf.clone(),
            top_k: Some(1),
        },
    )
    .unwrap();

    // 7. UpdateModel — full pseudo-label → train → register pipeline.
    //    Checkpoint bytes themselves must agree, which transitively pins
    //    the whole training path.
    let checkpoint = match run(
        "UpdateModel",
        Request::UpdateModel {
            images: x1.clone(),
            scan: 3,
        },
    ) {
        Ok(Reply::Updated { checkpoint, report }) => {
            assert_eq!(report.registered_id, 0);
            checkpoint
        }
        other => panic!("UpdateModel: {other:?}"),
    };

    // 8. PublishModel with the agreed checkpoint.
    let zoo_id = match run(
        "PublishModel",
        Request::PublishModel {
            name: "differential".to_string(),
            checkpoint,
            pdf: pdf.clone(),
            scan: 4,
        },
    ) {
        Ok(Reply::Published { zoo_id }) => zoo_id,
        other => panic!("PublishModel: {other:?}"),
    };

    // 9. FetchModel, hit and miss.
    run("FetchModel", Request::FetchModel { zoo_id }).unwrap();
    let miss = run("FetchModel (miss)", Request::FetchModel { zoo_id: 999 });
    assert_eq!(miss.unwrap_err(), ServiceError::UnknownModel(999));

    // 10. Certainty.
    match run("Certainty", Request::Certainty { images: x1.clone() }) {
        Ok(Reply::Certainty(c)) => assert!((0.0..=1.0).contains(&c)),
        other => panic!("Certainty: {other:?}"),
    }

    // 11. Metrics — latency histograms legitimately differ, so this one
    //     is structural: both sides saw the same request mix.
    let (lm, rm) = match (local.call(Request::Metrics), remote.call(&Request::Metrics)) {
        (Ok(Reply::Metrics(l)), Ok(Reply::Metrics(r))) => (l, r),
        other => panic!("Metrics: {other:?}"),
    };
    for ((lname, lop), (rname, rop)) in lm.ops.iter().zip(rm.ops.iter()) {
        assert_eq!(lname, rname);
        assert_eq!(
            lop.count, rop.count,
            "op {lname} count diverges between the planes"
        );
        assert_eq!(
            lop.errors, rop.errors,
            "op {lname} error count diverges between the planes"
        );
    }
    // The TCP deployment additionally reports its wire counters.
    assert!(rm.net.connections_opened >= 1);
    assert_eq!(rm.net.decode_errors, 0, "no protocol errors on this run");

    drop(remote);
    net.shutdown();
    drop(local);
    drop(backing);
    local_srv.shutdown();
    backing_srv.shutdown();
}
