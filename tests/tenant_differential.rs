//! Differential test for the tenant plane (DESIGN.md §14): three tenants
//! with distinct scan mixes — tomography, CookieBox, Bragg — run
//! *interleaved* through one multi-tenant TCP listener, and every reply
//! must be **bit-identical** to the same request sequence served by an
//! identically-seeded solo single-tenant deployment. That proves strict
//! isolation: nothing a tenant does (training, publication, cache fills)
//! leaks into another tenant's replies, even while they share one training
//! pool and one wire plane.
//!
//! Also pins the unknown-tenant contract: a well-formed request addressed
//! to an unregistered tenant answers `Invalid` on a live socket — the
//! connection keeps serving other tenants.

use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::CookieBoxSimulator;
use fairdms_datasets::tomo::TomoSimulator;
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::codec::{decode_request, encode_reply, encode_request};
use fairdms_service::net::NetServerConfig;
use fairdms_service::server::{DmsClient, DmsServer, DmsServerConfig, ServerHandle};
use fairdms_service::{PipelinedClient, Reply, Request, ServiceError, ServiceResult, TenantId};
use fairdms_tensor::Tensor;

const SIDE: usize = 15;

fn server_cfg() -> DmsServerConfig {
    DmsServerConfig {
        auto_retrain: false,
        ..DmsServerConfig::default()
    }
}

fn trainer_for(seed: u64) -> RapidTrainer {
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
    RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg)
}

fn spawn_solo(seed: u64) -> (DmsClient, ServerHandle) {
    DmsServer::spawn(
        trainer_for(seed),
        Box::new(|_| vec![0.5, 0.5]),
        server_cfg(),
    )
}

/// Deterministic `[n, 2]` regression labels for datasets that do not carry
/// BraggNN-shaped targets natively (tomo frames, CookieBox histograms) —
/// the differential only needs *identical* labels on both sides.
fn synth_labels(n: usize) -> Tensor {
    let mut y = Vec::with_capacity(n * 2);
    for i in 0..n {
        let t = (i as f32 + 0.5) / n as f32;
        y.push(t);
        y.push(1.0 - t);
    }
    Tensor::from_vec(y, &[n, 2])
}

/// One tenant's experiment data: flattened `[n, SIDE²]` images plus labels
/// for the history (ingested) and a follow-up scan (read/update driver).
struct ScanMix {
    history_x: Tensor,
    history_y: Tensor,
    fresh_x: Tensor,
}

/// Crops a flat `src`×`src` image to the deployment's `SIDE`² input (drops
/// trailing rows/columns). The tomo and CookieBox simulators bottom out at
/// 16² frames while the shared deployment arch takes 15².
fn crop_to_side(full: &[f32], src: usize, out: &mut Vec<f32>) {
    for row in 0..SIDE {
        out.extend_from_slice(&full[row * src..row * src + SIDE]);
    }
}

fn tomo_mix(seed: u64) -> ScanMix {
    let tomo_side = SIDE + 1;
    let sim = TomoSimulator::new(tomo_side, seed);
    let flatten = |frames: &[fairdms_datasets::tomo::TomoFrame]| {
        let mut x = Vec::with_capacity(frames.len() * SIDE * SIDE);
        for f in frames {
            crop_to_side(&f.to_f32(), tomo_side, &mut x);
        }
        Tensor::from_vec(x, &[frames.len(), SIDE * SIDE])
    };
    let history = sim.frames(48);
    let fresh = sim.frames(64);
    ScanMix {
        history_x: flatten(&history),
        history_y: synth_labels(48),
        fresh_x: flatten(&fresh[48..]),
    }
}

fn cookiebox_mix(seed: u64) -> ScanMix {
    let cb_side = SIDE + 1;
    let sim = CookieBoxSimulator::new(cb_side, seed);
    let flat = |images: &[fairdms_datasets::cookiebox::CookieBoxImage]| {
        let (x, _) = fairdms_datasets::cookiebox::to_training_tensors(images);
        let n = x.shape()[0];
        let full = x.data();
        let mut out = Vec::with_capacity(n * SIDE * SIDE);
        for i in 0..n {
            crop_to_side(
                &full[i * cb_side * cb_side..(i + 1) * cb_side * cb_side],
                cb_side,
                &mut out,
            );
        }
        Tensor::from_vec(out, &[n, SIDE * SIDE])
    };
    let history: Vec<_> = (0..2).flat_map(|s| sim.scan(s, 24)).collect();
    let fresh = sim.scan(3, 16);
    ScanMix {
        history_x: flat(&history),
        history_y: synth_labels(48),
        fresh_x: flat(&fresh),
    }
}

fn bragg_mix(seed: u64) -> ScanMix {
    let sim = BraggSimulator::new(DriftModel::none(), seed);
    let flat = |patches: &[fairdms_datasets::bragg::BraggPatch]| {
        let (x, y) = fairdms_datasets::bragg::to_training_tensors(patches);
        let n = x.shape()[0];
        (x.reshape(&[n, SIDE * SIDE]), y)
    };
    let history: Vec<_> = (0..2).flat_map(|s| sim.scan(s, 24)).collect();
    let (hx, hy) = flat(&history);
    let (fx, _) = flat(&sim.scan(3, 16));
    ScanMix {
        history_x: hx,
        history_y: hy,
        fresh_x: fx,
    }
}

/// Clones a request through the wire codec (the protocol's own clone).
fn wire_clone(req: &Request) -> Request {
    decode_request(&encode_request(req)).expect("canonical request must decode")
}

/// Zeroes wall-clock fields; everything else must match bit-for-bit.
fn normalize(rep: &mut Reply) {
    if let Reply::Updated { report, .. } = rep {
        report.label_secs = 0.0;
        report.train_secs = 0.0;
        report.train_report.wall_secs = 0.0;
    }
}

fn assert_identical(label: &str, solo: ServiceResult, multi: ServiceResult) -> ServiceResult {
    match (solo, multi) {
        (Ok(mut s), Ok(mut m)) => {
            normalize(&mut s);
            normalize(&mut m);
            assert_eq!(
                encode_reply(&s),
                encode_reply(&m),
                "{label}: multi-tenant reply diverges from the solo run"
            );
            Ok(s)
        }
        (Err(s), Err(m)) => {
            assert_eq!(s, m, "{label}: error replies diverge");
            Err(s)
        }
        (s, m) => panic!("{label}: Ok/Err disagreement: solo={s:?} multi={m:?}"),
    }
}

/// One tenant's differential driver: the solo twin (in-process) and the
/// tenant's handle into the shared wire plane, advanced step by step so
/// the test can interleave tenants between steps.
struct TenantRun {
    name: &'static str,
    tenant: TenantId,
    solo: DmsClient,
    solo_srv: ServerHandle,
    remote: PipelinedClient,
    mix: ScanMix,
    pdf: Vec<f64>,
    checkpoint: Vec<u8>,
    zoo_id: usize,
}

impl TenantRun {
    fn run(&mut self, label: &str, req: Request) -> ServiceResult {
        let twin = wire_clone(&req);
        assert_identical(
            &format!("tenant {} ({}) {label}", self.tenant, self.name),
            self.solo.call(req),
            self.remote.call(&twin),
        )
    }

    /// Executes step `i` of the per-tenant scenario. Returns `false` once
    /// the scenario is exhausted.
    fn step(&mut self, i: usize) -> bool {
        let embed_cfg = EmbedTrainConfig {
            epochs: 2,
            batch_size: 32,
            ..EmbedTrainConfig::default()
        };
        match i {
            0 => {
                let err = self.run(
                    "DatasetPdf (untrained)",
                    Request::DatasetPdf {
                        images: self.mix.history_x.clone(),
                    },
                );
                assert_eq!(err.unwrap_err(), ServiceError::NotReady);
            }
            1 => {
                match self.run(
                    "TrainSystem",
                    Request::TrainSystem {
                        images: self.mix.history_x.clone(),
                        embed_cfg,
                    },
                ) {
                    Ok(Reply::SystemTrained { k }) => assert!(k > 0),
                    other => panic!("TrainSystem: {other:?}"),
                }
            }
            2 => {
                self.run(
                    "IngestLabeled",
                    Request::IngestLabeled {
                        images: self.mix.history_x.clone(),
                        labels: self.mix.history_y.clone(),
                        scan: 0,
                    },
                )
                .unwrap();
            }
            3 => {
                match self.run(
                    "DatasetPdf",
                    Request::DatasetPdf {
                        images: self.mix.fresh_x.clone(),
                    },
                ) {
                    Ok(Reply::Pdf(p)) => self.pdf = p,
                    other => panic!("DatasetPdf: {other:?}"),
                }
            }
            4 => {
                self.run(
                    "LookupMatching",
                    Request::LookupMatching {
                        pdf: self.pdf.clone(),
                        count: 8,
                    },
                )
                .unwrap();
                self.run(
                    "Recommend",
                    Request::Recommend {
                        pdf: self.pdf.clone(),
                        top_k: None,
                    },
                )
                .unwrap();
            }
            5 => {
                match self.run(
                    "UpdateModel",
                    Request::UpdateModel {
                        images: self.mix.fresh_x.clone(),
                        scan: 3,
                    },
                ) {
                    Ok(Reply::Updated { checkpoint, .. }) => self.checkpoint = checkpoint,
                    other => panic!("UpdateModel: {other:?}"),
                }
            }
            6 => {
                let checkpoint = std::mem::take(&mut self.checkpoint);
                match self.run(
                    "PublishModel",
                    Request::PublishModel {
                        name: format!("{}-model", self.name),
                        checkpoint,
                        pdf: self.pdf.clone(),
                        scan: 4,
                    },
                ) {
                    Ok(Reply::Published { zoo_id }) => self.zoo_id = zoo_id,
                    other => panic!("PublishModel: {other:?}"),
                }
            }
            7 => {
                self.run(
                    "FetchModel",
                    Request::FetchModel {
                        zoo_id: self.zoo_id,
                    },
                )
                .unwrap();
                match self.run(
                    "Certainty",
                    Request::Certainty {
                        images: self.mix.fresh_x.clone(),
                    },
                ) {
                    Ok(Reply::Certainty(c)) => assert!((0.0..=1.0).contains(&c)),
                    other => panic!("Certainty: {other:?}"),
                }
            }
            _ => return false,
        }
        true
    }
}

/// One tenant's row in the differential: name, wire id, scan-mix builder.
type MixEntry = (&'static str, TenantId, fn(u64) -> ScanMix);

#[test]
fn three_interleaved_tenants_are_bit_identical_to_solo_runs() {
    let mixes: [MixEntry; 3] = [
        ("tomo", 1, tomo_mix),
        ("cookiebox", 2, cookiebox_mix),
        ("bragg", 3, bragg_mix),
    ];

    // The shared service: three tenants, one training pool, one listener.
    let mut builder = MultiDms::builder(1);
    for (_, tenant, _) in &mixes {
        builder = builder.tenant(
            TenantSpec {
                config: server_cfg(),
                ..TenantSpec::new(*tenant)
            },
            trainer_for(1000 + u64::from(*tenant)),
            Box::new(|_| vec![0.5, 0.5]),
        );
    }
    let multi = builder.spawn();
    let net = multi
        .serve_tcp(("127.0.0.1", 0), NetServerConfig::default())
        .expect("bind");
    let addr = net.local_addr().unwrap();

    // One physical connection carries all three tenants' traffic.
    let wire = PipelinedClient::connect_tcp(addr).unwrap();

    let mut runs: Vec<TenantRun> = mixes
        .iter()
        .map(|(name, tenant, mk)| {
            let seed = 1000 + u64::from(*tenant);
            let (solo, solo_srv) = spawn_solo(seed);
            TenantRun {
                name,
                tenant: *tenant,
                solo,
                solo_srv,
                remote: wire.for_tenant(*tenant),
                mix: mk(seed),
                pdf: Vec::new(),
                checkpoint: Vec::new(),
                zoo_id: 0,
            }
        })
        .collect();

    // Interleave: every tenant advances one step before any advances two,
    // so each tenant's training/publication lands *between* the others'
    // requests — exactly the cross-talk the isolation contract forbids.
    let mut step = 0;
    loop {
        let mut progressed = false;
        for run in runs.iter_mut() {
            progressed |= run.step(step);
        }
        if !progressed {
            break;
        }
        step += 1;
    }

    // Per-tenant metrics match the solo twin structurally: same op mix,
    // same counts — no tenant served another tenant's requests.
    for run in runs.iter() {
        let solo_m = match run.solo.call(Request::Metrics) {
            Ok(Reply::Metrics(m)) => m,
            other => panic!("solo metrics: {other:?}"),
        };
        let multi_m = match run.remote.call(&Request::Metrics) {
            Ok(Reply::Metrics(m)) => m,
            other => panic!("multi metrics: {other:?}"),
        };
        for ((ln, lo), (rn, ro)) in solo_m.ops.iter().zip(multi_m.ops.iter()) {
            assert_eq!(ln, rn);
            assert_eq!(
                lo.count, ro.count,
                "tenant {} op {ln} count diverges from solo",
                run.tenant
            );
            assert_eq!(lo.errors, ro.errors);
        }
    }

    // Unknown tenant on the same live socket: answered Invalid, socket
    // stays up and keeps serving registered tenants.
    let ghost = wire.for_tenant(99);
    match ghost.call(&Request::Metrics) {
        Err(ServiceError::Invalid(msg)) => assert!(msg.contains("unknown tenant 99"), "{msg}"),
        other => panic!("unknown tenant must answer Invalid, got {other:?}"),
    }
    assert!(
        !wire.is_closed(),
        "unknown tenant must not kill the connection"
    );
    assert!(runs[0].remote.call(&Request::Metrics).is_ok());

    drop(ghost);
    for run in runs {
        drop(run.remote);
        drop(run.solo);
        run.solo_srv.shutdown();
    }
    drop(wire);
    net.shutdown();
    multi.shutdown();
}
