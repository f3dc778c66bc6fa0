//! Drift-replay scenario harness for the tenant plane (DESIGN.md §14).
//!
//! The fairDMS paper evaluates three live workloads — tomography,
//! CookieBox, Bragg peak scans — one deployment at a time. The tenant
//! plane's claim is that one service can host all three *concurrently*:
//! this module replays each dataset's scan sequence as a live tenant —
//! streaming reads per shot, periodic `UpdateModel` retrains as the scans
//! drift — through the multi-tenant TCP front door, all tenants at once.
//!
//! Shared between `benches/multi_tenant.rs` (the CI-gated fairness
//! numbers) and ad-hoc drivers: [`spawn_scenario_deployment`] brings up a
//! [`MultiDms`] with one trained tenant per scenario behind one listener,
//! and [`replay_mix`] fires every scenario concurrently, reporting
//! per-tenant read/update latencies and Busy rejections.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::CookieBoxSimulator;
use fairdms_datasets::tomo::TomoSimulator;
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::{NetServerConfig, NetServerHandle, PipelinedClient};
use fairdms_service::server::DmsServerConfig;
use fairdms_service::{DmsApi, Request, ServiceError, TenantId};
use fairdms_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Image side shared by all scenario tenants — the smallest frame every
/// simulator supports (tomo and CookieBox bottom out at 16).
pub const SCENARIO_SIDE: usize = 16;

/// Which experiment's scan stream a tenant replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Tomography frames (random ellipse phantoms, detector noise).
    Tomo,
    /// CookieBox ToF histograms (photo-lines drifting across scans).
    CookieBox,
    /// Bragg diffraction patches (peak centers, lattice drift).
    Bragg,
}

impl ScenarioKind {
    /// Short label for report series.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Tomo => "tomo",
            ScenarioKind::CookieBox => "cookiebox",
            ScenarioKind::Bragg => "bragg",
        }
    }

    /// `n` flattened `[n, SIDE²]` images of one scan, deterministic in
    /// `(seed, scan)`.
    pub fn images(self, seed: u64, scan: usize, n: usize) -> Tensor {
        let s = SCENARIO_SIDE;
        match self {
            ScenarioKind::Tomo => {
                // The tomo simulator indexes frames, not scans; map each
                // scan onto a disjoint frame range.
                let sim = TomoSimulator::new(s, seed);
                let mut x = Vec::with_capacity(n * s * s);
                for i in 0..n {
                    x.extend(sim.frame(scan * 4096 + i).to_f32());
                }
                Tensor::from_vec(x, &[n, s * s])
            }
            ScenarioKind::CookieBox => {
                let sim = CookieBoxSimulator::new(s, seed);
                let (x, _) = fairdms_datasets::cookiebox::to_training_tensors(&sim.scan(scan, n));
                x.reshape(&[n, s * s])
            }
            ScenarioKind::Bragg => {
                let mut sim = BraggSimulator::new(DriftModel::paper_like(6, usize::MAX), seed);
                sim.patch_size = s;
                let (x, _) = fairdms_datasets::bragg::to_training_tensors(&sim.scan(scan, n));
                x.reshape(&[n, s * s])
            }
        }
    }

    /// Deterministic `[n, 2]` regression labels for `images` of one scan
    /// (Bragg carries native peak centers; the others get synthetic
    /// targets — the harness measures service behavior, not model skill).
    pub fn labels(self, seed: u64, scan: usize, n: usize) -> Tensor {
        if self == ScenarioKind::Bragg {
            let mut sim = BraggSimulator::new(DriftModel::paper_like(6, usize::MAX), seed);
            sim.patch_size = SCENARIO_SIDE;
            let (_, y) = fairdms_datasets::bragg::to_training_tensors(&sim.scan(scan, n));
            return y;
        }
        let mut y = Vec::with_capacity(n * 2);
        for i in 0..n {
            let t = (i as f32 + 0.5) / n as f32;
            y.push(t);
            y.push(1.0 - t);
        }
        Tensor::from_vec(y, &[n, 2])
    }
}

/// One tenant's replay: which dataset, how many scans, how hard it leans
/// on the shared training pool.
#[derive(Clone, Debug)]
pub struct TenantScenario {
    /// Wire identity of this tenant.
    pub tenant: TenantId,
    /// The experiment whose scans this tenant streams.
    pub kind: ScenarioKind,
    /// Fair-share weight in the shared training pool.
    pub weight: u32,
    /// Training-queue admission cap (floods past it answer `Busy`).
    pub training_queue_capacity: usize,
    /// Scans replayed after the training prologue.
    pub scans: usize,
    /// Routed reads (`DatasetPdf` over one fresh shot batch) issued per
    /// scan.
    pub reads_per_scan: usize,
    /// Images per routed read — every read embeds and routes a *disjoint*
    /// batch of fresh images (no embed-cache reuse across reads).
    pub read_batch: usize,
    /// Issue an `UpdateModel` retrain every `update_every`-th scan
    /// (`0` disables updates — a read-only tenant).
    pub update_every: usize,
    /// Dataset + deployment seed.
    pub seed: u64,
}

impl TenantScenario {
    /// A read-heavy tenant replaying `kind` with one retrain per 4 scans.
    pub fn new(tenant: TenantId, kind: ScenarioKind, seed: u64) -> Self {
        TenantScenario {
            tenant,
            kind,
            weight: 1,
            training_queue_capacity: 8,
            scans: 8,
            reads_per_scan: 16,
            read_batch: 16,
            update_every: 4,
            seed,
        }
    }
}

/// A multi-tenant deployment with its wire endpoint.
pub struct ScenarioDeployment {
    /// The tenant registry (in-process clients, shared pool).
    pub multi: MultiDms,
    /// Wire-plane handle (listener address, counters, drain).
    pub net: NetServerHandle,
}

impl ScenarioDeployment {
    /// The listener's address.
    pub fn addr(&self) -> SocketAddr {
        self.net
            .local_addr()
            .expect("TCP deployment has an address")
    }

    /// Drains the wire plane, then shuts every tenant down.
    pub fn shutdown(self) {
        self.net.shutdown();
        self.multi.shutdown();
    }
}

/// Spawns one tenant per scenario behind a single TCP listener, each with
/// a *trained* system plane over its own dataset's first two scans (so
/// routed reads do real embed+route work) and a primed document store.
/// All tenants share a `training_pool_size`-worker training executor.
pub fn spawn_scenario_deployment(
    scenarios: &[TenantScenario],
    training_pool_size: usize,
    net_cfg: NetServerConfig,
) -> ScenarioDeployment {
    let s = SCENARIO_SIDE;
    let mut builder = MultiDms::builder(training_pool_size);
    for sc in scenarios {
        let fairds = FairDS::in_memory(
            Box::new(AutoencoderEmbedder::new(s * s, 512, 16, sc.seed)),
            FairDsConfig {
                k: Some(2),
                seed: sc.seed,
                ..FairDsConfig::default()
            },
        );
        let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: s }, s);
        tcfg.train.epochs = 2;
        tcfg.seed = sc.seed;
        let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
        builder = builder.tenant(
            TenantSpec {
                id: sc.tenant,
                weight: sc.weight,
                config: DmsServerConfig {
                    auto_retrain: false,
                    training_queue_capacity: sc.training_queue_capacity,
                    ..DmsServerConfig::default()
                },
            },
            trainer,
            Box::new(|_| vec![0.5, 0.5]),
        );
    }
    let multi = builder.spawn();
    for sc in scenarios {
        let client = multi.client(sc.tenant).expect("just registered");
        let x: Tensor = sc.kind.images(sc.seed, 0, 48);
        let y = sc.kind.labels(sc.seed, 0, 48);
        client
            .train_system(
                x.clone(),
                EmbedTrainConfig {
                    epochs: 3,
                    batch_size: 16,
                    ..EmbedTrainConfig::default()
                },
            )
            .expect("system-plane training");
        client.ingest(x, y, 0).expect("prime store");
    }
    let net = multi
        .serve_tcp(("127.0.0.1", 0), net_cfg)
        .expect("bind scenario listener");
    ScenarioDeployment { multi, net }
}

/// One tenant's replay outcome.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Which tenant this is.
    pub tenant: TenantId,
    /// The dataset it replayed.
    pub kind: ScenarioKind,
    /// Submit→reply latency of every routed read.
    pub read_latencies: Vec<Duration>,
    /// Submit→reply latency of every *completed* `UpdateModel`.
    pub update_latencies: Vec<Duration>,
    /// Updates answered `Busy` by the tenant's training-queue quota.
    pub busy: usize,
    /// Any other error replies (all unexpected under this harness).
    pub errors: usize,
    /// Wall time of this tenant's replay (post-barrier to last reply).
    pub wall: Duration,
}

/// Replays every scenario concurrently against one wire endpoint — each
/// tenant on its own connection, released together through a barrier —
/// and reports per-tenant outcomes in input order.
pub fn replay_mix(addr: SocketAddr, scenarios: &[TenantScenario]) -> Vec<TenantReport> {
    assert!(!scenarios.is_empty());
    let start = Arc::new(Barrier::new(scenarios.len()));
    let workers: Vec<_> = scenarios
        .iter()
        .map(|sc| {
            let sc = sc.clone();
            let start = Arc::clone(&start);
            let client = PipelinedClient::connect_tcp_tenant(addr, sc.tenant)
                .expect("connect scenario tenant");
            thread::Builder::new()
                .name(format!("scenario-t{}", sc.tenant))
                .spawn(move || replay_tenant(&client, &sc, &start))
                .expect("spawn scenario worker")
        })
        .collect();
    workers
        .into_iter()
        .map(|w| w.join().expect("scenario worker panicked"))
        .collect()
}

/// Streams one tenant's scans: per scan, `reads_per_scan` routed reads on
/// that scan's fresh images, then (on update scans) one blocking
/// `UpdateModel` over the scan batch.
fn replay_tenant(client: &PipelinedClient, sc: &TenantScenario, start: &Barrier) -> TenantReport {
    // Stage every scan's tensors before the clock starts: the replay
    // measures the service, not the simulators.
    let batch = sc.read_batch.max(1);
    let staged: Vec<(Tensor, Tensor)> = (1..=sc.scans)
        .map(|scan| {
            (
                sc.kind
                    .images(sc.seed, scan, sc.reads_per_scan.max(1) * batch),
                sc.kind.images(sc.seed, scan, 16),
            )
        })
        .collect();
    // Untimed warmup: fault in the read path (connection buffers, read
    // pool threads, packed-GEMM scratch) so cold-start cost never lands
    // in a measured tail.
    if let Some((read_x, _)) = staged.first() {
        if sc.reads_per_scan > 0 {
            let s2 = SCENARIO_SIDE * SCENARIO_SIDE;
            let warm = Tensor::from_vec(read_x.data()[..batch * s2].to_vec(), &[batch, s2]);
            for _ in 0..2 {
                let _ = client.call(&Request::DatasetPdf {
                    images: warm.clone(),
                });
            }
        }
    }
    start.wait();
    let t0 = Instant::now();
    let mut report = TenantReport {
        tenant: sc.tenant,
        kind: sc.kind,
        read_latencies: Vec::with_capacity(sc.scans * sc.reads_per_scan),
        update_latencies: Vec::new(),
        busy: 0,
        errors: 0,
        wall: Duration::ZERO,
    };
    let s = SCENARIO_SIDE;
    for (i, (read_x, update_x)) in staged.iter().enumerate() {
        let scan = i + 1;
        for shot in 0..sc.reads_per_scan {
            let rows = shot * batch * s * s..(shot + 1) * batch * s * s;
            let images = Tensor::from_vec(read_x.data()[rows].to_vec(), &[batch, s * s]);
            let t = Instant::now();
            match client.call(&Request::DatasetPdf { images }) {
                Ok(_) => {}
                Err(_) => report.errors += 1,
            }
            report.read_latencies.push(t.elapsed());
        }
        if sc.update_every > 0 && scan % sc.update_every == 0 {
            let t = Instant::now();
            match client.call(&Request::UpdateModel {
                images: update_x.clone(),
                scan,
            }) {
                Ok(_) => report.update_latencies.push(t.elapsed()),
                Err(ServiceError::Busy) => report.busy += 1,
                Err(_) => report.errors += 1,
            }
        }
    }
    report.wall = t0.elapsed();
    report
}
