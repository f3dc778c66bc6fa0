//! Multi-connection TCP load generator for the wire plane (DESIGN.md
//! §13).
//!
//! Shared between `benches/net_plane.rs` (the CI-gated perf numbers) and
//! `examples/load_gen.rs` (the demo driver): spawns a trained deployment
//! behind a [`NetServer`], then drives it with N concurrent
//! [`PipelinedClient`] connections, each running a bounded in-flight
//! window over a configurable read/write request mix.
//!
//! The window is the experiment's independent variable: `window == 1` is
//! strict request-response (one round trip per request, the classic RPC
//! cost model), larger windows pipeline — the client keeps several
//! requests on the wire and the per-request syscall/wakeup cost
//! amortizes across the batch. Reported per-request latency is
//! *submit→reply* and therefore queue-inclusive under pipelining; the
//! headline comparison across windows is throughput.

use crate::report::SeriesSummary;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::net::{NetServer, NetServerConfig, NetServerHandle, Pending, PipelinedClient};
use fairdms_service::server::{DmsClient, DmsServer, DmsServerConfig, ServerHandle};
use fairdms_service::{DmsApi, Request, ServiceError, ServiceResult};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Image side used by the canned deployment.
pub const SIDE: usize = 8;

/// Synthetic two-blob images (the cheap stand-in for Bragg patches the
/// service benches share).
pub fn blob_images(n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seeded(seed);
    let centers = [(2.0f32, 2.0f32), (5.0, 5.0)];
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let (cy, cx) = centers[i % centers.len()];
        for y in 0..SIDE {
            for x in 0..SIDE {
                let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                data.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
            }
        }
        labels.push(cx / SIDE as f32);
        labels.push(cy / SIDE as f32);
    }
    (
        Tensor::from_vec(data, &[n, SIDE * SIDE]),
        Tensor::from_vec(labels, &[n, 2]),
    )
}

/// A deployment with its wire endpoint: the in-process service stack plus
/// the TCP listener in front of it.
pub struct WireDeployment {
    /// In-process client (metrics, teardown).
    pub client: DmsClient,
    /// Service-stack handle.
    pub server: ServerHandle,
    /// Wire-plane handle (listener address, counters, drain).
    pub net: NetServerHandle,
}

impl WireDeployment {
    /// The listener's address.
    pub fn addr(&self) -> SocketAddr {
        self.net
            .local_addr()
            .expect("TCP deployment has an address")
    }

    /// Drains the wire plane, then shuts the service stack down.
    pub fn shutdown(self) {
        self.net.shutdown();
        drop(self.client);
        self.server.shutdown();
    }
}

/// Spawns a deployment with a *trained* system plane (K = 2 over the blob
/// distribution) behind a TCP listener, so routed reads do real
/// embed+route work rather than short-circuiting on `NotReady`.
pub fn spawn_wire_deployment(seed: u64, net_cfg: NetServerConfig) -> WireDeployment {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            seed,
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    tcfg.seed = seed;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let (client, server) = DmsServer::spawn(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    let (x, y) = blob_images(48, seed ^ 0x5EED);
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
    let net = NetServer::serve_tcp(client.clone(), ("127.0.0.1", 0), net_cfg).expect("bind");
    WireDeployment {
        client,
        server,
        net,
    }
}

/// Which request the read side of the mix issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `LookupMatching { count: 1 }` — a routed read through the read
    /// pool; includes the service-side document-sampling work (~10µs of
    /// CPU per call).
    RoutedLookup,
    /// `LookupMatching { count: 0 }` — the same routed-read path with no
    /// sampling work and a near-empty reply. Makes the *transport* the
    /// dominant per-request cost, which is what a pipelining benchmark
    /// needs to measure.
    RoutedProbe,
    /// `Metrics` — a counter snapshot; cheap to compute but its reply is
    /// several KB of histograms, so it stresses reply serialization.
    Metrics,
}

/// One load-generation run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Maximum in-flight requests per connection (1 = strict
    /// request-response).
    pub window: usize,
    /// Fraction of requests that are reads (of [`ReadKind`]); the rest
    /// are single-image `IngestLabeled` writes through the mutation
    /// actor.
    pub read_fraction: f64,
    /// The read request to issue.
    pub read_kind: ReadKind,
    /// Issue each request with the blocking [`PipelinedClient::call`]
    /// instead of `submit` + `wait` (`window` is then 1 by construction):
    /// on an idle connection the calling thread reads its own reply.
    pub blocking_call: bool,
    /// Mix/jitter seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 64,
            requests_per_connection: 16,
            window: 16,
            read_fraction: 0.9,
            read_kind: ReadKind::RoutedLookup,
            blocking_call: false,
            seed: 1,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Submit→reply latency of every request, all connections pooled.
    pub latencies: Vec<Duration>,
    /// Wall time of the firing phase as the workers saw it: from the
    /// earliest worker's first request to the latest worker's last reply.
    pub wall: Duration,
    /// Requests issued (= answered; every request gets exactly one
    /// reply).
    pub requests: usize,
    /// Successful replies.
    pub ok: usize,
    /// Application-level errors (`NotReady`, `Invalid`, …).
    pub service_errors: usize,
    /// Transport/protocol failures: `Busy`, `Protocol`, or a connection
    /// dying under the client (`Unavailable`).
    pub protocol_errors: usize,
}

impl LoadReport {
    /// Completed requests per second over the measured wall time.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latency summary under `name`.
    pub fn summary(&self, name: &str) -> SeriesSummary {
        SeriesSummary::of(name, &self.latencies)
    }
}

fn is_protocol_error(err: &ServiceError) -> bool {
    matches!(
        err,
        ServiceError::Busy | ServiceError::Protocol(_) | ServiceError::Unavailable
    )
}

/// Deterministic per-request coin for the read/write mix.
fn is_read(cfg: &LoadConfig, conn: usize, i: usize) -> bool {
    let mut h = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((conn as u64) << 32)
        .wrapping_add(i as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h % 1000) as f64 / 1000.0 < cfg.read_fraction
}

struct ConnOutcome {
    /// When this worker left the start barrier and when its last reply
    /// landed: the run's clock is read on the threads that do the work.
    first: Instant,
    last: Instant,
    latencies: Vec<Duration>,
    ok: usize,
    service_errors: usize,
    protocol_errors: usize,
}

impl ConnOutcome {
    fn settle(&mut self, t0: Instant, result: ServiceResult) {
        match result {
            Ok(_) => self.ok += 1,
            Err(e) if is_protocol_error(&e) => self.protocol_errors += 1,
            Err(_) => self.service_errors += 1,
        }
        self.latencies.push(t0.elapsed());
    }
}

fn drive_connection(
    client: PipelinedClient,
    cfg: &LoadConfig,
    conn: usize,
    start: &Barrier,
) -> ConnOutcome {
    // Per-connection single-image write payload, built before the clock
    // starts.
    let (wx, wy) = blob_images(1, cfg.seed.wrapping_add(conn as u64));
    start.wait();
    let first = Instant::now();

    let mut out = ConnOutcome {
        first,
        last: first,
        latencies: Vec::with_capacity(cfg.requests_per_connection),
        ok: 0,
        service_errors: 0,
        protocol_errors: 0,
    };
    let mut window: VecDeque<(Instant, Pending)> = VecDeque::new();
    for i in 0..cfg.requests_per_connection {
        if window.len() >= cfg.window.max(1) {
            let (t0, pending) = window.pop_front().expect("non-empty window");
            out.settle(t0, pending.wait());
        }
        let req = if is_read(cfg, conn, i) {
            match cfg.read_kind {
                ReadKind::RoutedLookup => Request::LookupMatching {
                    pdf: vec![0.5, 0.5],
                    count: 1,
                },
                ReadKind::RoutedProbe => Request::LookupMatching {
                    pdf: vec![0.5, 0.5],
                    count: 0,
                },
                ReadKind::Metrics => Request::Metrics,
            }
        } else {
            Request::IngestLabeled {
                images: wx.clone(),
                labels: wy.clone(),
                scan: 1_000 + conn,
            }
        };
        let t0 = Instant::now();
        if cfg.blocking_call {
            out.settle(t0, client.call(&req));
        } else {
            window.push_back((t0, client.submit(&req)));
        }
    }
    while let Some((t0, pending)) = window.pop_front() {
        out.settle(t0, pending.wait());
    }
    out.last = Instant::now();
    out
}

/// Runs one load configuration against a wire endpoint.
///
/// All connections are established first — serially, so a kilo-client
/// stampede cannot outrun the single accept thread's backlog — then
/// released together through a barrier the last worker completes; the
/// reported wall time covers only the firing phase, and is taken from the
/// workers' own clocks (`max(last reply) − min(first request)`): a main
/// thread that waits on the barrier too is next scheduled well into a
/// ~100 ms run of a thousand runnable workers, and a clock started there
/// times its wake-up, not the run. Panics if any connection cannot be
/// established.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    assert!(cfg.connections > 0 && cfg.requests_per_connection > 0);
    let start = Arc::new(Barrier::new(cfg.connections));
    let cfg = Arc::new(cfg.clone());
    let workers: Vec<_> = (0..cfg.connections)
        .map(|conn| {
            let client = PipelinedClient::connect_tcp(addr)
                .unwrap_or_else(|e| panic!("connect {} of {}: {e}", conn + 1, cfg.connections));
            let start = Arc::clone(&start);
            let cfg = Arc::clone(&cfg);
            thread::Builder::new()
                .name(format!("loadgen-{conn}"))
                .stack_size(128 * 1024)
                .spawn(move || drive_connection(client, &cfg, conn, &start))
                .expect("spawn load worker")
        })
        .collect();

    let mut report = LoadReport {
        latencies: Vec::with_capacity(cfg.connections * cfg.requests_per_connection),
        wall: Duration::ZERO,
        requests: cfg.connections * cfg.requests_per_connection,
        ok: 0,
        service_errors: 0,
        protocol_errors: 0,
    };
    let outcomes: Vec<ConnOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("load worker panicked"))
        .collect();
    let first = outcomes.iter().map(|o| o.first).min();
    let last = outcomes.iter().map(|o| o.last).max();
    report.wall = last.expect("at least one connection") - first.expect("as above");
    for out in outcomes {
        report.latencies.extend(out.latencies);
        report.ok += out.ok;
        report.service_errors += out.service_errors;
        report.protocol_errors += out.protocol_errors;
    }
    assert_eq!(
        report.ok + report.service_errors + report.protocol_errors,
        report.requests,
        "every issued request must be answered exactly once"
    );
    report
}
