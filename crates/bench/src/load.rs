//! The load generator (DESIGN.md §13 "Load", §14 "Scenario harness"):
//! what the `net_plane` and `multi_tenant` benches, the scalability
//! figure's service table and `examples/{load_gen,
//! multi_tenant_deployment}.rs` drive the service over the wire with.
//!
//! * [`Experiment`] — the frame source: tomography, CookieBox and Bragg
//!   frames at [`SIDE`]×[`SIDE`], deterministic in `(seed, scan)`.
//! * [`spawn`] — the deployment: a [`MultiDms`] of N trained, primed
//!   tenants behind one TCP listener and one training pool.
//! * [`drive`] — the connections: one [`Plan`] each, every connection
//!   opened and every request built before the clock starts, every
//!   request answered with one [`Sample`]. A sample's latency is
//!   *submit→reply*, queue-inclusive under pipelining; across windows the
//!   comparison is throughput ([`Run::throughput`]).

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::CookieBoxSimulator;
use fairdms_datasets::tomo::TomoSimulator;
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::{NetServerConfig, NetServerHandle, Pending, PipelinedClient};
use fairdms_service::server::DmsServerConfig;
use fairdms_service::{DmsApi, Request, ServiceError, ServiceResult, TenantId};
use fairdms_tensor::Tensor;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// Frame side of every tenant — the smallest every simulator supports
/// (tomography and CookieBox bottom out at 16).
pub const SIDE: usize = 16;

/// Training jobs a tenant may have queued before `UpdateModel` answers
/// `Busy`. Every plan in this crate issues its updates with a blocking
/// `call`, so it never has more than one queued and one slot admits them
/// all; a pipelined flood of updates is refused past the first.
const TRAINING_QUEUE_CAPACITY: usize = 1;

/// Which experiment's frames a tenant is trained on and asked about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Tomography frames (random ellipse phantoms, detector noise).
    Tomo,
    /// CookieBox ToF histograms (photo-lines drifting across scans).
    CookieBox,
    /// Bragg diffraction patches (peak centers, lattice drift).
    Bragg,
}

impl Experiment {
    /// `n` flattened `[n, SIDE²]` frames of one scan and their `[n, 2]`
    /// regression labels, deterministic in `(seed, scan)`. Bragg carries
    /// its native peak centers; the others get synthetic targets — the
    /// harness measures the service, not model skill.
    pub fn frames(self, seed: u64, scan: usize, n: usize) -> (Tensor, Tensor) {
        let synthetic = || {
            let t = (0..n).flat_map(|i| {
                let t = (i as f32 + 0.5) / n as f32;
                [t, 1.0 - t]
            });
            Tensor::from_vec(t.collect(), &[n, 2])
        };
        let (x, y) = match self {
            Experiment::Tomo => {
                // The tomo simulator indexes frames, not scans; map each
                // scan onto a disjoint frame range.
                let sim = TomoSimulator::new(SIDE, seed);
                let x = (0..n).flat_map(|i| sim.frame(scan * 4096 + i).to_f32());
                (
                    Tensor::from_vec(x.collect(), &[n, SIDE * SIDE]),
                    synthetic(),
                )
            }
            Experiment::CookieBox => {
                let sim = CookieBoxSimulator::new(SIDE, seed);
                let (x, _) = fairdms_datasets::cookiebox::to_training_tensors(&sim.scan(scan, n));
                (x, synthetic())
            }
            Experiment::Bragg => {
                let mut sim = BraggSimulator::new(DriftModel::paper_like(6, usize::MAX), seed);
                sim.patch_size = SIDE;
                fairdms_datasets::bragg::to_training_tensors(&sim.scan(scan, n))
            }
        };
        (x.reshape(&[n, SIDE * SIDE]), y)
    }
}

/// One tenant of a [`spawn`]ed deployment.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    /// Wire identity.
    pub id: TenantId,
    /// The experiment whose frames it is trained on.
    pub experiment: Experiment,
    /// Frame and deployment seed.
    pub seed: u64,
}

/// A multi-tenant deployment with its wire endpoint.
pub struct Deployment {
    /// The tenant registry (in-process clients, shared training pool).
    pub multi: MultiDms,
    /// Wire-plane handle (counters, drain).
    pub net: NetServerHandle,
    /// The listener's address.
    pub addr: SocketAddr,
}

impl Deployment {
    /// Drains the wire plane, then shuts every tenant down.
    pub fn shutdown(self) {
        self.net.shutdown();
        self.multi.shutdown();
    }
}

/// Spawns `tenants` behind one loopback listener, sharing a
/// `training_pool_size`-worker training pool. Each has a *trained* system
/// plane (K = 2) over 48 frames of its experiment's scan 0 — so routed
/// reads do real embed+route work — and those frames in its store.
pub fn spawn(tenants: &[Tenant], training_pool_size: usize, net: NetServerConfig) -> Deployment {
    let mut builder = MultiDms::builder(training_pool_size);
    for t in tenants {
        let fairds = FairDS::in_memory(
            Box::new(AutoencoderEmbedder::new(SIDE * SIDE, 512, 16, t.seed)),
            FairDsConfig {
                k: Some(2),
                seed: t.seed,
                ..FairDsConfig::default()
            },
        );
        let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
        tcfg.train.epochs = 2;
        tcfg.seed = t.seed;
        let spec = TenantSpec {
            config: DmsServerConfig {
                auto_retrain: false,
                training_queue_capacity: TRAINING_QUEUE_CAPACITY,
                ..DmsServerConfig::default()
            },
            ..TenantSpec::new(t.id)
        };
        let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
        builder = builder.tenant(spec, trainer, Box::new(|_| vec![0.5, 0.5]));
    }
    let multi = builder.spawn();
    for t in tenants {
        let client = multi.client(t.id).expect("just registered");
        let (x, y) = t.experiment.frames(t.seed, 0, 48);
        let embed_cfg = EmbedTrainConfig {
            epochs: 3,
            batch_size: 16,
            ..EmbedTrainConfig::default()
        };
        client
            .train_system(x.clone(), embed_cfg)
            .expect("system-plane training");
        client.ingest(x, y, 0).expect("prime store");
    }
    let net = multi
        .serve_tcp(("127.0.0.1", 0), net)
        .expect("bind the load listener");
    let addr = net.local_addr().expect("a TCP listener has an address");
    Deployment { multi, net, addr }
}

/// What one connection does.
#[derive(Debug)]
pub struct Plan {
    /// The tenant its frames are addressed to.
    pub tenant: TenantId,
    /// Sent with blocking `call`s before the start barrier, untimed: they
    /// fault in the read path so cold-start cost never lands in a tail.
    pub warmup: Vec<Request>,
    /// The timed requests, in order.
    pub requests: Vec<Request>,
    /// Maximum requests in flight (1 = strict request-response).
    pub window: usize,
    /// Issue each request with the blocking [`PipelinedClient::call`]
    /// instead of `submit` + `wait` (`window` is then 1 by construction):
    /// on an idle connection the calling thread reads its own reply.
    pub call: bool,
}

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A reply.
    Ok,
    /// Refused for capacity: a full training queue or the listener's
    /// connection limit.
    Busy,
    /// Any other application-level error (`NotReady`, `Superseded`, …).
    Service,
    /// The transport broke: a protocol error or a connection that died
    /// under the client (`Unavailable`).
    Protocol,
}

impl Outcome {
    fn of(result: &ServiceResult) -> Self {
        match result {
            Ok(_) => Outcome::Ok,
            Err(ServiceError::Busy) => Outcome::Busy,
            Err(ServiceError::Protocol(_) | ServiceError::Unavailable) => Outcome::Protocol,
            Err(_) => Outcome::Service,
        }
    }
}

/// One timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The operation's metrics name ([`Request::op_name`]).
    pub op: &'static str,
    /// Submit→reply.
    pub latency: Duration,
    /// How it was answered.
    pub outcome: Outcome,
}

/// One connection's run: its samples in request order and its own clock.
#[derive(Clone, Debug)]
pub struct Conn {
    /// When this worker left the start barrier.
    pub first: Instant,
    /// When its last reply landed.
    pub last: Instant,
    /// One per planned request, in plan order.
    pub samples: Vec<Sample>,
}

impl Conn {
    /// Latencies of the `op` requests answered `outcome`.
    pub fn latencies(&self, op: &str, outcome: Outcome) -> Vec<Duration> {
        let hit = |s: &&Sample| s.op == op && s.outcome == outcome;
        self.samples.iter().filter(hit).map(|s| s.latency).collect()
    }

    /// Samples answered `outcome`.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }
}

/// Every connection of one [`drive`], in plan order.
#[derive(Clone, Debug)]
pub struct Run {
    /// One per plan.
    pub conns: Vec<Conn>,
}

impl Run {
    /// Wall time of the firing phase on the workers' own clocks: the
    /// earliest worker's first request to the latest worker's last reply.
    pub fn wall(&self) -> Duration {
        let first = self.conns.iter().map(|c| c.first).min();
        let last = self.conns.iter().map(|c| c.last).max();
        last.expect("at least one connection") - first.expect("as above")
    }

    /// Requests timed, all connections.
    pub fn requests(&self) -> usize {
        self.conns.iter().map(|c| c.samples.len()).sum()
    }

    /// Samples answered `outcome`, all connections.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.conns.iter().map(|c| c.count(outcome)).sum()
    }

    /// Every latency, all connections.
    pub fn latencies(&self) -> Vec<Duration> {
        let samples = self.conns.iter().flat_map(|c| &c.samples);
        samples.map(|s| s.latency).collect()
    }

    /// Requests answered per second over [`Run::wall`].
    pub fn throughput(&self) -> f64 {
        self.requests() as f64 / self.wall().as_secs_f64().max(1e-9)
    }
}

fn run_plan(client: PipelinedClient, plan: &Plan, start: &Barrier) -> Conn {
    for req in &plan.warmup {
        let _ = client.call(req);
    }
    start.wait();
    let first = Instant::now();
    let mut samples = Vec::with_capacity(plan.requests.len());
    let mut settle = |op, t0: Instant, result: ServiceResult| {
        let (latency, outcome) = (t0.elapsed(), Outcome::of(&result));
        samples.push(Sample {
            op,
            latency,
            outcome,
        });
    };
    let mut window: VecDeque<(&str, Instant, Pending)> = VecDeque::new();
    for req in &plan.requests {
        if window.len() >= plan.window.max(1) {
            let (op, t0, pending) = window.pop_front().expect("non-empty window");
            settle(op, t0, pending.wait());
        }
        let t0 = Instant::now();
        if plan.call {
            settle(req.op_name(), t0, client.call(req));
        } else {
            window.push_back((req.op_name(), t0, client.submit(req)));
        }
    }
    while let Some((op, t0, pending)) = window.pop_front() {
        settle(op, t0, pending.wait());
    }
    Conn {
        first,
        last: Instant::now(),
        samples,
    }
}

/// Runs every plan on its own connection against `addr`.
///
/// All connections are opened first — serially, so a kilo-client
/// stampede cannot outrun the single accept thread's backlog — then each
/// worker sends its warm-up and waits at a barrier the last worker
/// completes. A run is timed on the workers' own clocks ([`Run::wall`]):
/// a main thread waiting on the barrier too is next scheduled well into a
/// ~100 ms run of a thousand runnable workers, and a clock started there
/// times its wake-up, not the run. Panics if a connection cannot be
/// opened.
pub fn drive(addr: SocketAddr, plans: &[Plan]) -> Run {
    assert!(!plans.is_empty(), "a run needs at least one connection");
    let start = Barrier::new(plans.len());
    let clients: Vec<PipelinedClient> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            PipelinedClient::connect_tcp_tenant(addr, plan.tenant)
                .unwrap_or_else(|e| panic!("connect {} of {}: {e}", i + 1, plans.len()))
        })
        .collect();
    let conns = thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (client, plan))| {
                let start = &start;
                thread::Builder::new()
                    .name(format!("loadgen-{i}"))
                    .stack_size(128 * 1024)
                    .spawn_scoped(scope, move || run_plan(client, plan, start))
                    .expect("spawn load worker")
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    Run { conns }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READER: TenantId = 1;
    const UPDATER: TenantId = 2;

    /// Two tenants on one pool: one blocking plan of reads, one window-8
    /// plan of updates against a one-slot training queue.
    #[test]
    fn every_request_lands_one_outcome() {
        let tenants = [
            Tenant {
                id: READER,
                experiment: Experiment::Tomo,
                seed: 3,
            },
            Tenant {
                id: UPDATER,
                experiment: Experiment::Bragg,
                seed: 4,
            },
        ];
        let dep = spawn(&tenants, 1, NetServerConfig::default());
        let pdf = |scan| Request::DatasetPdf {
            images: Experiment::Tomo.frames(3, scan, 4).0,
        };
        let plans = [
            Plan {
                tenant: READER,
                warmup: vec![pdf(1)],
                requests: (2..8).map(pdf).collect(),
                window: 1,
                call: true,
            },
            Plan {
                tenant: UPDATER,
                warmup: Vec::new(),
                requests: (1..=8)
                    .map(|scan| Request::UpdateModel {
                        images: Experiment::Bragg.frames(4, scan, 16).0,
                        scan,
                    })
                    .collect(),
                window: 8,
                call: false,
            },
        ];
        let run = drive(dep.addr, &plans);

        for (plan, conn) in plans.iter().zip(&run.conns) {
            let ops: Vec<_> = conn.samples.iter().map(|s| s.op).collect();
            let planned: Vec<_> = plan.requests.iter().map(Request::op_name).collect();
            assert_eq!(ops, planned, "one sample per request, in plan order");
            // The tenant's own registry saw exactly what was sent, and
            // counted as errors exactly what the driver did not see as ok.
            let op = plan.requests[0].op_name();
            let client = dep.multi.client(plan.tenant).expect("registered");
            let served = client.metrics().expect("metrics").op(op).cloned();
            let served = served.expect("op recorded");
            let sent = plan.warmup.len() + plan.requests.len();
            assert_eq!(served.count as usize, sent, "tenant {}", plan.tenant);
            let not_ok = conn.samples.len() - conn.count(Outcome::Ok);
            assert_eq!(served.errors as usize, not_ok, "tenant {}", plan.tenant);
        }
        let (reads, updates) = (&run.conns[0], &run.conns[1]);
        assert_eq!(reads.count(Outcome::Ok), 6, "reads never meet the quota");
        assert!(
            updates.count(Outcome::Busy) > 0,
            "a one-slot queue refuses a pipelined flood"
        );
        assert_eq!(
            run.count(Outcome::Protocol),
            0,
            "a refusal is not a broken wire"
        );
        assert!(run.conns.iter().all(|c| run.wall() >= c.last - c.first));
        dep.shutdown();
    }
}
