//! Wire-plane integration tests (DESIGN.md §13): pipelining, the bounded
//! connection limit, abrupt-disconnect isolation, and graceful drain.
//!
//! Most tests deliberately skip system-plane training: an untrained
//! deployment answers every routed request with `NotReady`, which is a
//! perfectly good *reply* for exercising framing, sequencing, and drain
//! semantics — and keeps the suite fast.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig, Embedder};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_nn::trainer::TrainControl;
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::frame::{write_frame, FrameKind};
use fairdms_service::net::{NetServerConfig, PipelinedClient};
use fairdms_service::server::{DmsClient, DmsServerConfig, FallbackLabeler};
use fairdms_service::{DmsApi, Reply, Request, ServiceError};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::io::Write;
use std::net::TcpStream;
use std::thread;

const SIDE: usize = 8;

/// A one-tenant deployment (tenant 0) and that tenant's in-process client.
fn spawn_one(
    trainer: RapidTrainer,
    labeler: FallbackLabeler,
    config: DmsServerConfig,
) -> (DmsClient, MultiDms) {
    let dms = MultiDms::builder(1)
        .tenant(TenantSpec { id: 0, config }, trainer, labeler)
        .spawn();
    (dms.client(0).expect("tenant 0").clone(), dms)
}

fn trainer_over(embedder: Box<dyn Embedder>, seed: u64) -> RapidTrainer {
    let fairds = FairDS::in_memory(
        embedder,
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    tcfg.seed = seed;
    RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg)
}

fn server_cfg() -> DmsServerConfig {
    DmsServerConfig {
        auto_retrain: false,
        ..DmsServerConfig::default()
    }
}

fn spawn_deployment(seed: u64) -> (DmsClient, MultiDms) {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let trainer = trainer_over(Box::new(embedder), seed);
    spawn_one(trainer, Box::new(|_| vec![0.5, 0.5]), server_cfg())
}

fn frames(n: usize, seed: u64) -> (Tensor, Tensor) {
    let x = TensorRng::seeded(seed).uniform(&[n, SIDE * SIDE], 0.0, 1.0);
    (x, Tensor::from_vec(vec![0.5; n * 2], &[n, 2]))
}

fn embed_cfg() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 2,
        batch_size: 16,
        ..EmbedTrainConfig::default()
    }
}

fn serve(dms: &MultiDms, cfg: NetServerConfig) -> fairdms_service::net::NetServerHandle {
    dms.serve_tcp(("127.0.0.1", 0), cfg).expect("bind")
}

/// Tenants 1 and 2 behind one TCP listener, tenant `t` seeded `base + t`
/// over the embedder `embedder(seed)` builds.
fn two_tenants(
    base: u64,
    embedder: impl Fn(u64) -> Box<dyn Embedder>,
) -> (MultiDms, fairdms_service::net::NetServerHandle) {
    let mut builder = MultiDms::builder(1);
    for tenant in [1, 2] {
        let seed = base + u64::from(tenant);
        builder = builder.tenant(
            TenantSpec {
                config: server_cfg(),
                ..TenantSpec::new(tenant)
            },
            trainer_over(embedder(seed), seed),
            Box::new(|_| vec![0.5, 0.5]),
        );
    }
    let multi = builder.spawn();
    let net = multi
        .serve_tcp(("127.0.0.1", 0), NetServerConfig::default())
        .expect("bind");
    (multi, net)
}

/// Background work (connection teardown, counter updates) completes
/// asynchronously; wait for the observable effect instead of sleeping.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        thread::yield_now();
    }
}

#[test]
fn untrained_deployment_answers_not_ready_over_tcp() {
    let (client, server) = spawn_deployment(1);
    let net = serve(&server, NetServerConfig::default());
    let addr = net.local_addr().unwrap();

    let tcp = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    let err = tcp
        .dataset_pdf(fairdms_tensor::Tensor::zeros(&[1, SIDE * SIDE]))
        .unwrap_err();
    assert_eq!(err, ServiceError::NotReady);
    // The error crossed the wire as a reply frame, not a dropped socket.
    assert!(!tcp.is_closed());

    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_requests_on_one_socket_all_answer_in_order() {
    let (client, server) = spawn_deployment(2);
    let net = serve(&server, NetServerConfig::default());
    let pipe = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 0).unwrap();

    // Fire a full window before waiting on anything.
    let pendings: Vec<_> = (0..64)
        .map(|i| {
            pipe.submit(&Request::LookupMatching {
                pdf: vec![0.5, 0.5],
                count: i % 3,
            })
        })
        .collect();
    for p in pendings {
        // Untrained deployment: every reply is the NotReady error, which
        // still proves each request was individually answered.
        assert_eq!(p.wait().unwrap_err(), ServiceError::NotReady);
    }
    assert!(!pipe.is_closed());

    let stats = net.counters().snapshot();
    assert_eq!(stats.frames_in, 64, "{stats:?}");
    assert_eq!(stats.frames_out, 64, "{stats:?}");
    assert_eq!(stats.decode_errors, 0);

    drop(pipe);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn over_limit_connection_is_answered_busy_not_dropped() {
    let (client, server) = spawn_deployment(3);
    let net = serve(
        &server,
        NetServerConfig {
            max_connections: 1,
            ..NetServerConfig::default()
        },
    );
    let addr = net.local_addr().unwrap();

    let first = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    // Make the first connection *observed* (accepted + registered) before
    // racing the second one against the limit.
    assert!(first.call(&Request::Metrics).is_ok());

    let second = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    let err = second.call(&Request::Metrics).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Busy,
        "over-limit socket must be answered"
    );
    assert!(second.is_closed());
    // Sticky: everything after the Busy answers Busy too, without hanging.
    assert_eq!(
        second.call(&Request::Metrics).unwrap_err(),
        ServiceError::Busy
    );

    // The limit is on *live* connections: once the first drops, a new
    // socket is admitted.
    drop(first);
    wait_until("first connection reaped", || {
        net.counters().snapshot().connections_active == 0
    });
    let third = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    assert!(third.call(&Request::Metrics).is_ok());

    let stats = net.counters().snapshot();
    assert_eq!(stats.connections_busy_rejected, 1);
    assert_eq!(stats.connections_opened, 2);

    drop(third);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn abrupt_disconnect_mid_pipeline_does_not_disturb_others() {
    let (client, server) = spawn_deployment(4);
    let net = serve(&server, NetServerConfig::default());
    let addr = net.local_addr().unwrap();

    let healthy = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    assert!(healthy.metrics().is_ok());

    // A client that dies mid-frame: half a length prefix, then gone.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, 1, 0, FrameKind::Request, &[10]); // Metrics
        raw.write_all(&frame).unwrap();
        raw.write_all(&[0xFF, 0xFF]).unwrap(); // torn prefix
        drop(raw);
    }
    // A client that pipelines requests and vanishes without reading any
    // reply.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        for seq in 1..=8u64 {
            write_frame(&mut bytes, seq, 0, FrameKind::Request, &[10]);
        }
        raw.write_all(&bytes).unwrap();
        drop(raw);
    }
    wait_until("dead connections torn down", || {
        net.counters().snapshot().connections_active == 1
    });

    // The healthy connection never noticed.
    assert!(healthy.metrics().is_ok());
    assert!(!healthy.is_closed());

    drop(healthy);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn hostile_length_prefix_answers_protocol_error_frame() {
    let (client, server) = spawn_deployment(5);
    let net = serve(
        &server,
        NetServerConfig {
            max_frame_len: 1024,
            ..NetServerConfig::default()
        },
    );
    let addr = net.local_addr().unwrap();

    // Drive the hostile bytes through a real client so we can observe the
    // ProtocolError frame coming back (a raw socket would too, but the
    // client decodes it for us).
    let pipe = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    let good = pipe.submit(&Request::Metrics);
    assert!(good.wait().is_ok(), "connection healthy before the attack");

    // Now inject a declared 4 GiB frame on the same socket via a second
    // raw connection (the pipelined client's socket stays clean).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    wait_until("decoder rejected the hostile prefix", || {
        net.counters().snapshot().decode_errors >= 1
    });
    drop(raw);

    // The well-behaved connection is untouched.
    assert!(pipe.call(&Request::Metrics).is_ok());

    drop(pipe);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn graceful_drain_answers_every_dispatched_request() {
    let (client, server) = spawn_deployment(6);
    let net = serve(&server, NetServerConfig::default());
    let pipe = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 0).unwrap();

    let pendings: Vec<_> = (0..32).map(|_| pipe.submit(&Request::Metrics)).collect();
    // Force the buffered frames onto the wire, then wait until the server
    // has read all of them before starting the drain.
    let probe = pipe.submit(&Request::Metrics);
    assert!(probe.wait().is_ok());
    wait_until("server decoded all frames", || {
        net.counters().snapshot().frames_in >= 33
    });

    net.shutdown();

    // Every request the server read before the drain must be answered.
    for p in pendings {
        assert!(p.wait().is_ok(), "dispatched request dropped by drain");
    }
    let stats = client.metrics().unwrap().net;
    assert_eq!(stats.connections_active, 0);
    assert_eq!(
        stats.drains_graceful, 1,
        "server-initiated drain with all requests answered is graceful: {stats:?}"
    );

    drop(pipe);
    drop(client);
    server.shutdown();
}

/// Regression: a kill-storm of half-open connections must never
/// permanently consume admission slots. Every teardown path — torn frame,
/// peer dead before its first byte, peer dead with unread replies queued —
/// has to decrement `connections_active`, or the accept loop eventually
/// answers Busy to every future peer. (The writer-side accounting now
/// lives in a drop guard, so even a panicking connection thread releases
/// its slot.)
#[test]
fn kill_storm_of_half_open_connections_releases_admission_slots() {
    let (client, server) = spawn_deployment(9);
    let net = serve(
        &server,
        NetServerConfig {
            max_connections: 2,
            ..NetServerConfig::default()
        },
    );
    let addr = net.local_addr().unwrap();

    for wave in 0..20u64 {
        // Variant A: connect and vanish without a byte.
        drop(TcpStream::connect(addr).unwrap());
        // Variant B: torn length prefix, then gone.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            let _ = raw.write_all(&[0x12, 0x34]);
            drop(raw);
        }
        // Variant C: pipeline real requests, never read a reply, die with
        // the server's answers still queued in its writer.
        {
            let mut raw = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            for seq in 1..=4u64 {
                write_frame(&mut bytes, seq, 0, FrameKind::Request, &[10]);
            }
            let _ = raw.write_all(&bytes);
            drop(raw);
        }
        // Let each wave's corpses get reaped before the next, so the storm
        // exercises teardown repeatedly rather than just tripping the
        // connection limit. (Over-limit rejects are fine — they are
        // answered Busy and never occupy a slot — but they would make the
        // test vacuous if every wave hit them.)
        if wave % 4 == 3 {
            wait_until("storm wave reaped", || {
                net.counters().snapshot().connections_active == 0
            });
        }
    }

    // `connections_active == 0` alone is not enough: the kernel's accept
    // backlog can still hold storm corpses the accept loop hasn't pulled
    // yet, and admitting them briefly re-occupies the slots. Every storm
    // socket ends up either admitted or busy-rejected, so wait until all
    // 60 are accounted for *and* the slots are free again.
    wait_until("storm fully reaped", || {
        let s = net.counters().snapshot();
        s.connections_opened + s.connections_busy_rejected >= 60 && s.connections_active == 0
    });
    let stats = net.counters().snapshot();
    assert_eq!(
        stats.connections_opened,
        stats.drains_graceful + stats.drains_abrupt,
        "every admitted connection must be accounted closed: {stats:?}"
    );

    // Both admission slots are usable again: two concurrent clients get
    // served, so no slot leaked anywhere in the storm.
    let a = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    let ra = a.call(&Request::Metrics);
    assert!(ra.is_ok(), "slot leaked? {ra:?}");
    let b = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    let rb = b.call(&Request::Metrics);
    assert!(rb.is_ok(), "slot leaked? {rb:?}");

    drop(a);
    drop(b);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works_end_to_end() {
    let (client, server) = spawn_deployment(7);
    let dir = std::env::temp_dir().join(format!("fairdms-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wire.sock");
    let net = server.serve_uds(&path, NetServerConfig::default()).unwrap();

    let uds = PipelinedClient::connect_uds_tenant(&path, 0).unwrap();
    let snap = uds.metrics().unwrap();
    assert!(snap.net.connections_active >= 1);

    drop(uds);
    net.shutdown();
    assert!(!path.exists(), "drain must remove the socket file");
    let _ = std::fs::remove_dir_all(&dir);
    drop(client);
    server.shutdown();
}

/// One tour of every typed helper, written once against the trait.
fn typed_tour(api: &impl DmsApi) {
    let (x, y) = frames(40, 90);
    assert_eq!(api.train_system(x.clone(), embed_cfg()).unwrap(), 2);
    assert_eq!(api.ingest(x.clone(), y, 0).unwrap(), (40, false));
    let pdf = api.dataset_pdf(x.clone()).unwrap();
    assert_eq!(pdf.len(), 2);
    assert_eq!(api.lookup(pdf.clone(), 3).unwrap().len(), 3);
    let (labels, stats) = api.pseudo_label(x.clone(), f32::NAN).unwrap();
    assert_eq!(labels.shape(), [40, 2]);
    assert_eq!(stats.reused + stats.computed, 40);
    assert!((0.0..=1.0).contains(&api.certainty(x.clone()).unwrap()));

    let checkpoint = fairdms_nn::checkpoint::save(&ArchSpec::BraggNN { patch: SIDE }.build(91));
    let id = api
        .publish("seed", checkpoint.clone(), pdf.clone(), 0)
        .unwrap();
    assert_eq!(api.fetch(id).unwrap(), (checkpoint, pdf.clone()));
    assert_eq!(api.recommend(pdf.clone()).unwrap().ranked[0].0, id);
    assert_eq!(api.recommend_top_k(pdf, 1).unwrap().ranked.len(), 1);
    let (_, report) = api.update_model(x, 1).unwrap();
    assert!(api.fetch(report.registered_id).is_ok());
    assert_eq!(
        api.fetch(999).unwrap_err(),
        ServiceError::UnknownModel(999),
        "a service error crosses every transport as itself"
    );

    let m = api.metrics().unwrap();
    assert_eq!(m.op("pdf").unwrap().count, 1);
    assert_eq!(m.op("fetch").unwrap().errors, 1);
    assert_eq!(m.training_jobs_completed, 1);
    assert!(
        m.read_index_rows_decoded >= 40,
        "the pseudo-label search decoded the store into the read index"
    );
}

#[test]
fn typed_helpers_are_one_surface_in_process_and_over_tcp() {
    let (local, server) = spawn_deployment(11);
    typed_tour(&local);
    drop(local);
    server.shutdown();

    let (backing, server) = spawn_deployment(11);
    let net = serve(&server, NetServerConfig::default());
    let remote = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 0).unwrap();
    typed_tour(&remote);
    drop(remote);
    net.shutdown();
    drop(backing);
    server.shutdown();
}

/// Panics in the forward pass when a batch carries the sentinel pixel —
/// a stand-in for a bug in a user-supplied embedder.
struct TrippingEmbedder(AutoencoderEmbedder);

const SENTINEL: f32 = -12345.0;

impl Embedder for TrippingEmbedder {
    fn name(&self) -> &'static str {
        "tripping"
    }
    fn embed_dim(&self) -> usize {
        self.0.embed_dim()
    }
    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }
    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        self.0.fit_controlled(images, cfg, ctl)
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        assert!(!images.data().contains(&SENTINEL), "embedder tripped");
        self.0.embed(images)
    }
    fn clone_embedder(&self) -> Box<dyn Embedder> {
        Box::new(TrippingEmbedder(self.0.clone()))
    }
}

#[test]
fn a_panicking_read_costs_its_tenant_not_the_connection_or_the_caller() {
    let (multi, net) = two_tenants(0, |seed| {
        Box::new(TrippingEmbedder(AutoencoderEmbedder::new(
            SIDE * SIDE,
            32,
            8,
            seed,
        )))
    });
    // One socket, two tenants.
    let doomed = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 1).unwrap();
    let neighbour = doomed.for_tenant(2);
    let (x, _) = frames(16, 92);
    for api in [&doomed, &neighbour] {
        api.train_system(x.clone(), embed_cfg()).unwrap();
    }
    let mut tripwire = x.clone();
    tripwire.row_mut(3)[0] = SENTINEL;
    let pdf_of = |images: &Tensor| Request::DatasetPdf {
        images: images.clone(),
    };

    // The neighbour has replies in flight on both sides of the panic.
    let before = neighbour.submit(&pdf_of(&x));
    let boom = doomed.submit(&pdf_of(&tripwire));
    let after = neighbour.submit(&pdf_of(&x));
    assert!(before.wait().is_ok());
    assert_eq!(boom.wait().unwrap_err(), ServiceError::Unavailable);
    assert!(
        after.wait().is_ok(),
        "the neighbour lost an in-flight reply"
    );
    assert!(!doomed.is_closed(), "the connection outlives the panic");
    // The panicking tenant is poisoned; its neighbour keeps serving.
    assert_eq!(
        doomed.dataset_pdf(x.clone()).unwrap_err(),
        ServiceError::Unavailable
    );
    assert!(neighbour.certainty(x.clone()).is_ok());

    // The same read from an in-process caller: an error comes back and
    // this thread is not unwound.
    let local = multi.client(2).expect("tenant 2");
    assert_eq!(
        local.dataset_pdf(tripwire).unwrap_err(),
        ServiceError::Unavailable
    );
    assert_eq!(local.certainty(x).unwrap_err(), ServiceError::Unavailable);

    drop((doomed, neighbour));
    net.shutdown();
    multi.shutdown();
}

/// A count is a loop bound, a reservation and a reply size, and on the wire
/// it is eight bytes anyone can send: `usize::MAX` once overflowed a
/// `Vec::with_capacity` in the read handler (poisoning the tenant) and
/// `1 << 44` aborted the process in the allocator. Each must be answered —
/// `Invalid`, or the whole ranking for a `top_k` no zoo could fill — through
/// both doors of the tenant, which keeps serving, as do its neighbour and
/// the connection they share.
#[test]
fn hostile_counts_are_answered_not_obeyed() {
    let (multi, net) = two_tenants(0, |seed| {
        Box::new(AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed))
    });
    // One socket, two tenants.
    let target = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 1).unwrap();
    let neighbour = target.for_tenant(2);
    let (x, y) = frames(24, 95);
    let checkpoint = fairdms_nn::checkpoint::save(&ArchSpec::BraggNN { patch: SIDE }.build(96));
    for api in [&target, &neighbour] {
        api.train_system(x.clone(), embed_cfg()).unwrap();
        api.ingest(x.clone(), y.clone(), 0).unwrap();
        for (i, pdf) in [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]].iter().enumerate() {
            api.publish("m", checkpoint.clone(), pdf.to_vec(), i)
                .unwrap();
        }
    }

    fn probe(api: &impl DmsApi) {
        let pdf = vec![0.7, 0.3];
        for count in [usize::MAX, 1 << 44, fairdms_service::MAX_LOOKUP_COUNT + 1] {
            let err = api.lookup(pdf.clone(), count).unwrap_err();
            assert!(matches!(err, ServiceError::Invalid(_)), "{count}: {err:?}");
            // Nothing was poisoned: the next read of the same tenant serves.
            assert_eq!(api.lookup(pdf.clone(), 3).unwrap().len(), 3);
        }
        let whole = api.recommend(pdf.clone()).unwrap();
        assert_eq!(whole.ranked.len(), 3);
        for k in [usize::MAX - 1, usize::MAX] {
            assert_eq!(api.recommend_top_k(pdf.clone(), k).unwrap(), whole);
        }
    }
    probe(&target);
    probe(multi.client(1).expect("tenant 1"));

    assert!(!target.is_closed(), "the connection outlives the requests");
    assert_eq!(neighbour.lookup(vec![0.5, 0.5], 3).unwrap().len(), 3);
    assert!(target.dataset_pdf(x).is_ok());

    drop((target, neighbour));
    net.shutdown();
    multi.shutdown();
}

/// A shape is input too: it is an index bound and a slice width, and on the
/// wire it is a rank byte and a few `u32`s anyone can send. Four requests
/// that decode cleanly once killed the actor — labels of rank 0 (an index
/// into an empty shape), labels `[N, 0]` (a slice of an empty buffer),
/// labels of another width than the store's (accepted, then the next
/// `PseudoLabel` reusing one of each tripped an assertion), and a published
/// "checkpoint" that is not one (accepted, rightly, then the `UpdateModel`
/// that ranked it first tried to load it). The first three must answer
/// `Invalid`, the fourth must train from scratch, through both doors of the
/// tenant, which keeps serving, as do its neighbour and the connection
/// they share. So must a `TrainSystem` of three rows, one fewer than a
/// system plane is fitted on, and one whose learning rate is NaN: each
/// reached an assertion on the actor.
#[test]
fn hostile_shapes_are_answered_not_obeyed() {
    let (multi, net) = two_tenants(0, |seed| {
        Box::new(AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed))
    });
    // One socket, two tenants.
    let target = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 1).unwrap();
    let neighbour = target.for_tenant(2);
    let (x, y) = frames(24, 97);
    for api in [&target, &neighbour] {
        api.train_system(x.clone(), embed_cfg()).unwrap();
        api.ingest(x.clone(), y.clone(), 0).unwrap();
    }

    /// `fresh` are frames the tenant has not stored; `stored` it has.
    fn probe(api: &impl DmsApi, stored: &Tensor, fresh: &Tensor) {
        let n = fresh.shape()[0];
        let err = api
            .train_system(fresh.gather_rows(&[0, 1, 2]), embed_cfg())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "3 rows: {err:?}");
        let nan_lr = EmbedTrainConfig {
            lr: f32::NAN,
            ..embed_cfg()
        };
        let err = api.train_system(fresh.clone(), nan_lr).unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "NaN lr: {err:?}");
        let both = Tensor::from_vec(
            [stored.data(), fresh.data()].concat(),
            &[stored.shape()[0] + n, SIDE * SIDE],
        );
        for labels in [
            Tensor::from_vec(vec![0.5], &[]),
            Tensor::from_vec(vec![], &[n, 0]),
            Tensor::from_vec(vec![0.5; n * 3], &[n, 3]),
        ] {
            let shape = labels.shape().to_vec();
            let err = api.ingest(fresh.clone(), labels, 1).unwrap_err();
            assert!(
                matches!(err, ServiceError::Invalid(_)),
                "{shape:?}: {err:?}"
            );
            // Nothing was poisoned and nothing was stored: with a threshold
            // no distance exceeds, every row reuses a stored label, and they
            // are all still two wide.
            let (reused, stats) = api.pseudo_label(both.clone(), f32::MAX).unwrap();
            assert_eq!(reused.shape(), &[both.shape()[0], 2], "{shape:?}");
            assert_eq!(stats.computed, 0, "{shape:?}");
        }
        // Bytes that are no checkpoint, keyed so the update ranks them first.
        let pdf = api.dataset_pdf(fresh.clone()).unwrap();
        let junk = vec![0xAB; 64];
        let junk_id = api.publish("junk", junk.clone(), pdf.clone(), 9).unwrap();
        assert_eq!(api.recommend(pdf).unwrap().ranked[0].0, junk_id);
        let (checkpoint, report) = api.update_model(fresh.clone(), 2).unwrap();
        assert_eq!(report.foundation, None, "junk is not a foundation");
        assert!(fairdms_nn::checkpoint::read_tensors(&checkpoint).is_ok());
        // The zoo hands back what was published, and the tenant serves on.
        assert_eq!(api.fetch(junk_id).unwrap().0, junk);
        assert!(api.dataset_pdf(stored.clone()).is_ok());
    }
    // Each door its own fresh frames, so its junk entry — keyed by their
    // PDF — is the one its update ranks first.
    probe(&target, &x, &frames(16, 98).0);
    probe(multi.client(1).expect("tenant 1"), &x, &frames(10, 99).0);

    assert!(!target.is_closed(), "the connection outlives the requests");
    assert_eq!(neighbour.lookup(vec![0.5, 0.5], 3).unwrap().len(), 3);
    assert!(neighbour.ingest(x.clone(), y, 1).is_ok());

    drop((target, neighbour));
    net.shutdown();
    multi.shutdown();
}

/// Blocks in the forward pass while a batch carries the sentinel pixel,
/// until the test sends a token — a write the test holds in flight.
struct GatedEmbedder(AutoencoderEmbedder, crossbeam_channel::Receiver<()>);

impl Embedder for GatedEmbedder {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn embed_dim(&self) -> usize {
        self.0.embed_dim()
    }
    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }
    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        self.0.fit_controlled(images, cfg, ctl)
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        if images.data().contains(&SENTINEL) {
            let _ = self.1.recv();
        }
        self.0.embed(images)
    }
    fn clone_embedder(&self) -> Box<dyn Embedder> {
        Box::new(GatedEmbedder(self.0.clone(), self.1.clone()))
    }
}

/// Reads reply frames off a raw socket until `n` have arrived.
fn read_replies(raw: &mut TcpStream, n: usize) -> Vec<fairdms_service::net::Frame> {
    read_replies_up_to(raw, n, 1 << 20)
}

/// [`read_replies`] for replies of up to `max_len` bytes.
fn read_replies_up_to(
    raw: &mut TcpStream,
    n: usize,
    max_len: u32,
) -> Vec<fairdms_service::net::Frame> {
    (0..n)
        .map(|_| fairdms_service::net::frame::read_frame(raw, max_len).expect("reply frame"))
        .collect()
}

#[test]
fn a_read_behind_an_in_flight_write_is_sequenced_and_a_window_1_stream_is_not() {
    let (release, gate) = crossbeam_channel::unbounded();
    let embedder = GatedEmbedder(AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 12), gate);
    let (client, server) = spawn_one(
        trainer_over(Box::new(embedder), 12),
        Box::new(|_| vec![0.5, 0.5]),
        server_cfg(),
    );
    let (x, y) = frames(16, 93);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    let net = serve(&server, NetServerConfig::default());
    let addr = net.local_addr().unwrap();
    let stats = || net.counters().snapshot();

    // One socket: a write the actor cannot finish yet, a read behind it,
    // and a second write behind that. Once the reader has taken the third
    // frame it has already decided the read's route — with the first
    // write still in flight.
    let mut held = x.clone();
    held.row_mut(0)[0] = SENTINEL;
    let ingest = |images: &Tensor| Request::IngestLabeled {
        images: images.clone(),
        labels: y.clone(),
        scan: 0,
    };
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut bytes = Vec::new();
    for (seq, req) in [(1, ingest(&held)), (2, Request::Metrics), (3, ingest(&x))] {
        let payload = fairdms_service::net::codec::encode_request(&req);
        write_frame(&mut bytes, seq, 0, FrameKind::Request, &payload);
    }
    raw.write_all(&bytes).unwrap();
    wait_until("reader took all three frames", || stats().frames_in == 3);
    assert_eq!(stats().frames_out, 0, "a reply overtook the held write");
    release.send(()).unwrap();
    let seqs: Vec<u64> = read_replies(&mut raw, 3).iter().map(|f| f.seq).collect();
    assert_eq!(seqs, [1, 2, 3], "replies left out of request order");
    assert_eq!(stats().replies_inline, 0, "{:?}", stats());
    drop(raw);

    // A fresh connection at window 1: every reply is the reader's own.
    let before = stats();
    let tcp = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    for i in 0..32 {
        match i % 3 {
            0 => assert_eq!(tcp.dataset_pdf(x.clone()).unwrap().len(), 2),
            1 => assert!(tcp.certainty(x.clone()).is_ok()),
            _ => assert_eq!(tcp.lookup(vec![0.5, 0.5], i).unwrap().len(), i),
        }
    }
    let after = stats();
    assert_eq!(after.frames_out - before.frames_out, 32);
    assert_eq!(after.replies_inline - before.replies_inline, 32);
    assert_eq!(after.decode_errors, 0);

    drop(tcp);
    net.shutdown();
    drop(client);
    server.shutdown();
}

#[test]
fn two_tenants_pipelining_beside_window_1_calls_each_get_their_own_replies() {
    let (multi, net) = two_tenants(20, |seed| {
        Box::new(AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed))
    });
    let one = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 1).unwrap();
    let two = one.for_tenant(2);
    let (x, y) = frames(16, 94);
    for api in [&one, &two] {
        api.train_system(x.clone(), embed_cfg()).unwrap();
        api.ingest(x.clone(), y.clone(), 0).unwrap();
    }

    // Each request names a size only its own reply can echo: an ingest of
    // `n` rows answers `count: n`, a lookup of `n` answers `n` documents.
    let pipeline = |api: PipelinedClient, salt: usize| {
        move || {
            for round in 0..24 {
                let sizes: Vec<usize> = (0..8).map(|i| 1 + (salt + round + i) % 7).collect();
                let tickets: Vec<_> = sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| {
                        api.submit(&if i % 2 == 0 {
                            let (images, labels) = frames(n, (salt + round + i) as u64);
                            Request::IngestLabeled {
                                images,
                                labels,
                                scan: 0,
                            }
                        } else {
                            Request::LookupMatching {
                                pdf: vec![0.5, 0.5],
                                count: n,
                            }
                        })
                    })
                    .collect();
                for (ticket, n) in tickets.into_iter().zip(sizes) {
                    match ticket.wait().expect("pipelined reply") {
                        Reply::Ingested { count, .. } => assert_eq!(count, n),
                        Reply::Documents(docs) => assert_eq!(docs.len(), n),
                        other => panic!("someone else's reply: {other:?}"),
                    }
                }
            }
        }
    };
    let writers = [
        thread::spawn(pipeline(one.clone(), 0)),
        thread::spawn(pipeline(two.clone(), 3)),
    ];
    // A third handle at window 1, self-reading whenever the pipelines
    // happen to be drained and queueing behind them whenever not.
    let caller = one.for_tenant(2);
    for i in 0..200 {
        assert_eq!(caller.lookup(vec![0.5, 0.5], i % 9).unwrap().len(), i % 9);
    }
    for w in writers {
        w.join().expect("pipelining thread");
    }
    assert!(!one.is_closed(), "a reply was matched to the wrong ticket");
    let stats = net.counters().snapshot();
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.frames_in, stats.frames_out, "{stats:?}");

    drop((one, two, caller));
    net.shutdown();
    multi.shutdown();
}

/// A scripted peer: swallows requests, plays `script` back.
struct Swallow;

impl Write for Swallow {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl fairdms_service::net::client::WriteHalf for Swallow {
    fn shut(&self) {}
}

fn scripted(script: &[u8]) -> PipelinedClient {
    let read_half = std::io::Cursor::new(script.to_vec());
    PipelinedClient::over(Box::new(Swallow), Box::new(read_half), 0).unwrap()
}

#[test]
fn a_self_reading_call_meets_terminal_conditions_exactly_as_the_demux_thread_does() {
    let frame = |seq, kind, payload: &[u8]| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, seq, 0, kind, payload);
        bytes
    };
    let ok = fairdms_service::net::codec::encode_reply(&Reply::Certainty(0.5));
    let torn = frame(1, FrameKind::ReplyOk, &ok);
    let cases: [(&str, Vec<u8>, ServiceError); 4] = [
        ("busy", frame(0, FrameKind::Busy, &[]), ServiceError::Busy),
        (
            "protocol error frame",
            frame(0, FrameKind::ProtocolError, b"bad tag"),
            ServiceError::Protocol("server rejected stream: bad tag".into()),
        ),
        (
            "seq mismatch",
            frame(7, FrameKind::ReplyOk, &ok),
            ServiceError::Protocol("reply seq 7 arrived while waiting for 1".into()),
        ),
        (
            "EOF mid-frame",
            torn[..torn.len() - 3].to_vec(),
            ServiceError::Unavailable,
        ),
    ];
    for (what, script, expected) in cases {
        // Nothing in flight: `call` reads the socket itself.
        let own = scripted(&script);
        // A ticket: the demux thread reads it.
        let demux = scripted(&script);
        let via_demux = demux.submit(&Request::Metrics).wait().unwrap_err();
        assert_eq!(
            own.call(&Request::Metrics).unwrap_err(),
            via_demux,
            "{what}"
        );
        assert_eq!(via_demux, expected, "{what}");
        for client in [own, demux] {
            assert!(client.is_closed(), "{what}");
            // Sticky, on either route, without touching the socket again.
            assert_eq!(client.call(&Request::Metrics).unwrap_err(), expected);
            let ticket = client.submit(&Request::Metrics);
            assert_eq!(ticket.wait().unwrap_err(), expected, "{what}");
        }
    }
    // A good reply first: the connection survives it and the next call —
    // self-reading again — meets the end of the script.
    let mut script = frame(1, FrameKind::ReplyOk, &ok);
    script.extend(frame(0, FrameKind::Busy, &[]));
    let client = scripted(&script);
    assert!(matches!(
        client.call(&Request::Metrics),
        Ok(Reply::Certainty(c)) if c == 0.5
    ));
    assert!(!client.is_closed());
    assert_eq!(
        client.call(&Request::Metrics).unwrap_err(),
        ServiceError::Busy
    );
}

#[test]
fn a_drain_mid_stream_answers_every_request_a_window_1_caller_got_in() {
    let (client, server) = spawn_deployment(13);
    let net = serve(&server, NetServerConfig::default());
    let tcp = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 0).unwrap();
    assert!(tcp.call(&Request::Metrics).is_ok());

    let (started_tx, started_rx) = crossbeam_channel::bounded(1);
    let caller = {
        let tcp = tcp.clone();
        thread::spawn(move || {
            let mut answered = 0u64;
            loop {
                match tcp.call(&Request::Metrics) {
                    Ok(_) => answered += 1,
                    // The drain closed the socket between two requests.
                    Err(e) => break (answered, e),
                }
                if answered == 8 {
                    let _ = started_tx.send(());
                }
            }
        })
    };
    started_rx.recv().expect("stream under way");
    net.shutdown();
    let (answered, end) = caller.join().expect("caller");
    assert_eq!(end, ServiceError::Unavailable);

    // Every frame the server took off the socket was answered, inline, and
    // the close counts as graceful.
    let stats = client.metrics().unwrap().net;
    assert_eq!(stats.frames_in, stats.frames_out, "{stats:?}");
    assert_eq!(stats.frames_out, answered + 1, "{stats:?}");
    assert_eq!(stats.replies_inline, stats.frames_out, "{stats:?}");
    assert_eq!(
        (stats.connections_active, stats.drains_graceful),
        (0, 1),
        "{stats:?}"
    );

    drop(tcp);
    drop(client);
    server.shutdown();
}

#[test]
fn a_peer_reset_during_an_inline_write_tears_the_connection_down() {
    let (client, server) = spawn_deployment(14);
    // Bigger than both ends' socket buffers: the inline write cannot
    // complete unless the peer reads.
    let big = client
        .publish("big", vec![7u8; 16 << 20], vec![0.5, 0.5], 0)
        .unwrap();
    let net = serve(&server, NetServerConfig::default());
    let addr = net.local_addr().unwrap();
    let healthy = PipelinedClient::connect_tcp_tenant(addr, 0).unwrap();
    assert!(healthy.metrics().is_ok());

    let mut raw = TcpStream::connect(addr).unwrap();
    let mut bytes = Vec::new();
    let fetch = fairdms_service::net::codec::encode_request(&Request::FetchModel { zoo_id: big });
    write_frame(&mut bytes, 1, 0, FrameKind::Request, &fetch);
    raw.write_all(&bytes).unwrap();
    // Take the head of the reply, so its tail is waiting on this peer,
    // then vanish with the rest unread.
    let mut head = [0u8; 64];
    std::io::Read::read_exact(&mut raw, &mut head).unwrap();
    drop(raw);

    wait_until("reset connection torn down", || {
        net.counters().snapshot().connections_active == 1
    });
    let stats = net.counters().snapshot();
    assert_eq!(stats.drains_abrupt, 1, "{stats:?}");
    assert!(healthy.metrics().is_ok());

    drop(healthy);
    net.shutdown();
    wait_until("all connections closed", || {
        client.metrics().unwrap().net.connections_active == 0
    });
    drop(client);
    server.shutdown();
}

#[test]
fn a_peer_that_writes_its_window_before_it_reads_is_still_served() {
    let (client, server) = spawn_deployment(15);
    // Bigger than both ends' socket buffers, as above.
    let checkpoint = vec![9u8; 16 << 20];
    let big = client
        .publish("big", checkpoint.clone(), vec![0.5, 0.5], 0)
        .unwrap();
    let net = serve(&server, NetServerConfig::default());
    let stats = || net.counters().snapshot();

    // The first request arrives alone — window 1 as far as the reader can
    // tell — and its reply fills the socket, because this peer reads
    // nothing until it has written everything.
    let mut raw = TcpStream::connect(net.local_addr().unwrap()).unwrap();
    let request = |seq, req: &Request| {
        let mut bytes = Vec::new();
        let payload = fairdms_service::net::codec::encode_request(req);
        write_frame(&mut bytes, seq, 0, FrameKind::Request, &payload);
        bytes
    };
    raw.write_all(&request(1, &Request::FetchModel { zoo_id: big }))
        .unwrap();
    wait_until("the first reply is under way", || stats().frames_out == 1);
    assert_eq!(stats().replies_inline, 1, "{:?}", stats());
    // The reader must not be waiting on that socket: it takes the rest of
    // the window while the reply is stuck.
    raw.write_all(&request(2, &Request::Metrics)).unwrap();
    raw.write_all(&request(3, &Request::FetchModel { zoo_id: big }))
        .unwrap();
    wait_until("reader took the whole window", || stats().frames_in == 3);
    // A frame is counted when it is read, before it is answered: wait for
    // the third answer too, or reading below can flush the stuck reply
    // first and request 3 then rightly goes out inline.
    wait_until("reader answered the whole window", || {
        client.metrics().unwrap().op("fetch").unwrap().count == 2
    });

    let replies = read_replies_up_to(&mut raw, 3, 32 << 20);
    let seqs: Vec<u64> = replies.iter().map(|f| f.seq).collect();
    assert_eq!(seqs, [1, 2, 3], "replies left out of request order");
    for fetched in [&replies[0], &replies[2]] {
        let reply = fairdms_service::net::codec::decode_reply(&fetched.payload).unwrap();
        let Reply::Model {
            checkpoint: got, ..
        } = reply
        else {
            panic!("seq {}: expected the model", fetched.seq);
        };
        assert!(got == checkpoint, "seq {}: torn reply", fetched.seq);
    }
    assert_eq!(stats().replies_inline, 1, "{:?}", stats());
    assert_eq!(stats().decode_errors, 0);

    drop(raw);
    net.shutdown();
    drop(client);
    server.shutdown();
}
