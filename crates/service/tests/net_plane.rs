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
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::frame::{write_frame, FrameKind};
use fairdms_service::net::{NetServer, NetServerConfig, PipelinedClient};
use fairdms_service::server::{DmsClient, DmsServer, DmsServerConfig, ServerHandle};
use fairdms_service::{DmsApi, Request, ServiceError};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::io::Write;
use std::net::TcpStream;
use std::thread;

const SIDE: usize = 8;

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

fn spawn_deployment(seed: u64) -> (DmsClient, ServerHandle) {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let trainer = trainer_over(Box::new(embedder), seed);
    DmsServer::spawn(trainer, Box::new(|_| vec![0.5, 0.5]), server_cfg())
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

fn serve(client: &DmsClient, cfg: NetServerConfig) -> fairdms_service::net::NetServerHandle {
    NetServer::serve_tcp(client.clone(), ("127.0.0.1", 0), cfg).expect("bind")
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
    let net = serve(&client, NetServerConfig::default());
    let addr = net.local_addr().unwrap();

    let tcp = PipelinedClient::connect_tcp(addr).unwrap();
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
    let net = serve(&client, NetServerConfig::default());
    let pipe = PipelinedClient::connect_tcp(net.local_addr().unwrap()).unwrap();

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
        &client,
        NetServerConfig {
            max_connections: 1,
            ..NetServerConfig::default()
        },
    );
    let addr = net.local_addr().unwrap();

    let first = PipelinedClient::connect_tcp(addr).unwrap();
    // Make the first connection *observed* (accepted + registered) before
    // racing the second one against the limit.
    assert!(first.call(&Request::Metrics).is_ok());

    let second = PipelinedClient::connect_tcp(addr).unwrap();
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
    let third = PipelinedClient::connect_tcp(addr).unwrap();
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
    let net = serve(&client, NetServerConfig::default());
    let addr = net.local_addr().unwrap();

    let healthy = PipelinedClient::connect_tcp(addr).unwrap();
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
        &client,
        NetServerConfig {
            max_frame_len: 1024,
            ..NetServerConfig::default()
        },
    );
    let addr = net.local_addr().unwrap();

    // Drive the hostile bytes through a real client so we can observe the
    // ProtocolError frame coming back (a raw socket would too, but the
    // client decodes it for us).
    let pipe = PipelinedClient::connect_tcp(addr).unwrap();
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
    let net = serve(&client, NetServerConfig::default());
    let pipe = PipelinedClient::connect_tcp(net.local_addr().unwrap()).unwrap();

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
        &client,
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
    let a = PipelinedClient::connect_tcp(addr).unwrap();
    let ra = a.call(&Request::Metrics);
    assert!(ra.is_ok(), "slot leaked? {ra:?}");
    let b = PipelinedClient::connect_tcp(addr).unwrap();
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
    let net = NetServer::serve_uds(client.clone(), &path, NetServerConfig::default()).unwrap();

    let uds = PipelinedClient::connect_uds(&path).unwrap();
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
    let net = serve(&backing, NetServerConfig::default());
    let remote = PipelinedClient::connect_tcp(net.local_addr().unwrap()).unwrap();
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
    fn fit(&mut self, images: &Tensor, cfg: &EmbedTrainConfig) {
        self.0.fit(images, cfg);
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
    let mut builder = MultiDms::builder(1);
    for tenant in [1, 2] {
        let seed = u64::from(tenant);
        let embedder = TrippingEmbedder(AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed));
        builder = builder.tenant(
            TenantSpec {
                config: server_cfg(),
                ..TenantSpec::new(tenant)
            },
            trainer_over(Box::new(embedder), seed),
            Box::new(|_| vec![0.5, 0.5]),
        );
    }
    let multi = builder.spawn();
    let net = multi
        .serve_tcp(("127.0.0.1", 0), NetServerConfig::default())
        .expect("bind");
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
