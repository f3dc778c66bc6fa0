//! Deploying fairDMS behind a real TCP endpoint.
//!
//! `service_deployment.rs` drives the server through in-process clients;
//! this example puts the wire plane (DESIGN.md §13) in front of the same
//! stack: a [`fairdms_service::net::NetServer`] listens on a loopback
//! port, a [`fairdms_service::net::PipelinedClient`] talks to it with
//! the strict request-response pattern through the typed
//! [`fairdms_service::DmsApi`] helpers, a second one pushes a pipelined
//! burst down one socket, and the run ends with the server's connection/frame
//! counters — the new `net` section of the metrics snapshot.
//!
//! Run with: `cargo run --release --example tcp_deployment`

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::net::{NetServer, NetServerConfig, PipelinedClient};
use fairdms_service::server::{DmsServer, DmsServerConfig};
use fairdms_service::{DmsApi, Request};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;

const SIDE: usize = 8;

fn blob_images(n: usize, seed: u64) -> (Tensor, Tensor) {
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

fn main() {
    println!("== fairDMS TCP deployment ==\n");

    // --- Service stack: train a small system plane, prime the store. ----
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 7);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            seed: 7,
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    tcfg.seed = 7;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let (client, server) = DmsServer::spawn(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    let (x, y) = blob_images(48, 11);
    let k = client
        .train_system(
            x.clone(),
            EmbedTrainConfig {
                epochs: 3,
                batch_size: 16,
                ..EmbedTrainConfig::default()
            },
        )
        .expect("system training");
    client.ingest(x, y, 0).expect("prime store");
    println!("system plane trained: K = {k}, store primed with 48 documents");

    // --- Wire plane: listen on a loopback port. -------------------------
    let net = NetServer::serve_tcp(client.clone(), ("127.0.0.1", 0), NetServerConfig::default())
        .expect("bind wire plane");
    let addr = net.local_addr().expect("tcp address");
    println!("wire plane listening on {addr}\n");

    // --- Strict request-response over TCP. ------------------------------
    let tcp = PipelinedClient::connect_tcp(addr).expect("connect");
    let pdf = tcp
        .dataset_pdf(blob_images(8, 12).0)
        .expect("dataset_pdf over TCP");
    println!("dataset_pdf over TCP: {pdf:?}");
    let docs = tcp.lookup(pdf.clone(), 3).expect("lookup over TCP");
    println!("lookup_matching over TCP: {} documents", docs.len());

    // --- A pipelined burst down one socket. -----------------------------
    let pipe = PipelinedClient::connect_tcp(addr).expect("connect pipelined");
    let pendings: Vec<_> = (0..64)
        .map(|_| {
            pipe.submit(&Request::LookupMatching {
                pdf: pdf.clone(),
                count: 1,
            })
        })
        .collect();
    let answered = pendings
        .into_iter()
        .map(|p| p.wait())
        .filter(Result::is_ok)
        .count();
    println!("pipelined burst: 64 submitted, {answered} answered in order\n");

    // --- The wire plane's own metrics. ----------------------------------
    let snap = tcp.metrics().expect("metrics over TCP");
    let n = &snap.net;
    println!("connection/frame counters (MetricsSnapshot.net):");
    println!("  connections opened        {:>8}", n.connections_opened);
    println!("  connections active        {:>8}", n.connections_active);
    println!(
        "  busy rejections           {:>8}",
        n.connections_busy_rejected
    );
    println!("  frames in                 {:>8}", n.frames_in);
    println!("  frames out                {:>8}", n.frames_out);
    println!("  bytes in                  {:>8}", n.bytes_in);
    println!("  bytes out                 {:>8}", n.bytes_out);
    println!("  decode errors             {:>8}", n.decode_errors);
    println!(
        "  drains (graceful/abrupt)  {:>4}/{:<4}",
        n.drains_graceful, n.drains_abrupt
    );

    // --- Graceful drain: all listeners close, in-flight work answered. --
    drop(tcp);
    drop(pipe);
    net.shutdown();
    let after = client.metrics().expect("metrics").net;
    println!(
        "\nafter drain: {} active connections, {} graceful / {} abrupt closes",
        after.connections_active, after.drains_graceful, after.drains_abrupt
    );
    drop(client);
    server.shutdown();
}
