//! Kilo-client load generator for the wire plane (DESIGN.md §13).
//!
//! Spawns a trained fairDMS deployment behind a loopback TCP listener,
//! then drives it with `conns` concurrent pipelined clients pushing a
//! read/write mix (routed lookups and single-frame ingests), and prints
//! the latency distribution, throughput, and the server's
//! connection/frame counters. This is the same harness
//! (`fairdms_bench::load`) `benches/net_plane.rs` uses for the CI-gated
//! pipelining and kilo-client experiments, exposed as a knob-turning CLI.
//!
//! Run with: `cargo run --release --example load_gen -- [conns] [reqs] [window] [read_fraction]`
//!
//! e.g. `cargo run --release --example load_gen -- 1000 8 4 0.9`

use fairdms_bench::load::{self, Experiment, Outcome, Plan, Tenant};
use fairdms_bench::report::SeriesSummary;
use fairdms_service::net::NetServerConfig;
use fairdms_service::Request;

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let (conns, reqs, window) = (arg(1, 256usize), arg(2, 16usize), arg(3, 16usize));
    let read_fraction: f64 = arg(4, 0.9);
    println!(
        "== fairDMS load generator: {conns} connections x {reqs} requests, window {window}, {:.0}% reads ==\n",
        read_fraction * 100.0
    );

    println!("training deployment + binding wire plane ...");
    let tenant = Tenant {
        id: 0,
        experiment: Experiment::Bragg,
        seed: 1,
    };
    let dep = load::spawn(&[tenant], 1, NetServerConfig::default());
    println!("listening on {}\n", dep.addr);

    // Request k (counted across connections) is a write when the running
    // write share crosses an integer: an exact `1 - read_fraction` mix.
    let writes = |k: usize| (k as f64 * (1.0 - read_fraction)).floor() as usize;
    let plans: Vec<Plan> = (0..conns)
        .map(|conn| {
            let (images, labels) = tenant.experiment.frames(tenant.seed, 1_000 + conn, 1);
            let requests = (conn * reqs..(conn + 1) * reqs)
                .map(|k| {
                    if writes(k + 1) > writes(k) {
                        Request::IngestLabeled {
                            images: images.clone(),
                            labels: labels.clone(),
                            scan: 1_000 + conn,
                        }
                    } else {
                        Request::LookupMatching {
                            pdf: vec![0.5, 0.5],
                            count: 1,
                        }
                    }
                })
                .collect();
            Plan {
                tenant: tenant.id,
                warmup: Vec::new(),
                requests,
                window,
                call: false,
            }
        })
        .collect();
    let run = load::drive(dep.addr, &plans);
    let s = SeriesSummary::of("load_gen", &run.latencies());

    println!("requests   {:>10}", run.requests());
    for (label, outcome) in [
        ("ok", Outcome::Ok),
        ("busy", Outcome::Busy),
        ("svc err", Outcome::Service),
        ("proto err", Outcome::Protocol),
    ] {
        println!("  {label:<9}{:>10}", run.count(outcome));
    }
    println!("wall       {:>10.2?}", run.wall());
    println!("throughput {:>10.0} req/s", run.throughput());
    println!(
        "latency    p50 {:?}  p99 {:?}  mean {:?}",
        s.p50, s.p99, s.mean
    );

    let stats = dep.net.counters().snapshot();
    println!("\nserver counters:");
    println!(
        "  connections opened {:>8}  busy-rejected {:>4}",
        stats.connections_opened, stats.connections_busy_rejected
    );
    println!(
        "  frames in/out      {:>8} / {:<8}",
        stats.frames_in, stats.frames_out
    );
    println!(
        "  bytes  in/out      {:>8} / {:<8}",
        stats.bytes_in, stats.bytes_out
    );
    println!("  decode errors      {:>8}", stats.decode_errors);

    dep.shutdown();
}
