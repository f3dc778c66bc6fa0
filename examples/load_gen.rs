//! Kilo-client load generator for the wire plane (DESIGN.md §13).
//!
//! Spawns a trained fairDMS deployment behind a loopback TCP listener,
//! then drives it with `CONNS` concurrent pipelined clients pushing a
//! configurable read/write mix, and prints the latency distribution,
//! throughput, and the server's connection/frame counters. This is the
//! same harness `benches/net_plane.rs` uses for the CI-gated pipelining
//! and kilo-client experiments, exposed as a knob-turning CLI.
//!
//! Run with: `cargo run --release --example load_gen -- [conns] [reqs] [window] [read_fraction]`
//!
//! e.g. `cargo run --release --example load_gen -- 1000 8 4 0.9`

use fairdms_bench::netload::{run_load, spawn_wire_deployment, LoadConfig, ReadKind};
use fairdms_service::net::NetServerConfig;

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = LoadConfig {
        connections: arg(1, 256),
        requests_per_connection: arg(2, 16),
        window: arg(3, 16),
        read_fraction: arg(4, 0.9f64),
        read_kind: ReadKind::RoutedLookup,
        blocking_call: false,
        seed: 1,
    };
    println!(
        "== fairDMS load generator: {} connections x {} requests, window {}, {:.0}% reads ==\n",
        cfg.connections,
        cfg.requests_per_connection,
        cfg.window,
        cfg.read_fraction * 100.0
    );

    println!("training deployment + binding wire plane ...");
    let dep = spawn_wire_deployment(1, NetServerConfig::default());
    println!("listening on {}\n", dep.addr());

    let load = run_load(dep.addr(), &cfg);
    let s = load.summary("load_gen");

    println!("requests   {:>10}", load.requests);
    println!("  ok       {:>10}", load.ok);
    println!("  svc err  {:>10}", load.service_errors);
    println!("  proto err{:>10}", load.protocol_errors);
    println!("wall       {:>10.2?}", load.wall);
    println!("throughput {:>10.0} req/s", load.throughput());
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
