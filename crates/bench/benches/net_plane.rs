//! Wire-plane bench (DESIGN.md §13): pipelining speedup and kilo-client
//! sustain.
//!
//! Two experiments against one trained TCP deployment:
//!
//! 1. **Pipelining speedup.** The same read-only workload runs three ways
//!    — strict request-response (`window = 1` as `submit` + `wait`, one
//!    round trip per request through the client's demux thread), the
//!    blocking `call()` (window 1 again, but the calling thread reads its
//!    own reply: a blocking socket's two wake-ups) and pipelined
//!    (`window = 32`, the client keeps a window on the wire and the
//!    server's reply sequencer batches its flushes) — at 256 connections
//!    and on one. The per-request syscall + scheduler-wakeup cost
//!    amortizes across the window, and the bench **asserts** the
//!    pipelined run clears ≥1.5× the strict-RPC throughput at 256
//!    connections, gated in CI. The floor is what a serialized pipeline
//!    fails (its ratio is 1), not what pipelining is worth: timed on the
//!    workers' own clocks, fifteen runs on this box's two vCPUs read
//!    1.8–4.0× (median 2.4×) on the code that the old ≥3× gate, timed
//!    from the main thread's wake-up, passed and failed by turns (DESIGN
//!    §13 "Load"). A connection's reader thread writing a window-1 reply
//!    itself speeds strict request-response up, so the ratio may fall
//!    while both absolute rates rise: the record carries all three
//!    throughputs beside each ratio. The one-connection series is the
//!    round trip itself, with nothing else competing for the box; its
//!    ratio (4–16×) is recorded, not gated.
//!
//! 2. **Kilo-client sustain.** 1,000 concurrent connections (within the
//!    default 1,024 admission limit) each push a pipelined read/write
//!    mix; the bench **asserts** every request is answered successfully —
//!    zero protocol errors client-side, zero decode errors and zero busy
//!    rejections server-side.
//!
//! Results land in `results/BENCH_net_plane.json` via
//! `fairdms_bench::report`. CI runs this bench at exactly this scale (see
//! `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, Criterion};
use fairdms_bench::netload::{
    run_load, spawn_wire_deployment, LoadConfig, ReadKind, WireDeployment,
};
use fairdms_bench::report::BenchReport;
use fairdms_service::net::NetServerConfig;
use std::time::Duration;

/// Runs the three request styles at `conns` connections and records their
/// series, throughputs and the pipelined-over-strict ratio, which it
/// returns.
fn bench_pipelining_speedup(
    dep: &WireDeployment,
    report: &mut BenchReport,
    conns: usize,
    reqs: usize,
) -> f64 {
    let run = |window, blocking_call, seed| {
        run_load(
            dep.addr(),
            &LoadConfig {
                connections: conns,
                requests_per_connection: reqs,
                window,
                read_fraction: 1.0,
                read_kind: ReadKind::RoutedProbe,
                blocking_call,
                seed,
            },
        )
    };
    let strict = run(1, false, 11);
    let pipelined = run(32, false, 12);
    let call = run(1, true, 11);

    for (label, r) in [
        ("window1", &strict),
        ("call", &call),
        ("pipelined", &pipelined),
    ] {
        let s = report.add_series(&format!("{label}/{conns}conn"), &r.latencies);
        println!(
            "net_plane/{label:<10} conns {conns:>3}  reqs {:>6}  wall {:>8.2?}  thr {:>9.0} req/s  p50 {:>9.2?}  p99 {:>9.2?}",
            r.requests,
            r.wall,
            r.throughput(),
            s.p50,
            s.p99
        );
        assert_eq!(r.protocol_errors, 0, "{label}: protocol errors under load");
        assert_eq!(r.service_errors, 0, "{label}: service errors under load");
        report.add_metric(&format!("throughput_{label}_{conns}conn"), r.throughput());
    }

    let speedup = pipelined.throughput() / strict.throughput().max(1e-9);
    report.add_metric(&format!("pipeline_speedup_{conns}conn"), speedup);
    println!(
        "net_plane/speedup    pipelined vs window-1 at {conns} connection(s): {speedup:.1}x \
         ({:.0} vs {:.0} req/s)",
        pipelined.throughput(),
        strict.throughput()
    );
    speedup
}

fn bench_kilo_client_sustain(dep: &WireDeployment, report: &mut BenchReport) {
    const CONNS: usize = 1000;

    let load = run_load(
        dep.addr(),
        &LoadConfig {
            connections: CONNS,
            requests_per_connection: 4,
            window: 4,
            read_fraction: 0.9,
            read_kind: ReadKind::RoutedLookup,
            blocking_call: false,
            seed: 13,
        },
    );
    let s = report.add_series(&format!("kilo_mix/{CONNS}conn"), &load.latencies);
    println!(
        "net_plane/kilo_mix   conns {CONNS} reqs {:>6}  wall {:>8.2?}  thr {:>9.0} req/s  p50 {:>9.2?}  p99 {:>9.2?}",
        load.requests,
        load.wall,
        load.throughput(),
        s.p50,
        s.p99
    );
    report.add_metric("kilo_connections", CONNS as f64);
    report.add_metric("kilo_protocol_errors", load.protocol_errors as f64);
    report.add_metric("kilo_throughput", load.throughput());

    assert_eq!(
        load.protocol_errors, 0,
        "kilo-client sustain saw protocol errors"
    );
    assert_eq!(
        load.ok, load.requests,
        "every request must succeed against the trained deployment"
    );
    let stats = dep.net.counters().snapshot();
    assert_eq!(stats.decode_errors, 0, "server saw malformed frames");
    assert_eq!(
        stats.connections_busy_rejected, 0,
        "kilo load must fit the admission limit"
    );
}

fn bench_net_plane(_c: &mut Criterion) {
    let dep = spawn_wire_deployment(21, NetServerConfig::default());
    let mut report = BenchReport::new();
    // Loud regression guard (the CI gate): a pipeline that serializes
    // reads 1x; honest runs on two vCPUs read 1.8x and up.
    let speedup = bench_pipelining_speedup(&dep, &mut report, 256, 32);
    assert!(
        speedup >= 1.5,
        "pipelined throughput must be >= 1.5x strict request-response at 256 connections, \
         got {speedup:.2}x"
    );
    bench_pipelining_speedup(&dep, &mut report, 1, 8192);
    bench_kilo_client_sustain(&dep, &mut report);
    let path = report.write("net_plane");
    println!("net_plane: wrote {}", path.display());
    dep.shutdown();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_net_plane
}
criterion_main!(benches);
