//! Hosting three experiments in one fairDMS service process.
//!
//! The tenant plane (DESIGN.md §14) turns the single-deployment server
//! into a facility: this example replays the paper's three instruments —
//! tomography, CookieBox, and Bragg scans — as three isolated tenants
//! behind **one** TCP listener and **one** shared training pool, using
//! the same `fairdms_bench::load` harness the CI fairness bench runs.
//! Each tenant streams routed reads and periodic `UpdateModel` retrains
//! concurrently; the run ends with per-tenant latency summaries and the
//! round-robin pool's admission counters.
//!
//! Run with: `cargo run --release --example multi_tenant_deployment`

use fairdms_bench::load::{self, Experiment, Outcome, Plan, Tenant};
use fairdms_bench::report::SeriesSummary;
use fairdms_service::net::NetServerConfig;
use fairdms_service::Request;

/// 8 scans per tenant: 16 routed `DatasetPdf` reads over 16 fresh frames
/// each, and an `UpdateModel` over 16 frames on every fourth scan.
fn replay(t: &Tenant) -> Plan {
    let requests = (1..=8).flat_map(|scan| {
        let (x, _) = t.experiment.frames(t.seed, scan, 16 * 16);
        let reads = (0..16).map(move |i| Request::DatasetPdf {
            images: x.slice_rows(i * 16, (i + 1) * 16),
        });
        let update = (scan % 4 == 0).then(|| Request::UpdateModel {
            images: t.experiment.frames(t.seed, scan, 16).0,
            scan,
        });
        reads.chain(update)
    });
    Plan {
        tenant: t.id,
        warmup: Vec::new(),
        requests: requests.collect(),
        window: 1,
        call: true,
    }
}

fn main() {
    println!("== fairDMS multi-tenant deployment ==\n");

    let tenants = [
        (1, Experiment::Tomo, 41),
        (2, Experiment::CookieBox, 42),
        (3, Experiment::Bragg, 43),
    ]
    .map(|(id, experiment, seed)| Tenant {
        id,
        experiment,
        seed,
    });

    println!("spawning 3 tenants behind one listener, 1 shared training worker...");
    let dep = load::spawn(&tenants, 1, NetServerConfig::default());
    println!("listening on {}\n", dep.addr);

    println!("replaying tomo + cookiebox + bragg scans concurrently...");
    let plans: Vec<Plan> = tenants.iter().map(replay).collect();
    let run = load::drive(dep.addr, &plans);
    for (t, c) in tenants.iter().zip(&run.conns) {
        let reads = c.latencies("pdf", Outcome::Ok);
        println!(
            "tenant {} ({:<9}) reads {:>3} (p99 {:>9.2?})  updates {:>2}  busy {:>2}  errors {:>2}  wall {:>8.2?}",
            t.id,
            format!("{:?}", t.experiment),
            reads.len(),
            SeriesSummary::of("reads", &reads).p99,
            c.latencies("update_model", Outcome::Ok).len(),
            c.count(Outcome::Busy),
            c.count(Outcome::Service) + c.count(Outcome::Protocol),
            c.last - c.first
        );
    }

    // Per-tenant metrics stay isolated; a frame for an unknown tenant is
    // answered, not dropped.
    println!();
    for t in &tenants {
        let queued = dep.multi.training_jobs_queued(t.id);
        println!(
            "tenant {} training_jobs_queued at quiescence: {queued}",
            t.id
        );
    }
    let unknown = dep.multi.call(99, Request::Metrics);
    println!("request for unknown tenant 99 answers: {unknown:?}");

    let stats = dep.net.counters().snapshot();
    println!(
        "\nwire: {} connections opened, {} frames in, {} frames out, {} decode errors",
        stats.connections_opened, stats.frames_in, stats.frames_out, stats.decode_errors
    );

    dep.shutdown();
    println!("\ndeployment drained cleanly.");
}
