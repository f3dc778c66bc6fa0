//! One run of one workload: set-up, warm-up, the measured window, and —
//! in a traced run — the census, the layer probes and the span file; then
//! the figures the run's mode declares.

use crate::metrics::{CENSUS_OPS, CLOSED_OPS, QUEUED_OPS};
use crate::stats::{self, delta, mean_secs, median, quantile_sorted, ratio};
use crate::sut::{self, Conn, MetricsSnapshot, Reply, Request, Tensor, UpdateReport, BATCH};
use crate::trace::{SpanId, Tracer, NO_SPAN};
use crate::workloads::{
    build_twin, connect, issue_ingest, issue_update, set_up, tenants_for, ClientLog, FrameGen,
    ReadOp, Reader, Rig, Scale, TenantInputs, Traffic, Workload, ORACLE_STRIDE,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Every declared metric of the run's mode, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Lines for a human: sample counts, what the tails were read at, the
    /// figures that exist on one workload only.
    pub notes: Vec<String>,
    /// The run's spans, when it was traced.
    pub tracer: Option<Tracer>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Sums of the counters the per-layer figures are deltas of, over tenants
/// (the wire counters are one block shared by all tenants: taken once).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale: u64,
    probes: u64,
    pruned: u64,
    scanned: u64,
    started: u64,
    completed: u64,
    superseded: u64,
    backpressure: u64,
    rejected: u64,
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
    decode_errors: u64,
    busy_rejected: u64,
}

impl Counters {
    fn of(snaps: &[MetricsSnapshot]) -> Counters {
        let mut c = Counters::default();
        for m in snaps {
            c.requests += m
                .ops
                .iter()
                .filter(|(name, _)| *name != "metrics")
                .map(|(_, s)| s.count)
                .sum::<u64>();
            c.hits += m.embed_cache.hits;
            c.misses += m.embed_cache.misses;
            c.evictions += m.embed_cache.evictions;
            c.stale += m.embed_cache.stale_generation;
            c.probes += m.read_index_probes;
            c.pruned += m.read_index_balls_pruned;
            c.scanned += m.read_index_candidates_scanned;
            c.started += m.training_jobs_started;
            c.completed += m.training_jobs_completed;
            c.superseded += m.training_jobs_superseded;
            c.backpressure += m.backpressure_waits;
            c.rejected += m.rejected;
        }
        let net = snaps[0].net;
        c.frames_in = net.frames_in;
        c.frames_out = net.frames_out;
        c.bytes_in = net.bytes_in;
        c.bytes_out = net.bytes_out;
        c.decode_errors = net.decode_errors;
        c.busy_rejected = net.connections_busy_rejected;
        c
    }
}

fn window_counters(m: &mut BTreeMap<String, f64>, before: &Counters, after: &Counters) {
    let d = |f: fn(&Counters) -> u64| delta(f(before), f(after));
    let requests = d(|c| c.requests);
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put(
        "service.net.bytes_in_per_req",
        ratio(d(|c| c.bytes_in), d(|c| c.frames_in)),
    );
    put(
        "service.net.bytes_out_per_req",
        ratio(d(|c| c.bytes_out), d(|c| c.frames_out)),
    );
    put(
        "service.net.frames_per_req",
        ratio(d(|c| c.frames_in) + d(|c| c.frames_out), requests),
    );
    put("service.net.decode_errors", d(|c| c.decode_errors) as f64);
    put("service.net.busy_rejected", d(|c| c.busy_rejected) as f64);
    put(
        "service.server.backpressure_waits",
        d(|c| c.backpressure) as f64,
    );
    put("service.server.rejected", d(|c| c.rejected) as f64);
    put("flows.jobs.started", d(|c| c.started) as f64);
    put("flows.jobs.completed", d(|c| c.completed) as f64);
    put("flows.jobs.superseded", d(|c| c.superseded) as f64);
    put(
        "core.reuse.hit_ratio",
        ratio(d(|c| c.hits), d(|c| c.hits) + d(|c| c.misses)),
    );
    put(
        "core.reuse.evictions_per_req",
        ratio(d(|c| c.evictions), requests),
    );
    put("core.reuse.stale_generation", d(|c| c.stale) as f64);
    put(
        "core.fairds.index_probes_per_req",
        ratio(d(|c| c.probes), requests),
    );
    put(
        "core.fairds.rows_scanned_per_probe",
        ratio(d(|c| c.scanned), d(|c| c.probes)),
    );
    put(
        "core.fairds.balls_pruned_per_probe",
        ratio(d(|c| c.pruned), d(|c| c.probes)),
    );
}

/// The census: every op, one at a time on an otherwise idle deployment, so
/// each op's client latency can be set against the server's own queue and
/// run counters for exactly those calls. Returns each op's group span, the
/// parent of the probes that decompose it.
fn census(
    conn: &Conn,
    reader: &mut Reader<'_>,
    inp: &TenantInputs,
    scale: &Scale,
    log: &mut ClientLog,
    tracer: &mut Tracer,
    m: &mut BTreeMap<String, f64>,
) -> BTreeMap<&'static str, SpanId> {
    let mut groups = BTreeMap::new();
    let before = conn.metrics();

    // The wire's floor: a request that asks the service for nothing.
    let floor_req = Request::LookupMatching {
        pdf: reader.last_pdf().to_vec(),
        count: 0,
    };
    let group = tracer.open("census.rtt_floor", NO_SPAN, 0);
    let mut rtts: Vec<f64> = (0..scale.census_rtts)
        .map(|i| {
            let t0 = Instant::now();
            let reply = conn.call(&floor_req);
            let t1 = Instant::now();
            tracer.record("rtt_floor", group, i as u64, t0, t1);
            log.attempted += 1;
            log.failed += u64::from(!matches!(reply, Ok(Reply::Documents(d)) if d.is_empty()));
            (t1 - t0).as_secs_f64()
        })
        .collect();
    tracer.close(group, Instant::now());
    let rtt_floor = median(&mut rtts);
    m.insert("service.net.rtt_floor_p50_s".into(), rtt_floor);

    let mut client_p50 = BTreeMap::new();
    for op in CENSUS_OPS {
        let group = tracer.open(census_span(op), NO_SPAN, 0);
        groups.insert(op, group);
        let mut lats = Vec::new();
        match op {
            "fetch" => {
                for i in 0..scale.census_reads {
                    let t0 = Instant::now();
                    let reply = conn.call(&Request::FetchModel { zoo_id: 0 });
                    let t1 = Instant::now();
                    tracer.record("fetch", group, i as u64, t0, t1);
                    log.attempted += 1;
                    log.failed += u64::from(!matches!(reply, Ok(Reply::Model { .. })));
                    lats.push((t1 - t0).as_secs_f64());
                }
            }
            "ingest" => {
                for (i, batch) in inp.census_ingest.iter().enumerate() {
                    let (t0, t1) =
                        issue_ingest(conn, batch, 4_000 + i, log, tracer, group, i as u64);
                    lats.push((t1 - t0).as_secs_f64());
                }
            }
            "update_model" => {
                for (i, (x, _)) in inp.census_scans.iter().enumerate() {
                    let seen = log.updates.len();
                    issue_update(conn, x, 5_000 + i, log, tracer, group, i as u64);
                    lats.extend(log.updates.get(seen).map(|(secs, _)| *secs));
                }
            }
            read => {
                let op = ReadOp::parse(read).expect("the other census ops are reads");
                // Checked and counted, but kept out of the window's
                // latency samples.
                let mut own = ClientLog::default();
                for _ in 0..scale.census_reads {
                    lats.push(reader.issue(op, &mut own, tracer, group));
                }
                own.latencies.clear();
                log.absorb(own);
            }
        }
        tracer.close(group, Instant::now());
        assert!(!lats.is_empty(), "census op {op} completed no call");
        let p50 = median(&mut lats);
        client_p50.insert(op, p50);
        m.insert(format!("service.server.client_p50_s.{op}"), p50);
    }

    let after = conn.metrics();
    let mut server = BTreeMap::new();
    for op in CENSUS_OPS {
        let (b, a) = (sut::op_counters(&before, op), sut::op_counters(&after, op));
        let mean = |i: usize| mean_secs(delta(b[i].0, a[i].0), delta(b[i].1, a[i].1));
        server.insert(op, (mean(0), mean(1)));
        m.insert(format!("service.server.run_mean_s.{op}"), mean(0));
    }
    for op in QUEUED_OPS {
        m.insert(format!("service.server.queue_mean_s.{op}"), server[op].1);
    }
    for op in CLOSED_OPS {
        let (run, queue) = server[op];
        m.insert(
            format!("service.server.unaccounted_s.{op}"),
            client_p50[op] - queue - run - rtt_floor,
        );
    }
    groups
}

fn census_span(op: &str) -> &'static str {
    match op {
        "pdf" => "census.pdf",
        "certainty" => "census.certainty",
        "pseudo_label" => "census.pseudo_label",
        "lookup" => "census.lookup",
        "recommend" => "census.recommend",
        "fetch" => "census.fetch",
        "ingest" => "census.ingest",
        _ => "census.update_model",
    }
}

/// Figures every `UpdateModel` report carries, over the window's and the
/// census's updates.
fn workflow_figures(m: &mut BTreeMap<String, f64>, updates: &[(f64, UpdateReport)]) {
    assert!(
        !updates.is_empty(),
        "a traced run issues at least one update"
    );
    let p50 = |f: &dyn Fn(&(f64, UpdateReport)) -> f64| {
        let mut v: Vec<f64> = updates.iter().map(f).collect();
        median(&mut v)
    };
    m.insert("core.workflow.label_p50_s".into(), p50(&|u| u.1.label_secs));
    m.insert("core.workflow.train_p50_s".into(), p50(&|u| u.1.train_secs));
    m.insert(
        "core.workflow.overhead_p50_s".into(),
        p50(&|u| u.0 - u.1.label_secs - u.1.train_secs),
    );
    let n = updates.len() as f64;
    let epochs: usize = updates.iter().map(|u| u.1.epochs).sum();
    m.insert("core.workflow.epochs_per_update".into(), epochs as f64 / n);
    let (reused, total) = updates.iter().fold((0, 0), |(r, t), u| {
        let s = u.1.label_stats;
        (r + s.reused, t + s.reused + s.computed)
    });
    m.insert(
        "core.workflow.label_reuse_fraction".into(),
        ratio(reused as u64, total as u64),
    );
    let finetuned = updates.iter().filter(|u| u.1.foundation.is_some()).count();
    m.insert("core.workflow.finetune_share".into(), finetuned as f64 / n);
}

/// Copies the deployment's zoo into the twin, so ranking probes rank what
/// the service ranks.
fn mirror_zoo(conn: &Conn, pdf: &[f64], twin: &mut sut::Twin) {
    let Ok(Reply::Ranked(all)) = conn.call(&Request::Recommend {
        pdf: pdf.to_vec(),
        top_k: None,
    }) else {
        panic!("Recommend failed while mirroring the zoo");
    };
    let mut ids: Vec<usize> = all.ranked.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    for id in ids {
        let Ok(Reply::Model { checkpoint, pdf }) = conn.call(&Request::FetchModel { zoo_id: id })
        else {
            panic!("FetchModel({id}) failed while mirroring the zoo");
        };
        twin.publish(checkpoint, pdf);
    }
}

/// Runs one workload once and reports the declared metrics of its mode.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> RunOutput {
    let epoch = Instant::now();
    let mut out = RunOutput::default();
    let tenants = tenants_for(workload, seed, seconds, scale);

    // Set-up, timed; several times when the run reports it.
    let mut setup_secs = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..if trace { 1 } else { scale.setups } {
        if let Some(previous) = rig.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        rig = Some(set_up(workload, &tenants));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    out.notes.push(format!(
        "setup_s samples={} values={setup_secs:?}",
        setup_secs.len()
    ));
    let mut twins: Vec<sut::Twin> = tenants.iter().map(build_twin).collect();
    let conns = connect(workload, &rig, &tenants);
    let mut traffic = Traffic::new(workload, scale, &tenants, &conns, seed);
    let mut quiet = Tracer::new(epoch, false);

    // Warm-up: fills the cache with the working set and lets lazy indexes
    // and thread-local scratch settle. Not measured, still checked.
    let mut warm = ClientLog::default();
    if workload == Workload::RepeatReads {
        traffic.prefill(&mut warm);
    }
    warm.absorb(
        traffic
            .drive(Duration::from_secs_f64(scale.warmup_s), &mut quiet)
            .log,
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;

    // The window. A traced run traces every other operation of it, so the
    // tracer's own cost is measured between neighbours, not between two
    // stretches of a machine whose speed drifts by more than that cost.
    let before = Counters::of(&rig.metrics());
    let mut tracer = Tracer::new(epoch, trace);
    let mut main = traffic.drive(Duration::from_secs_f64(seconds), &mut tracer);
    let after = Counters::of(&rig.metrics());

    let samples = main.log.latencies.len();
    assert!(samples > 0, "the window completed no operation");
    let mut sorted = main.log.latencies.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let tail_q = workload.tail_quantile();
    out.notes.push(format!(
        "op samples={samples} tail=p{} highest_supported_tail={:?} window_s={:.3} \
         whole-window p50_s={} tail_s={} ops_per_s={}",
        tail_q * 100.0,
        stats::highest_supported_tail(samples),
        main.elapsed,
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, tail_q),
        samples as f64 / main.elapsed,
    ));
    if !main.log.from_due.is_empty() {
        let mut due = main.log.from_due.clone();
        let mut late = main.log.late.clone();
        due.sort_unstable_by(f64::total_cmp);
        late.sort_unstable_by(f64::total_cmp);
        out.notes.push(format!(
            "writer ingests={} ingest_p50_s={} ingest_p90_s={} (from due time) late_p90_s={}",
            due.len(),
            quantile_sorted(&due, 0.5),
            quantile_sorted(&due, 0.9),
            quantile_sorted(&late, 0.9),
        ));
    }

    let m = &mut out.metrics;
    if trace {
        let cycle_p50 = |traced: bool| {
            let mut v: Vec<f64> = main
                .log
                .cycles
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, s)| *s)
                .collect();
            median(&mut v)
        };
        m.insert(
            "trace.overhead_share".into(),
            cycle_p50(true) / cycle_p50(false) - 1.0,
        );
        m.insert("tail.op_tail_s".into(), quantile_sorted(&sorted, tail_q));
        m.insert("tail.op_p99_s".into(), quantile_sorted(&sorted, 0.99));
        m.insert("tail.op_max_s".into(), sorted[sorted.len() - 1]);
        m.insert(
            "loadgen.client_busy_share".into(),
            1.0 - main.log.latencies.iter().sum::<f64>()
                / (main.elapsed * main.log.client_rates.len() as f64),
        );
        let late = &main.log.late;
        m.insert(
            "loadgen.writer_late_share".into(),
            ratio(
                late.iter().filter(|l| **l > 1e-3).count() as u64,
                late.len() as u64,
            ),
        );
        window_counters(m, &before, &after);

        // Census and probes run on the last tenant — bragg on every
        // workload, so the figures compare across them — and its twin.
        let last = tenants.len() - 1;
        let (inp, conn) = (&tenants[last], &conns[last]);
        let mut reader = traffic.readers.pop().unwrap_or_else(|| {
            Reader::new(
                conn,
                last,
                FrameGen::new(&inp.pool, BATCH, 3, 1),
                seed,
                inp.plan.k,
            )
        });
        let conn = reader.conn();
        let groups = census(conn, &mut reader, inp, scale, &mut main.log, &mut tracer, m);
        workflow_figures(m, &main.log.updates);

        let twin = &mut twins[last];
        mirror_zoo(conn, reader.last_pdf(), twin);
        let mut probe_frames = FrameGen::new(&inp.pool, BATCH, 2, 1);
        let fresh: Vec<Tensor> = (0..32).map(|_| probe_frames.next_batch()).collect();
        let inputs = sut::ProbeInputs {
            fresh_batches: &fresh,
            ingest_batches: &inp.probe_ingest,
            update_frames: &inp.census_scans[0],
            reps: scale.probe_reps,
        };
        let mut medians: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut figures: Vec<(&'static str, f64)> = Vec::new();
        sut::run_probes(
            twin,
            &inputs,
            &mut |name, op, samples| {
                let parent = groups.get(op).copied().unwrap_or(NO_SPAN);
                let mut secs = Vec::with_capacity(samples.len());
                for (i, (end, d)) in samples.into_iter().enumerate() {
                    tracer.record(name, parent, i as u64, end - d, end);
                    secs.push(d.as_secs_f64());
                }
                medians.insert(name, median(&mut secs));
            },
            &mut |name, v| figures.push((name, v)),
        );
        m.insert(
            "core.reuse.miss_tax_share".into(),
            medians["core.reuse.embed_all_miss_s"] / medians["nn.embed_forward_s"] - 1.0,
        );
        m.extend(medians.into_iter().map(|(k, v)| (k.to_string(), v)));
        m.extend(figures.into_iter().map(|(k, v)| (k.to_string(), v)));
        m.insert("trace.spans".into(), tracer.spans().len() as f64);
    } else {
        m.insert(
            "op_p50_s".into(),
            stats::least_disturbed(&mut main.log.run_p50s, true),
        );
        m.insert("ops_per_s".into(), main.rate());
        m.insert("setup_s".into(), median(&mut setup_secs));
    }

    // The oracle, after the clocks stopped.
    let checked = main.log.oracle.len();
    let wrong = main
        .log
        .oracle
        .iter()
        .filter(|s| !s.agrees_with(&twins))
        .count();
    out.notes.push(format!(
        "oracle checked={checked} mismatched={wrong} (1/{ORACLE_STRIDE} of pdf and certainty \
         replies, bit for bit against the in-process twin)"
    ));
    out.attempted += main.log.attempted + checked as u64;
    out.failed += main.log.failed + wrong as u64;

    drop(traffic);
    drop(conns);
    rig.shutdown();
    if !trace {
        out.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    }
    out.tracer = trace.then_some(tracer);
    out
}
