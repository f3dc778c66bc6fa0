//! The four workloads: their inputs, set-up, traffic, reply checks, and the
//! figures each run reports. Why each exists is in the README and in
//! `BENCHMARK.json`.

use crate::pacer::{wait_until_due, Schedule};
use crate::stats::{self, SplitMix64};
use crate::sut::{
    self, Conn, Deployment, Kind, MetricsSnapshot, Provision, Reply, Request, ServiceResult,
    TenantPlan, Tensor, Twin, UpdateReport, BATCH, PIXELS,
};
use crate::trace::{SpanId, Tracer, NO_SPAN};
use std::time::{Duration, Instant};

/// One in `ORACLE_STRIDE` `DatasetPdf`/`Certainty` replies is kept and
/// compared bit for bit with the twin after the window.
pub(crate) const ORACLE_STRIDE: u64 = 64;

/// Sizes that define the workloads. `full` is what `BENCHMARK.json` runs;
/// `smoke` is the same code at toy sizes for the package's tests.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Frames the embedder's bootstrap trains on, and its epochs.
    pub train_frames: usize,
    pub embed_epochs: usize,
    /// How many times set-up runs in an untraced run (median reported).
    pub setups: usize,
    /// Untimed traffic before the window, seconds.
    pub warmup_s: f64,
    /// Documents ingested per tenant at set-up.
    pub scan_docs: usize,
    pub read_docs: usize,
    pub mix_docs: usize,
    /// Frames and epoch cap of one `UpdateModel`, and the early-stopping
    /// patience (0 = always run to the cap).
    pub update_frames: usize,
    pub update_epochs: usize,
    pub update_patience: usize,
    /// Scans staged per `scan_update` tenant (replayed in order, cycling).
    pub scans: usize,
    /// Models published into the read workloads' zoo.
    pub zoo: usize,
    /// Frames in `repeat_reads`' working set, and in the pool unique frames
    /// are derived from.
    pub working_set: usize,
    /// `ingest_mix` writer: ingest period and size, update period.
    pub ingest_period: Duration,
    pub ingest_frames: usize,
    pub update_period: Duration,
    /// Census calls per read op / per ingest / per update / round trips.
    pub census_reads: usize,
    pub census_ingests: usize,
    pub census_updates: usize,
    pub census_rtts: usize,
    /// Repetitions of each direct layer probe, and of the two that rebuild
    /// the read index (tens of milliseconds each on a large store).
    pub probe_reps: usize,
    pub heavy_probe_reps: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            name: "full",
            train_frames: 512,
            embed_epochs: 4,
            setups: 3,
            warmup_s: 1.0,
            scan_docs: 4_096,
            read_docs: 16_384,
            mix_docs: 8_192,
            update_frames: 64,
            update_epochs: 8,
            update_patience: 0,
            scans: 48,
            zoo: 32,
            working_set: 2_048,
            ingest_period: Duration::from_millis(100),
            ingest_frames: 32,
            update_period: Duration::from_millis(2_500),
            census_reads: 40,
            census_ingests: 10,
            census_updates: 3,
            census_rtts: 200,
            probe_reps: 30,
            heavy_probe_reps: 10,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            train_frames: 64,
            embed_epochs: 1,
            setups: 1,
            warmup_s: 0.05,
            scan_docs: 128,
            read_docs: 512,
            mix_docs: 256,
            update_frames: 32,
            update_epochs: 1,
            update_patience: 0,
            scans: 4,
            zoo: 4,
            working_set: 64,
            ingest_period: Duration::from_millis(100),
            ingest_frames: 32,
            update_period: Duration::from_millis(150),
            census_reads: 3,
            census_ingests: 2,
            census_updates: 1,
            census_rtts: 5,
            probe_reps: 2,
            heavy_probe_reps: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanUpdate,
    FreshReads,
    RepeatReads,
    IngestMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "scan_update" => Workload::ScanUpdate,
            "fresh_reads" => Workload::FreshReads,
            "repeat_reads" => Workload::RepeatReads,
            "ingest_mix" => Workload::IngestMix,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanUpdate => "scan_update",
            Workload::FreshReads => "fresh_reads",
            Workload::RepeatReads => "repeat_reads",
            Workload::IngestMix => "ingest_mix",
        }
    }

    /// The percentile `tail.op_tail_s` is read at. Fixed per workload so
    /// the metric means the same thing on every run; a unit test checks each
    /// is supported (≥ 10 samples beyond it) at the sample counts a full
    /// run produces.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ScanUpdate => 0.75,
            _ => 0.90,
        }
    }
}

// ---------------------------------------------------------------------
// Inputs: everything a run sends is generated here, from the seed, before
// any clock starts.
// ---------------------------------------------------------------------

/// One tenant's staged inputs.
pub(crate) struct TenantInputs {
    pub(crate) plan: TenantPlan,
    train: Tensor,
    /// Labeled history, in the batches set-up ingests it in.
    history: Vec<(Tensor, Tensor, usize)>,
    /// `(images, labels)` of each scan an `UpdateModel` is asked to learn:
    /// the window's (replayed in order), the census's, and the two that
    /// seed `scan_update`'s zoo at set-up. No scan is staged twice.
    scans: Vec<(Tensor, Tensor)>,
    pub(crate) census_scans: Vec<(Tensor, Tensor)>,
    seed_scans: Vec<(Tensor, Tensor)>,
    /// `(64 frames, checkpoint)` per model published at set-up.
    zoo: Vec<(Tensor, Vec<u8>)>,
    /// The pool read batches are cut from.
    pub(crate) pool: Tensor,
    /// 32-frame labeled batches: the writer's, the census's, the probes'.
    ingest: Vec<(Tensor, Tensor)>,
    pub(crate) census_ingest: Vec<(Tensor, Tensor)>,
    pub(crate) probe_ingest: Vec<(Tensor, Tensor)>,
}

const HISTORY_BATCH: usize = 1_024;
/// The simulators drift with the scan number, so staged frames cycle through
/// this many scans of physics and take fresh samples of them from their own
/// stream: no frame is staged twice and no distribution runs away.
const DRIFT_SCANS: usize = 16;
const STREAM_HISTORY: usize = 0;
const STREAM_UPDATES: usize = 100;
const STREAM_ZOO: usize = 200;
const STREAM_POOL: usize = 300;
const STREAM_INGEST: usize = 400;

fn stage(
    plan: TenantPlan,
    scale: &Scale,
    docs: usize,
    scans: usize,
    zoo: usize,
    ingests: usize,
) -> TenantInputs {
    let (kind, seed) = (plan.kind, plan.seed);
    // The i-th batch of a stream family: physics of scan i mod 16, sample
    // stream advancing every 16.
    let batch = |family: usize, i: usize, n: usize| {
        sut::frames(kind, seed, i % DRIFT_SCANS, family + i / DRIFT_SCANS, n)
    };
    let mut next = 0;
    let mut update_scans = |n: usize| -> Vec<(Tensor, Tensor)> {
        next += n;
        (next - n..next)
            .map(|i| batch(STREAM_UPDATES, i, scale.update_frames))
            .collect()
    };
    let (scans, census_scans, seed_scans) = (
        update_scans(scans),
        update_scans(scale.census_updates),
        update_scans(2),
    );
    let mut next = 0;
    let mut ingest_batches = |n: usize| -> Vec<(Tensor, Tensor)> {
        next += n;
        (next - n..next)
            .map(|i| batch(STREAM_INGEST, i, scale.ingest_frames))
            .collect()
    };
    let (ingest, census_ingest, probe_ingest) = (
        ingest_batches(ingests),
        ingest_batches(scale.census_ingests),
        ingest_batches(scale.heavy_probe_reps),
    );
    let history: Vec<(Tensor, Tensor, usize)> = (0..docs.div_ceil(HISTORY_BATCH))
        .map(|i| {
            let n = HISTORY_BATCH.min(docs - i * HISTORY_BATCH);
            let (x, y) = batch(STREAM_HISTORY, i, n);
            (x, y, i)
        })
        .collect();
    TenantInputs {
        plan,
        train: history[0].0.slice_rows(0, scale.train_frames.min(docs)),
        history,
        scans,
        census_scans,
        seed_scans,
        zoo: (0..zoo)
            .map(|i| {
                let (x, _) = batch(STREAM_ZOO, i, 64);
                (x, sut::fresh_checkpoint(seed.wrapping_add(i as u64)))
            })
            .collect(),
        pool: batch(STREAM_POOL, 3, scale.working_set).0,
        ingest,
        census_ingest,
        probe_ingest,
    }
}

/// Cuts read batches from a pool: repeated as they are, or made unique by
/// flipping the low 12 mantissa bits of each frame's brightest pixel and of
/// its neighbour with a 24-bit counter — a different row to the cache's
/// hash and its equality check, the same image to the model to within a
/// part in two thousand of two pixels.
pub(crate) struct FrameGen {
    pool: Tensor,
    brightest: Vec<usize>,
    /// Rows of each batch that are made unique (the rest repeat).
    unique_rows: usize,
    cursor: usize,
    stride: usize,
    counter: u32,
    lane: u32,
}

impl FrameGen {
    pub(crate) fn new(pool: &Tensor, unique_rows: usize, lane: u32, lanes: u32) -> FrameGen {
        let n = pool.shape()[0];
        assert!(
            n >= BATCH && n.is_multiple_of(BATCH),
            "pool must be whole batches"
        );
        assert!(lane < 4, "two mask bits name the lane");
        let brightest = (0..n)
            .map(|r| {
                let row = pool.row(r);
                (0..row.len())
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                    .expect("frames have pixels")
            })
            .collect();
        FrameGen {
            pool: pool.clone(),
            brightest,
            unique_rows,
            cursor: lane as usize,
            stride: lanes as usize,
            counter: 0,
            lane,
        }
    }

    pub(crate) fn next_batch(&mut self) -> Tensor {
        let batches = self.pool.shape()[0] / BATCH;
        let first = (self.cursor % batches) * BATCH;
        self.cursor += self.stride;
        let mut batch = self.pool.slice_rows(first, first + BATCH);
        for r in 0..self.unique_rows {
            self.counter += 1;
            assert!(self.counter < 1 << 22, "unique-frame counter exhausted");
            let mask = self.counter << 2 | self.lane;
            let at = self.brightest[first + r];
            let row = batch.row_mut(r);
            for (px, bits) in [(at, mask & 0xFFF), ((at + 1) % PIXELS, mask >> 12)] {
                row[px] = f32::from_bits(row[px].to_bits() ^ bits);
            }
        }
        batch
    }
}

// ---------------------------------------------------------------------
// Reply checks.
// ---------------------------------------------------------------------

fn pdf_is_sound(pdf: &[f64], k: usize) -> bool {
    pdf.len() == k
        && pdf.iter().all(|p| p.is_finite() && *p >= 0.0)
        && (pdf.iter().sum::<f64>() - 1.0).abs() < 1e-9
}

fn ranking_is_sound(r: &sut::RankedModels, top_k: usize) -> bool {
    !r.ranked.is_empty()
        && r.ranked.len() <= top_k
        && r.ranked.windows(2).all(|w| w[0].1 <= w[1].1)
        && r.ranked.iter().all(|(_, d)| d.is_finite())
}

/// A reply kept for the oracle: which tenant answered, what it was asked.
pub(crate) struct OracleSample {
    tenant: usize,
    images: Tensor,
    reply: OracleReply,
}

enum OracleReply {
    Pdf(Vec<f64>),
    Certainty(f64),
}

impl OracleSample {
    /// The repository's contract: a reply over TCP equals the in-process
    /// answer to the bit.
    pub(crate) fn agrees_with(&self, twins: &[Twin]) -> bool {
        let twin = &twins[self.tenant];
        match &self.reply {
            OracleReply::Pdf(got) => {
                let want = twin.dataset_pdf(&self.images);
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            OracleReply::Certainty(got) => twin.certainty(&self.images).to_bits() == got.to_bits(),
        }
    }
}

// ---------------------------------------------------------------------
// The read side: one closed-loop client.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOp {
    Pdf,
    Certainty,
    PseudoLabel,
    Lookup,
    Recommend,
}

impl ReadOp {
    pub(crate) fn parse(name: &str) -> Option<ReadOp> {
        [
            ReadOp::Pdf,
            ReadOp::Certainty,
            ReadOp::PseudoLabel,
            ReadOp::Lookup,
            ReadOp::Recommend,
        ]
        .into_iter()
        .find(|op| op.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            ReadOp::Pdf => "pdf",
            ReadOp::Certainty => "certainty",
            ReadOp::PseudoLabel => "pseudo_label",
            ReadOp::Lookup => "lookup",
            ReadOp::Recommend => "recommend",
        }
    }

    /// 50% `DatasetPdf`, 20% `Certainty`, 20% `PseudoLabel`, 5%
    /// `LookupMatching`, 5% `Recommend`.
    fn draw(rng: &mut SplitMix64) -> ReadOp {
        match rng.below(100) {
            0..=49 => ReadOp::Pdf,
            50..=69 => ReadOp::Certainty,
            70..=89 => ReadOp::PseudoLabel,
            90..=94 => ReadOp::Lookup,
            _ => ReadOp::Recommend,
        }
    }
}

/// What a client thread accumulates.
#[derive(Default)]
pub(crate) struct ClientLog {
    /// Seconds per operation, in issue order.
    pub(crate) latencies: Vec<f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) oracle: Vec<OracleSample>,
    /// `UpdateModel` replies: client latency and the server's own report.
    pub(crate) updates: Vec<(f64, UpdateReport)>,
    /// Writer lateness (seconds after due time an operation left) and its
    /// latency from due time.
    pub(crate) late: Vec<f64>,
    pub(crate) from_due: Vec<f64>,
    /// `(was traced, start-to-start seconds)` per operation, traced runs.
    pub(crate) cycles: Vec<(bool, f64)>,
    /// Median latency of each run of consecutive operations, and the
    /// least-disturbed rate of each client, for the clients whose latencies
    /// are above.
    pub(crate) run_p50s: Vec<f64>,
    pub(crate) client_rates: Vec<f64>,
}

impl ClientLog {
    pub(crate) fn absorb(&mut self, other: ClientLog) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.oracle.extend(other.oracle);
        self.updates.extend(other.updates);
        self.late.extend(other.late);
        self.from_due.extend(other.from_due);
        self.cycles.extend(other.cycles);
        self.run_p50s.extend(other.run_p50s);
        self.client_rates.extend(other.client_rates);
    }
}

/// When one client's consecutive operations started, and whether each was
/// traced. From these come the client's per-run rates and, in a traced run,
/// the start-to-start times of traced and untraced neighbours: the tracer's
/// cost falls between an operation's reply and the next one's request, so
/// it shows there and not in the latencies.
#[derive(Default)]
struct Starts {
    at: Vec<Instant>,
    traced: Vec<bool>,
}

impl Starts {
    fn push(&mut self, now: Instant, traced: bool) {
        self.at.push(now);
        self.traced.push(traced);
    }

    /// Closes the record at `end`, the instant the client stopped, and
    /// files in `log` — which holds this client's latencies and nothing
    /// else — its per-run figures (see [`stats::least_disturbed`]).
    fn finish(mut self, end: Instant, armed: bool, log: &mut ClientLog) {
        let Some(&first) = self.at.first() else {
            return;
        };
        self.at.push(end);
        let marks: Vec<f64> = self.at.iter().map(|t| (*t - first).as_secs_f64()).collect();
        assert_eq!(
            marks.len(),
            log.latencies.len() + 1,
            "one latency per start"
        );
        log.run_p50s = stats::per_chunk(&log.latencies, stats::median);
        log.client_rates.push(stats::least_disturbed(
            &mut stats::chunk_rates(&marks),
            false,
        ));
        if armed {
            log.cycles.extend(
                self.traced
                    .iter()
                    .zip(marks.windows(2))
                    .map(|(t, w)| (*t, w[1] - w[0])),
            );
        }
    }
}

pub(crate) struct Reader<'a> {
    conn: &'a Conn,
    /// Index of the tenant (and twin) this client talks to.
    tenant: usize,
    gen: FrameGen,
    rng: SplitMix64,
    k: usize,
    /// The last PDF the service returned: what this client would pass to
    /// `Recommend` / `LookupMatching` next.
    last_pdf: Vec<f64>,
    seq: u64,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(
        conn: &'a Conn,
        tenant: usize,
        gen: FrameGen,
        seed: u64,
        k: usize,
    ) -> Reader<'a> {
        Reader {
            conn,
            tenant,
            gen,
            rng: SplitMix64::new(seed),
            k,
            last_pdf: vec![1.0 / k as f64; k],
            seq: 0,
        }
    }

    pub(crate) fn conn(&self) -> &'a Conn {
        self.conn
    }

    pub(crate) fn last_pdf(&self) -> &[f64] {
        &self.last_pdf
    }

    /// Issues one read, checks its reply, logs it. Returns the latency.
    pub(crate) fn issue(
        &mut self,
        op: ReadOp,
        log: &mut ClientLog,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> f64 {
        self.seq += 1;
        let keep = self.seq.is_multiple_of(ORACLE_STRIDE);
        let (req, images) = match op {
            ReadOp::Pdf | ReadOp::Certainty | ReadOp::PseudoLabel => {
                let images = self.gen.next_batch();
                let kept = keep.then(|| images.clone());
                let req = match op {
                    ReadOp::Pdf => Request::DatasetPdf { images },
                    ReadOp::Certainty => Request::Certainty { images },
                    _ => Request::PseudoLabel {
                        images,
                        threshold: 0.5,
                    },
                };
                (req, kept)
            }
            ReadOp::Lookup => (
                Request::LookupMatching {
                    pdf: self.last_pdf.clone(),
                    count: BATCH,
                },
                None,
            ),
            ReadOp::Recommend => (
                Request::Recommend {
                    pdf: self.last_pdf.clone(),
                    top_k: Some(3),
                },
                None,
            ),
        };
        let t0 = Instant::now();
        let reply = self.conn.call(&req);
        let t1 = Instant::now();
        tracer.record(op.name(), parent, self.seq, t0, t1);
        let ok = match (op, reply) {
            (ReadOp::Pdf, Ok(Reply::Pdf(pdf))) => {
                let ok = pdf_is_sound(&pdf, self.k);
                if ok {
                    self.last_pdf.clone_from(&pdf);
                }
                if let Some(images) = images {
                    log.oracle.push(OracleSample {
                        tenant: self.tenant,
                        images,
                        reply: OracleReply::Pdf(pdf),
                    });
                }
                ok
            }
            (ReadOp::Certainty, Ok(Reply::Certainty(c))) => {
                if let Some(images) = images {
                    log.oracle.push(OracleSample {
                        tenant: self.tenant,
                        images,
                        reply: OracleReply::Certainty(c),
                    });
                }
                (0.0..=1.0).contains(&c)
            }
            (ReadOp::PseudoLabel, Ok(Reply::Labeled { labels, stats })) => {
                labels.shape() == [BATCH, 2] && stats.reused + stats.computed == BATCH
            }
            (ReadOp::Lookup, Ok(Reply::Documents(docs))) => docs.len() == BATCH,
            (ReadOp::Recommend, Ok(Reply::Ranked(r))) => ranking_is_sound(&r, 3),
            _ => false,
        };
        let secs = (t1 - t0).as_secs_f64();
        log.latencies.push(secs);
        log.attempted += 1;
        log.failed += u64::from(!ok);
        secs
    }

    fn run_until(&mut self, until: Instant, log: &mut ClientLog, tracer: &mut Tracer) {
        let mut starts = Starts::default();
        let end = loop {
            let now = Instant::now();
            if now >= until {
                break now;
            }
            starts.push(now, tracer.alternate(self.seq + 1));
            let op = ReadOp::draw(&mut self.rng);
            self.issue(op, log, tracer, NO_SPAN);
        };
        starts.finish(end, tracer.armed(), log);
        tracer.record_all();
    }
}

// ---------------------------------------------------------------------
// The write side.
// ---------------------------------------------------------------------

/// An update must have fine-tuned a zoo model (every zoo is seeded before
/// the window) and registered the result. Logs latency and report; returns
/// the checkpoint and the id it was registered under.
fn check_update(reply: ServiceResult, secs: f64, log: &mut ClientLog) -> Option<(Vec<u8>, usize)> {
    match reply {
        Ok(Reply::Updated { checkpoint, report }) if report.foundation.is_some() => {
            let id = report.registered_id;
            log.updates.push((secs, report));
            Some((checkpoint, id))
        }
        _ => {
            log.failed += 1;
            None
        }
    }
}

/// One `UpdateModel`, waited for.
pub(crate) fn issue_update(
    conn: &Conn,
    images: &Tensor,
    scan: usize,
    log: &mut ClientLog,
    tracer: &mut Tracer,
    parent: SpanId,
    seq: u64,
) -> Option<(Vec<u8>, usize)> {
    let t0 = Instant::now();
    let reply = conn.call(&Request::UpdateModel {
        images: images.clone(),
        scan,
    });
    let t1 = Instant::now();
    tracer.record("update_model", parent, seq, t0, t1);
    log.attempted += 1;
    check_update(reply, (t1 - t0).as_secs_f64(), log)
}

/// One `IngestLabeled`; returns when it was sent and answered.
pub(crate) fn issue_ingest(
    conn: &Conn,
    batch: &(Tensor, Tensor),
    scan: usize,
    log: &mut ClientLog,
    tracer: &mut Tracer,
    parent: SpanId,
    seq: u64,
) -> (Instant, Instant) {
    let req = Request::IngestLabeled {
        images: batch.0.clone(),
        labels: batch.1.clone(),
        scan,
    };
    let t0 = Instant::now();
    let reply = conn.call(&req);
    let t1 = Instant::now();
    tracer.record("ingest", parent, seq, t0, t1);
    let ok = matches!(reply, Ok(Reply::Ingested { count, .. }) if count == batch.0.shape()[0]);
    log.attempted += 1;
    log.failed += u64::from(!ok);
    (t0, t1)
}

/// Where `ingest_mix`'s writer is in its staged inputs. Kept across
/// warm-up and windows so nothing is ingested twice.
#[derive(Debug, Default)]
struct WriterCursor {
    ingests: usize,
    updates: usize,
}

/// `ingest_mix`'s writer: open loop. One `IngestLabeled` per
/// `ingest_period` and one `UpdateModel` per `update_period`, each sent
/// when due whether or not the system kept up, each ingest timed from its
/// due time. Updates are submitted without waiting — they train in the
/// background, and waiting would stall the ingest schedule on the writer's
/// account, not the system's — and collected when the window closes.
#[allow(clippy::too_many_arguments)]
fn run_writer(
    conn: &Conn,
    inp: &TenantInputs,
    scale: &Scale,
    cursor: &mut WriterCursor,
    start: Instant,
    window: Duration,
    log: &mut ClientLog,
    tracer: &mut Tracer,
) {
    let mut ingests = Schedule::new(scale.ingest_period, scale.ingest_period / 2);
    let mut updates = Schedule::new(scale.update_period, scale.update_period / 2);
    let mut pending = Vec::new();
    loop {
        let (next_ingest, next_update) = (ingests.peek(), updates.peek());
        let ingest_first = next_ingest.due <= next_update.due;
        let tick = if ingest_first {
            next_ingest
        } else {
            next_update
        };
        if tick.due >= window {
            break;
        }
        log.late.push(wait_until_due(start, tick).as_secs_f64());
        if ingest_first {
            ingests.pop();
            let i = cursor.ingests;
            cursor.ingests += 1;
            let batch = &inp.ingest[i % inp.ingest.len()];
            let (_, done) = issue_ingest(conn, batch, 2_000 + i, log, tracer, NO_SPAN, i as u64);
            log.from_due
                .push((done - start).saturating_sub(tick.due).as_secs_f64());
        } else {
            updates.pop();
            let i = cursor.updates;
            cursor.updates += 1;
            let (x, _) = &inp.scans[i % inp.scans.len()];
            let t0 = Instant::now();
            let ticket = conn.submit(&Request::UpdateModel {
                images: x.clone(),
                scan: 3_000 + i,
            });
            pending.push((t0, i, ticket));
            log.attempted += 1;
        }
    }
    for (t0, i, ticket) in pending {
        let reply = ticket.wait();
        let t1 = Instant::now();
        tracer.record("update_model", NO_SPAN, i as u64, t0, t1);
        check_update(reply, (t1 - t0).as_secs_f64(), log);
    }
}

// ---------------------------------------------------------------------
// scan_update: the paper's loop.
// ---------------------------------------------------------------------

/// scan → `DatasetPdf` → `Recommend` → `UpdateModel` → `FetchModel` of the
/// registered id → `DatasetPdf` of the scan's first frames, the first read
/// served by the version the update published. Logs loop start → last
/// reply as one sample, and five operations.
fn scan_loop(
    conn: &Conn,
    tenant: usize,
    k: usize,
    images: &Tensor,
    seq: u64,
    log: &mut ClientLog,
    tracer: &mut Tracer,
) {
    let span = tracer.open("loop", NO_SPAN, seq);
    let t_loop = Instant::now();
    let call = |name: &'static str, req: Request, tracer: &mut Tracer| {
        let t0 = Instant::now();
        let reply = conn.call(&req);
        tracer.record(name, span, seq, t0, Instant::now());
        reply
    };

    let scan_pdf = Request::DatasetPdf {
        images: images.clone(),
    };
    let (pdf, pdf_ok) = match call("pdf", scan_pdf, tracer) {
        Ok(Reply::Pdf(pdf)) if pdf_is_sound(&pdf, k) => (pdf, true),
        _ => (vec![1.0 / k as f64; k], false),
    };
    let recommend = Request::Recommend {
        pdf,
        top_k: Some(3),
    };
    let ranked_ok = matches!(
        call("recommend", recommend, tracer),
        Ok(Reply::Ranked(r)) if ranking_is_sound(&r, 3)
    );
    let updated = issue_update(conn, images, seq as usize, log, tracer, span, seq);
    let fetched_ok = match &updated {
        Some((checkpoint, id)) => matches!(
            call("fetch", Request::FetchModel { zoo_id: *id }, tracer),
            Ok(Reply::Model { checkpoint: got, .. }) if got == *checkpoint
        ),
        None => false,
    };
    let first = images.slice_rows(0, BATCH);
    let after = call(
        "pdf",
        Request::DatasetPdf {
            images: first.clone(),
        },
        tracer,
    );
    let t_end = Instant::now();
    tracer.close(span, t_end);
    let after_ok = match after {
        Ok(Reply::Pdf(pdf)) if pdf_is_sound(&pdf, k) => {
            log.oracle.push(OracleSample {
                tenant,
                images: first,
                reply: OracleReply::Pdf(pdf),
            });
            true
        }
        _ => false,
    };
    log.attempted += 4;
    log.failed += [pdf_ok, ranked_ok, fetched_ok, after_ok]
        .iter()
        .filter(|ok| !**ok)
        .count() as u64;
    log.latencies.push((t_end - t_loop).as_secs_f64());
}

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

/// A deployment with one administrative connection per tenant.
pub(crate) struct Rig {
    pub(crate) dep: Deployment,
    admin: Vec<Conn>,
}

impl Rig {
    /// Every tenant's metrics registry, fetched over the wire.
    pub(crate) fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.admin.iter().map(Conn::metrics).collect()
    }

    /// Closes the connections, then drains and joins the deployment.
    pub(crate) fn shutdown(self) {
        drop(self.admin);
        self.dep.shutdown();
    }
}

/// Brings one deployment up, over the wire: spawn, `TrainSystem`, ingest
/// the history, seed the zoo, and one routed read so the read index — lazy
/// set-up the product defers to first use — is built. This is what
/// `setup_s` times.
pub(crate) fn set_up(workload: Workload, tenants: &[TenantInputs]) -> Rig {
    let plans: Vec<TenantPlan> = tenants.iter().map(|t| t.plan).collect();
    let dep = Deployment::spawn(&plans);
    let mut admin: Vec<Conn> = plans.iter().map(|p| dep.connect(p.id)).collect();
    for (t, conn) in tenants.iter().zip(admin.iter_mut()) {
        provision(conn, t);
        for (i, (x, checkpoint)) in t.zoo.iter().enumerate() {
            let Ok(Reply::Pdf(pdf)) = conn.call(&Request::DatasetPdf { images: x.clone() }) else {
                panic!("set-up DatasetPdf failed");
            };
            let reply = conn.call(&Request::PublishModel {
                name: format!("seed-{i}"),
                checkpoint: checkpoint.clone(),
                pdf,
                scan: i,
            });
            assert!(
                matches!(reply, Ok(Reply::Published { .. })),
                "PublishModel answered {reply:?}"
            );
        }
        if workload == Workload::ScanUpdate {
            // Two updates seed the zoo: the first trains from random
            // weights (there is nothing to reuse yet), the second may
            // already fine-tune it.
            for (s, (x, _)) in t.seed_scans.iter().enumerate() {
                let reply = conn.call(&Request::UpdateModel {
                    images: x.clone(),
                    scan: 1_000 + s,
                });
                assert!(
                    matches!(reply, Ok(Reply::Updated { .. })),
                    "set-up UpdateModel answered {reply:?}"
                );
            }
        }
        let warm = Request::PseudoLabel {
            images: t.pool.slice_rows(0, BATCH),
            threshold: 0.5,
        };
        assert!(
            matches!(conn.call(&warm), Ok(Reply::Labeled { .. })),
            "set-up PseudoLabel failed"
        );
    }
    Rig { dep, admin }
}

/// The system plane and history of one tenant — the same calls whether
/// `target` is a wire connection or the in-process twin.
fn provision(target: &mut impl Provision, t: &TenantInputs) {
    target.train_system(&t.train, t.plan.embed_cfg());
    for (x, y, scan) in &t.history {
        target.ingest(x, y, *scan);
    }
}

pub(crate) fn build_twin(t: &TenantInputs) -> Twin {
    let mut twin = Twin::new(&t.plan);
    provision(&mut twin, t);
    twin
}

pub(crate) fn tenants_for(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Vec<TenantInputs> {
    let plan = |id: u32, kind: Kind| TenantPlan {
        id,
        kind,
        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(id)),
        k: 8,
        embed_epochs: scale.embed_epochs,
        update_epochs: scale.update_epochs,
        update_patience: scale.update_patience,
    };
    // Ticks the writer can reach between warm-up and the end of the window.
    let ticks = |period: Duration| ((scale.warmup_s + seconds) / period.as_secs_f64()) as usize + 2;
    match workload {
        Workload::ScanUpdate => [Kind::Tomo, Kind::Cookiebox, Kind::Bragg]
            .into_iter()
            .zip(1..)
            .map(|(kind, id)| stage(plan(id, kind), scale, scale.scan_docs, scale.scans, 0, 0))
            .collect(),
        Workload::FreshReads | Workload::RepeatReads => {
            vec![stage(
                plan(1, Kind::Bragg),
                scale,
                scale.read_docs,
                0,
                scale.zoo,
                0,
            )]
        }
        Workload::IngestMix => vec![stage(
            plan(1, Kind::Bragg),
            scale,
            scale.mix_docs,
            ticks(scale.update_period),
            scale.zoo,
            ticks(scale.ingest_period),
        )],
    }
}

// ---------------------------------------------------------------------
// Traffic: who sends what, for how long.
// ---------------------------------------------------------------------

/// What one stretch of traffic leaves behind.
pub(crate) struct Window {
    pub(crate) log: ClientLog,
    pub(crate) elapsed: f64,
}

impl Window {
    /// Operations per second, all measured clients together.
    pub(crate) fn rate(&self) -> f64 {
        self.log.client_rates.iter().sum()
    }
}

/// The workload's clients. They persist across warm-up and windows, so
/// unique frames stay unique and staged scans are replayed once, in order.
/// Never more than two client threads run at once.
pub(crate) struct Traffic<'a> {
    workload: Workload,
    scale: &'a Scale,
    tenants: &'a [TenantInputs],
    conns: &'a [Conn],
    pub(crate) readers: Vec<Reader<'a>>,
    loops: usize,
    writer: WriterCursor,
}

/// The connections a workload's clients use: one socket shared by the three
/// tenants' handles for `scan_update`, two sockets otherwise.
pub(crate) fn connect(workload: Workload, rig: &Rig, tenants: &[TenantInputs]) -> Vec<Conn> {
    match workload {
        Workload::ScanUpdate => {
            let first = rig.dep.connect(tenants[0].plan.id);
            let rest: Vec<Conn> = tenants[1..]
                .iter()
                .map(|t| first.for_tenant(t.plan.id))
                .collect();
            std::iter::once(first).chain(rest).collect()
        }
        _ => (0..2)
            .map(|_| rig.dep.connect(tenants[0].plan.id))
            .collect(),
    }
}

impl<'a> Traffic<'a> {
    pub(crate) fn new(
        workload: Workload,
        scale: &'a Scale,
        tenants: &'a [TenantInputs],
        conns: &'a [Conn],
        seed: u64,
    ) -> Traffic<'a> {
        let (lanes, unique_rows) = match workload {
            Workload::ScanUpdate => (0, 0),
            Workload::FreshReads => (2, BATCH),
            Workload::RepeatReads => (2, 0),
            // One reader (the other thread is the writer); half of each
            // batch repeats.
            Workload::IngestMix => (1, BATCH / 2),
        };
        let readers = (0..lanes)
            .map(|lane| {
                Reader::new(
                    &conns[lane as usize],
                    0,
                    FrameGen::new(&tenants[0].pool, unique_rows, lane, lanes),
                    seed ^ (0xC11E << lane),
                    tenants[0].plan.k,
                )
            })
            .collect();
        Traffic {
            workload,
            scale,
            tenants,
            conns,
            readers,
            loops: 0,
            writer: WriterCursor::default(),
        }
    }

    /// Touches every frame of the working set once, so `repeat_reads`
    /// starts with the cache holding all of it.
    pub(crate) fn prefill(&mut self, log: &mut ClientLog) {
        let mut quiet = Tracer::new(Instant::now(), false);
        for r in &mut self.readers {
            for _ in 0..self.scale.working_set / BATCH {
                r.issue(ReadOp::Pdf, log, &mut quiet, NO_SPAN);
            }
        }
    }

    /// Runs the workload's traffic for `window`.
    pub(crate) fn drive(&mut self, window: Duration, tracer: &mut Tracer) -> Window {
        let start = Instant::now();
        let until = start + window;
        let mut log = ClientLog::default();
        match self.workload {
            Workload::ScanUpdate => {
                let mut starts = Starts::default();
                let end = loop {
                    let now = Instant::now();
                    if now >= until {
                        break now;
                    }
                    starts.push(now, tracer.alternate(self.loops as u64));
                    let n = self.tenants.len();
                    let (tenant, round) = (self.loops % n, self.loops / n);
                    let t = &self.tenants[tenant];
                    scan_loop(
                        &self.conns[tenant],
                        tenant,
                        t.plan.k,
                        &t.scans[round % t.scans.len()].0,
                        self.loops as u64,
                        &mut log,
                        tracer,
                    );
                    self.loops += 1;
                };
                starts.finish(end, tracer.armed(), &mut log);
                tracer.record_all();
            }
            Workload::FreshReads | Workload::RepeatReads => {
                let done: Vec<(ClientLog, Tracer)> = std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .readers
                        .iter_mut()
                        .map(|r| {
                            let mut t = tracer.sibling();
                            s.spawn(move || {
                                let mut log = ClientLog::default();
                                r.run_until(until, &mut log, &mut t);
                                (log, t)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("reader thread panicked"))
                        .collect()
                });
                for (l, t) in done {
                    log.absorb(l);
                    tracer.absorb(t);
                }
            }
            Workload::IngestMix => {
                let (mut rt, mut wt) = (tracer.sibling(), tracer.sibling());
                let (reader, cursor) = (&mut self.readers[0], &mut self.writer);
                let (conn, inp, scale) = (&self.conns[1], &self.tenants[0], self.scale);
                let wlog = std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        let mut wlog = ClientLog::default();
                        run_writer(conn, inp, scale, cursor, start, window, &mut wlog, &mut wt);
                        wlog
                    });
                    reader.run_until(until, &mut log, &mut rt);
                    writer.join().expect("writer thread panicked")
                });
                log.absorb(wlog);
                tracer.absorb(rt);
                tracer.absorb(wt);
            }
        }
        Window {
            log,
            elapsed: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_frames_never_repeat_and_repeated_frames_always_do() {
        let pool = Tensor::from_vec(
            (0..64 * PIXELS).map(|i| (i % 97) as f32 + 1.0).collect(),
            &[64, PIXELS],
        );
        let mut unique = FrameGen::new(&pool, BATCH, 0, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let b = unique.next_batch();
            for r in 0..BATCH {
                let bits: Vec<u32> = b.row(r).iter().map(|v| v.to_bits()).collect();
                assert!(seen.insert(bits), "a unique frame repeated");
            }
        }
        let mut repeat = FrameGen::new(&pool, 0, 0, 1);
        let first = repeat.next_batch();
        for _ in 0..3 {
            repeat.next_batch();
        }
        assert_eq!(repeat.next_batch().data(), first.data());
        // Half-and-half: the first rows unique, the rest straight from the
        // pool.
        let mut half = FrameGen::new(&pool, BATCH / 2, 0, 1);
        let b = half.next_batch();
        assert_ne!(b.row(0), pool.row(0));
        assert_eq!(b.row(BATCH - 1), pool.row(BATCH - 1));
    }

    #[test]
    fn lanes_cut_disjoint_batches_and_disjoint_masks() {
        let pool = Tensor::from_vec(vec![1.5; 64 * PIXELS], &[64, PIXELS]);
        let mut a = FrameGen::new(&pool, BATCH, 0, 2);
        let mut b = FrameGen::new(&pool, BATCH, 1, 2);
        // Same pool rows would collide if the lanes shared a mask space.
        assert_ne!(a.next_batch().data(), b.next_batch().data());
    }

    #[test]
    fn the_mix_is_the_documented_one() {
        let mut rng = SplitMix64::new(9);
        let mut counts = [0usize; 5];
        for _ in 0..100_000 {
            counts[ReadOp::draw(&mut rng) as usize] += 1;
        }
        for (got, want) in counts.iter().zip([50_000, 20_000, 20_000, 5_000, 5_000]) {
            assert!((*got as i64 - want).abs() < 1_000, "{counts:?}");
        }
    }

    #[test]
    fn pdf_and_ranking_checks_reject_what_they_should() {
        assert!(pdf_is_sound(&[0.25; 4], 4));
        assert!(!pdf_is_sound(&[0.25; 4], 8));
        assert!(!pdf_is_sound(&[0.5, 0.6], 2));
        assert!(!pdf_is_sound(&[f64::NAN, 1.0], 2));
        let ranked = |r: &[(usize, f64)]| sut::RankedModels {
            ranked: r.to_vec(),
            fine_tunable: true,
        };
        assert!(ranking_is_sound(&ranked(&[(3, 0.1), (1, 0.2)]), 3));
        assert!(!ranking_is_sound(&ranked(&[(3, 0.3), (1, 0.2)]), 3));
        assert!(!ranking_is_sound(&ranked(&[]), 3));
        assert!(!ranking_is_sound(&ranked(&[(0, 0.0); 4]), 3));
    }

    #[test]
    fn declared_tails_are_supported_at_full_scale_sample_counts() {
        // scan_update completes ≥ 40 loops in its window, the read
        // workloads ≥ 1,000 reads (they do several thousand).
        assert!(stats::highest_supported_tail(40) >= Some(Workload::ScanUpdate.tail_quantile()));
        assert!(stats::highest_supported_tail(1_000) >= Some(Workload::FreshReads.tail_quantile()));
    }
}
