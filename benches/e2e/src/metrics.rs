//! The declared metrics: what `BENCHMARK.json` lists is what a run prints,
//! name for name (a test in `tests/` holds the two together).

/// A declared metric: name, unit, and which direction is better.
pub type Decl = (&'static str, &'static str, Better);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// The workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 4] = ["scan_update", "fresh_reads", "repeat_reads", "ingest_mix"];

/// What a user of the service sees. Printed by every workload with
/// `--trace 0`; `op` is the workload's unit of work (README, "Metrics").
pub const END_TO_END: [Decl; 4] = [
    ("op_p50_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
    ("peak_rss_mb", "MB", Lower),
    ("setup_s", "s", Lower),
];

/// Ops the census issues one at a time, in this order.
pub const CENSUS_OPS: [&str; 8] = [
    "pdf",
    "certainty",
    "pseudo_label",
    "lookup",
    "recommend",
    "fetch",
    "ingest",
    "update_model",
];

/// Ops whose queue wait is reported (the ones that go through the actor).
pub const QUEUED_OPS: [&str; 3] = ["pseudo_label", "ingest", "update_model"];

/// Ops whose client latency is closed against queue + run + round trip.
pub const CLOSED_OPS: [&str; 3] = ["pdf", "pseudo_label", "update_model"];

/// Single-layer figures. Printed by every workload with `--trace 1`.
pub const PER_LAYER: [Decl; 84] = [
    // service.net — the wire: framing, codec, sockets.
    ("service.net.rtt_floor_p50_s", "s", Lower),
    ("service.net.codec_req_encode_s", "s", Lower),
    ("service.net.codec_req_decode_s", "s", Lower),
    ("service.net.codec_reply_encode_s", "s", Lower),
    ("service.net.codec_reply_decode_s", "s", Lower),
    ("service.net.codec_updated_reply_s", "s", Lower),
    ("service.net.bytes_in_per_req", "B", Lower),
    ("service.net.bytes_out_per_req", "B", Lower),
    ("service.net.frames_per_req", "count", Lower),
    ("service.net.decode_errors", "count", Lower),
    ("service.net.busy_rejected", "count", Lower),
    // service.server — admission, queues, handlers; one op at a time.
    ("service.server.client_p50_s.pdf", "s", Lower),
    ("service.server.client_p50_s.certainty", "s", Lower),
    ("service.server.client_p50_s.pseudo_label", "s", Lower),
    ("service.server.client_p50_s.lookup", "s", Lower),
    ("service.server.client_p50_s.recommend", "s", Lower),
    ("service.server.client_p50_s.fetch", "s", Lower),
    ("service.server.client_p50_s.ingest", "s", Lower),
    ("service.server.client_p50_s.update_model", "s", Lower),
    ("service.server.run_mean_s.pdf", "s", Lower),
    ("service.server.run_mean_s.certainty", "s", Lower),
    ("service.server.run_mean_s.pseudo_label", "s", Lower),
    ("service.server.run_mean_s.lookup", "s", Lower),
    ("service.server.run_mean_s.recommend", "s", Lower),
    ("service.server.run_mean_s.fetch", "s", Lower),
    ("service.server.run_mean_s.ingest", "s", Lower),
    ("service.server.run_mean_s.update_model", "s", Lower),
    ("service.server.queue_mean_s.pseudo_label", "s", Lower),
    ("service.server.queue_mean_s.ingest", "s", Lower),
    ("service.server.queue_mean_s.update_model", "s", Lower),
    ("service.server.unaccounted_s.pdf", "s", Lower),
    ("service.server.unaccounted_s.pseudo_label", "s", Lower),
    ("service.server.unaccounted_s.update_model", "s", Lower),
    ("service.server.backpressure_waits", "count", Lower),
    ("service.server.rejected", "count", Lower),
    // flows.jobs — the shared training pool.
    ("flows.jobs.started", "count", Higher),
    ("flows.jobs.completed", "count", Higher),
    ("flows.jobs.superseded", "count", Lower),
    ("flows.jobs.handoff_p50_s", "s", Lower),
    // core.workflow — what an UpdateModel did, from its own report.
    ("core.workflow.label_p50_s", "s", Lower),
    ("core.workflow.train_p50_s", "s", Lower),
    ("core.workflow.overhead_p50_s", "s", Lower),
    ("core.workflow.epochs_per_update", "count", Lower),
    ("core.workflow.label_reuse_fraction", "share", Higher),
    ("core.workflow.finetune_share", "share", Higher),
    ("core.workflow.cold_update_s", "s", Lower),
    ("core.workflow.reuse_speedup", "x", Higher),
    // core.reuse — the embedding cache.
    ("core.reuse.hit_ratio", "share", Higher),
    ("core.reuse.evictions_per_req", "count", Lower),
    ("core.reuse.stale_generation", "count", Lower),
    ("core.reuse.embed_all_hit_s", "s", Lower),
    ("core.reuse.embed_all_miss_s", "s", Lower),
    ("core.reuse.miss_tax_share", "share", Lower),
    // core.fairds — routing, the read index, ingest.
    ("core.fairds.dataset_pdf_s", "s", Lower),
    ("core.fairds.certainty_s", "s", Lower),
    ("core.fairds.lookup_matching_s", "s", Lower),
    ("core.fairds.nearest_labeled_s", "s", Lower),
    ("core.fairds.index_rebuild_s", "s", Lower),
    ("core.fairds.ingest_labeled_s", "s", Lower),
    ("core.fairds.index_probes_per_req", "count", Lower),
    ("core.fairds.rows_scanned_per_probe", "count", Lower),
    ("core.fairds.balls_pruned_per_probe", "count", Higher),
    // core.fairms — zoo ranking.
    ("core.fairms.rank_top_k_s", "s", Lower),
    ("core.fairms.rank_full_s", "s", Lower),
    ("core.fairms.zoo_len", "count", Higher),
    ("clustering.kmeans_predict_s", "s", Lower),
    ("nn.embed_forward_s", "s", Lower),
    ("nn.train_epoch_s", "s", Lower),
    ("nn.infer_batch_s", "s", Lower),
    ("tensor.gemm_embed_s", "s", Lower),
    ("tensor.gemm_embed_flop", "count", Lower),
    ("tensor.gemm_embed_bytes", "B", Lower),
    ("tensor.gemm_256_gflops", "GFLOP/s", Higher),
    ("tensor.row_hashes_s", "s", Lower),
    ("datastore.insert_many_s", "s", Lower),
    ("datastore.get_s", "s", Lower),
    ("datastore.bytes_per_user_byte", "ratio", Lower),
    // The load generator and the tracer themselves.
    ("loadgen.client_busy_share", "share", Lower),
    ("loadgen.writer_late_share", "share", Lower),
    ("trace.overhead_share", "share", Lower),
    ("trace.spans", "count", Lower),
    // Tails too unsteady to carry a bound: p75 (`scan_update`) or p90 of
    // the whole window, its p99 and its maximum.
    ("tail.op_tail_s", "s", Lower),
    ("tail.op_p99_s", "s", Lower),
    ("tail.op_max_s", "s", Lower),
];

/// Whether `name` is made of the characters a metric name may use.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn decl(table: &[Decl], name: &str) -> Option<Decl> {
        table.iter().copied().find(|(n, ..)| *n == name)
    }

    #[test]
    fn every_declared_name_is_valid_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, ..)| *n)
            .chain(WORKLOADS)
            .collect();
        for n in &all {
            assert!(is_valid_name(n), "{n}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        assert!(decl(&END_TO_END, "setup_s").is_some_and(|(_, u, b)| u == "s" && b == Lower));
    }

    #[test]
    fn the_per_op_families_cover_their_op_lists() {
        for op in CENSUS_OPS {
            for family in ["client_p50_s", "run_mean_s"] {
                let name = format!("service.server.{family}.{op}");
                assert!(decl(&PER_LAYER, &name).is_some(), "{name}");
            }
        }
        for op in QUEUED_OPS {
            assert!(decl(&PER_LAYER, &format!("service.server.queue_mean_s.{op}")).is_some());
        }
        for op in CLOSED_OPS {
            assert!(decl(&PER_LAYER, &format!("service.server.unaccounted_s.{op}")).is_some());
        }
    }
}
