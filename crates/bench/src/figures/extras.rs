//! Supplementary experiments: the elbow-method K selection the paper
//! automates with YellowBrick (§II-A), and ablation benches for the design
//! choices DESIGN.md calls out — embedding method for model indexing
//! (the §IV autoencoder-failure story), JSD vs plain L2 for zoo ranking,
//! the pseudo-label reuse threshold, and K sensitivity.

use crate::figures::fig10_12::spearman;
use crate::figures::{bragg_fairds, bragg_flat, bragg_history, embed_epochs, BRAGG_SIDE};
use crate::table::{f, Table};
use crate::Scale;
use fairdms_core::embedding::{ByolEmbedder, ContrastiveEmbedder, EmbedTrainConfig, Embedder};
use fairdms_core::jsd::jsd;
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::ops::sq_dist;

/// Elbow sweep over Bragg embeddings: WSS per K with the selected knee.
pub fn run_elbow(scale: Scale) -> Result<(), String> {
    let per_scan = scale.pick(60, 250, 500);
    let history = bragg_history(3, per_scan, 19);
    // Train an embedder, then run the elbow sweep on its embeddings.
    let mut embedder = ByolEmbedder::new(BRAGG_SIDE, 64, 16, 19);
    let (x, _) = bragg_flat(&history);
    embedder.fit_controlled(
        &x,
        &EmbedTrainConfig {
            epochs: embed_epochs(scale),
            batch_size: 64,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
        &TrainControl::new(),
    );
    let z = embedder.embed(&x);
    let (lo, hi) = (2usize, scale.pick(8, 18, 24));
    let report = fairdms_clustering::elbow::select_k(&z, lo, hi, 19);

    let mut table = Table::new(
        "Elbow method: within-cluster sum of squares per K (YellowBrick procedure)",
        &["k", "wss", "knee_score", "selected"],
    );
    for i in 0..report.ks.len() {
        table.row(vec![
            report.ks[i].to_string(),
            format!("{:.2}", report.wss[i]),
            f(report.scores[i] as f64),
            if report.ks[i] == report.best_k {
                "<-".into()
            } else {
                "".into()
            },
        ]);
    }
    table.emit("elbow_k_selection");
    println!("selected K = {}\n", report.best_k);
    Ok(())
}

/// Ablation 1 (§IV): which embedding indexes models best? For a drifting
/// experiment, a good index makes JSD(test, model-train-data) rank models
/// by *distribution distance of the generating physics* — we score each
/// embedder by the Spearman correlation between its JSD ranking and the
/// ground-truth scan distance.
fn embedding_index_quality(scale: Scale) -> Table {
    let per_scan = scale.pick(40, 150, 300);
    let n_scans = scale.pick(4, 8, 12);
    let history = bragg_history(2, per_scan, 23);
    let sim = BraggSimulator::new(DriftModel::paper_like(0, n_scans / 2), 23 ^ 0xAB);

    let mut table = Table::new(
        "Ablation: embedding method as a model index (higher Spearman = better)",
        &["embedding", "spearman(jsd, scan distance)"],
    );
    let embedders: Vec<(&str, Box<dyn Embedder>)> = vec![
        (
            "autoencoder",
            Box::new(fairdms_core::embedding::AutoencoderEmbedder::new(
                BRAGG_SIDE * BRAGG_SIDE,
                64,
                16,
                23,
            )),
        ),
        (
            "contrastive",
            Box::new(ContrastiveEmbedder::new(BRAGG_SIDE, 64, 16, 23)),
        ),
        ("byol", Box::new(ByolEmbedder::new(BRAGG_SIDE, 64, 16, 23))),
    ];
    for (name, embedder) in embedders {
        let mut fairds = fairdms_core::fairds::FairDS::in_memory(
            embedder,
            fairdms_core::fairds::FairDsConfig {
                k: Some(10),
                seed: 23,
                ..Default::default()
            },
        );
        let (hx, hy) = bragg_flat(&history);
        fairds.train_system(
            &hx,
            &EmbedTrainConfig {
                epochs: embed_epochs(scale),
                batch_size: 64,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        );
        fairds.ingest_labeled(&hx, &hy, 0);

        // Reference dataset at scan 0; candidates across the drift.
        let (ref_x, _) = bragg_flat(&sim.scan(0, per_scan));
        let ref_pdf = fairds.dataset_pdf(&ref_x);
        let mut jsds = Vec::new();
        let mut scan_dist = Vec::new();
        for s in 0..n_scans {
            let (x, _) = bragg_flat(&sim.scan(s, per_scan));
            let pdf = fairds.dataset_pdf(&x);
            jsds.push(jsd(&ref_pdf, &pdf));
            scan_dist.push(s as f64);
        }
        table.row(vec![name.to_string(), f(spearman(&jsds, &scan_dist))]);
    }
    table
}

/// Ablation 2: JSD vs plain L2 between PDFs for picking the best zoo model.
fn jsd_vs_l2(scale: Scale) -> Table {
    let fx = crate::figures::fig10_12::build_bragg_zoo(scale, 15, 67);
    let fairds = fx.fairds;
    let zoo = fx.zoo;
    let n_zoo = zoo.len();
    let config_change = n_zoo / 2;
    let sim = BraggSimulator::new(
        DriftModel::paper_like(usize::MAX - 1, config_change),
        67 ^ 0xB0,
    );
    let per_test = scale.pick(40, 150, 300);

    let mut table = Table::new(
        "Ablation: zoo ranking metric — does the top-1 pick match the test phase?",
        &[
            "test_scan",
            "jsd_pick",
            "l2_pick",
            "same_phase_jsd",
            "same_phase_l2",
        ],
    );
    for ts in [0usize, config_change, n_zoo - 1] {
        let (x, _) = bragg_flat(&sim.scan_shot(ts, 9, per_test));
        let pdf = fairds.dataset_pdf(&x);
        let pick = |metric: &dyn Fn(&[f64], &[f64]) -> f64| -> usize {
            (0..n_zoo)
                .min_by(|&a, &b| {
                    metric(&pdf, &zoo.get(a).unwrap().train_pdf)
                        .total_cmp(&metric(&pdf, &zoo.get(b).unwrap().train_pdf))
                })
                .unwrap()
        };
        let jsd_pick = pick(&|p, q| jsd(p, q));
        let l2_pick = pick(&|p, q| {
            let pf: Vec<f32> = p.iter().map(|&v| v as f32).collect();
            let qf: Vec<f32> = q.iter().map(|&v| v as f32).collect();
            sq_dist(&pf, &qf) as f64
        });
        let phase = |scan: usize| scan >= config_change;
        table.row(vec![
            ts.to_string(),
            zoo.get(jsd_pick).unwrap().scan.to_string(),
            zoo.get(l2_pick).unwrap().scan.to_string(),
            (phase(zoo.get(jsd_pick).unwrap().scan) == phase(ts)).to_string(),
            (phase(zoo.get(l2_pick).unwrap().scan) == phase(ts)).to_string(),
        ]);
    }
    table
}

/// Ablation 3: pseudo-label reuse threshold sweep — reuse fraction and
/// label quality against ground truth.
fn threshold_sweep(scale: Scale) -> Table {
    let per_scan = scale.pick(60, 250, 500);
    let history = bragg_history(3, per_scan, 71);
    let fairds = bragg_fairds(&history, 15, 71, embed_epochs(scale));
    let sim = BraggSimulator::new(DriftModel::none(), 7171);
    let patches = sim.scan(0, per_scan.min(200));
    let (x, y_true) = bragg_flat(&patches);

    let mut table = Table::new(
        "Ablation: label-reuse threshold — reuse fraction vs label error",
        &["threshold", "reuse_frac", "mean_label_err_px"],
    );
    let px = (BRAGG_SIDE - 1) as f32;
    for &t in &[0.003f32, 0.01, 0.05, 0.2, 1.0] {
        let (labels, stats) = fairds.pseudo_label(&x, t, |pixels| {
            let fit = fairdms_datasets::voigt::fit_peak(
                pixels,
                BRAGG_SIDE,
                &fairdms_datasets::voigt::FitConfig::QUICK,
            );
            let (cx, cy) = fit.center();
            vec![cx / px, cy / px]
        });
        let mut err = 0.0f32;
        for i in 0..x.shape()[0] {
            let dx = (labels.at(&[i, 0]) - y_true.at(&[i, 0])) * px;
            let dy = (labels.at(&[i, 1]) - y_true.at(&[i, 1])) * px;
            err += (dx * dx + dy * dy).sqrt();
        }
        err /= x.shape()[0] as f32;
        table.row(vec![
            format!("{t:.3}"),
            format!("{:.2}", stats.reuse_fraction()),
            format!("{err:.3}"),
        ]);
    }
    table
}

/// Ablation 4: K sensitivity of the certainty monitor.
fn k_sensitivity(scale: Scale) -> Table {
    let per_scan = scale.pick(40, 150, 300);
    let history = bragg_history(3, per_scan, 83);
    let drift_sim = BraggSimulator::new(
        DriftModel {
            deform_start: 0,
            deform_rate: 0.15,
            config_change: usize::MAX,
        },
        8383,
    );
    let (in_dist, _) = bragg_flat(&drift_sim.scan(0, per_scan));
    let (drifted, _) = bragg_flat(&drift_sim.scan(12, per_scan));

    let mut table = Table::new(
        "Ablation: K sensitivity of the certainty monitor",
        &["k", "certainty_in_dist", "certainty_drifted", "separation"],
    );
    for &k in &[5usize, 10, 15, 20] {
        let fairds = bragg_fairds(&history, k, 83, embed_epochs(scale));
        let c_in = fairds.certainty(&in_dist);
        let c_drift = fairds.certainty(&drifted);
        table.row(vec![
            k.to_string(),
            format!("{:.2}", c_in),
            format!("{:.2}", c_drift),
            format!("{:.2}", c_in - c_drift),
        ]);
    }
    table
}

/// Runs all ablation benches.
pub fn run_ablations(scale: Scale) -> Result<(), String> {
    let t = embedding_index_quality(scale);
    t.emit("ablation_embedding_index");
    let t = jsd_vs_l2(scale);
    t.emit("ablation_jsd_vs_l2");
    let t = threshold_sweep(scale);
    t.emit("ablation_threshold_sweep");
    let t = k_sensitivity(scale);
    t.emit("ablation_k_sensitivity");
    Ok(())
}
