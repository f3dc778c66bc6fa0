//! **Figs 13–14** — rapid DNN training with fairDMS (§III-G): validation
//! loss per epoch for four strategies — Retrain (scratch), FineTune-B/M/W
//! (the zoo models ranked best/median/worst by fairMS) — on four test
//! datasets each, for CookieNetAE (Fig 13) and BraggNN (Fig 14).
//! The reproduction target is the *shape*: FineTune-B converges within the
//! first few epochs; Retrain converges slowest.

use crate::figures::fig10_12::build_bragg_zoo;
use crate::figures::{bragg_flat, fit_holdout, BRAGG_SIDE};
use crate::table::Table;
use crate::Scale;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::{ModelManager, ModelZoo, Recommendation};
use fairdms_core::models::ArchSpec;
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::{to_training_tensors as cookie_tensors, CookieBoxSimulator};
use fairdms_nn::layers::Sequential;

const STRATEGIES: [&str; 4] = ["Retrain", "FineTune-B", "FineTune-M", "FineTune-W"];

/// Starting nets for the four strategies, given a ranked recommendation.
fn strategy_nets(
    zoo: &ModelZoo,
    rec: &Recommendation,
    arch: ArchSpec,
    seed: u64,
) -> Vec<(usize, Sequential)> {
    // (column index, net): Retrain, FT-B, FT-M, FT-W.
    vec![
        (0, arch.build(seed ^ 0xF8E5)),
        (1, zoo.instantiate(rec.best().unwrap().0, seed).unwrap()),
        (2, zoo.instantiate(rec.median().unwrap().0, seed).unwrap()),
        (3, zoo.instantiate(rec.worst().unwrap().0, seed).unwrap()),
    ]
}

fn emit_curves(
    title: &str,
    csv: &str,
    curves_per_test: &[(String, Vec<Vec<f32>>)],
    threshold_note: f32,
) {
    for (test_name, curves) in curves_per_test {
        let mut table = Table::new(
            &format!("{title} — {test_name}"),
            &[
                "epoch",
                STRATEGIES[0],
                STRATEGIES[1],
                STRATEGIES[2],
                STRATEGIES[3],
            ],
        );
        let epochs = curves[0].len();
        #[allow(clippy::needless_range_loop)] // e indexes four parallel curves
        for e in 0..epochs {
            table.row(vec![
                e.to_string(),
                format!("{:.5}", curves[0][e]),
                format!("{:.5}", curves[1][e]),
                format!("{:.5}", curves[2][e]),
                format!("{:.5}", curves[3][e]),
            ]);
        }
        table.emit(&format!("{csv}_{}", test_name.replace(' ', "_")));
    }

    // Epochs-to-convergence summary across all test datasets.
    let mut summary = Table::new(
        &format!("{title} — epochs to reach val loss ≤ {threshold_note}"),
        &[
            "test",
            STRATEGIES[0],
            STRATEGIES[1],
            STRATEGIES[2],
            STRATEGIES[3],
        ],
    );
    for (test_name, curves) in curves_per_test {
        let to_reach = |c: &Vec<f32>| {
            c.iter()
                .position(|&v| v <= threshold_note)
                .map(|e| (e + 1).to_string())
                .unwrap_or_else(|| "-".into())
        };
        summary.row(vec![
            test_name.clone(),
            to_reach(&curves[0]),
            to_reach(&curves[1]),
            to_reach(&curves[2]),
            to_reach(&curves[3]),
        ]);
    }
    summary.emit(&format!("{csv}_summary"));
}

/// **Fig 14** — BraggNN learning curves (bimodal Bragg zoo).
pub fn run_braggnn(scale: Scale) -> Result<(), String> {
    let fx = build_bragg_zoo(scale, 15, 51);
    let n_zoo = fx.zoo.len();
    let config_change = n_zoo / 2;
    let sim = BraggSimulator::new(
        DriftModel::paper_like(usize::MAX - 1, config_change),
        51 ^ 0xB0,
    );
    let per_test = scale.pick(50, 250, 500);
    let epochs = scale.pick(5, 30, 60);
    let mgr = ModelManager::default();
    let arch = ArchSpec::BraggNN { patch: BRAGG_SIDE };

    let test_scans = [0, config_change.saturating_sub(1), config_change, n_zoo - 1];
    let mut results = Vec::new();
    for (t, &ts) in test_scans.iter().enumerate() {
        let patches = sim.scan_shot(ts, 7, per_test); // held-out shots of scan ts
        let (xf, y) = bragg_flat(&patches);
        let pdf = fx.fairds.dataset_pdf(&xf);
        let n = xf.shape()[0];
        let x4 = xf.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]);
        let rec = mgr.rank(&fx.zoo, &pdf).expect("zoo is non-empty");
        let mut curves = vec![Vec::new(); 4];
        for (col, mut net) in strategy_nets(&fx.zoo, &rec, arch, 60 + t as u64) {
            let lr = if col == 0 { 2e-3 } else { 5e-4 };
            let report = fit_holdout(&mut net, &x4, &y, lr, epochs, 32);
            curves[col] = report.val_curve();
        }
        results.push((format!("dataset D{t} (scan {ts})"), curves));
    }
    // Summary threshold: just above FineTune-B's starting loss, so the
    // table reads "epochs for each strategy to match the recommended
    // foundation" (0.004 would sit above every curve's first epoch).
    let threshold = results
        .iter()
        .flat_map(|(_, c)| c[1].first().copied())
        .fold(f32::INFINITY, f32::min)
        * 1.25;
    emit_curves(
        "Fig 14: BraggNN validation error per epoch",
        "fig14_braggnn_curves",
        &results,
        threshold,
    );
    Ok(())
}

/// **Fig 13** — CookieNetAE learning curves (gradually drifting zoo).
pub fn run_cookienetae(scale: Scale) -> Result<(), String> {
    let size = scale.pick(16, 32, 64);
    let n_zoo = scale.pick(3, 6, 8);
    let per_scan = scale.pick(16, 48, 96);
    let zoo_epochs = scale.pick(3, 10, 20);
    let epochs = scale.pick(5, 25, 50);
    let scan_stride = 12;

    let sim = CookieBoxSimulator::new(size, 9);
    let embedder = AutoencoderEmbedder::new(size * size, 64, 16, 9);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(8),
            seed: 9,
            ..FairDsConfig::default()
        },
    );
    let hist = sim.scan(0, per_scan * 2);
    let (hx, _) = cookie_tensors(&hist);
    let nh = hx.shape()[0];
    fairds.train_system(
        &hx.reshape(&[nh, size * size]),
        &EmbedTrainConfig {
            epochs: scale.pick(2, 6, 12),
            batch_size: 32,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );

    let arch = ArchSpec::CookieNetAE { size };
    let mut zoo = ModelZoo::new();
    for m in 0..n_zoo {
        let scan = m * scan_stride;
        let imgs = sim.scan(scan, per_scan);
        let (x4, y4) = cookie_tensors(&imgs);
        let n = x4.shape()[0];
        let pdf = fairds.dataset_pdf(&x4.reshape(&[n, size * size]));
        let mut net = arch.build(80 + m as u64);
        fit_holdout(&mut net, &x4, &y4, 2e-3, zoo_epochs, 16);
        zoo.add_model(&format!("cookienetae-scan{scan}"), arch, &net, pdf, scan);
    }

    let mgr = ModelManager::default();
    let test_scans: Vec<usize> = (0..4).map(|i| i * scan_stride * n_zoo / 4 + 5).collect();
    let mut results = Vec::new();
    for (t, &ts) in test_scans.iter().enumerate() {
        let imgs = sim.scan(ts, per_scan);
        let (x4, y4) = cookie_tensors(&imgs);
        let n = x4.shape()[0];
        let pdf = fairds.dataset_pdf(&x4.reshape(&[n, size * size]));
        let rec = mgr.rank(&zoo, &pdf).expect("zoo is non-empty");
        let mut curves = vec![Vec::new(); 4];
        for (col, mut net) in strategy_nets(&zoo, &rec, arch, 90 + t as u64) {
            let lr = if col == 0 { 2e-3 } else { 5e-4 };
            let report = fit_holdout(&mut net, &x4, &y4, lr, epochs, 32);
            curves[col] = report.val_curve();
        }
        results.push((format!("dataset D{t} (scan {ts})"), curves));
    }
    // CookieNetAE losses are small (PDF targets); threshold accordingly.
    let threshold = results
        .iter()
        .flat_map(|(_, c)| c[1].iter().copied())
        .fold(f32::INFINITY, f32::min)
        * 1.5;
    emit_curves(
        "Fig 13: CookieNetAE validation error per epoch",
        "fig13_cookienetae_curves",
        &results,
        threshold,
    );
    Ok(())
}
