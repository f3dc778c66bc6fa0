//! **Fig 9** — data-service validation (§III-E): BraggNN trained on a
//! conventionally labeled dataset vs on the fairDS-retrieved dataset `BO`,
//! compared by the P50/P75/P95 of the prediction-error distribution on a
//! holdout, together with the labeling times (the paper: ~1 h conventional
//! vs <1 min fairDS).

use crate::figures::{
    bragg_fairds, bragg_flat, bragg_history, embed_epochs, fit_holdout, BRAGG_SIDE,
};
use crate::table::{secs, Table};
use crate::Scale;
use fairdms_core::models::ArchSpec;
use fairdms_datasets::bragg::{BraggPatch, BraggSimulator, DriftModel};
use fairdms_datasets::voigt::{fit_peak, FitConfig};
use fairdms_nn::layers::Sequential;
use fairdms_tensor::Tensor;
use rayon::prelude::*;
use std::time::Instant;

/// Per-peak center error (px) of a model over a labeled evaluation set.
fn eval_errors(net: &Sequential, x: &Tensor, y: &Tensor) -> Vec<f32> {
    let pred = net.infer(x);
    let scale = (BRAGG_SIDE - 1) as f32;
    (0..x.shape()[0])
        .map(|i| {
            let dx = (pred.at(&[i, 0]) - y.at(&[i, 0])) * scale;
            let dy = (pred.at(&[i, 1]) - y.at(&[i, 1])) * scale;
            (dx * dx + dy * dy).sqrt()
        })
        .collect()
}

fn percentile(sorted: &[f32], p: f64) -> f32 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn train_braggnn(x_flat: &Tensor, y: &Tensor, epochs: usize, seed: u64) -> Sequential {
    let n = x_flat.shape()[0];
    let x = x_flat.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]);
    let mut net = ArchSpec::BraggNN { patch: BRAGG_SIDE }.build(seed);
    fit_holdout(&mut net, &x, y, 2e-3, epochs, 32);
    net
}

/// Regenerates Fig 9.
pub fn run(scale: Scale) -> Result<(), String> {
    let hist_scans = scale.pick(2, 5, 8);
    let per_scan = scale.pick(60, 250, 600);
    let n_br = scale.pick(60, 300, 800);
    let n_hold = scale.pick(20, 80, 200);
    let epochs = scale.pick(5, 30, 60);

    // Historical corpus, ingested into fairDS.
    let history = bragg_history(hist_scans, per_scan, 11);
    let system = bragg_fairds(&history, 15.min(history.len()), 11, embed_epochs(scale))
        .snapshot()
        .expect("bragg_fairds trains");

    // BR: a new experiment (different seed, same physics); BH ⊂ BR held out.
    let new_sim = BraggSimulator::new(DriftModel::none(), 999);
    let br: Vec<BraggPatch> = new_sim.scan(0, n_br + n_hold);
    let (bh, br_train) = br.split_at(n_hold);
    let (x_train_flat, _y_true) = bragg_flat(br_train);
    let (xh_flat, yh) = bragg_flat(bh);
    let nh = xh_flat.shape()[0];
    let xh = xh_flat.reshape(&[nh, 1, BRAGG_SIDE, BRAGG_SIDE]);

    // --- Conventional path: pseudo-Voigt fit for every training patch. ---
    let t0 = Instant::now();
    let voigt_labels: Vec<f32> = br_train
        .par_iter()
        .flat_map(|p| {
            let fit = fit_peak(&p.pixels, BRAGG_SIDE, &FitConfig::MIDAS_GRADE);
            let (cx, cy) = fit.center();
            let s = (BRAGG_SIDE - 1) as f32;
            vec![cx / s, cy / s]
        })
        .collect();
    let voigt_secs = t0.elapsed().as_secs_f64();
    let y_voigt = Tensor::from_vec(voigt_labels, &[br_train.len(), 2]);

    // --- fairDS path: BO = nearest stored {p, l(p)} under threshold T,
    //     Voigt fallback above it. ---
    let threshold = 0.6f32;
    let t0 = Instant::now();
    let matches = system.nearest_labeled(&x_train_flat);
    let mut bo_x = Vec::with_capacity(br_train.len() * BRAGG_SIDE * BRAGG_SIDE);
    let mut bo_y = Vec::with_capacity(br_train.len() * 2);
    let mut reused = 0usize;
    for (i, m) in matches.iter().enumerate() {
        match m {
            Some((dist, doc)) if *dist < threshold => {
                bo_x.extend_from_slice(doc.get_f32s("pixels").expect("stored pixels"));
                bo_y.extend_from_slice(doc.get_f32s("label").expect("stored label"));
                reused += 1;
            }
            _ => {
                let pixels = x_train_flat.row(i);
                let fit = fit_peak(pixels, BRAGG_SIDE, &FitConfig::MIDAS_GRADE);
                let (cx, cy) = fit.center();
                let s = (BRAGG_SIDE - 1) as f32;
                bo_x.extend_from_slice(pixels);
                bo_y.push(cx / s);
                bo_y.push(cy / s);
            }
        }
    }
    let fairds_secs = t0.elapsed().as_secs_f64();
    let bo_x = Tensor::from_vec(bo_x, &[br_train.len(), BRAGG_SIDE * BRAGG_SIDE]);
    let bo_y = Tensor::from_vec(bo_y, &[br_train.len(), 2]);

    // Train both models and evaluate on BH.
    let net_conv = train_braggnn(&x_train_flat, &y_voigt, epochs, 21);
    let net_fair = train_braggnn(&bo_x, &bo_y, epochs, 22);
    let mut err_conv = eval_errors(&net_conv, &xh, &yh);
    let mut err_fair = eval_errors(&net_fair, &xh, &yh);
    err_conv.sort_by(f32::total_cmp);
    err_fair.sort_by(f32::total_cmp);

    let mut table = Table::new(
        "Fig 9: BraggNN error percentiles (px) on holdout BH — conventional vs fairDS labels",
        &["method", "P50", "P75", "P95", "label_time", "labels_reused"],
    );
    table.row(vec![
        "conventional (pseudo-Voigt)".into(),
        format!("{:.3}", percentile(&err_conv, 0.50)),
        format!("{:.3}", percentile(&err_conv, 0.75)),
        format!("{:.3}", percentile(&err_conv, 0.95)),
        secs(voigt_secs),
        "0".into(),
    ]);
    table.row(vec![
        "proposed fairDS".into(),
        format!("{:.3}", percentile(&err_fair, 0.50)),
        format!("{:.3}", percentile(&err_fair, 0.75)),
        format!("{:.3}", percentile(&err_fair, 0.95)),
        secs(fairds_secs),
        format!("{reused}/{}", br_train.len()),
    ]);
    table.emit("fig09_labels");

    // Paper-scale projection (the paper's "~1 h conventional vs <1 min
    // fairDS"): our single-patch Gauss–Newton fitter is thousands of times
    // cheaper than MIDAS, which fits whole frames with overlapping peaks
    // (~4.1 core-seconds/peak back-derived from the paper's own numbers),
    // so the *measured* wall-clock ratio at repo scale understates the
    // effect. Project both paths to one 70 k-peak scan: conventional at
    // MIDAS cost on the paper's 80-core workstation, fairDS at our
    // measured per-sample lookup cost.
    const MIDAS_CORE_SECS_PER_PEAK: f64 = 4.1;
    const PAPER_PEAKS: f64 = 70_000.0;
    let conv_paper = PAPER_PEAKS * MIDAS_CORE_SECS_PER_PEAK / 80.0;
    let fairds_paper = fairds_secs / br_train.len() as f64 * PAPER_PEAKS;
    println!(
        "measured at repo scale: conventional {} vs fairDS {} (reuse fraction {:.1}%)",
        secs(voigt_secs),
        secs(fairds_secs),
        100.0 * reused as f64 / br_train.len() as f64
    );
    println!(
        "projected to one 70k-peak scan: conventional (MIDAS, 80 cores) {} vs fairDS {} — {:.0}x labeling speedup",
        secs(conv_paper),
        secs(fairds_paper),
        conv_paper / fairds_paper.max(1e-9)
    );
    Ok(())
}
