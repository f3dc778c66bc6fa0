//! **Fig 15** — the BraggNN retraining case study (§III-H): labeling time,
//! training time (a) and end-to-end model-update time (b) for four
//! methods: fairDMS, Retrain (fairDS labels + scratch training), Voigt-80
//! and Voigt-1440 (conventional labeling on 80/1440 cores + scratch
//! training). Paper headline: fairDMS ≈ 92× faster end-to-end than
//! Voigt-1440, 58× faster than Retrain, ~600× faster than Voigt-80.
//!
//! Substitutions (DESIGN.md): fairDMS/Retrain label and train times are
//! *measured*; the Voigt-80/1440 labeling times are Amdahl projections of
//! a per-peak cost onto the paper's core counts, at the paper's per-scan
//! dataset size. Two per-peak constants are reported: the *measured* cost
//! of this repo's Gauss–Newton fitter, and the *paper-calibrated* MIDAS
//! cost (≈4.1 core-seconds/peak, back-derived from the paper's own ~1 h on
//! 80 cores for ~70 k peaks), since MIDAS fits full frames with
//! overlapping peaks and is far heavier than a single-patch fitter. The
//! facility→cluster transfer of one paper-scale scan is modeled as a
//! 50 ms, 10 Gb/s `LinkModel` (DESIGN.md §3).

use crate::figures::{bragg_fairds, bragg_flat, bragg_history, embed_epochs, BRAGG_SIDE};
use crate::netsim::LinkModel;
use crate::table::{f2, secs, Table};
use crate::Scale;
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig, TrainStrategy};
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::voigt::{fit_peak, ClusterModel, FitConfig};
use fairdms_nn::trainer::TrainConfig;
use std::time::Instant;

/// MIDAS per-peak cost back-derived from the paper's numbers
/// (~1 h × 80 cores / ~70 k peaks).
const MIDAS_CORE_SECS_PER_PEAK: f64 = 4.1;
/// The paper-scale per-update dataset size (≈ one HEDM scan's peaks).
const PAPER_PEAKS: usize = 70_000;

/// Regenerates Fig 15.
pub fn run(scale: Scale) -> Result<(), String> {
    let hist_scans = scale.pick(2, 5, 8);
    let per_scan = scale.pick(60, 250, 500);
    let n_new = scale.pick(80, 400, 1000);
    let epoch_budget = scale.pick(12, 60, 150);

    // ------------------------------------------------------------------
    // Setup: historical corpus + a zoo seeded with a well-trained model.
    // ------------------------------------------------------------------
    let history = bragg_history(hist_scans, per_scan, 15);
    let fairds = bragg_fairds(&history, 15, 15, embed_epochs(scale));
    let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: BRAGG_SIDE }, BRAGG_SIDE);
    // Both strategies run a fixed epoch budget; convergence epochs are
    // read off the validation curves afterwards (the paper trains "to
    // convergence: until model error no longer declines").
    cfg.train = TrainConfig {
        epochs: epoch_budget,
        batch_size: 32,
        patience: 0,
        target_val_loss: None,
        ..TrainConfig::default()
    };
    cfg.seed = 15;
    let mut trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), cfg);

    // Pre-train a foundation model on the stable phase (datasets 0..21 in
    // the paper's indexing) and register it.
    let (hx, hy) = bragg_flat(&history);
    let hist_pdf = trainer.fairds.dataset_pdf(&hx);
    let (seed_net, seed_report, _, _) =
        trainer.fit_strategy(&hx, &hy, &hist_pdf, TrainStrategy::Scratch);
    trainer.zoo.add_model(
        "braggnn-dataset21",
        ArchSpec::BraggNN { patch: BRAGG_SIDE },
        &seed_net,
        hist_pdf,
        21,
    );
    println!(
        "seed model trained to val loss {:.5} in {} epochs\n",
        seed_report.final_val_loss(),
        seed_report.curve.len()
    );

    // Dataset 22: the retraining trigger point. A conventionally labeled
    // holdout serves as validation (the paper's §III-E/F methodology:
    // train on fairDS-retrieved labels, measure error against
    // conventionally labeled data).
    let sim = BraggSimulator::new(DriftModel::none(), 2222);
    let new_patches = sim.scan(22, n_new);
    let n_val = (n_new / 5).max(1);
    let val_patches = sim.scan(23, n_val);
    let (x22, _) = bragg_flat(&new_patches);
    let (val_x, _) = bragg_flat(&val_patches);
    let val_y = {
        // "Conventional" labels for the holdout: the pseudo-Voigt fit.
        let s = (BRAGG_SIDE - 1) as f32;
        let mut vals = Vec::with_capacity(n_val * 2);
        for p in &val_patches {
            let fit = fit_peak(&p.pixels, BRAGG_SIDE, &FitConfig::MIDAS_GRADE);
            let (cx, cy) = fit.center();
            vals.push(cx / s);
            vals.push(cy / s);
        }
        fairdms_tensor::Tensor::from_vec(vals, &[n_val, 2])
    };

    // ------------------------------------------------------------------
    // Measured: fairDMS (pseudo-label + fine-tune). Modeled: moving one
    // paper-scale scan of patches from the beamline to the cluster over a
    // Globus route (50 ms per transfer, 10 Gb/s) — the scale every label
    // and train column below is projected to.
    // ------------------------------------------------------------------
    let globus = LinkModel {
        latency_us: 50_000.0,
        bandwidth_gbps: 10.0,
    };
    let transfer_secs = globus.transfer_secs(PAPER_PEAKS * BRAGG_SIDE * BRAGG_SIDE * 4);

    let t0 = Instant::now();
    let pdf22 = trainer.fairds.dataset_pdf(&x22);
    let (labels22, stats) = trainer.fairds.pseudo_label(&x22, 0.6, |pixels| {
        let fit = fit_peak(pixels, BRAGG_SIDE, &FitConfig::MIDAS_GRADE);
        let (cx, cy) = fit.center();
        let s = (BRAGG_SIDE - 1) as f32;
        vec![cx / s, cy / s]
    });
    let fairds_label_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (_, ft_report, foundation, _) = trainer.fit_strategy_with_val(
        &x22,
        &labels22,
        &val_x,
        &val_y,
        &pdf22,
        TrainStrategy::FineTuneBest,
    );
    let finetune_budget_secs = t0.elapsed().as_secs_f64();
    assert!(
        foundation.is_some(),
        "fine-tune must use the seeded zoo model"
    );

    // Measured: Retrain (fairDS labels + scratch training).
    let t0 = Instant::now();
    let (_, scratch_report, _, _) = trainer.fit_strategy_with_val(
        &x22,
        &labels22,
        &val_x,
        &val_y,
        &pdf22,
        TrainStrategy::Scratch,
    );
    let scratch_budget_secs = t0.elapsed().as_secs_f64();

    // Convergence accounting: the common quality target is the best loss
    // the *weaker* run achieved (both runs provably reach it), with 5 %
    // slack. Time-to-convergence = per-epoch time × epochs to reach it.
    let target = ft_report
        .best_val_loss()
        .max(scratch_report.best_val_loss())
        * 1.05;
    let ft_epochs = ft_report.epochs_to_reach(target).unwrap_or(epoch_budget);
    let scratch_epochs_used = scratch_report
        .epochs_to_reach(target)
        .unwrap_or(epoch_budget);
    let finetune_secs = finetune_budget_secs * ft_epochs as f64 / epoch_budget as f64;
    let scratch_secs = scratch_budget_secs * scratch_epochs_used as f64 / epoch_budget as f64;
    println!(
        "convergence target (val MSE vs conventional labels): {target:.5}\n\
         fine-tune reaches it in {ft_epochs} epochs, scratch in {scratch_epochs_used} (budget {epoch_budget})\n"
    );

    // ------------------------------------------------------------------
    // Projected: Voigt labeling (measured per-peak single-core cost +
    // paper-calibrated MIDAS cost, Amdahl-scaled to 80/1440 cores at the
    // paper's per-scan dataset size).
    // ------------------------------------------------------------------
    let probe = scale.pick(4, 12, 24);
    let t0 = Instant::now();
    for p in new_patches.iter().take(probe) {
        let _ = fit_peak(&p.pixels, BRAGG_SIDE, &FitConfig::MIDAS_GRADE);
    }
    let fitter_per_peak = t0.elapsed().as_secs_f64() / probe as f64;

    // Scale the measured fairDS labeling cost to the paper-scale dataset.
    let fairds_label_paper = fairds_label_secs * PAPER_PEAKS as f64 / n_new as f64;
    let v80 = ClusterModel::voigt_80();
    let v1440 = ClusterModel::voigt_1440();
    let label_v80 = v80.labeling_secs(PAPER_PEAKS, MIDAS_CORE_SECS_PER_PEAK);
    let label_v1440 = v1440.labeling_secs(PAPER_PEAKS, MIDAS_CORE_SECS_PER_PEAK);
    let label_v80_fitter = v80.labeling_secs(PAPER_PEAKS, fitter_per_peak);
    let label_v1440_fitter = v1440.labeling_secs(PAPER_PEAKS, fitter_per_peak);

    // Training times measured at repo scale apply to all methods (all
    // scratch paths share the same trainer); scale both to paper size the
    // same linear way so ratios are preserved.
    let scale_to_paper = PAPER_PEAKS as f64 / n_new as f64;
    let train_fairdms = finetune_secs * scale_to_paper;
    let train_scratch = scratch_secs * scale_to_paper;
    let label_fairdms = fairds_label_paper + transfer_secs;

    let mut a = Table::new(
        "Fig 15a: labeling vs training time (projected to one paper-scale scan, 70k peaks)",
        &["method", "label", "train", "epochs"],
    );
    let rows: Vec<(&str, f64, f64, usize)> = vec![
        ("FairDMS", label_fairdms, train_fairdms, ft_epochs),
        ("Retrain", label_fairdms, train_scratch, scratch_epochs_used),
        ("Voigt-80", label_v80, train_scratch, scratch_epochs_used),
        (
            "Voigt-1440",
            label_v1440,
            train_scratch,
            scratch_epochs_used,
        ),
    ];
    for (m, l, t, e) in &rows {
        a.row(vec![m.to_string(), secs(*l), secs(*t), e.to_string()]);
    }
    a.emit("fig15a_label_train");

    let mut b = Table::new(
        "Fig 15b: end-to-end model update time",
        &["method", "end_to_end", "slowdown_vs_fairDMS"],
    );
    let e2e_fairdms = label_fairdms + train_fairdms;
    for (m, l, t, _) in &rows {
        let e2e = l + t;
        b.row(vec![
            m.to_string(),
            secs(e2e),
            format!("{}x", f2(e2e / e2e_fairdms)),
        ]);
    }
    b.emit("fig15b_end_to_end");

    println!(
        "label reuse on dataset 22: {}/{} ({:.0}%)",
        stats.reused,
        stats.reused + stats.computed,
        100.0 * stats.reuse_fraction()
    );
    println!(
        "training speedup (scratch/fine-tune): {:.1}x in time, {:.1}x in epochs",
        train_scratch / train_fairdms.max(1e-12),
        scratch_epochs_used as f64 / ft_epochs.max(1) as f64
    );
    println!(
        "alternative Voigt projection from this repo's measured fitter ({}/peak): Voigt-80 {}, Voigt-1440 {}",
        secs(fitter_per_peak),
        secs(label_v80_fitter),
        secs(label_v1440_fitter)
    );
    println!(
        "facility→cluster transfer (modeled): {}\n",
        secs(transfer_secs)
    );
    Ok(())
}
