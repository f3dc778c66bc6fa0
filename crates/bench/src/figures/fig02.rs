//! **Fig 2** — model degradation over an experiment: prediction error (px)
//! and MC-dropout uncertainty per scan for a BraggNN trained on the early
//! phase only. The paper's curve is flat until sample deformation begins
//! (scan ~444 there), then error and uncertainty climb together; the drift
//! model reproduces the same knee at a configurable scan.

use crate::figures::{bragg_flat, fit_holdout, BRAGG_SIDE};
use crate::table::{f, Table};
use crate::uncertainty::{degradation_series, detect_degradation};
use crate::Scale;
use fairdms_core::models::ArchSpec;
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_tensor::Tensor;

/// Regenerates Fig 2.
pub fn run(scale: Scale) -> Result<(), String> {
    let n_scans = scale.pick(8, 20, 32);
    let per_scan = scale.pick(40, 150, 400);
    let train_scans = scale.pick(2, 4, 6);
    let deform_start = n_scans / 2;
    let epochs = scale.pick(6, 30, 60);
    let mc_samples = scale.pick(8, 16, 32);

    let sim = BraggSimulator::new(
        DriftModel {
            deform_start,
            deform_rate: 0.06,
            config_change: usize::MAX,
        },
        7,
    );

    // Train on the experiment's early phase only (the paper trains "with
    // data generated in the early stages").
    let train_patches: Vec<_> = (0..train_scans)
        .flat_map(|s| sim.scan(s, per_scan))
        .collect();
    let (x_flat, y) = bragg_flat(&train_patches);
    let n = x_flat.shape()[0];
    let x = x_flat.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]);

    let mut net = ArchSpec::BraggNN { patch: BRAGG_SIDE }.build(1);
    let report = fit_holdout(&mut net, &x, &y, 2e-3, epochs, 64);
    let n_val = (n / 5).max(1);
    println!(
        "trained BraggNN on scans 0..{train_scans} ({} patches), val loss {:.5}\n",
        n - n_val,
        report.final_val_loss()
    );

    // Evaluate across the full series (Fig 2's x-axis).
    let eval_per_scan = per_scan.min(scale.pick(30, 120, 250));
    let series: Vec<(usize, Tensor, Tensor)> = (0..n_scans)
        .map(|s| {
            let patches = sim.scan_shot(s, 1, eval_per_scan); // held-out shots of scan s
            let (xf, y) = bragg_flat(&patches);
            let n = xf.shape()[0];
            (s, xf.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]), y)
        })
        .collect();

    let px_scale = (BRAGG_SIDE - 1) as f32;
    let points = degradation_series(&mut net, &series, px_scale, mc_samples);

    let mut table = Table::new(
        "Fig 2: prediction error and MC-dropout uncertainty per scan",
        &["scan", "error_px", "uncertainty"],
    );
    for p in &points {
        table.row(vec![
            p.scan.to_string(),
            f(p.error as f64),
            format!("{:.6}", p.uncertainty),
        ]);
    }
    table.emit("fig02_degradation");

    let early: f32 =
        points[..train_scans].iter().map(|p| p.error).sum::<f32>() / train_scans as f32;
    let late = points.last().unwrap().error;
    println!(
        "early-phase error {:.3} px → final-scan error {:.3} px ({}x); deformation begins at scan {deform_start}",
        early,
        late,
        f((late / early) as f64),
    );
    if let Some(at) = detect_degradation(&points, train_scans, 1.5) {
        println!("degradation detector (1.5x baseline) fires at scan {at}");
    }
    Ok(())
}
