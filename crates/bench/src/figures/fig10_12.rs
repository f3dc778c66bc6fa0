//! **Figs 10–12** — model-service validation (§III-F): scatter of model
//! prediction error vs JSD distance between the model's training data and
//! the test dataset, for BraggNN (Fig 10, bimodal experiment) and
//! CookieNetAE (Fig 11, gradually drifting experiment); plus the Fig 12
//! cluster-PDF bars comparing the input dataset against the best- and
//! worst-ranked models' training distributions.

use crate::figures::{bragg_fairds, bragg_flat, embed_epochs, fit_holdout, BRAGG_SIDE};
use crate::table::{f, Table};
use crate::uncertainty::mean_row_distance;
use crate::Scale;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig, SystemSnapshot};
use fairdms_core::fairms::{ModelZoo, ZooSnapshot};
use fairdms_core::jsd::jsd;
use fairdms_core::models::ArchSpec;
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::{to_training_tensors as cookie_tensors, CookieBoxSimulator};
use fairdms_nn::loss::{Loss, Mse};
use std::sync::Arc;

/// Spearman rank correlation between two equally long series.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        num += (ra[i] - mean) * (rb[i] - mean);
        da += (ra[i] - mean).powi(2);
        db += (rb[i] - mean).powi(2);
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

/// A zoo built over a drifting Bragg experiment: one BraggNN per scan,
/// indexed by the fairDS PDF of its training data.
pub struct BraggZoo {
    /// The published data service (system plane trained on history
    /// spanning both phases).
    pub system: Arc<SystemSnapshot>,
    /// The published model zoo.
    pub zoo: ZooSnapshot,
}

/// Builds the Fig 10 fixture: bimodal drift (config change mid-series).
pub fn build_bragg_zoo(scale: Scale, k: usize, seed: u64) -> BraggZoo {
    let n_zoo = scale.pick(3, 8, 12);
    let per_scan = scale.pick(50, 200, 400);
    let epochs = scale.pick(3, 12, 25);
    let config_change = n_zoo / 2;

    let sim = BraggSimulator::new(
        DriftModel::paper_like(usize::MAX - 1, config_change),
        seed ^ 0xB0,
    );
    // The system plane trains on history spanning the whole experiment —
    // both configuration modes — exactly as the paper's data store
    // accumulates over the experiment. An embedding/clustering stack that
    // never saw the second mode cannot separate the phases, and every
    // dataset PDF collapses to the same clusters (JSD ≈ 0 across the zoo).
    let history: Vec<_> = (0..n_zoo)
        .flat_map(|s| sim.scan_shot(s, 11, per_scan))
        .collect();
    let system = bragg_fairds(&history, k, seed, embed_epochs(scale))
        .snapshot()
        .expect("bragg_fairds trains");
    let mut zoo = ModelZoo::new();
    let arch = ArchSpec::BraggNN { patch: BRAGG_SIDE };
    for s in 0..n_zoo {
        let patches = sim.scan(s, per_scan);
        let (xf, y) = bragg_flat(&patches);
        let pdf = system.dataset_pdf(&xf);
        let n = xf.shape()[0];
        let x4 = xf.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]);
        let mut net = arch.build(seed + s as u64);
        fit_holdout(&mut net, &x4, &y, 2e-3, epochs, 32);
        zoo.add_model(&format!("braggnn-scan{s}"), arch, &net, pdf, s);
    }
    BraggZoo {
        system,
        zoo: zoo.snapshot(),
    }
}

/// **Fig 10** — BraggNN error-vs-JSD scatter over four test datasets.
pub fn run_braggnn(scale: Scale) -> Result<(), String> {
    let BraggZoo { system, zoo } = build_bragg_zoo(scale, 15, 31);
    let n_zoo = zoo.len();
    let per_test = scale.pick(40, 150, 300);
    let config_change = n_zoo / 2;
    let sim = BraggSimulator::new(
        DriftModel::paper_like(usize::MAX - 1, config_change),
        31 ^ 0xB0,
    );
    // Four test datasets: two per phase (the bimodal structure of Fig 10).
    let test_scans = [
        0,
        (config_change.saturating_sub(1)),
        config_change,
        n_zoo - 1,
    ];

    let mut table = Table::new(
        "Fig 10: BraggNN prediction error (px) vs JSD dataset distance",
        &["test", "model_scan", "jsd", "error_px"],
    );
    let px = (BRAGG_SIDE - 1) as f32;
    let mut correlations = Vec::new();
    for (t_idx, &ts) in test_scans.iter().enumerate() {
        let patches = sim.scan_shot(ts, 5, per_test); // held-out shots of scan ts
        let (xf, y) = bragg_flat(&patches);
        let pdf = system.dataset_pdf(&xf);
        let n = xf.shape()[0];
        let x4 = xf.reshape(&[n, 1, BRAGG_SIDE, BRAGG_SIDE]);
        let mut ds = Vec::new();
        let mut es = Vec::new();
        for id in 0..n_zoo {
            let entry = zoo.get(id).unwrap();
            let d = jsd(&pdf, &entry.train_pdf);
            let net = zoo.instantiate(id, 0).unwrap();
            let pred = net.infer(&x4);
            let e = mean_row_distance(&pred, &y, px) as f64;
            table.row(vec![
                format!("D{t_idx} (scan {ts})"),
                entry.scan.to_string(),
                f(d),
                f(e),
            ]);
            ds.push(d);
            es.push(e);
        }
        correlations.push(spearman(&ds, &es));
    }
    table.emit("fig10_braggnn_scatter");
    println!(
        "Spearman(jsd, error) per test dataset: {:?}",
        correlations
            .iter()
            .map(|c| format!("{c:.2}"))
            .collect::<Vec<_>>()
    );
    println!("positive correlation ⇒ JSD ranking selects low-error foundations\n");
    Ok(())
}

/// **Fig 11** — CookieNetAE error-vs-JSD scatter (gradual drift ⇒ the
/// near-monotone pattern the paper reports).
pub fn run_cookienetae(scale: Scale) -> Result<(), String> {
    let size = scale.pick(16, 32, 64);
    let n_zoo = scale.pick(3, 6, 10);
    let per_scan = scale.pick(16, 48, 96);
    let epochs = scale.pick(3, 10, 20);
    let scan_stride = 12; // spread scans so the drift is material

    let sim = CookieBoxSimulator::new(size, 5);
    // fairDS over an autoencoder embedding (the paper used AE successfully
    // for CookieBox data, §IV).
    let embedder = AutoencoderEmbedder::new(size * size, 64, 16, 5);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(8),
            seed: 5,
            ..FairDsConfig::default()
        },
    );
    let hist = sim.scan(0, per_scan * 2);
    let (hx, hy) = cookie_tensors(&hist);
    let nh = hx.shape()[0];
    let hx_flat = hx.reshape(&[nh, size * size]);
    let hy_flat = hy.reshape(&[nh, size * size]);
    fairds.train_system(
        &hx_flat,
        &EmbedTrainConfig {
            epochs: embed_epochs(scale),
            batch_size: 32,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    fairds.ingest_labeled(&hx_flat, &hy_flat, 0);
    let system = fairds.snapshot().expect("trained above");

    let arch = ArchSpec::CookieNetAE { size };
    let mut zoo = ModelZoo::new();
    for m in 0..n_zoo {
        let scan = m * scan_stride;
        let imgs = sim.scan(scan, per_scan);
        let (x4, y4) = cookie_tensors(&imgs);
        let n = x4.shape()[0];
        let pdf = system.dataset_pdf(&x4.reshape(&[n, size * size]));
        let mut net = arch.build(40 + m as u64);
        fit_holdout(&mut net, &x4, &y4, 2e-3, epochs, 32);
        zoo.add_model(&format!("cookienetae-scan{scan}"), arch, &net, pdf, scan);
    }
    let zoo = zoo.snapshot();

    let mut table = Table::new(
        "Fig 11: CookieNetAE prediction error (MSE x 1e3) vs JSD dataset distance",
        &["test", "model_scan", "jsd", "error"],
    );
    let test_scans: Vec<usize> = (0..4).map(|i| i * scan_stride * n_zoo / 4 + 3).collect();
    let mut correlations = Vec::new();
    for (t_idx, &ts) in test_scans.iter().enumerate() {
        let imgs = sim.scan(ts, per_scan.min(32));
        let (x4, y4) = cookie_tensors(&imgs);
        let n = x4.shape()[0];
        let pdf = system.dataset_pdf(&x4.reshape(&[n, size * size]));
        let mut ds = Vec::new();
        let mut es = Vec::new();
        for id in 0..zoo.len() {
            let entry = zoo.get(id).unwrap();
            let d = jsd(&pdf, &entry.train_pdf);
            let net = zoo.instantiate(id, 0).unwrap();
            let pred = net.infer(&x4);
            let e = (Mse.forward(&pred, &y4) * 1e3) as f64;
            table.row(vec![
                format!("D{t_idx} (scan {ts})"),
                entry.scan.to_string(),
                f(d),
                f(e),
            ]);
            ds.push(d);
            es.push(e);
        }
        correlations.push(spearman(&ds, &es));
    }
    table.emit("fig11_cookienetae_scatter");
    println!(
        "Spearman(jsd, error) per test dataset: {:?}\n",
        correlations
            .iter()
            .map(|c| format!("{c:.2}"))
            .collect::<Vec<_>>()
    );
    Ok(())
}

/// **Fig 12** — cluster-PDF bars: input dataset vs the training PDFs of
/// the best- and worst-ranked zoo models (k = 15, matching the paper).
pub fn run_distribution_bars(scale: Scale) -> Result<(), String> {
    let BraggZoo { system, zoo } = build_bragg_zoo(scale, 15, 77);
    let n_zoo = zoo.len();
    let config_change = n_zoo / 2;
    let sim = BraggSimulator::new(
        DriftModel::paper_like(usize::MAX - 1, config_change),
        77 ^ 0xB0,
    );
    let per_test = scale.pick(60, 250, 500);
    let patches = sim.scan_shot(config_change, 3, per_test); // held-out second-phase shots
    let (xf, _) = bragg_flat(&patches);
    let pdf = system.dataset_pdf(&xf);

    let rec = zoo.rank(&pdf).expect("non-empty zoo");
    let best = zoo.get(rec.best().unwrap().0).unwrap();
    let worst = zoo.get(rec.worst().unwrap().0).unwrap();

    let mut table = Table::new(
        "Fig 12: cluster PDF — input vs best-ranked vs worst-ranked training data",
        &["cluster", "input", "best", "worst"],
    );
    for (c, &p) in pdf.iter().enumerate() {
        table.row(vec![
            c.to_string(),
            f(p),
            f(best.train_pdf[c]),
            f(worst.train_pdf[c]),
        ]);
    }
    table.emit("fig12_distribution_bars");
    println!(
        "best = scan {} (jsd {:.4}), worst = scan {} (jsd {:.4})\n",
        best.scan,
        rec.best().unwrap().1,
        worst.scan,
        rec.worst().unwrap().1
    );
    Ok(())
}
