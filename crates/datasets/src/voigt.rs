//! The pseudo-Voigt peak profile and the conventional labeling pipeline.
//!
//! HEDM analysis determines the sub-pixel center of mass of each
//! diffraction peak by fitting a pseudo-Voigt profile (Sharma et al., the
//! paper's ref \[50\]); the paper's "conventional method" baseline runs the
//! MIDAS implementation of that fit on 80 or 1440 cores. This module
//! provides:
//!
//! * [`PeakParams`] / [`render`] — the forward model (also used by the
//!   Bragg data generator);
//! * [`fit_peak`] — a multi-start Gauss–Newton fitter recovering the peak
//!   center from pixels, deliberately configured at MIDAS-like rigor so
//!   the conventional path carries a realistic compute cost;
//! * [`label_batch`] — rayon-parallel batch labeling (the per-node
//!   parallelism MIDAS uses);
//! * [`ClusterModel`] — Amdahl-style extrapolation of measured per-peak
//!   cost to arbitrary core counts, documenting the Voigt-80/Voigt-1440
//!   substitution (we do not have an 18-node cluster).

use fairdms_tensor::rng::TensorRng;
use rayon::prelude::*;

/// Parameters of one pseudo-Voigt peak on a square patch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeakParams {
    /// Peak amplitude above background.
    pub amplitude: f32,
    /// Center x in pixel coordinates.
    pub cx: f32,
    /// Center y in pixel coordinates.
    pub cy: f32,
    /// Gaussian/Lorentzian width parameter (pixels).
    pub width: f32,
    /// Lorentzian fraction η ∈ [0, 1].
    pub eta: f32,
    /// Constant background level.
    pub background: f32,
}

impl PeakParams {
    /// Profile value at squared radius `r2` from the center.
    #[inline]
    pub fn profile(&self, r2: f32) -> f32 {
        let w2 = self.width * self.width;
        let gaussian = (-r2 / (2.0 * w2)).exp();
        let lorentzian = 1.0 / (1.0 + r2 / w2);
        self.background + self.amplitude * (self.eta * lorentzian + (1.0 - self.eta) * gaussian)
    }

    /// Intensity at pixel `(x, y)`.
    #[inline]
    pub fn intensity(&self, x: f32, y: f32) -> f32 {
        let dx = x - self.cx;
        let dy = y - self.cy;
        self.profile(dx * dx + dy * dy)
    }
}

/// Renders a `size`×`size` patch (row-major) with optional Gaussian pixel
/// noise of standard deviation `noise_std`.
pub fn render(params: &PeakParams, size: usize, noise_std: f32, rng: &mut TensorRng) -> Vec<f32> {
    assert!(size > 0, "patch size must be positive");
    let mut out = Vec::with_capacity(size * size);
    for y in 0..size {
        for x in 0..size {
            let mut v = params.intensity(x as f32, y as f32);
            if noise_std > 0.0 {
                v += rng.next_normal_with(0.0, noise_std);
            }
            out.push(v);
        }
    }
    out
}

/// Fit configuration. `MIDAS_GRADE` mirrors the rigor of the conventional
/// pipeline; `QUICK` is a light verification fit.
#[derive(Clone, Copy, Debug)]
pub struct FitConfig {
    /// Independent multi-start restarts (jittered initial centers).
    pub restarts: usize,
    /// Gauss–Newton iterations per restart.
    pub iterations: usize,
    /// Levenberg damping added to the normal equations.
    pub damping: f32,
}

impl FitConfig {
    /// Rigor comparable to the conventional MIDAS pipeline: multi-start
    /// with full iteration budget (this is the expensive path of Fig 15).
    pub const MIDAS_GRADE: FitConfig = FitConfig {
        restarts: 6,
        iterations: 60,
        damping: 1e-3,
    };

    /// A fast single-start fit for verification and tests.
    pub const QUICK: FitConfig = FitConfig {
        restarts: 1,
        iterations: 25,
        damping: 1e-3,
    };
}

/// Result of a pseudo-Voigt fit.
#[derive(Clone, Copy, Debug)]
pub struct FittedPeak {
    /// Recovered parameters.
    pub params: PeakParams,
    /// Final sum of squared residuals.
    pub residual: f32,
    /// Total Gauss–Newton iterations executed (across restarts).
    pub iterations: usize,
}

impl FittedPeak {
    /// The label the downstream ML task consumes: the fitted center.
    pub fn center(&self) -> (f32, f32) {
        (self.params.cx, self.params.cy)
    }
}

/// Moment-based initial estimate: background from the border median,
/// center from the intensity centroid.
fn initial_guess(pixels: &[f32], size: usize) -> PeakParams {
    let mut border: Vec<f32> = Vec::with_capacity(4 * size);
    for i in 0..size {
        border.push(pixels[i]); // top row
        border.push(pixels[(size - 1) * size + i]); // bottom row
        border.push(pixels[i * size]); // left col
        border.push(pixels[i * size + size - 1]); // right col
    }
    border.sort_by(f32::total_cmp);
    let background = border[border.len() / 2];

    let mut mass = 0.0f32;
    let mut mx = 0.0f32;
    let mut my = 0.0f32;
    let mut peak = f32::NEG_INFINITY;
    for y in 0..size {
        for x in 0..size {
            let v = (pixels[y * size + x] - background).max(0.0);
            mass += v;
            mx += v * x as f32;
            my += v * y as f32;
            peak = peak.max(pixels[y * size + x]);
        }
    }
    let (cx, cy) = if mass > 0.0 {
        (mx / mass, my / mass)
    } else {
        (size as f32 / 2.0, size as f32 / 2.0)
    };
    PeakParams {
        amplitude: (peak - background).max(1e-3),
        cx,
        cy,
        width: size as f32 / 6.0,
        eta: 0.5,
        background,
    }
}

const N_PARAMS: usize = 6;

fn params_to_vec(p: &PeakParams) -> [f32; N_PARAMS] {
    [p.amplitude, p.cx, p.cy, p.width, p.eta, p.background]
}

fn vec_to_params(v: &[f32; N_PARAMS], size: usize) -> PeakParams {
    PeakParams {
        amplitude: v[0].max(1e-4),
        cx: v[1].clamp(0.0, size as f32 - 1.0),
        cy: v[2].clamp(0.0, size as f32 - 1.0),
        width: v[3].clamp(0.3, size as f32),
        eta: v[4].clamp(0.0, 1.0),
        background: v[5],
    }
}

/// Sum of squared residuals of a parameter vector against the pixels.
fn residual_of(params: &PeakParams, pixels: &[f32], size: usize) -> f32 {
    let mut acc = 0.0f32;
    for y in 0..size {
        for x in 0..size {
            let d = params.intensity(x as f32, y as f32) - pixels[y * size + x];
            acc += d * d;
        }
    }
    acc
}

/// Fits a pseudo-Voigt profile with damped Gauss–Newton and numerical
/// Jacobians, multi-started from jittered initial centers.
#[allow(clippy::needless_range_loop)] // triangular JᵀJ assembly
pub fn fit_peak(pixels: &[f32], size: usize, cfg: &FitConfig) -> FittedPeak {
    assert_eq!(pixels.len(), size * size, "pixel count must be size²");
    assert!(
        cfg.restarts >= 1 && cfg.iterations >= 1,
        "degenerate fit config"
    );
    let base = initial_guess(pixels, size);
    let mut rng = TensorRng::seeded(0xF17);

    let mut best: Option<(PeakParams, f32)> = None;
    let mut total_iters = 0usize;
    for restart in 0..cfg.restarts {
        let mut v = params_to_vec(&base);
        if restart > 0 {
            v[1] += rng.next_normal_with(0.0, 1.0);
            v[2] += rng.next_normal_with(0.0, 1.0);
            v[3] *= 1.0 + rng.next_normal_with(0.0, 0.2);
        }
        let mut cur = vec_to_params(&v, size);
        let mut cur_res = residual_of(&cur, pixels, size);

        for _ in 0..cfg.iterations {
            total_iters += 1;
            // Numerical Jacobian via central differences, normal equations
            // JᵀJ δ = Jᵀ r with Levenberg damping.
            let mut jtj = [[0.0f32; N_PARAMS]; N_PARAMS];
            let mut jtr = [0.0f32; N_PARAMS];
            let v_cur = params_to_vec(&cur);
            let eps = 1e-3f32;

            // Per-pixel residual and derivative accumulation.
            let mut deriv_fields = Vec::with_capacity(N_PARAMS);
            for k in 0..N_PARAMS {
                let mut vp = v_cur;
                vp[k] += eps;
                let mut vm = v_cur;
                vm[k] -= eps;
                let pp = vec_to_params(&vp, size);
                let pm = vec_to_params(&vm, size);
                let mut field = Vec::with_capacity(size * size);
                for y in 0..size {
                    for x in 0..size {
                        let d = (pp.intensity(x as f32, y as f32)
                            - pm.intensity(x as f32, y as f32))
                            / (2.0 * eps);
                        field.push(d);
                    }
                }
                deriv_fields.push(field);
            }
            for y in 0..size {
                for x in 0..size {
                    let idx = y * size + x;
                    let r = pixels[idx] - cur.intensity(x as f32, y as f32);
                    for a in 0..N_PARAMS {
                        jtr[a] += deriv_fields[a][idx] * r;
                        for b in a..N_PARAMS {
                            jtj[a][b] += deriv_fields[a][idx] * deriv_fields[b][idx];
                        }
                    }
                }
            }
            for a in 0..N_PARAMS {
                for b in 0..a {
                    jtj[a][b] = jtj[b][a];
                }
                jtj[a][a] += cfg.damping * (1.0 + jtj[a][a]);
            }

            let delta = match solve6(&jtj, &jtr) {
                Some(d) => d,
                None => break, // singular system: stop this restart
            };
            let mut v_next = v_cur;
            for k in 0..N_PARAMS {
                v_next[k] += delta[k];
            }
            let next = vec_to_params(&v_next, size);
            let next_res = residual_of(&next, pixels, size);
            if next_res < cur_res {
                cur = next;
                cur_res = next_res;
            } else {
                break; // no improvement: converged for this restart
            }
        }

        match &best {
            Some((_, r)) if *r <= cur_res => {}
            _ => best = Some((cur, cur_res)),
        }
    }

    let (params, residual) = best.expect("at least one restart ran");
    FittedPeak {
        params,
        residual,
        iterations: total_iters,
    }
}

/// Gaussian elimination with partial pivoting for the 6×6 normal equations.
#[allow(clippy::needless_range_loop)] // Gaussian elimination over a fixed 6x7 tableau
fn solve6(a: &[[f32; N_PARAMS]; N_PARAMS], b: &[f32; N_PARAMS]) -> Option<[f32; N_PARAMS]> {
    let mut m = [[0.0f64; N_PARAMS + 1]; N_PARAMS];
    for i in 0..N_PARAMS {
        for j in 0..N_PARAMS {
            m[i][j] = a[i][j] as f64;
        }
        m[i][N_PARAMS] = b[i] as f64;
    }
    for col in 0..N_PARAMS {
        let pivot = (col..N_PARAMS).max_by(|&x, &y| m[x][col].abs().total_cmp(&m[y][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for row in col + 1..N_PARAMS {
            let f = m[row][col] / m[col][col];
            for k in col..=N_PARAMS {
                m[row][k] -= f * m[col][k];
            }
        }
    }
    let mut x = [0.0f32; N_PARAMS];
    for row in (0..N_PARAMS).rev() {
        let mut acc = m[row][N_PARAMS];
        for k in row + 1..N_PARAMS {
            acc -= m[row][k] * x[k] as f64;
        }
        x[row] = (acc / m[row][row]) as f32;
    }
    Some(x)
}

/// Labels a batch of patches in parallel (MIDAS's per-node parallelism).
/// Returns fitted centers in input order.
pub fn label_batch(patches: &[Vec<f32>], size: usize, cfg: &FitConfig) -> Vec<FittedPeak> {
    patches.par_iter().map(|p| fit_peak(p, size, cfg)).collect()
}

/// Amdahl-style extrapolation of labeling cost to large core counts.
///
/// MIDAS labeling is embarrassingly parallel over peaks with a small serial
/// fraction (I/O staging, result merging). The paper ran it on an 80-core
/// workstation and an 18-node/1440-core cluster; this model projects the
/// *measured* single-core per-peak cost onto those configurations so the
/// Fig 15 comparison can be regenerated anywhere.
#[derive(Clone, Copy, Debug)]
pub struct ClusterModel {
    /// Core count of the modeled machine.
    pub cores: usize,
    /// Serial fraction of the labeling job (Amdahl).
    pub serial_fraction: f64,
    /// Fixed per-job startup overhead in seconds (scheduler, staging).
    pub startup_secs: f64,
}

impl ClusterModel {
    /// The paper's 80-core workstation.
    pub fn voigt_80() -> Self {
        ClusterModel {
            cores: 80,
            serial_fraction: 5e-4,
            startup_secs: 2.0,
        }
    }

    /// The paper's 18-node, 1440-core cluster ("the highest possible
    /// parallelism supported by MIDAS"). Distributed staging costs more.
    pub fn voigt_1440() -> Self {
        ClusterModel {
            cores: 1440,
            serial_fraction: 5e-4,
            startup_secs: 10.0,
        }
    }

    /// Projected wall time to label `n_peaks` given a measured single-core
    /// per-peak cost.
    pub fn labeling_secs(&self, n_peaks: usize, per_peak_secs: f64) -> f64 {
        assert!(self.cores >= 1, "core count must be positive");
        assert!(
            (0.0..=1.0).contains(&self.serial_fraction),
            "bad serial fraction"
        );
        let work = n_peaks as f64 * per_peak_secs;
        let parallel = work * (1.0 - self.serial_fraction) / self.cores as f64;
        let serial = work * self.serial_fraction;
        self.startup_secs + serial + parallel
    }

    /// Effective speedup over a single core for a given job size.
    pub fn speedup(&self, n_peaks: usize, per_peak_secs: f64) -> f64 {
        let t1 = n_peaks as f64 * per_peak_secs;
        t1 / self.labeling_secs(n_peaks, per_peak_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak(cx: f32, cy: f32) -> PeakParams {
        PeakParams {
            amplitude: 100.0,
            cx,
            cy,
            width: 1.8,
            eta: 0.4,
            background: 10.0,
        }
    }

    #[test]
    fn render_puts_maximum_at_center() {
        let mut rng = TensorRng::seeded(0);
        let p = peak(7.0, 7.0);
        let img = render(&p, 15, 0.0, &mut rng);
        let argmax = img
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!((argmax % 15, argmax / 15), (7, 7));
        // Background level at the far corner.
        assert!((img[0] - p.intensity(0.0, 0.0)).abs() < 1e-5);
        assert!(img[0] < 20.0);
    }

    #[test]
    fn fit_recovers_noiseless_center_exactly() {
        let mut rng = TensorRng::seeded(1);
        for &(cx, cy) in &[(7.0f32, 7.0f32), (6.3, 8.1), (7.9, 5.6)] {
            let img = render(&peak(cx, cy), 15, 0.0, &mut rng);
            let fit = fit_peak(&img, 15, &FitConfig::QUICK);
            let (fx, fy) = fit.center();
            assert!(
                (fx - cx).abs() < 0.02 && (fy - cy).abs() < 0.02,
                "({cx},{cy}) fitted as ({fx},{fy})"
            );
        }
    }

    #[test]
    fn fit_tolerates_noise_with_subpixel_accuracy() {
        let mut rng = TensorRng::seeded(2);
        let mut worst = 0.0f32;
        for trial in 0..10 {
            let cx = 6.0 + (trial as f32) * 0.3;
            let cy = 8.0 - (trial as f32) * 0.25;
            let img = render(&peak(cx, cy), 15, 2.0, &mut rng);
            let fit = fit_peak(&img, 15, &FitConfig::MIDAS_GRADE);
            let (fx, fy) = fit.center();
            let err = ((fx - cx).powi(2) + (fy - cy).powi(2)).sqrt();
            worst = worst.max(err);
        }
        assert!(worst < 0.3, "worst noisy-fit error {worst} px");
    }

    #[test]
    fn midas_grade_beats_quick_on_hard_peaks() {
        // Broad, noisy, off-center peak: multi-start should not do worse.
        let mut rng = TensorRng::seeded(3);
        let hard = PeakParams {
            amplitude: 30.0,
            cx: 4.2,
            cy: 10.3,
            width: 3.2,
            eta: 0.8,
            background: 20.0,
        };
        let img = render(&hard, 15, 3.0, &mut rng);
        let quick = fit_peak(&img, 15, &FitConfig::QUICK);
        let full = fit_peak(&img, 15, &FitConfig::MIDAS_GRADE);
        assert!(full.residual <= quick.residual * 1.001);
        assert!(full.iterations >= quick.iterations);
    }

    #[test]
    fn label_batch_preserves_order() {
        let mut rng = TensorRng::seeded(4);
        let centers: Vec<(f32, f32)> = (0..8).map(|i| (5.0 + i as f32 * 0.5, 7.0)).collect();
        let patches: Vec<Vec<f32>> = centers
            .iter()
            .map(|&(cx, cy)| render(&peak(cx, cy), 15, 0.5, &mut rng))
            .collect();
        let fits = label_batch(&patches, 15, &FitConfig::QUICK);
        for (fit, &(cx, _)) in fits.iter().zip(&centers) {
            assert!((fit.center().0 - cx).abs() < 0.2);
        }
    }

    #[test]
    fn cluster_model_orders_configurations() {
        // A paper-scale labeling job: ~1 h of wall time on 80 cores.
        let n = 100_000;
        let per_peak = 2.5; // core-seconds per peak (MIDAS-grade fit)
        let t1 = n as f64 * per_peak;
        let t80 = ClusterModel::voigt_80().labeling_secs(n, per_peak);
        let t1440 = ClusterModel::voigt_1440().labeling_secs(n, per_peak);
        assert!(t1440 < t80 && t80 < t1, "t1={t1} t80={t80} t1440={t1440}");
        // The 18x bigger cluster wins by roughly an order of magnitude
        // (Fig 15a shape), not the full 18x (Amdahl + startup).
        let ratio = t80 / t1440;
        assert!((5.0..18.0).contains(&ratio), "ratio {ratio}");
        // Amdahl ceiling: speedup cannot exceed 1/serial_fraction.
        assert!(ClusterModel::voigt_1440().speedup(n, per_peak) < 1.0 / 5e-4);
        assert!(ClusterModel::voigt_80().speedup(n, per_peak) > 30.0);
    }

    #[test]
    fn cluster_startup_dominates_tiny_jobs() {
        let m = ClusterModel::voigt_1440();
        let t_small = m.labeling_secs(10, 0.001);
        assert!(t_small >= m.startup_secs);
    }

    #[test]
    #[should_panic(expected = "size²")]
    fn fit_rejects_wrong_pixel_count() {
        fit_peak(&[0.0; 10], 15, &FitConfig::QUICK);
    }
}
