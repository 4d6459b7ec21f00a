//! Tolerance-gated f32-vs-f64 equivalence for the end-to-end model paths
//! the precision mode reroutes: training losses and gradients, batched EDP
//! proxy predictions, and the end-of-search best value of a gradient
//! descent over the predictor heads.
//!
//! Every test flips the process-global precision, so they all serialize on
//! one mutex and restore f64 on drop (panic included). The tolerances here
//! are the documented contract of `VAESA_PRECISION=f32` (see the
//! "Precision policy" section of DESIGN.md): they are roughly 10x the
//! worst drift observed on the AVX-512 container this suite was tuned on,
//! leaving headroom for other SIMD tiers whose rounding differs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard};
use vaesa::{EdpGradBatch, InputPredictors, VaesaConfig, VaesaModel, HW_FEATURES};
use vaesa_dse::{BoxSpace, FnBatchDifferentiable, GdConfig, GradientDescent};
use vaesa_nn::{randn, set_precision, Graph, Precision};

static PRECISION_LOCK: Mutex<()> = Mutex::new(());

/// Holds the suite mutex with the global mode at the given precision;
/// restores f64 when dropped.
struct PrecisionGuard<'a> {
    _lock: MutexGuard<'a, ()>,
}

impl PrecisionGuard<'_> {
    fn lock() -> Self {
        let lock = PRECISION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_precision(Precision::F64);
        PrecisionGuard { _lock: lock }
    }
}

impl Drop for PrecisionGuard<'_> {
    fn drop(&mut self) {
        set_precision(Precision::F64);
    }
}

fn paper_model(seed: u64) -> VaesaModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    VaesaModel::new(VaesaConfig::paper(), &mut rng)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Training losses (total, recon, KLD, latency, energy) computed with the
/// f32 backend stay within 1e-3 of the f64 reference, and the input
/// gradients the VAE trains on stay within 1e-3 element-wise.
#[test]
fn train_step_losses_and_gradients_track_f64() {
    let _mode = PrecisionGuard::lock();
    let model = paper_model(17);
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let batch = 64;
    let dz = model.latent_dim();
    let hw = randn(batch, 6, &mut rng);
    let layer = randn(batch, 8, &mut rng);
    let eps = randn(batch, dz, &mut rng);
    let lat = randn(batch, 1, &mut rng);
    let en = randn(batch, 1, &mut rng);

    let run = |model: &VaesaModel| {
        let mut g = Graph::new();
        let step = model.train_step(
            &mut g,
            hw.clone(),
            layer.clone(),
            eps.clone(),
            lat.clone(),
            en.clone(),
        );
        let losses = [
            g.value(step.total).get(0, 0),
            g.value(step.recon).get(0, 0),
            g.value(step.kld).get(0, 0),
            g.value(step.latency).get(0, 0),
            g.value(step.energy).get(0, 0),
        ];
        g.backward(step.total);
        let hw_grad = g
            .grad(step.input_leaves[0])
            .expect("hw leaf receives a gradient")
            .clone()
            .into_vec();
        (losses, hw_grad)
    };

    let (losses64, grad64) = run(&model);
    set_precision(Precision::F32);
    let (losses32, grad32) = run(&model);

    for (name, (l64, l32)) in ["total", "recon", "kld", "latency", "energy"]
        .iter()
        .zip(losses64.iter().zip(&losses32))
    {
        assert!(
            (l64 - l32).abs() <= 1e-3 * (1.0 + l64.abs()),
            "{name} loss drift: f64 {l64} vs f32 {l32}"
        );
    }
    let worst = max_abs_diff(&grad64, &grad32);
    assert!(worst <= 1e-3, "input-gradient drift {worst} exceeds 1e-3");
}

/// Batched EDP proxy values and input gradients under f32 stay within 1e-3
/// of the f64 reference (relative on values, absolute on gradients — the
/// gradient magnitudes are O(1) for the paper config), for both the latent
/// `vae_gd` proxy and the input-space `gd` proxy.
#[test]
fn edp_proxy_predictions_track_f64() {
    let _mode = PrecisionGuard::lock();
    let model = paper_model(23);
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let preds = InputPredictors::new(&[64, 32], &mut rng);
    let batch = 64;
    let layer = [0.4; 8];
    assert_proxy_tracks_f64("vae_gd", batch * model.latent_dim(), |xs, scratch| {
        model.predicted_edp_grad_batch(xs, batch, &layer, 1.0, 1.0, scratch)
    });
    assert_proxy_tracks_f64("gd", batch * HW_FEATURES, |xs, scratch| {
        preds.predicted_edp_grad_batch(xs, batch, &layer, 1.0, 1.0, scratch)
    });
}

/// Runs `proxy` on `len` deterministic inputs in f64 and then in f32 and
/// checks the documented value/gradient tolerances.
fn assert_proxy_tracks_f64(
    name: &str,
    len: usize,
    proxy: impl Fn(&[f64], &mut EdpGradBatch) -> (Vec<f64>, Vec<f64>),
) {
    let xs: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut scratch = EdpGradBatch::default();
    set_precision(Precision::F64);
    let (v64, g64) = proxy(&xs, &mut scratch);
    set_precision(Precision::F32);
    let (v32, g32) = proxy(&xs, &mut scratch);

    for (r, (a, b)) in v64.iter().zip(&v32).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3 * (1.0 + a.abs()),
            "{name} proxy value row {r}: f64 {a} vs f32 {b}"
        );
    }
    let worst = max_abs_diff(&g64, &g32);
    assert!(
        worst <= 1e-3,
        "{name} proxy gradient drift {worst} exceeds 1e-3"
    );
}

/// A full latent-space descent (the `vae_gd` loop) run in f32 mode lands
/// within 1e-2 relative of the f64 end-of-search best value. The paths are
/// not required to match step-for-step — rounding differences can steer
/// slightly different trajectories — only the search outcome is gated.
#[test]
fn end_of_search_best_edp_tracks_f64() {
    let _mode = PrecisionGuard::lock();
    let model = paper_model(29);
    let dz = model.latent_dim();
    let layer = [0.4; 8];
    let starts: Vec<Vec<f64>> = (0..8)
        .map(|r| {
            (0..dz)
                .map(|d| ((r * dz + d) as f64 * 0.61).cos())
                .collect()
        })
        .collect();

    let run_search = |model: &VaesaModel| {
        let mut scratch = EdpGradBatch::default();
        let mut objective = FnBatchDifferentiable::new(dz, |xs: &[f64], batch: usize| {
            model.predicted_edp_grad_batch(xs, batch, &layer, 1.0, 1.0, &mut scratch)
        });
        let gd = GradientDescent::new(
            BoxSpace::symmetric(dz, 2.0),
            GdConfig {
                steps: 30,
                ..GdConfig::default()
            },
        );
        let paths = gd.run_batch(&mut objective, &starts);
        paths
            .iter()
            .map(|p| p.final_value())
            .fold(f64::INFINITY, f64::min)
    };

    let best64 = run_search(&model);
    set_precision(Precision::F32);
    let best32 = run_search(&model);

    assert!(
        (best64 - best32).abs() <= 1e-2 * (1.0 + best64.abs()),
        "end-of-search best: f64 {best64} vs f32 {best32}"
    );
}
