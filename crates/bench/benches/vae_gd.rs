//! Batched vs per-start multi-start gradient descent — the `vae_gd` and
//! `gd` hot paths, where every descent step differentiates the predictor
//! heads (latent space for `vae_gd`, input space for `gd`).
//!
//! Uses a freshly initialized paper-config model (dz = 4) and `[64, 32]`
//! input-space predictors (as the campaign and `fig12` train): the graph
//! work per step is identical to trained networks', and no scheduler is
//! needed because only the descent itself is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vaesa::{EdpGradBatch, InputPredictors, VaesaConfig, VaesaModel, HW_FEATURES};
use vaesa_dse::{
    BatchDifferentiableObjective, BoxSpace, FnBatchDifferentiable, FnDifferentiable, GdConfig,
    GdEngine, GradientDescent, Objective, SearchEngine, SearchObjective,
};

const DZ: usize = 4;
const STEPS: usize = 10;

fn bench_multi_start_gd(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    let layer = [0.5; 8];
    let space = BoxSpace::symmetric(DZ, 3.0);
    let driver = GradientDescent::new(
        space.clone(),
        GdConfig {
            steps: STEPS,
            ..GdConfig::default()
        },
    );
    for batch in [16usize, 64] {
        let starts: Vec<Vec<f64>> = (0..batch).map(|_| space.sample(&mut rng)).collect();
        c.bench_function(&format!("vae_gd/gd_step_per_start_b{batch}"), |b| {
            b.iter(|| {
                let mut total = 0.0;
                for start in &starts {
                    let mut objective = FnDifferentiable::new(DZ, |z: &[f64]| {
                        model.predicted_edp_grad(z, &layer, 1.0, 1.0)
                    });
                    total += driver.run(&mut objective, start).final_value();
                }
                black_box(total)
            })
        });
        c.bench_function(&format!("vae_gd/gd_step_batch_b{batch}"), |b| {
            b.iter(|| {
                let mut scratch = EdpGradBatch::default();
                let mut objective = FnBatchDifferentiable::new(DZ, |xs: &[f64], n: usize| {
                    model.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                });
                let paths = driver.run_batch(&mut objective, &starts);
                black_box(paths.iter().map(|p| p.final_value()).sum::<f64>())
            })
        });
        // Same batched descent, but entered through the SearchEngine trait
        // (as `DseDriver` does) — measures the unified driver's overhead on
        // top of the raw `run_batch` call above.
        let engine = GdEngine {
            config: GdConfig {
                steps: STEPS,
                ..GdConfig::default()
            },
        };
        c.bench_function(&format!("vae_gd/gd_step_engine_b{batch}"), |b| {
            b.iter(|| {
                let mut scratch = EdpGradBatch::default();
                let mut objective = ProxyOnly {
                    proxy: FnBatchDifferentiable::new(DZ, |xs: &[f64], n: usize| {
                        model.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                    }),
                };
                let mut rng = ChaCha8Rng::seed_from_u64(9 + batch as u64);
                let trace = engine.run(&space, &mut objective, batch, &mut rng);
                black_box(trace.best_value())
            })
        });
        // The identical engine-driven descent with the process-global
        // precision flipped to f32, so the predictor-head matmuls inside
        // `predicted_edp_grad_batch` take the SIMD backend; restored to
        // the bit-exact f64 default immediately after.
        vaesa_nn::set_precision(vaesa_nn::Precision::F32);
        c.bench_function(&format!("vae_gd/gd_step_engine_f32_b{batch}"), |b| {
            b.iter(|| {
                let mut scratch = EdpGradBatch::default();
                let mut objective = ProxyOnly {
                    proxy: FnBatchDifferentiable::new(DZ, |xs: &[f64], n: usize| {
                        model.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                    }),
                };
                let mut rng = ChaCha8Rng::seed_from_u64(9 + batch as u64);
                let trace = engine.run(&space, &mut objective, batch, &mut rng);
                black_box(trace.best_value())
            })
        });
        vaesa_nn::set_precision(vaesa_nn::Precision::F64);
    }
}

/// The `gd` baseline's descent over the input box: per-start descents
/// against the engine-driven batched proxy (as `DseDriver` runs it).
fn bench_input_space_gd(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let preds = InputPredictors::new(&[64, 32], &mut rng);
    let layer = [0.5; 8];
    let space = BoxSpace::unit(HW_FEATURES);
    let config = GdConfig {
        steps: STEPS,
        ..GdConfig::default()
    };
    let driver = GradientDescent::new(space.clone(), config);
    let batch = 16usize;
    let starts: Vec<Vec<f64>> = (0..batch).map(|_| space.sample(&mut rng)).collect();
    c.bench_function(&format!("vae_gd/gd_input_step_per_start_b{batch}"), |b| {
        b.iter(|| {
            let mut total = 0.0;
            for start in &starts {
                let mut objective = FnDifferentiable::new(HW_FEATURES, |x: &[f64]| {
                    preds.predicted_edp_grad(x, &layer, 1.0, 1.0)
                });
                total += driver.run(&mut objective, start).final_value();
            }
            black_box(total)
        })
    });
    let engine = GdEngine { config };
    c.bench_function(&format!("vae_gd/gd_input_step_engine_b{batch}"), |b| {
        b.iter(|| {
            let mut scratch = EdpGradBatch::default();
            let mut objective = ProxyOnly {
                proxy: FnBatchDifferentiable::new(HW_FEATURES, |xs: &[f64], n: usize| {
                    preds.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                }),
            };
            let mut rng = ChaCha8Rng::seed_from_u64(11 + batch as u64);
            let trace = engine.run(&space, &mut objective, batch, &mut rng);
            black_box(trace.best_value())
        })
    });
}

/// A [`SearchObjective`] whose final-point scoring reuses the proxy's value
/// — isolates the engine/trace plumbing from any evaluator cost.
struct ProxyOnly<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> {
    proxy: FnBatchDifferentiable<F>,
}

impl<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> Objective for ProxyOnly<F> {
    fn dim(&self) -> usize {
        self.proxy.dim()
    }

    fn evaluate(&mut self, x: &[f64]) -> Option<f64> {
        let (values, _) = self.proxy.evaluate_with_grad_batch(x, 1);
        Some(values[0])
    }
}

impl<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> SearchObjective for ProxyOnly<F> {
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Option<f64>> {
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let (values, _) = self.proxy.evaluate_with_grad_batch(&flat, xs.len());
        values.into_iter().map(Some).collect()
    }

    fn proxy(&mut self) -> Option<&mut dyn BatchDifferentiableObjective> {
        Some(&mut self.proxy)
    }
}

criterion_group!(benches, bench_multi_start_gd, bench_input_space_gd);
criterion_main!(benches);
