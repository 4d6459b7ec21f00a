//! Layer microbenchmarks, run after the timed part of a traced run on the
//! workload's own inputs: its labeled (design, layer) pairs, its trained
//! model and its search points.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vaesa::flows::{decode_to_configs, latent_box, HardwareEvaluator};
use vaesa::{Dataset, VaesaModel};
use vaesa_accel::{ArchDescription, DesignSpace, LayerShape};
use vaesa_cosa::{CachedScheduler, Scheduler};
use vaesa_dse::{BoxSpace, GpRegressor};
use vaesa_nn::Tensor;

use crate::campaign::{CampaignRun, Method};
use crate::report::Outcome;
use crate::stats;

/// Pairs sampled from the workload's labeled records.
const PAIRS: usize = 48;
/// Rows of the batched model calls.
const BATCH: usize = 16;
/// Candidates one BO proposal scores (the default EI pool: 256 random +
/// 64 local).
const EI_POOL: usize = 320;

/// The workload state a microbenchmark samples.
pub struct Inputs<'a> {
    /// The labeled dataset.
    pub dataset: &'a Dataset,
    /// The layers the dataset was built over.
    pub pool: &'a [LayerShape],
    /// The trained model.
    pub model: &'a VaesaModel,
    /// Points and values of a GP fit the workload makes.
    pub gp_xs: Vec<Vec<f64>>,
    /// Values at `gp_xs`.
    pub gp_ys: Vec<f64>,
    /// Sampling seed.
    pub seed: u64,
}

/// Samples the campaign's layers: the pairs come from its dataset, the GP
/// points from its `vae_bo` search.
pub fn campaign(run: &CampaignRun, seed: u64, outcome: &mut Outcome) {
    let pool = vaesa_accel::workloads::training_layers();
    let (mut gp_xs, mut gp_ys) = (Vec::new(), Vec::new());
    if let Some(s) = run.searches.iter().find(|s| s.plan.method == Method::VaeBo) {
        for sample in s.trace.samples() {
            if let Some(v) = sample.value {
                gp_xs.push(sample.x.clone());
                gp_ys.push(v);
            }
        }
    }
    sample(
        &Inputs {
            dataset: &run.state.dataset,
            pool: &pool,
            model: &run.state.model,
            gp_xs,
            gp_ys,
            seed,
        },
        outcome,
    );
}

/// Median over rounds of the time per operation, in nanoseconds. `f` does
/// some work and returns how many operations it did; each round repeats it
/// for at least `round`.
fn ns_per_op(round: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let mut per_op = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut ops = 0;
        while ops == 0 || t0.elapsed() < round {
            ops += f();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&per_op)
}

/// Runs every microbenchmark on `inputs` and records the layer metrics.
pub fn sample(inputs: &Inputs<'_>, outcome: &mut Outcome) {
    let space = DesignSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(inputs.seed ^ 0x006d_6963_726f);
    let records = &inputs.dataset.records;
    let mut pairs: Vec<(ArchDescription, LayerShape)> = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let r = &records[rng.gen_range(0..records.len())];
        if let Some(layer) = inputs.pool.iter().find(|l| l.features() == r.layer_raw) {
            pairs.push((space.describe(&r.config), layer.clone()));
        }
    }
    if pairs.is_empty() {
        outcome.check(Err("no labeled pair matches the layer pool".into()));
        return;
    }
    let scheduler = Scheduler::default();
    let triples: Vec<_> = pairs
        .iter()
        .filter_map(|(a, l)| scheduler.schedule(a, l).ok().map(|s| (a, l, s.mapping)))
        .collect();
    let round = Duration::from_millis(40);
    let l = &mut outcome.layer;

    let model = scheduler.model();
    l.insert(
        "timeloop.evaluate_ns",
        ns_per_op(round, || {
            for (a, layer, m) in &triples {
                let _ = black_box(model.evaluate(a, layer, m));
            }
            triples.len()
        }),
    );
    l.insert(
        "cosa.schedule_miss_us",
        ns_per_op(round, || {
            for (a, layer) in &pairs {
                let _ = black_box(scheduler.schedule(a, layer));
            }
            pairs.len()
        }) / 1e3,
    );
    let cached = CachedScheduler::default();
    for (a, layer) in &pairs {
        let _ = cached.schedule(a, layer);
    }
    l.insert(
        "cosa.schedule_hit_ns",
        ns_per_op(round, || {
            for (a, layer) in &pairs {
                let _ = black_box(cached.schedule(a, layer));
            }
            pairs.len()
        }),
    );

    let model = inputs.model;
    let dataset = inputs.dataset;
    let lbox = latent_box(model, dataset);
    let zs: Vec<Vec<f64>> = (0..EI_POOL).map(|_| lbox.sample(&mut rng)).collect();
    let z16 = &zs[..BATCH];
    let unused = CachedScheduler::default();
    let ev = HardwareEvaluator::new(&space, &unused, inputs.pool);
    l.insert(
        "vaesa.decode_us",
        ns_per_op(round, || {
            black_box(decode_to_configs(model, z16, &dataset.hw_norm, &ev));
            BATCH
        }) / 1e3,
    );
    let rows: Vec<&[f64]> = (0..BATCH)
        .map(|r| dataset.hw.row(r % dataset.hw.rows()))
        .collect();
    let hw16 = Tensor::from_rows(&rows);
    l.insert(
        "nn.encode_mean_us.b16",
        ns_per_op(round, || {
            black_box(model.encode_mean(&hw16));
            1
        }) / 1e3,
    );
    let zt = model.encode_mean(&hw16);
    let lrows: Vec<&[f64]> = (0..BATCH)
        .map(|r| dataset.layers.row(r % dataset.layers.rows()))
        .collect();
    let layer16 = Tensor::from_rows(&lrows);
    l.insert(
        "nn.predict_us.b16",
        ns_per_op(round, || {
            black_box(model.predict(&zt, &layer16));
            1
        }) / 1e3,
    );

    match GpRegressor::fit(&inputs.gp_xs, &inputs.gp_ys) {
        Ok(gp) => {
            let fit_ms = ns_per_op(round, || {
                black_box(GpRegressor::fit(&inputs.gp_xs, &inputs.gp_ys).ok());
                1
            }) / 1e6;
            l.insert("dse.gp_fit_ms", fit_ms);
            let dim = inputs.gp_xs[0].len();
            let query: Vec<Vec<f64>> = if dim == model.latent_dim() {
                zs.clone()
            } else {
                (0..EI_POOL)
                    .map(|_| BoxSpace::unit(dim).sample(&mut rng))
                    .collect()
            };
            l.insert(
                "dse.gp_predict_batch_us.pool",
                ns_per_op(round, || {
                    black_box(gp.predict_batch(&query));
                    1
                }) / 1e3,
            );
            l.insert(
                "dse.gp_predict_batch_us.b16",
                ns_per_op(round, || {
                    black_box(gp.predict_batch(&query[..BATCH]));
                    1
                }) / 1e3,
            );
        }
        Err(e) => outcome.check(Err(format!("GP fit on the workload's points: {e}"))),
    }
}
