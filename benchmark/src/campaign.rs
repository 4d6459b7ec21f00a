//! The `campaign_cold` and `campaign_warm` workloads: the paper's Fig. 11
//! and Fig. 12 campaign, made with the library calls those pipelines make.
//!
//! One campaign opens a persistent eval cache, builds the Table III
//! dataset, trains the VAE and the input-space predictors (the set-up),
//! then runs `random`, `bo` and `vae_bo` on one network and `vae_gd`, `gd`
//! and `random` on a fixed subset of the Table IV unseen layers (the
//! search phase). Every search is then checked: it spent exactly its
//! budget, and its best design re-scored by a fresh uncached scheduler
//! gives a bit-equal EDP.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vaesa::flows::{self, decode_to_config, HardwareEvaluator};
use vaesa::{
    Dataset, DatasetBuilder, InputPredictors, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_accel::{workloads, DesignSpace, LayerShape, Network};
use vaesa_cosa::{CacheStats, CachedScheduler, PersistStats, Scheduler};
use vaesa_dse::{GdConfig, Trace};

use crate::hostspeed::Probe;
use crate::report::Outcome;
use crate::trace::{Span, SpanRec, Tracer};
use crate::{micro, stats, Args};

/// Random design points in the Table III dataset (plus the 2-per-axis grid).
pub const N_CONFIGS: usize = 60;
/// Training epochs for the VAE and for the input-space predictors.
pub const EPOCHS: usize = 10;
/// The Fig. 11 network every network search optimizes.
pub const NETWORK: Network = Network::AlexNet;
/// Repeats of the network searches, each with its own seeds (as Fig. 11).
pub const NETWORK_REPEATS: usize = 2;
/// True evaluations per network search.
pub const NETWORK_BUDGET: usize = 120;
/// The Fig. 12 unseen layers searched (Table IV names).
pub const GD_LAYERS: [&str; 4] = ["t02", "t04", "t06", "t11"];
/// True evaluations per layer search.
pub const GD_SAMPLES: usize = 20;
/// Worker threads of the timed campaigns. On a 2-vCPU host two workers
/// made campaigns no faster (641 against 675 evaluations/s) and nearly
/// doubled the run-to-run spread of every timing (IQR/median 0.08–0.13 against
/// 0.05–0.07 over five interleaved seeds).
pub const CAMPAIGN_THREADS: &str = "1";
/// Campaign plans per run: campaign `i` of a run follows plan
/// `i % PLANS`, each drawn from the benchmark seed. The cost of an
/// evaluation depends on the designs a plan's searches visit (over ten
/// seeds the two slowest runs were the two whose searches did worst), so
/// a run's median over several plans moves less with the seed than one
/// plan's would.
pub const PLANS: usize = 4;

/// A search flow of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `flows::run_random` on the network.
    Random,
    /// `flows::run_bo` on the network.
    Bo,
    /// `flows::run_vae_bo` on the network.
    VaeBo,
    /// `flows::run_vae_gd` on one layer.
    VaeGd,
    /// `flows::run_gd` on one layer.
    Gd,
    /// `flows::run_random_layer` on one layer.
    RandomLayer,
}

impl Method {
    /// The span name of one call.
    pub fn span(self) -> &'static str {
        match self {
            Method::Random | Method::RandomLayer => "vaesa.search.random",
            Method::Bo => "vaesa.search.bo",
            Method::VaeBo => "vaesa.search.vae_bo",
            Method::VaeGd => "vaesa.search.vae_gd",
            Method::Gd => "vaesa.search.gd",
        }
    }

    /// The layer metric of its calls' median wall time.
    pub fn metric(self) -> &'static str {
        match self {
            Method::Random | Method::RandomLayer => "vaesa.search_s.random",
            Method::Bo => "vaesa.search_s.bo",
            Method::VaeBo => "vaesa.search_s.vae_bo",
            Method::VaeGd => "vaesa.search_s.vae_gd",
            Method::Gd => "vaesa.search_s.gd",
        }
    }

    fn latent(self) -> bool {
        matches!(self, Method::VaeBo | Method::VaeGd)
    }
}

/// One search of the campaign: its flow, its target (`None` = the network,
/// `Some(i)` = `GD_LAYERS[i]`), its baseline group, its budget and its RNG
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchPlan {
    /// Flow.
    pub method: Method,
    /// Target.
    pub layer: Option<usize>,
    /// Searches of one group are judged against the group's random search.
    pub group: usize,
    /// True evaluations.
    pub budget: usize,
    /// Seed of the flow's RNG.
    pub rng_seed: u64,
}

/// Everything a campaign takes as input, derived from the benchmark seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The benchmark seed.
    pub seed: u64,
    /// Dataset sampling seed.
    pub dataset_seed: u64,
    /// VAE initialisation and training seed.
    pub vae_seed: u64,
    /// Input-predictor initialisation and training seed.
    pub preds_seed: u64,
    /// The searches, in run order; within each target the random
    /// baseline comes first.
    pub searches: Vec<SearchPlan>,
}

impl Plan {
    /// The [`PLANS`] campaigns of benchmark seed `seed`.
    pub fn for_seed(seed: u64) -> Vec<Plan> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..PLANS).map(|_| Plan::new(rng.next_u64())).collect()
    }

    /// The campaign of seed `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut searches = Vec::new();
        for group in 0..NETWORK_REPEATS {
            for method in [Method::Random, Method::Bo, Method::VaeBo] {
                searches.push(SearchPlan {
                    method,
                    layer: None,
                    group,
                    budget: NETWORK_BUDGET,
                    rng_seed: rng.next_u64(),
                });
            }
        }
        for layer in 0..GD_LAYERS.len() {
            for method in [Method::RandomLayer, Method::VaeGd, Method::Gd] {
                searches.push(SearchPlan {
                    method,
                    layer: Some(layer),
                    group: NETWORK_REPEATS + layer,
                    budget: GD_SAMPLES,
                    rng_seed: rng.next_u64(),
                });
            }
        }
        Plan {
            seed,
            dataset_seed: rng.next_u64(),
            vae_seed: rng.next_u64(),
            preds_seed: rng.next_u64(),
            searches,
        }
    }
}

/// The Table IV layers the campaign searches.
pub fn gd_layers() -> Vec<LayerShape> {
    let all = workloads::gd_test_layers();
    GD_LAYERS
        .iter()
        .map(|name| {
            all.iter()
                .find(|l| l.name() == *name)
                .cloned()
                .expect("GD_LAYERS names Table IV layers")
        })
        .collect()
}

/// One finished search.
#[derive(Debug, Clone)]
pub struct SearchRun {
    /// What ran.
    pub plan: SearchPlan,
    /// Wall time of the flow call.
    pub wall: Duration,
    /// Its trace.
    pub trace: Trace,
}

/// Scheduler counters between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsDelta {
    /// Memo hits.
    pub hits: u64,
    /// Memo misses.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
}

/// The layer metrics of the set-up phase's scheduler counters.
pub const SETUP_STATS: [&str; 4] = [
    "cosa.setup.hits",
    "cosa.setup.misses",
    "cosa.setup.hit_ratio",
    "cosa.setup.evictions",
];
/// The layer metrics of the search phase's scheduler counters.
pub const SEARCH_STATS: [&str; 4] = [
    "cosa.search.hits",
    "cosa.search.misses",
    "cosa.search.hit_ratio",
    "cosa.search.evictions",
];

impl StatsDelta {
    /// Writes hits, misses, hit ratio and evictions under `names`.
    pub fn record(&self, names: [&'static str; 4], layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert(names[0], self.hits as f64);
        layer.insert(names[1], self.misses as f64);
        layer.insert(names[2], self.hit_ratio());
        layer.insert(names[3], self.evictions as f64);
    }

    /// `after - before`.
    pub fn between(before: CacheStats, after: CacheStats) -> Self {
        StatsDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        }
    }

    /// Hits over lookups (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What one campaign measured and found.
#[derive(Debug)]
pub struct CampaignRun {
    /// `CachedScheduler::with_persistence`.
    pub open: Duration,
    /// `DatasetBuilder::build`.
    pub dataset: Duration,
    /// `Trainer::train_vae` plus the input-predictor training.
    pub train: Duration,
    /// Open + dataset + training.
    pub setup: Duration,
    /// Every search call plus the log flush.
    pub search_phase: Duration,
    /// Host-speed factor of the campaign (see [`Probe::take_scale`]).
    pub scale: f64,
    /// `CachedScheduler::flush_persistent`.
    pub flush: Duration,
    /// Every search, in plan order.
    pub searches: Vec<SearchRun>,
    /// Scheduler counters over the set-up.
    pub setup_stats: StatsDelta,
    /// Scheduler counters over the search phase.
    pub search_stats: StatsDelta,
    /// The persistent layer's counters at the end.
    pub persist: PersistStats,
    /// Digest over every search's length and best value.
    pub digest: u64,
    /// Geometric mean of best EDP over the random baseline's, per target.
    pub best_edp_ratio: f64,
    /// Check failures, one message each.
    pub failures: Vec<String>,
    /// The trained state, kept for the layer microbenchmarks.
    pub state: CampaignState,
}

/// The campaign's trained state.
#[derive(Debug)]
pub struct CampaignState {
    /// The labeled dataset.
    pub dataset: Dataset,
    /// The trained VAE.
    pub model: VaesaModel,
}

impl CampaignRun {
    /// True evaluations spent by all searches.
    pub fn evals(&self) -> usize {
        self.searches.iter().map(|s| s.trace.len()).sum()
    }
}

/// Runs one campaign of `plan` against the eval cache in `cache_dir`,
/// recording spans under trace id `trace_id` and sampling `probe` between
/// its calls.
///
/// # Errors
///
/// Fails when the cache directory cannot be opened.
pub fn run(
    plan: &Plan,
    cache_dir: &Path,
    tracer: &Tracer,
    trace_id: u64,
    probe: &mut Probe,
) -> Result<CampaignRun, String> {
    let root = tracer.root("campaign", trace_id);
    let space = DesignSpace::paper();
    let network = NETWORK.layers();
    let layers = gd_layers();

    // The host-speed probe runs between calls, outside their timings.
    sample(&root, probe);
    let span = root.child("cosa.open");
    let scheduler = CachedScheduler::with_persistence(
        Scheduler::default(),
        CachedScheduler::DEFAULT_CAPACITY,
        cache_dir,
    )
    .map_err(|e| format!("opening the eval cache in {}: {e}", cache_dir.display()))?;
    let open = span.end();
    let at_open = scheduler.cache_stats();
    sample(&root, probe);

    let span = root.child("vaesa.dataset");
    let dataset = DatasetBuilder::new(&space, workloads::training_layers())
        .random_configs(N_CONFIGS)
        .grid_per_axis(2)
        .build(
            &scheduler,
            &mut ChaCha8Rng::seed_from_u64(plan.dataset_seed),
        );
    let dataset_time = span.end();
    sample(&root, probe);

    let span = root.child("vaesa.train");
    let trainer = Trainer::new(TrainConfig {
        epochs: EPOCHS,
        batch_size: 64,
        learning_rate: 1e-3,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(plan.vae_seed);
    let mut model = VaesaModel::new(
        VaesaConfig::paper().with_latent_dim(4).with_alpha(1e-4),
        &mut rng,
    );
    trainer.train_vae(&mut model, &dataset, &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(plan.preds_seed);
    let mut preds = InputPredictors::new(&[64, 32], &mut rng);
    preds.train(&trainer, &dataset, &mut rng);
    let train = span.end();
    let setup = open + dataset_time + train;
    let at_setup = scheduler.cache_stats();
    sample(&root, probe);

    let gd = GdConfig::default();
    let mut searches = Vec::with_capacity(plan.searches.len());
    for sp in &plan.searches {
        let targets: &[LayerShape] = match sp.layer {
            None => &network,
            Some(i) => std::slice::from_ref(&layers[i]),
        };
        let ev = HardwareEvaluator::new(&space, &scheduler, targets);
        let mut rng = ChaCha8Rng::seed_from_u64(sp.rng_seed);
        let span = root.child(sp.method.span());
        let trace = match sp.method {
            Method::Random => flows::run_random(&ev, &dataset.hw_norm, sp.budget, &mut rng),
            Method::Bo => flows::run_bo(&ev, &dataset.hw_norm, sp.budget, &mut rng),
            Method::VaeBo => flows::run_vae_bo(&ev, &model, &dataset, sp.budget, &mut rng),
            Method::VaeGd => {
                flows::run_vae_gd(&ev, &model, &dataset, &targets[0], sp.budget, gd, &mut rng)
            }
            Method::Gd => {
                flows::run_gd(&ev, &preds, &dataset, &targets[0], sp.budget, gd, &mut rng)
            }
            Method::RandomLayer => {
                flows::run_random_layer(&ev, &dataset.hw_norm, sp.budget, &mut rng)
            }
        };
        searches.push(SearchRun {
            plan: *sp,
            wall: span.end(),
            trace,
        });
        sample(&root, probe);
    }
    let span = root.child("cosa.flush");
    let flushed = scheduler.flush_persistent();
    let flush = span.end();
    sample(&root, probe);
    let scale = probe.take_scale();
    let search_phase = searches.iter().map(|s| s.wall).sum::<Duration>() + flush;
    let at_search = scheduler.cache_stats();
    drop(root);

    // The checks are the benchmark's work, not the campaign's: they get a
    // root of their own, outside the campaign's wall time.
    let mut failures = Vec::new();
    if let Err(e) = flushed {
        failures.push(format!("flushing the eval cache: {e}"));
    }
    let check = tracer.root("bench.check", trace_id);
    for s in &searches {
        let targets: &[LayerShape] = match s.plan.layer {
            None => &network,
            Some(i) => std::slice::from_ref(&layers[i]),
        };
        if let Err(e) = check_search(s, &space, targets, &dataset, &model) {
            failures.push(e);
        }
    }
    drop(check);

    let persist = scheduler
        .persist_stats()
        .expect("the campaign scheduler is persistent");
    let digest = result_digest(&searches);
    let best_edp_ratio = best_edp_ratio(&searches);
    Ok(CampaignRun {
        open,
        dataset: dataset_time,
        train,
        setup,
        search_phase,
        scale,
        flush,
        searches,
        setup_stats: StatsDelta::between(at_open, at_setup),
        search_stats: StatsDelta::between(at_setup, at_search),
        persist,
        digest,
        best_edp_ratio,
        failures,
        state: CampaignState { dataset, model },
    })
}

/// Takes one host-speed sample in a span of its own under `root`.
fn sample(root: &Span<'_>, probe: &mut Probe) {
    let _span = root.child("bench.probe");
    probe.sample();
}

/// Checks one search: it spent exactly its budget, found a valid design,
/// and that design re-scored by a fresh uncached scheduler gives a
/// bit-equal EDP.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check_search(
    s: &SearchRun,
    space: &DesignSpace,
    targets: &[LayerShape],
    dataset: &Dataset,
    model: &VaesaModel,
) -> Result<(), String> {
    let what = format!("{} (seed {:#x})", s.trace.label(), s.plan.rng_seed);
    if s.trace.len() != s.plan.budget {
        return Err(format!(
            "{what} spent {} of budget {}",
            s.trace.len(),
            s.plan.budget
        ));
    }
    let (Some(best), Some(point)) = (s.trace.best_value(), s.trace.best_point()) else {
        return Err(format!("{what} found no valid design"));
    };
    // Snapping and decoding never touch the scheduler; this one stays empty.
    let unused = CachedScheduler::default();
    let ev = HardwareEvaluator::new(space, &unused, targets);
    let config = if s.plan.method.latent() {
        decode_to_config(model, point, &dataset.hw_norm, &ev)
    } else {
        ev.snap(point, &dataset.hw_norm)
    };
    let rescored = Scheduler::default()
        .schedule_workload(&space.describe(&config), targets)
        .map(|w| w.edp())
        .map_err(|e| format!("{what}: best design no longer schedules: {e}"))?;
    check_rescore(&what, best, rescored)
}

/// A search's best EDP must equal its fresh re-score bit for bit.
///
/// # Errors
///
/// Names both values when they differ.
pub fn check_rescore(what: &str, best: f64, rescored: f64) -> Result<(), String> {
    if best.to_bits() == rescored.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: best EDP {best:e} re-scores to {rescored:e}"
        ))
    }
}

/// The digests of two campaigns of one seed must be equal.
///
/// # Errors
///
/// Names both digests when they differ.
pub fn check_digest(what: &str, expected: u64, actual: u64) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!(
            "{what}: result digest {actual:016x}, expected {expected:016x}"
        ))
    }
}

/// Digest over each search's length and best value, in plan order.
pub fn result_digest(searches: &[SearchRun]) -> u64 {
    stats::digest(searches.iter().flat_map(|s| {
        [
            s.trace.len() as u64,
            s.trace.best_value().map_or(u64::MAX, f64::to_bits),
        ]
    }))
}

/// Geometric mean, over every non-random search, of its best EDP divided
/// by the best EDP of the random search of its group (same target, same
/// budget).
pub fn best_edp_ratio(searches: &[SearchRun]) -> f64 {
    let mut ratios = Vec::new();
    for s in searches {
        if matches!(s.plan.method, Method::Random | Method::RandomLayer) {
            continue;
        }
        let baseline = searches.iter().find(|b| {
            b.plan.group == s.plan.group
                && matches!(b.plan.method, Method::Random | Method::RandomLayer)
        });
        if let (Some(v), Some(r)) = (
            s.trace.best_value(),
            baseline.and_then(|b| b.trace.best_value()),
        ) {
            ratios.push(v / r);
        }
    }
    stats::geomean(&ratios)
}

/// Summary of one untraced or traced campaign of a workload run.
struct Iteration {
    traced: bool,
    wall: f64,
    setup: f64,
    search_phase: f64,
    evals: usize,
    /// Mean wall time of one search call, in ms.
    search_mean_ms: f64,
    /// Host-speed factor of the campaign.
    scale: f64,
}

/// Runs `campaign_cold` (`warm = false`) or `campaign_warm` for about
/// `args.seconds` and fills `outcome`; returns the recorded spans.
///
/// Campaigns run on one worker thread ([`CAMPAIGN_THREADS`]) and cycle
/// through the seed's [`PLANS`]. Cold campaigns each start from an empty
/// memo and an empty eval-cache directory. Warm campaigns open their
/// plan's directory, filled first by an untimed cold campaign of that plan
/// in a child process with one worker per CPU; every warm digest must
/// equal the fill's, which also checks that results do not depend on the
/// thread count.
pub fn workload(warm: bool, args: &Args, run_dir: &Path, outcome: &mut Outcome) -> Vec<SpanRec> {
    // No other thread runs yet; the worker pool reads the variable per call.
    std::env::set_var("VAESA_THREADS", CAMPAIGN_THREADS);
    let plans = Plan::for_seed(args.seed);
    let warm_dir = run_dir.join("warm");
    let mut expected = vec![None; PLANS];
    if warm {
        let fill = fill_in_child(&warm_dir, args.seed);
        outcome.check(fill.as_ref().map(|_| ()).map_err(Clone::clone));
        match fill {
            Ok(digests) => expected = digests.into_iter().map(Some).collect(),
            Err(_) => return Vec::new(),
        }
    }
    // The warm-up counts toward `--seconds`, so a run lasts as long as asked.
    let started = Instant::now();
    // An untimed first campaign, without the probe, warms the caches and
    // the allocator. The memory it leaves is what one campaign needs from
    // a fresh process; later campaigns only add allocator growth whose
    // size depends on the threads' timing and on how many fit in the run.
    let dir = if warm {
        plan_dir(&warm_dir, 0)
    } else {
        run_dir.join("cold-warmup")
    };
    match run(
        &plans[0],
        &dir,
        &Tracer::new(false),
        0,
        &mut Probe::disabled(),
    ) {
        Ok(run) => account(outcome, &run, &mut expected[0], "warm-up campaign"),
        Err(e) => {
            outcome.check(Err(e));
            return Vec::new();
        }
    }
    if !warm {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let peak_rss_mb = crate::peak_rss_mb();
    let mut probe = Probe::new();
    let registry = vaesa_obs::global();
    let before = RegistryTotals::read(registry);
    // Every plan runs at least once (traced: once traced, once not), so
    // every plan is in the medians.
    let min_iterations = if args.trace { 2 * PLANS } else { PLANS };
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut spans = Vec::new();
    let mut search_ms = Vec::new();
    let mut by_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let mut edp_ratios = vec![f64::NAN; PLANS];
    // Registry time of the traced campaigns: (nn, dse) nanoseconds.
    let mut traced_ns = (0.0, 0.0);
    while iterations.len() < min_iterations || started.elapsed() < args.seconds {
        let i = iterations.len();
        let k = i % PLANS;
        // Traced runs alternate a traced and an untraced round of every
        // plan, so the tracing overhead is measured within one run on the
        // same campaigns.
        let traced = args.trace && (i / PLANS).is_multiple_of(2);
        let tracer = Tracer::new(traced);
        let dir = if warm {
            plan_dir(&warm_dir, k)
        } else {
            run_dir.join(format!("cold-{i}"))
        };
        let at_start = RegistryTotals::read(registry);
        let t0 = Instant::now();
        let run = match run(&plans[k], &dir, &tracer, i as u64, &mut probe) {
            Ok(run) => run,
            Err(e) => {
                outcome.check(Err(e));
                break;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            let (nn, dse) = RegistryTotals::read(registry).self_ns(&at_start);
            traced_ns.0 += nn;
            traced_ns.1 += dse;
        }
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        for s in &run.searches {
            search_ms.push(s.wall.as_secs_f64() * 1e3);
            by_metric
                .entry(s.plan.method.metric())
                .or_default()
                .push(s.wall.as_secs_f64());
        }
        account(
            outcome,
            &run,
            &mut expected[k],
            &format!("campaign {i} (plan {k})"),
        );
        edp_ratios[k] = run.best_edp_ratio;
        iterations.push(Iteration {
            traced,
            wall,
            setup: run.setup.as_secs_f64(),
            search_phase: run.search_phase.as_secs_f64(),
            evals: run.evals(),
            search_mean_ms: run
                .searches
                .iter()
                .map(|s| s.wall.as_secs_f64())
                .sum::<f64>()
                * 1e3
                / run.searches.len().max(1) as f64,
            scale: run.scale,
        });
        spans.extend(tracer.spans());
        last = Some(run);
    }
    let Some(last) = last else { return spans };
    let untraced: Vec<&Iteration> = iterations.iter().filter(|it| !it.traced).collect();

    let median_of = |f: fn(&Iteration) -> f64| {
        stats::median(&untraced.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let e2e = &mut outcome.e2e;
    // Set-up is wall time as measured. The search and campaign timings
    // are taken at the nominal host speed (see `hostspeed`); the raw
    // figures are printed beside them.
    e2e.insert("setup_s", median_of(|it| it.setup));
    e2e.insert(
        "evals_per_s",
        median_of(|it| it.evals as f64 / (it.search_phase * it.scale)),
    );
    e2e.insert("best_edp_ratio", stats::geomean(&edp_ratios));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    // The search calls of a campaign fall in two clusters (the random
    // searches take milliseconds, the model-guided ones a tenth of a
    // second), and their median sits in the gap between them; the mean
    // call of each campaign does not jump with the seed.
    e2e.insert(
        "search_p50_ms",
        median_of(|it| it.search_mean_ms * it.scale),
    );
    e2e.insert(
        "request_p50_ms",
        median_of(|it| (it.setup + it.search_phase) * it.scale * 1e3),
    );
    outcome.extra(
        "raw.evals_per_s",
        median_of(|it| it.evals as f64 / it.search_phase),
        "1/s",
    );
    outcome.extra("raw.search_p50_ms", median_of(|it| it.search_mean_ms), "ms");
    outcome.extra(
        "raw.request_p50_ms",
        median_of(|it| (it.setup + it.search_phase) * 1e3),
        "ms",
    );
    outcome.extra("host.scale", median_of(|it| it.scale), "ratio");
    outcome.extra("search_call_p50_ms", stats::median(&search_ms), "ms");
    outcome.extra("campaigns", iterations.len() as f64, "count");
    outcome.extra("evals_per_campaign", last.evals() as f64, "count");
    if let Some(t) = stats::tail(&search_ms) {
        outcome.extra(format!("search_p{}_ms (n={})", t.pct, t.n), t.value, "ms");
    }
    let digest = stats::digest(expected.iter().map(|d| d.unwrap_or(u64::MAX)));
    outcome.note("result_digest", format!("{digest:016x}"));

    if args.trace {
        let l = &mut outcome.layer;
        l.insert("cosa.persist.open_s", last.open.as_secs_f64());
        l.insert("cosa.persist.flush_s", last.flush.as_secs_f64());
        l.insert("vaesa.dataset_s", last.dataset.as_secs_f64());
        l.insert("vaesa.train_s", last.train.as_secs_f64());
        last.setup_stats.record(SETUP_STATS, l);
        last.search_stats.record(SEARCH_STATS, l);
        let p = last.persist;
        l.insert("cosa.persist.loaded", p.loaded as f64);
        l.insert("cosa.persist.appends", p.appends as f64);
        l.insert("cosa.persist.warm_hits", p.warm_hits as f64);
        l.insert("cosa.persist.flush_on_evict", p.flush_on_evict as f64);
        for (name, secs) in &by_metric {
            l.insert(name, stats::median(secs));
        }
        let n = iterations.len() as f64;
        RegistryTotals::read(registry).since(&before, n, l);
        let traced: Vec<f64> = iterations
            .iter()
            .filter(|it| it.traced)
            .map(|it| it.wall)
            .collect();
        let plain: Vec<f64> = untraced.iter().map(|it| it.wall).collect();
        l.insert(
            "obs.trace_overhead_pct",
            100.0 * (stats::median(&traced) / stats::median(&plain) - 1.0),
        );
        let roots = iterations.iter().filter(|it| it.traced).count().max(1) as f64;
        let self_time = crate::trace::self_time_by_layer(&spans);
        for (layer, secs) in &self_time {
            outcome.extra(format!("span_self_s.{layer}"), secs / roots, "s");
        }
        // The program's own wall-time aggregates split the vaesa spans:
        // training epochs are nn time, GP fits dse time (both run on the
        // calling thread).
        let span_self = |layer: &str| self_time.get(layer).copied().unwrap_or(0.0) / roots;
        let (nn, dse) = (traced_ns.0 * 1e-9 / roots, traced_ns.1 * 1e-9 / roots);
        let l = &mut outcome.layer;
        l.insert("cosa.self_s", span_self("cosa"));
        l.insert("nn.self_s", nn);
        l.insert("dse.self_s", dse);
        l.insert("vaesa.self_s", span_self("vaesa") - nn - dse);
        let coverage = crate::trace::child_coverage(&spans, "campaign");
        let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
        outcome.extra("span_coverage_min_pct", 100.0 * min_coverage, "%");
        outcome.check(if min_coverage >= 0.9 {
            Ok(())
        } else {
            Err(format!(
                "layer spans cover only {:.1}% of a campaign",
                100.0 * min_coverage
            ))
        });
        micro::campaign(&last, args.seed, outcome);
        // The scheduler's misses run inside the vaesa spans, partly on the
        // worker pool: their cost is an estimate of CPU time, not a share
        // of the wall time, so it is not subtracted above.
        let misses = last.setup_stats.misses + last.search_stats.misses;
        let miss_us = outcome
            .layer
            .get("cosa.schedule_miss_us")
            .copied()
            .unwrap_or(0.0);
        outcome
            .layer
            .insert("cosa.miss_cpu_s", misses as f64 * miss_us * 1e-6);
    }
    spans
}

/// Counts one campaign's operations and its failed checks, and checks its
/// digest against `expected` (the first digest seen, or the fill's).
fn account(outcome: &mut Outcome, run: &CampaignRun, expected: &mut Option<u64>, what: &str) {
    // One operation per search, one for the log flush and one for the
    // digest; the checks of each land on the operation they cover.
    outcome.attempted += run.searches.len() as u64 + 1;
    for f in &run.failures {
        outcome.fail(f.clone());
    }
    let digest = *expected.get_or_insert(run.digest);
    outcome.check(check_digest(what, digest, run.digest));
}

/// The eval-cache directory of plan `k` under `base`.
fn plan_dir(base: &Path, k: usize) -> PathBuf {
    base.join(format!("plan-{k}"))
}

/// Spawns this benchmark as a child that fills the plan directories under
/// `dir` with one cold campaign each, on one worker per CPU; returns the
/// child's result digests in plan order.
fn fill_in_child(dir: &Path, seed: u64) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let out = Command::new(exe)
        .arg("--fill-dir")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .env("VAESA_THREADS", cpus.to_string())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the cold fill: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digests: Vec<u64> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("digest "))
        .filter_map(|h| u64::from_str_radix(h.trim(), 16).ok())
        .collect();
    match (out.status.success(), digests.len() == PLANS) {
        (true, true) => Ok(digests),
        _ => Err(format!(
            "cold fill failed ({}): {}",
            out.status,
            stdout.trim()
        )),
    }
}

/// The child side of [`fill_in_child`]: for each plan of `seed`, one
/// checked cold campaign into its directory under `dir`, then
/// `digest <hex>` on stdout.
pub fn fill(dir: &Path, seed: u64) -> ExitCode {
    for (k, plan) in Plan::for_seed(seed).iter().enumerate() {
        match run(
            plan,
            &plan_dir(dir, k),
            &Tracer::new(false),
            0,
            &mut Probe::disabled(),
        ) {
            Ok(run) if run.failures.is_empty() => println!("digest {:016x}", run.digest),
            Ok(run) => {
                println!("failures: {}", run.failures.join("; "));
                return ExitCode::FAILURE;
            }
            Err(e) => {
                println!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Totals of the aggregates the program publishes in the global
/// registry, read before and after the timed part.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegistryTotals {
    epoch_ns: u64,
    epochs: u64,
    gp_fit_ns: f64,
    factor_ns: f64,
    solve_ns: f64,
}

impl RegistryTotals {
    /// Reads the current totals.
    pub fn read(registry: &vaesa_obs::Registry) -> Self {
        let total = |name: &str| {
            registry
                .histogram(name)
                .summary()
                .map_or(0.0, |s| s.mean * s.count as f64)
        };
        let epoch = registry.span_stats("train/epoch").unwrap_or_default();
        RegistryTotals {
            epoch_ns: epoch.wall_ns_total,
            epochs: epoch.count,
            gp_fit_ns: total("dse.gp.fit_ns"),
            factor_ns: total("linalg.cholesky.factor_ns"),
            solve_ns: total("linalg.cholesky.solve_ns"),
        }
    }

    /// Nanoseconds of training epochs (nn) and of GP fits (dse) since
    /// `before`.
    pub fn self_ns(&self, before: &Self) -> (f64, f64) {
        (
            (self.epoch_ns - before.epoch_ns) as f64,
            self.gp_fit_ns - before.gp_fit_ns,
        )
    }

    /// Writes the layer metrics accumulated since `before`, per campaign
    /// (`per` campaigns ran in between).
    pub fn since(&self, before: &Self, per: f64, layer: &mut BTreeMap<&'static str, f64>) {
        let epochs = (self.epochs - before.epochs).max(1) as f64;
        layer.insert(
            "nn.train_epoch_ms",
            (self.epoch_ns - before.epoch_ns) as f64 / epochs / 1e6,
        );
        layer.insert(
            "dse.gp.fit_total_ms",
            (self.gp_fit_ns - before.gp_fit_ns) / per / 1e6,
        );
        layer.insert(
            "dse.cholesky.factor_total_ms",
            (self.factor_ns - before.factor_ns) / per / 1e6,
        );
        layer.insert(
            "dse.cholesky.solve_total_ms",
            (self.solve_ns - before.solve_ns) / per / 1e6,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_campaign_inputs() {
        assert_eq!(Plan::new(7), Plan::new(7));
        assert_ne!(Plan::new(7), Plan::new(8));
        let plans = Plan::for_seed(7);
        assert_eq!(plans, Plan::for_seed(7));
        assert_eq!(plans.len(), PLANS);
        assert!(plans.windows(2).all(|w| w[0] != w[1]));
        let plan = Plan::new(7);
        assert_eq!(plan.searches.len(), 3 * (NETWORK_REPEATS + GD_LAYERS.len()));
        assert_eq!(gd_layers().len(), GD_LAYERS.len());
    }

    #[test]
    fn a_wrong_digest_or_rescore_fails_the_check() {
        assert!(check_digest("warm", 0xfeed, 0xfeed).is_ok());
        assert!(check_digest("warm", 0xfeed, 0xfeee).is_err());
        assert!(check_rescore("bo", 2.5e9, 2.5e9).is_ok());
        assert!(check_rescore("bo", 2.5e9, f64::from_bits(2.5e9_f64.to_bits() + 1)).is_err());
    }

    #[test]
    fn digest_covers_budget_and_best_value() {
        let run = |v: f64, n: usize| {
            let mut trace = Trace::new("random");
            for _ in 0..n {
                trace.record(vec![0.5; 6], Some(v));
            }
            SearchRun {
                plan: Plan::new(1).searches[0],
                wall: Duration::ZERO,
                trace,
            }
        };
        let base = result_digest(&[run(3.0, 2)]);
        assert_eq!(base, result_digest(&[run(3.0, 2)]));
        assert_ne!(base, result_digest(&[run(3.0, 3)]));
        assert_ne!(base, result_digest(&[run(3.5, 2)]));
    }
}
