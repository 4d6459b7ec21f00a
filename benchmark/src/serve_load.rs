//! The `serve_mixed` workload: an open-loop load on a `vaesa_serve`
//! daemon, then a closed-loop capacity phase on the same mix.
//!
//! The daemon runs in this process on `127.0.0.1:0` with the default
//! `CoreConfig` and no persistent cache; the benchmark talks to it only
//! over HTTP. The open-loop schedule is generated from the seed: Poisson
//! arrivals of `/predict` (1–16 hardware rows) and `/decode` (1–4 latent
//! rows, some repeated), plus triples of small latent `/search` jobs
//! (`bo`, `gd` and the `random` baseline at one seed and budget). At most
//! `nproc` connections are open at once: `nproc - 1` senders and one
//! poller that watches the submitted jobs. Each request is timed from the
//! moment it was due, so a stall also delays what queues behind it.
//!
//! The traffic is an assumption, not a recording: the repository has no
//! production traffic to replay. The arrival rate is set as a share of the
//! capacity the closed-loop phase measures (see [`RATE`]); the other
//! shares are chosen so that every path is taken in every run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use vaesa::{DatasetBuilder, TrainConfig, Trainer, VaesaConfig, VaesaModel};
use vaesa_accel::{workloads, ArchDescription, DesignSpace, LayerShape};
use vaesa_cosa::{CacheStats, CachedScheduler, Scheduler};
use vaesa_nn::Tensor;
use vaesa_serve::{http_request, CoreConfig, ServeConfig, Server};

use crate::campaign::{RegistryTotals, StatsDelta, SEARCH_STATS, SETUP_STATS};
use crate::report::{json_number, Outcome};
use crate::trace::{SpanRec, Tracer};
use crate::{micro, stats, Args};

/// Daemon starts timed for `setup_s` (the median is reported).
const STARTS: usize = 7;
/// Open-loop `/predict` + `/decode` arrivals per second. With the searches
/// this offers about a quarter of the capacity the closed-loop phase
/// measured on a 2-vCPU host (`capacity_rps` ≈ 74 on the same mix), so the
/// one sender of such a host is idle most of the time and the open loop
/// measures the server, not a client-side queue. `open.load_fraction`
/// reports the share in every run.
pub const RATE: f64 = 16.0;
/// Open-loop `/search` triples per second of the open-loop phase: enough
/// jobs for a steady `search_p50_ms`, few enough that the job pool drains
/// between triples.
pub const SEARCH_RATE: f64 = 1.0;
/// Seed of the first search triple's jobs; triple `k` uses this plus `k`.
/// The jobs are the same at every benchmark seed (only their arrival
/// times vary), so the quality of the served searches is measured on a
/// fixed job set.
const JOB_SEED_BASE: u64 = 1_000;
/// True evaluations per `/search` job.
pub const SEARCH_BUDGET: usize = 16;
/// Share of the interactive arrivals that are `/predict`.
const PREDICT_SHARE: f64 = 0.65;
/// Share of `/decode` rows that repeat an earlier row: small, so the
/// scheduler-miss path dominates as on the campaigns, but enough that the
/// memo hit path is taken in every run.
const REPEAT_SHARE: f64 = 0.1;
/// Half-width of the latent box `/decode` rows are drawn from.
const LATENT_HALF_WIDTH: f64 = vaesa::flows::LATENT_HALF_WIDTH;
/// How often a pending job is polled.
const POLL: Duration = Duration::from_millis(5);
/// Search engines of one triple; the last is the baseline.
const ENGINES: [&str; 3] = ["bo", "gd", "random"];

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// `/predict` with raw hardware rows.
    Predict(Vec<[f64; 6]>),
    /// `/decode` with latent rows.
    Decode(Vec<Vec<f64>>),
    /// `/search` for one latent job.
    Search {
        /// Engine name.
        engine: &'static str,
        /// Job seed (shared by the three jobs of a triple).
        seed: u64,
    },
}

impl Kind {
    /// 0 for `/predict`, 1 for `/decode`, 2 for `/search`.
    fn index(&self) -> usize {
        match self {
            Kind::Predict(_) => 0,
            Kind::Decode(_) => 1,
            Kind::Search { .. } => 2,
        }
    }

    fn endpoint(&self) -> &'static str {
        match self {
            Kind::Predict(_) => "predict",
            Kind::Decode(_) => "decode",
            Kind::Search { .. } => "search",
        }
    }

    fn span(&self) -> &'static str {
        match self {
            Kind::Predict(_) => "serve.predict",
            Kind::Decode(_) => "serve.decode",
            Kind::Search { .. } => "serve.search",
        }
    }

    /// The rows a `/predict` or `/decode` request sends.
    fn rows(&self) -> Vec<&[f64]> {
        match self {
            Kind::Predict(r) => r.iter().map(|x| x.as_slice()).collect(),
            Kind::Decode(r) => r.iter().map(Vec::as_slice).collect(),
            Kind::Search { .. } => Vec::new(),
        }
    }

    /// True workload evaluations the daemon spends on the request.
    fn evals(&self) -> u64 {
        match self {
            Kind::Predict(_) => 0,
            Kind::Decode(r) => r.len() as u64,
            Kind::Search { .. } => SEARCH_BUDGET as u64,
        }
    }

    fn body(&self) -> String {
        if let Kind::Search { engine, seed } = self {
            return format!(
                "{{\"engine\":\"{engine}\",\"mode\":\"latent\",\"budget\":{SEARCH_BUDGET},\"seed\":{seed}}}"
            );
        }
        let rows: Vec<String> = self
            .rows()
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|v| json_number(*v)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("{{\"points\":[{}]}}", rows.join(","))
    }
}

/// A scheduled request: when it is due, relative to the phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Due time.
    pub due: Duration,
    /// The request.
    pub kind: Kind,
}

/// Draws an interactive request (`/predict` or `/decode`).
fn interactive(
    rng: &mut ChaCha8Rng,
    space: &DesignSpace,
    dz: usize,
    sent: &mut Vec<Vec<f64>>,
) -> Kind {
    if rng.gen_range(0.0..1.0) < PREDICT_SHARE {
        let n = rng.gen_range(1..=16);
        Kind::Predict(
            (0..n)
                .map(|_| space.raw_features(&space.random(rng)))
                .collect(),
        )
    } else {
        let n = rng.gen_range(1..=4);
        let rows = (0..n)
            .map(|_| {
                if !sent.is_empty() && rng.gen_range(0.0..1.0) < REPEAT_SHARE {
                    sent[rng.gen_range(0..sent.len())].clone()
                } else {
                    let z: Vec<f64> = (0..dz)
                        .map(|_| rng.gen_range(-LATENT_HALF_WIDTH..LATENT_HALF_WIDTH))
                        .collect();
                    sent.push(z.clone());
                    z
                }
            })
            .collect();
        Kind::Decode(rows)
    }
}

fn exp_gap(rng: &mut ChaCha8Rng, rate: f64) -> Duration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    Duration::from_secs_f64(-u.ln() / rate)
}

/// The open-loop schedule of seed `seed` over `length`, for a daemon
/// serving `dz` latent dimensions.
pub fn schedule(seed: u64, length: Duration, dz: usize) -> Vec<Item> {
    let space = DesignSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e12_7e00);
    let mut sent = Vec::new();
    let mut items = Vec::new();
    let mut t = exp_gap(&mut rng, RATE);
    while t < length {
        items.push(Item {
            due: t,
            kind: interactive(&mut rng, &space, dz, &mut sent),
        });
        t += exp_gap(&mut rng, RATE);
    }
    // Triple `k` falls at a uniform time within its own slot of
    // `1 / SEARCH_RATE`, so triples rarely pile up and every seed loads the
    // job pool alike.
    let triples = (length.as_secs_f64() * SEARCH_RATE).floor() as u64;
    for k in 0..triples {
        let due = Duration::from_secs_f64((k as f64 + rng.gen_range(0.0..1.0)) / SEARCH_RATE);
        for engine in ENGINES {
            items.push(Item {
                due,
                kind: Kind::Search {
                    engine,
                    seed: JOB_SEED_BASE + k,
                },
            });
        }
    }
    items.sort_by_key(|i| i.due);
    items
}

/// What the client saw of one request.
#[derive(Debug, Clone)]
struct Seen {
    /// Position in the schedule.
    index: usize,
    kind: Kind,
    due: Duration,
    sent: Duration,
    done: Duration,
    status: u16,
    body: String,
    /// For searches: the job id, when it was first seen running, and its
    /// final poll body.
    job: Option<JobSeen>,
}

#[derive(Debug, Clone)]
struct JobSeen {
    id: u64,
    running_at: Option<Duration>,
    done_at: Option<Duration>,
    body: String,
}

/// A job submitted in the open loop and not yet seen finished.
#[derive(Debug)]
struct Pending {
    index: usize,
    id: u64,
    last_poll: Duration,
    running_at: Option<Duration>,
}

fn job_status(body: &str) -> Option<String> {
    match serde_json::parse_value(body).ok()?.get("status")? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn job_id(body: &str) -> Option<u64> {
    serde_json::parse_value(body).ok()?.get("job")?.as_u64()
}

/// Runs the open-loop phase: `senders` connections work through `items`
/// and one more connection polls the submitted jobs until each is done.
/// Senders never poll, so a poll cannot delay a request that falls due.
fn open_loop(addr: &str, items: &[Item], senders: usize, tracer: &Tracer, seed: u64) -> Vec<Seen> {
    let next = AtomicUsize::new(0);
    let senders_left = AtomicUsize::new(senders);
    let seen: Mutex<Vec<Option<Seen>>> = Mutex::new(vec![None; items.len()]);
    let pending: Mutex<Vec<Pending>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let drain_deadline = items.last().map_or(Duration::ZERO, |i| i.due) + Duration::from_secs(30);
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if let Some(wait) = item.due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    // Traced runs trace every other request, so the tracing
                    // overhead is measured within one run.
                    let root = tracer.root_when(
                        i.is_multiple_of(2),
                        "request",
                        seed.wrapping_add(i as u64),
                    );
                    let sent = t0.elapsed();
                    let span = root.child(item.kind.span());
                    let reply = http_request(
                        addr,
                        "POST",
                        &format!("/{}", item.kind.endpoint()),
                        Some(&item.kind.body()),
                    );
                    drop(span);
                    let done = t0.elapsed();
                    drop(root);
                    let (status, body) = reply.unwrap_or_else(|e| (0, e.to_string()));
                    let job = match (&item.kind, status) {
                        (Kind::Search { .. }, 202) => job_id(&body),
                        _ => None,
                    };
                    // The record is stored before the job can be polled, so
                    // the poller always finds it.
                    seen.lock().expect("seen lock")[i] = Some(Seen {
                        index: i,
                        kind: item.kind.clone(),
                        due: item.due,
                        sent,
                        done,
                        status,
                        body,
                        job: None,
                    });
                    if let Some(id) = job {
                        pending.lock().expect("pending lock").push(Pending {
                            index: i,
                            id,
                            last_poll: done,
                            running_at: None,
                        });
                    }
                }
                senders_left.fetch_sub(1, Ordering::Release);
            });
        }
        scope.spawn(|| loop {
            let sending = senders_left.load(Ordering::Acquire) > 0;
            if !sending && pending.lock().expect("pending lock").is_empty() {
                break;
            }
            if t0.elapsed() > drain_deadline {
                break;
            }
            if !poll_one(addr, t0, &pending, &seen) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    seen.into_inner()
        .expect("seen lock")
        .into_iter()
        .flatten()
        .collect()
}

/// Polls the pending job that has waited longest since its last poll, if
/// one is due for a poll, and moves a finished job's result into `seen`.
/// Returns whether a poll was made.
fn poll_one(
    addr: &str,
    t0: Instant,
    pending: &Mutex<Vec<Pending>>,
    seen: &Mutex<Vec<Option<Seen>>>,
) -> bool {
    let id = {
        let mut p = pending.lock().expect("pending lock");
        let now = t0.elapsed();
        let Some(pos) = (0..p.len())
            .filter(|&k| now >= p[k].last_poll + POLL)
            .min_by_key(|&k| p[k].last_poll)
        else {
            return false;
        };
        p[pos].last_poll = now;
        p[pos].id
    };
    let reply = http_request(addr, "GET", &format!("/jobs/{id}"), None);
    let now = t0.elapsed();
    let mut p = pending.lock().expect("pending lock");
    let Some(pos) = p.iter().position(|x| x.id == id) else {
        return true;
    };
    let status = reply.as_ref().ok().and_then(|(_, b)| job_status(b));
    match status.as_deref() {
        Some("queued") => {}
        Some("running") => {
            p[pos].running_at.get_or_insert(now);
        }
        _ => {
            let done = p.swap_remove(pos);
            drop(p);
            let body = reply
                .map(|(_, b)| b)
                .unwrap_or_else(|e| format!("poll failed: {e}"));
            if let Some(rec) = seen.lock().expect("seen lock")[done.index].as_mut() {
                rec.job = Some(JobSeen {
                    id: done.id,
                    running_at: done.running_at,
                    done_at: Some(now),
                    body,
                });
                rec.done = now;
            }
        }
    }
    true
}

/// Capacity phase: `conns` connections each send as soon as their last
/// reply arrived (a search counts once its job is done), for `length`.
/// Returns `(completed, failed, true evaluations completed, wall)`.
fn capacity(
    addr: &str,
    conns: usize,
    length: Duration,
    seed: u64,
    dz: usize,
) -> (u64, u64, u64, Duration) {
    let jobs_per_s = SEARCH_RATE * ENGINES.len() as f64;
    let search_every = ((RATE + jobs_per_s) / jobs_per_s).round() as u64;
    let t0 = Instant::now();
    let totals = Mutex::new((0u64, 0u64, 0u64));
    std::thread::scope(|scope| {
        for c in 0..conns {
            let totals = &totals;
            scope.spawn(move || {
                let space = DesignSpace::paper();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xca9a ^ ((c as u64) << 40));
                let mut sent = Vec::new();
                let (mut ok, mut failed, mut evals) = (0u64, 0u64, 0u64);
                let mut k = 0u64;
                while t0.elapsed() < length {
                    k += 1;
                    // Searches take the same share of requests as in the
                    // open loop.
                    let kind = if k.is_multiple_of(search_every) {
                        Kind::Search {
                            engine: ENGINES[(k / search_every % 3) as usize],
                            seed: rng.gen_range(0..1u64 << 32),
                        }
                    } else {
                        interactive(&mut rng, &space, dz, &mut sent)
                    };
                    let reply = http_request(
                        addr,
                        "POST",
                        &format!("/{}", kind.endpoint()),
                        Some(&kind.body()),
                    );
                    let good = match (&kind, &reply) {
                        (Kind::Search { .. }, Ok((202, body))) => {
                            job_id(body).is_some_and(|id| loop {
                                std::thread::sleep(POLL);
                                match http_request(addr, "GET", &format!("/jobs/{id}"), None) {
                                    Ok((200, b)) => match job_status(&b).as_deref() {
                                        Some("done") => break true,
                                        Some("queued") | Some("running") => {}
                                        _ => break false,
                                    },
                                    _ => break false,
                                }
                            })
                        }
                        (_, Ok((200, body))) => rows_in(&kind, body) == Some(kind.rows().len()),
                        _ => false,
                    };
                    if good {
                        ok += 1;
                        evals += kind.evals();
                    } else {
                        failed += 1;
                    }
                }
                let mut t = totals.lock().expect("totals lock");
                t.0 += ok;
                t.1 += failed;
                t.2 += evals;
            });
        }
    });
    let (ok, failed, evals) = totals.into_inner().expect("totals lock");
    (ok, failed, evals, t0.elapsed())
}

/// The number of result rows in a `/predict` or `/decode` reply.
fn rows_in(kind: &Kind, body: &str) -> Option<usize> {
    let key = match kind {
        Kind::Predict(_) => "predictions",
        Kind::Decode(_) => "designs",
        Kind::Search { .. } => return None,
    };
    match serde_json::parse_value(body).ok()?.get(key)? {
        Value::Seq(rows) => Some(rows.len()),
        _ => None,
    }
}

fn arch_of(v: &Value) -> Option<ArchDescription> {
    let f = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(ArchDescription {
        pe_count: f("pe_count")?,
        macs_per_pe: f("macs_per_pe")?,
        accum_buf_bytes: f("accum_buf_bytes")?,
        weight_buf_bytes: f("weight_buf_bytes")?,
        input_buf_bytes: f("input_buf_bytes")?,
        global_buf_bytes: f("global_buf_bytes")?,
    })
}

/// Re-scores `arch` on the served layers with a fresh uncached scheduler
/// and compares bit for bit with the EDP the daemon reported.
fn check_edp(
    what: &str,
    arch: &ArchDescription,
    edp: Option<f64>,
    layers: &[LayerShape],
) -> Result<(), String> {
    let fresh = Scheduler::default()
        .schedule_workload(arch, layers)
        .ok()
        .map(|w| w.edp());
    match (edp, fresh) {
        (Some(a), Some(b)) if a.to_bits() == b.to_bits() => Ok(()),
        (None, None) => Ok(()),
        (a, b) => Err(format!("{what}: daemon EDP {a:?}, fresh re-score {b:?}")),
    }
}

/// Checks one open-loop reply; returns the job result for searches.
fn check_reply(s: &Seen, layers: &[LayerShape], rescore: bool) -> Result<(), String> {
    let what = format!("{} due at {:?}", s.kind.endpoint(), s.due);
    match &s.kind {
        Kind::Search { .. } => {
            if s.status != 202 {
                return Err(format!("{what}: status {} ({})", s.status, s.body.trim()));
            }
            let job = s
                .job
                .as_ref()
                .ok_or(format!("{what}: job never finished"))?;
            let v = serde_json::parse_value(&job.body).map_err(|e| format!("{what}: {e}"))?;
            let result = v.get("result").ok_or(format!(
                "{what}: job {} did not finish: {}",
                job.id, job.body
            ))?;
            let evals = result.get("evals").and_then(Value::as_u64);
            if evals != Some(SEARCH_BUDGET as u64) {
                return Err(format!("{what}: spent {evals:?} of budget {SEARCH_BUDGET}"));
            }
            let best = result.get("best_value").and_then(Value::as_f64);
            let arch = result
                .get("best_arch")
                .and_then(arch_of)
                .ok_or(format!("{what}: no best design"))?;
            check_edp(&what, &arch, best, layers)
        }
        _ => {
            if s.status != 200 {
                return Err(format!("{what}: status {} ({})", s.status, s.body.trim()));
            }
            let got = rows_in(&s.kind, &s.body);
            if got != Some(s.kind.rows().len()) {
                return Err(format!(
                    "{what}: {got:?} rows for {} sent",
                    s.kind.rows().len()
                ));
            }
            if let (Kind::Decode(_), true) = (&s.kind, rescore) {
                let v = serde_json::parse_value(&s.body).map_err(|e| format!("{what}: {e}"))?;
                if let Some(Value::Seq(designs)) = v.get("designs") {
                    for d in designs {
                        let arch = d
                            .get("arch")
                            .and_then(arch_of)
                            .ok_or(format!("{what}: design without arch"))?;
                        check_edp(&what, &arch, d.get("edp").and_then(Value::as_f64), layers)?;
                    }
                }
            }
            Ok(())
        }
    }
}

fn start(config: &ServeConfig) -> Result<(Server, String, Duration), String> {
    let t0 = Instant::now();
    let server = Server::start(config.clone()).map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = server.addr().to_string();
    loop {
        if let Ok((200, _)) = http_request(&addr, "GET", "/healthz", None) {
            return Ok((server, addr, t0.elapsed()));
        }
        if t0.elapsed() > Duration::from_secs(120) {
            return Err("the daemon never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn stop(server: Server, addr: &str) -> Result<(), String> {
    let reply = http_request(addr, "POST", "/shutdown", None);
    server.join();
    match reply {
        Ok((200, _)) => Ok(()),
        other => Err(format!("shutdown: {other:?}")),
    }
}

/// `/metrics` parsed, plus the span aggregates of the manifest view.
struct Scrape {
    prom: vaesa_obs::PromSnapshot,
    manifest: String,
}

impl Scrape {
    fn take(addr: &str) -> Result<Self, String> {
        let get = |path: &str| match http_request(addr, "GET", path, None) {
            Ok((200, body)) => Ok(body),
            other => Err(format!("GET {path}: {other:?}")),
        };
        let prom = vaesa_obs::parse_prometheus(&get("/metrics")?)?;
        let manifest = get("/metrics?format=manifest")?;
        Ok(Scrape { prom, manifest })
    }

    fn value(&self, name: &str) -> f64 {
        self.prom.value(name).unwrap_or(0.0)
    }

    /// The daemon's scheduler counters (its `scheduler.*` gauges).
    fn scheduler(&self) -> CacheStats {
        let count = |name: &str| self.value(name) as u64;
        CacheStats {
            hits: count("scheduler_hits"),
            misses: count("scheduler_misses"),
            entries: count("scheduler_entries") as usize,
            evictions: count("scheduler_evictions"),
        }
    }

    fn p50_ms(&self, base: &str) -> f64 {
        self.prom.quantile(base, 0.5).unwrap_or(0.0) / 1e6
    }

    fn mean(&self, base: &str) -> f64 {
        self.value(&format!("{base}_sum")) / self.value(&format!("{base}_count")).max(1.0)
    }

    /// Mean wall time of the daemon's request spans at `path`, in ns.
    fn span_mean_ns(&self, path: &str) -> Option<f64> {
        let needle = format!("\"path\":\"{path}\"");
        let line = self
            .manifest
            .lines()
            .find(|l| l.contains("\"record\":\"span\"") && l.contains(&needle))?;
        let v = serde_json::parse_value(line).ok()?;
        let count = v.get("count")?.as_f64()?;
        Some(v.get("wall_ns_total")?.as_f64()? / count.max(1.0))
    }
}

/// Runs `serve_mixed` for about `args.seconds` and fills `outcome`;
/// returns the recorded spans.
pub fn workload(args: &Args, outcome: &mut Outcome) -> Vec<SpanRec> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let core = CoreConfig::default();
    let mut layers = workloads::training_layers();
    layers.truncate(core.n_layers.max(1));
    let conns = std::thread::available_parallelism().map_or(1, usize::from);
    // One connection of the `nproc` polls jobs; on one CPU it is a second.
    let senders = conns.saturating_sub(1).max(1);

    let registry_before = RegistryTotals::read(vaesa_obs::global());
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..STARTS {
        let started = start(&config);
        outcome.check(started.as_ref().map(|_| ()).map_err(Clone::clone));
        let Ok((server, addr, setup)) = started else {
            return Vec::new();
        };
        setups.push(setup.as_secs_f64());
        if k + 1 < STARTS {
            outcome.check(stop(server, &addr));
        } else {
            live = Some((server, addr));
        }
    }
    let (server, addr) = live.expect("the last daemon stays up");
    let before = Scrape::take(&addr);
    outcome.check(before.as_ref().map(|_| ()).map_err(Clone::clone));

    let open_len = args.seconds.mul_f64(0.55);
    let cap_len = args.seconds.mul_f64(0.25);
    let items = schedule(args.seed, open_len, core.latent_dim);
    let tracer = Tracer::new(args.trace);
    let seen = open_loop(&addr, &items, senders, &tracer, args.seed << 20);
    let peak_rss_mb = crate::peak_rss_mb();
    let after_open = Scrape::take(&addr);
    outcome.check(after_open.as_ref().map(|_| ()).map_err(Clone::clone));
    let (cap_ok, cap_failed, cap_evals, cap_wall) =
        capacity(&addr, conns, cap_len, args.seed, core.latent_dim);
    outcome.attempted += cap_ok + cap_failed;
    outcome.failed += cap_failed;
    if cap_failed > 0 {
        outcome
            .failures
            .push(format!("{cap_failed} capacity-phase requests failed"));
    }
    outcome.check(stop(server, &addr));

    // Checks: every reply, and a seeded sample of decodes re-scored.
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0xdec0de);
    let (mut sent, mut ok, mut failed, mut rejected) = ([0u64; 3], [0u64; 3], [0u64; 3], 0u64);
    for s in &seen {
        let k = s.kind.index();
        sent[k] += 1;
        if matches!(s.status, 429 | 503) {
            rejected += 1;
        }
        let rescore = matches!(s.kind, Kind::Decode(_)) && rng.gen_range(0.0..1.0) < 0.25;
        let result = check_reply(s, &layers, rescore);
        if result.is_ok() {
            ok[k] += 1
        } else {
            failed[k] += 1
        }
        outcome.check(result);
    }
    if seen.len() != items.len() {
        outcome.check(Err(format!(
            "{} of {} scheduled requests were sent",
            seen.len(),
            items.len()
        )));
    }

    // Generator lag must not keep growing.
    let lag_ms: Vec<f64> = seen
        .iter()
        .map(|s| (s.sent.saturating_sub(s.due)).as_secs_f64() * 1e3)
        .collect();
    let third = (lag_ms.len() / 3).max(1);
    let first = stats::median(&lag_ms[..third.min(lag_ms.len())]);
    let last = stats::median(&lag_ms[lag_ms.len().saturating_sub(third)..]);
    outcome.check(if last > first + 25.0 {
        Err(format!(
            "invalid run: generator lag grew from {first:.1} ms to {last:.1} ms"
        ))
    } else {
        Ok(())
    });

    let latency_ms = |k: usize| -> Vec<f64> {
        seen.iter()
            .filter(|s| s.kind.index() == k)
            .map(|s| (s.done - s.due).as_secs_f64() * 1e3)
            .collect()
    };
    let (predict_ms, decode_ms, search_ms) = (latency_ms(0), latency_ms(1), latency_ms(2));
    let interactive_ms: Vec<f64> = predict_ms.iter().chain(&decode_ms).copied().collect();
    let search_best = search_quality(&seen);

    let e2e = &mut outcome.e2e;
    e2e.insert("setup_s", stats::median(&setups));
    e2e.insert("evals_per_s", cap_evals as f64 / cap_wall.as_secs_f64());
    e2e.insert("best_edp_ratio", search_best);
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("search_p50_ms", stats::median(&triple_means_ms(&seen)));
    e2e.insert("request_p50_ms", stats::median(&interactive_ms));
    outcome.extra("gen_lag_p50_ms", stats::median(&lag_ms), "ms");
    for (name, v) in [
        ("predict", &predict_ms),
        ("decode", &decode_ms),
        ("search_job", &search_ms),
    ] {
        outcome.extra(format!("{name}_p50_ms"), stats::median(v), "ms");
        if let Some(t) = stats::tail(v) {
            outcome.extra(format!("{name}_p{}_ms (n={})", t.pct, t.n), t.value, "ms");
        }
    }
    let capacity_rps = cap_ok as f64 / cap_wall.as_secs_f64();
    outcome.extra("capacity_rps", capacity_rps, "req/s");
    outcome.extra(
        "open.load_fraction",
        items.len() as f64 / open_len.as_secs_f64() / capacity_rps,
        "ratio",
    );
    for (k, name) in ["predict", "decode", "search"].iter().enumerate() {
        outcome.extra(format!("open.{name}.sent"), sent[k] as f64, "count");
        outcome.extra(format!("open.{name}.succeeded"), ok[k] as f64, "count");
        outcome.extra(format!("open.{name}.failed"), failed[k] as f64, "count");
    }
    outcome.extra("capacity.sent", (cap_ok + cap_failed) as f64, "count");
    outcome.extra("capacity.succeeded", cap_ok as f64, "count");
    outcome.extra("capacity.failed", cap_failed as f64, "count");
    outcome.extra("open.rejected", rejected as f64, "count");
    if let Some(t) = stats::tail(&lag_ms) {
        outcome.extra(format!("gen_lag_p{}_ms (n={})", t.pct, t.n), t.value, "ms");
    }

    if args.trace {
        // The daemon runs in this process, so the registry totals cover its
        // builds and the load: reported per run.
        RegistryTotals::read(vaesa_obs::global()).since(&registry_before, 1.0, &mut outcome.layer);
        if let (Ok(before), Ok(after)) = (&before, &after_open) {
            layer_metrics(outcome, before, after, &seen, &predict_ms, &decode_ms);
        }
        let spans = tracer.spans();
        let traced = interactive_at(&seen, 0);
        let plain = interactive_at(&seen, 1);
        outcome.layer.insert(
            "obs.trace_overhead_pct",
            100.0 * (stats::median(&traced) / stats::median(&plain) - 1.0),
        );
        let roots = spans.iter().filter(|s| s.parent == 0).count().max(1) as f64;
        for (layer, secs) in crate::trace::self_time_by_layer(&spans) {
            outcome.extra(format!("self_ms.{layer}"), 1e3 * secs / roots, "ms");
        }
        microbench(&core, &layers, args.seed, outcome);
        return spans;
    }
    Vec::new()
}

/// Latencies (ms from due time) of the interactive requests whose
/// schedule index has parity `parity`.
fn interactive_at(seen: &[Seen], parity: usize) -> Vec<f64> {
    seen.iter()
        .filter(|s| s.kind.index() < 2 && s.index % 2 == parity)
        .map(|s| (s.done - s.due).as_secs_f64() * 1e3)
        .collect()
}

/// The mean latency of the three jobs of each `/search` triple, one value
/// per triple. The jobs of a triple fall in clusters (`bo` finishes in
/// 20–50 ms, `gd` and `random` in 80–150 ms), so the median over all jobs
/// sits on the edge of a cluster and jumped between 74 and 101 ms over ten
/// runs; the median over triples of their mean job does not.
fn triple_means_ms(seen: &[Seen]) -> Vec<f64> {
    let mut triples: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in seen {
        if let Kind::Search { seed, .. } = &s.kind {
            triples
                .entry(*seed)
                .or_default()
                .push((s.done - s.due).as_secs_f64() * 1e3);
        }
    }
    triples
        .values()
        .filter(|v| v.len() == 3)
        .map(|v| v.iter().sum::<f64>() / 3.0)
        .collect()
}

/// Geometric mean of the served `bo` and `gd` jobs' best EDP over the
/// `random` job of the same seed.
fn search_quality(seen: &[Seen]) -> f64 {
    let mut best: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for s in seen {
        if let (Kind::Search { engine, seed }, Some(job)) = (&s.kind, &s.job) {
            let v = serde_json::parse_value(&job.body).ok().and_then(|v| {
                v.get("result")
                    .and_then(|r| r.get("best_value"))
                    .and_then(Value::as_f64)
            });
            if let Some(v) = v {
                best.insert((*seed, engine), v);
            }
        }
    }
    let mut ratios = Vec::new();
    for (&(seed, engine), &v) in &best {
        if engine != "random" {
            if let Some(r) = best.get(&(seed, "random")) {
                ratios.push(v / r);
            }
        }
    }
    stats::geomean(&ratios)
}

fn layer_metrics(
    outcome: &mut Outcome,
    before: &Scrape,
    after: &Scrape,
    seen: &[Seen],
    predict_ms: &[f64],
    decode_ms: &[f64],
) {
    let l = &mut outcome.layer;
    // The daemon's scheduler gauges: its start-up is the set-up phase, the
    // open loop the search phase.
    let (at_start, at_end) = (before.scheduler(), after.scheduler());
    StatsDelta::between(
        CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
            evictions: 0,
        },
        at_start,
    )
    .record(SETUP_STATS, l);
    StatsDelta::between(at_start, at_end).record(SEARCH_STATS, l);
    for (name, client) in [("predict", predict_ms), ("decode", decode_ms)] {
        let server = after.p50_ms(&format!("serve_{name}_latency_ns"));
        let (server_key, conn_key, wait_key, batch_key) = match name {
            "predict" => (
                "serve.predict.server_p50_ms",
                "serve.predict.conn_ms",
                "serve.coalesce.predict.queue_wait_ms",
                "serve.coalesce.predict.batch_size",
            ),
            _ => (
                "serve.decode.server_p50_ms",
                "serve.decode.conn_ms",
                "serve.coalesce.decode.queue_wait_ms",
                "serve.coalesce.decode.batch_size",
            ),
        };
        l.insert(server_key, server);
        l.insert(conn_key, stats::median(client) - server);
        l.insert(
            wait_key,
            after.p50_ms(&format!("serve_coalesce_{name}_queue_wait_ns")),
        );
        l.insert(
            batch_key,
            after.mean(&format!("serve_coalesce_{name}_batch_size")),
        );
    }
    let queue_ms: Vec<f64> = seen
        .iter()
        .filter_map(|s| {
            let j = s.job.as_ref()?;
            let started = j.running_at.or(j.done_at)?;
            Some(started.saturating_sub(s.sent).as_secs_f64() * 1e3)
        })
        .collect();
    l.insert("serve.search.queue_ms", stats::median(&queue_ms));
    for name in ["predict", "decode"] {
        let server_mean = after.mean(&format!("serve_{name}_latency_ns"));
        let wait_mean = after.mean(&format!("serve_coalesce_{name}_queue_wait_ns"));
        if let Some(submit) = after.span_mean_ns(&format!("serve/{name}/submit")) {
            outcome.extra(
                format!("serve.{name}.queue_wait_mean_ms"),
                wait_mean / 1e6,
                "ms",
            );
            outcome.extra(
                format!("serve.{name}.compute_mean_ms"),
                (submit - wait_mean) / 1e6,
                "ms",
            );
            outcome.extra(
                format!("serve.{name}.server_mean_ms"),
                server_mean / 1e6,
                "ms",
            );
            outcome.extra(
                format!("serve.{name}.accounted_pct"),
                100.0 * submit / server_mean,
                "%",
            );
        }
    }
}

/// Rebuilds the served dataset and model in-process (the same seed and
/// sizes as the daemon's start-up) and samples the layers on them.
fn microbench(core: &CoreConfig, layers: &[LayerShape], seed: u64, outcome: &mut Outcome) {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let mut rng = ChaCha8Rng::seed_from_u64(core.seed);
    let t0 = Instant::now();
    let dataset = DatasetBuilder::new(&space, layers.to_vec())
        .random_configs(core.n_configs)
        .grid_per_axis(2)
        .build(&scheduler, &mut rng);
    outcome
        .layer
        .insert("vaesa.dataset_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let mut model = VaesaModel::new(
        VaesaConfig::paper().with_latent_dim(core.latent_dim),
        &mut rng,
    );
    Trainer::new(TrainConfig {
        epochs: core.epochs,
        batch_size: 64,
        learning_rate: 1e-3,
    })
    .train_vae(&mut model, &dataset, &mut rng);
    outcome
        .layer
        .insert("vaesa.train_s", t0.elapsed().as_secs_f64());
    // The daemon's `/predict` GP: encoded unique reference-layer designs
    // against ln EDP.
    let reference = layers[0].features();
    let mut seen = std::collections::HashSet::new();
    let mut rows: Vec<&[f64]> = Vec::new();
    let mut ys = Vec::new();
    for (i, r) in dataset.records.iter().enumerate() {
        if r.layer_raw == reference && seen.insert(r.config.indices()) && rows.len() < core.gp_cap {
            rows.push(dataset.hw.row(i));
            ys.push(r.edp().ln());
        }
    }
    let z = model.encode_mean(&Tensor::from_rows(&rows));
    let gp_xs = (0..z.rows()).map(|r| z.row(r).to_vec()).collect();
    micro::sample(
        &micro::Inputs {
            dataset: &dataset,
            pool: layers,
            model: &model,
            gp_xs,
            gp_ys: ys,
            seed,
        },
        outcome,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(3, Duration::from_secs(5), 4);
        assert_eq!(a, schedule(3, Duration::from_secs(5), 4));
        assert_ne!(a, schedule(4, Duration::from_secs(5), 4));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let searches = a
            .iter()
            .filter(|i| matches!(i.kind, Kind::Search { .. }))
            .count();
        assert_eq!(searches % 3, 0);
        for item in &a {
            match &item.kind {
                Kind::Predict(r) => assert!((1..=16).contains(&r.len())),
                Kind::Decode(r) => {
                    assert!((1..=4).contains(&r.len()) && r.iter().all(|z| z.len() == 4))
                }
                Kind::Search { .. } => {}
            }
        }
    }

    #[test]
    fn some_decode_rows_repeat() {
        let items = schedule(9, Duration::from_secs(20), 4);
        let rows: Vec<&Vec<f64>> = items
            .iter()
            .filter_map(|i| match &i.kind {
                Kind::Decode(r) => Some(r),
                _ => None,
            })
            .flatten()
            .collect();
        let distinct: std::collections::BTreeSet<Vec<u64>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert!(distinct.len() < rows.len());
    }
}
