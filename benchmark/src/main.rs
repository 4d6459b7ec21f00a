//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <campaign_cold|campaign_warm|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public API of the VAESA crates for about
//! `--seconds`, checks every output, prints a readable report, and prints
//! as its last line one JSON object with the gated metrics: every
//! end-to-end metric untraced (`--trace 0`), every layer metric traced
//! (`--trace 1`). It exits non-zero when any check fails. See
//! `benchmark/README.md`.

mod campaign;
mod fingerprint;
mod hostspeed;
mod metrics;
mod micro;
mod report;
mod serve_load;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{json_number, json_str, Gated, Outcome};

/// Where runs keep their scratch caches and write their results, relative
/// to the directory the benchmark is run from (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Traced run.
    pub trace: bool,
    /// Internal: fill this eval-cache directory with one cold campaign and
    /// print its digest (the untimed pass before `campaign_warm`).
    pub fill_dir: Option<PathBuf>,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: Duration::from_secs(10),
            trace: false,
            fill_dir: None,
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    args.seconds = Duration::from_secs(s.clamp(1, 120));
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--fill-dir" => args.fill_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.fill_dir.is_none() && !metrics::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                metrics::WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                metrics::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Campaigns open their eval caches explicitly and the daemon runs
    // without one, so an inherited cache directory must not leak in.
    std::env::remove_var("VAESA_EVAL_CACHE");
    if let Some(dir) = &args.fill_dir {
        return campaign::fill(dir, args.seed);
    }

    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let mut outcome = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let spans = match args.workload.as_str() {
        "campaign_cold" => campaign::workload(false, &args, &run_dir, &mut outcome),
        "campaign_warm" => campaign::workload(true, &args, &run_dir, &mut outcome),
        _ => serve_load::workload(&args, &mut outcome),
    };
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        eprintln!("warning: cannot remove {}: {e}", run_dir.display());
    }

    let gated = outcome.gated(args.trace);
    let fingerprint = fingerprint::collect();
    print_report(&args, &outcome, &gated, &fingerprint);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_file(
        &format!("{tag}.json"),
        &result_json(&args, &outcome, &gated, &fingerprint),
    );
    if args.trace {
        write_file(&format!("{tag}-spans.json"), &trace::spans_json(&spans));
    }
    println!("{}", report::result_line(&outcome, &gated));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(name: &str, contents: &str) {
    let path = Path::new(OUT_DIR).join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn print_report(args: &Args, outcome: &Outcome, gated: &[Gated], fingerprint: &[(&str, String)]) {
    println!(
        "workload {} seed {} ({}, {} s)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds.as_secs()
    );
    for (k, v) in fingerprint {
        println!("  fingerprint {k:<22} {v}");
    }
    for g in gated {
        println!(
            "  {:<38} {:>14.6} {:<6} ({})",
            g.name, g.value, g.unit, g.about
        );
    }
    for (name, value, unit) in &outcome.extra {
        println!("  {name:<38} {value:>14.6} {unit}");
    }
    for (name, text) in &outcome.notes {
        println!("  {name:<38} {text:>14}");
    }
    println!(
        "  {:<38} {:>14.6} ratio ({} failed of {} attempted)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    for f in outcome.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
}

fn result_json(
    args: &Args,
    outcome: &Outcome,
    gated: &[Gated],
    fingerprint: &[(&str, String)],
) -> String {
    let mut out = format!(
        "{{\n\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"fingerprint\": {{",
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        args.trace
    );
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&fp.join(", "));
    for (name, text) in &outcome.notes {
        out.push_str(&format!(", {}: {}", json_str(name), json_str(text)));
    }
    out.push_str("},\n\"metrics\": {");
    let all: Vec<String> = gated
        .iter()
        .map(|g| (g.name.to_string(), g.value, g.unit.to_string()))
        .chain(outcome.extra.iter().cloned())
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&n),
                json_number(if v.is_finite() { v } else { 0.0 }),
                json_str(&u)
            )
        })
        .collect();
    out.push_str(&all.join(",\n  "));
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    out.push_str(&format!(
        "}},\n\"attempted\": {}, \"failed\": {}, \"failures\": [{}]\n}}\n",
        outcome.attempted,
        outcome.failed,
        failures.join(", ")
    ));
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    vaesa_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve_mixed --seed 4 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!(a.seed, 4);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload campaign_cold --trace 2").is_err());
        assert!(parse("--workload campaign_cold --bogus 1").is_err());
    }
}
