//! What one run found, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{END_TO_END, LAYERS};

/// The findings of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or failed a check.
    pub failed: u64,
    /// One message per failure (the first few are printed).
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Layer metrics by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Further figures that are printed and stored but not gated:
    /// `(name, value, unit)`.
    pub extra: Vec<(String, f64, String)>,
    /// Facts that are not numbers (the result digest): `(name, text)`.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one operation and, when `result` is an error, its failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Adds an ungated figure.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.extra.push((name.into(), value, unit.to_string()));
    }

    /// Adds a fact that is not a number.
    pub fn note(&mut self, name: &str, text: String) {
        self.notes.push((name.to_string(), text));
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The gated metrics of this run: every end-to-end metric untraced,
    /// every layer metric traced. A layer that is not on the workload's
    /// path reports 0; a missing or non-finite end-to-end value is a
    /// failure.
    pub fn gated(&mut self, traced: bool) -> Vec<Gated> {
        if traced {
            return LAYERS
                .iter()
                .map(|m| {
                    let moves: Vec<String> = m
                        .moves
                        .iter()
                        .map(|(metric, workload)| format!("{metric} on {workload}"))
                        .collect();
                    let moves = if moves.is_empty() {
                        "nothing".to_string()
                    } else {
                        moves.join(", ")
                    };
                    Gated {
                        name: m.name,
                        value: self.layer.get(m.name).copied().unwrap_or(0.0),
                        unit: m.unit,
                        about: format!("{} is better; moves {moves}", m.better.label()),
                    }
                })
                .collect();
        }
        let mut out = Vec::new();
        for m in END_TO_END {
            let value = match self.e2e.get(m.name).copied() {
                Some(v) if v.is_finite() => v,
                other => {
                    self.attempted += 1;
                    self.fail(format!("end-to-end metric {} is {other:?}", m.name));
                    0.0
                }
            };
            out.push(Gated {
                name: m.name,
                value,
                unit: m.unit,
                about: format!("{} is better; bound {}", m.better.label(), m.bound),
            });
        }
        out
    }
}

/// One gated metric of a run, with its direction and its bound
/// (end-to-end metrics) or what it should move (layer metrics).
#[derive(Debug, Clone)]
pub struct Gated {
    /// Metric name.
    pub name: &'static str,
    /// Its value in this run.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction and bound, or what it should move.
    pub about: String,
}

/// The machine-readable last line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(outcome: &Outcome, metrics: &[Gated]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, g) in metrics.iter().enumerate() {
        let value = if g.value.is_finite() { g.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            g.name,
            json_number(value),
            g.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || !v.is_finite() {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
