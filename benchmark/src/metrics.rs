//! Every metric the benchmark reports, with its unit, its direction and
//! — for layer metrics — the end-to-end metric and workload it should
//! move. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["campaign_cold", "campaign_warm", "serve_mixed"];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported by every workload in untraced runs.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A layer metric: reported by every workload in traced runs (0 where the
/// layer is not on the workload's path).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The `(end-to-end metric, workload)` pairs it should move; empty
    /// only for the tracing-overhead metric, which moves nothing.
    pub moves: &'static [(&'static str, &'static str)],
}

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: L,
        bound: 0.25,
    },
    EndToEnd {
        name: "evals_per_s",
        unit: "1/s",
        better: H,
        bound: 0.25,
    },
    EndToEnd {
        name: "best_edp_ratio",
        unit: "ratio",
        better: L,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: L,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p50_ms",
        unit: "ms",
        better: L,
        bound: 0.25,
    },
    EndToEnd {
        name: "request_p50_ms",
        unit: "ms",
        better: L,
        bound: 0.25,
    },
];

const COLD_EVALS: (&str, &str) = ("evals_per_s", "campaign_cold");
const WARM_EVALS: (&str, &str) = ("evals_per_s", "campaign_warm");
const SERVE_EVALS: (&str, &str) = ("evals_per_s", "serve_mixed");
const COLD_SETUP: (&str, &str) = ("setup_s", "campaign_cold");
const WARM_SETUP: (&str, &str) = ("setup_s", "campaign_warm");
const SERVE_SETUP: (&str, &str) = ("setup_s", "serve_mixed");
const SERVE_REQUEST: (&str, &str) = ("request_p50_ms", "serve_mixed");
const SERVE_SEARCH: (&str, &str) = ("search_p50_ms", "serve_mixed");

/// The layer metrics.
pub const LAYERS: [Layer; 49] = [
    Layer {
        name: "timeloop.evaluate_ns",
        unit: "ns",
        better: L,
        moves: &[COLD_EVALS, COLD_SETUP],
    },
    Layer {
        name: "cosa.schedule_miss_us",
        unit: "us",
        better: L,
        moves: &[COLD_EVALS, COLD_SETUP, SERVE_REQUEST],
    },
    Layer {
        name: "cosa.schedule_hit_ns",
        unit: "ns",
        better: L,
        moves: &[WARM_EVALS],
    },
    Layer {
        name: "cosa.setup.hits",
        unit: "count",
        better: H,
        moves: &[COLD_SETUP],
    },
    Layer {
        name: "cosa.setup.misses",
        unit: "count",
        better: L,
        moves: &[COLD_SETUP],
    },
    Layer {
        name: "cosa.setup.hit_ratio",
        unit: "ratio",
        better: H,
        moves: &[COLD_SETUP],
    },
    Layer {
        name: "cosa.setup.evictions",
        unit: "count",
        better: L,
        moves: &[COLD_SETUP],
    },
    Layer {
        name: "cosa.search.hits",
        unit: "count",
        better: H,
        moves: &[COLD_EVALS, SERVE_REQUEST],
    },
    Layer {
        name: "cosa.search.misses",
        unit: "count",
        better: L,
        moves: &[COLD_EVALS, SERVE_REQUEST],
    },
    Layer {
        name: "cosa.search.hit_ratio",
        unit: "ratio",
        better: H,
        moves: &[COLD_EVALS, SERVE_REQUEST],
    },
    Layer {
        name: "cosa.search.evictions",
        unit: "count",
        better: L,
        moves: &[COLD_EVALS],
    },
    Layer {
        name: "cosa.persist.open_s",
        unit: "s",
        better: L,
        moves: &[WARM_SETUP],
    },
    Layer {
        name: "cosa.persist.loaded",
        unit: "count",
        better: H,
        moves: &[WARM_SETUP],
    },
    Layer {
        name: "cosa.persist.appends",
        unit: "count",
        better: L,
        moves: &[COLD_EVALS],
    },
    Layer {
        name: "cosa.persist.warm_hits",
        unit: "count",
        better: H,
        moves: &[WARM_EVALS],
    },
    Layer {
        name: "cosa.persist.flush_on_evict",
        unit: "count",
        better: L,
        moves: &[COLD_EVALS],
    },
    Layer {
        name: "cosa.persist.flush_s",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS],
    },
    Layer {
        name: "cosa.self_s",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_SETUP],
    },
    Layer {
        name: "cosa.miss_cpu_s",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, COLD_SETUP],
    },
    Layer {
        name: "vaesa.dataset_s",
        unit: "s",
        better: L,
        moves: &[COLD_SETUP, WARM_SETUP],
    },
    Layer {
        name: "vaesa.train_s",
        unit: "s",
        better: L,
        moves: &[COLD_SETUP, WARM_SETUP, SERVE_SETUP],
    },
    Layer {
        name: "vaesa.search_s.random",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "vaesa.search_s.bo",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "vaesa.search_s.vae_bo",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS, SERVE_SEARCH],
    },
    Layer {
        name: "vaesa.search_s.gd",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "vaesa.search_s.vae_gd",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS, SERVE_SEARCH],
    },
    Layer {
        name: "vaesa.decode_us",
        unit: "us",
        better: L,
        moves: &[SERVE_REQUEST, WARM_EVALS],
    },
    Layer {
        name: "vaesa.self_s",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "dse.gp_fit_ms",
        unit: "ms",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS, SERVE_SETUP],
    },
    Layer {
        name: "dse.gp_predict_batch_us.pool",
        unit: "us",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "dse.gp_predict_batch_us.b16",
        unit: "us",
        better: L,
        moves: &[SERVE_REQUEST],
    },
    Layer {
        name: "dse.gp.fit_total_ms",
        unit: "ms",
        better: L,
        moves: &[WARM_EVALS, COLD_EVALS],
    },
    Layer {
        name: "dse.cholesky.factor_total_ms",
        unit: "ms",
        better: L,
        moves: &[WARM_EVALS, COLD_EVALS],
    },
    Layer {
        name: "dse.cholesky.solve_total_ms",
        unit: "ms",
        better: L,
        moves: &[WARM_EVALS, SERVE_REQUEST],
    },
    Layer {
        name: "dse.self_s",
        unit: "s",
        better: L,
        moves: &[COLD_EVALS, WARM_EVALS],
    },
    Layer {
        name: "nn.train_epoch_ms",
        unit: "ms",
        better: L,
        moves: &[COLD_SETUP, WARM_SETUP, SERVE_SETUP],
    },
    Layer {
        name: "nn.self_s",
        unit: "s",
        better: L,
        moves: &[COLD_SETUP, WARM_SETUP],
    },
    Layer {
        name: "nn.encode_mean_us.b16",
        unit: "us",
        better: L,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "nn.predict_us.b16",
        unit: "us",
        better: L,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "serve.predict.server_p50_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST],
    },
    Layer {
        name: "serve.decode.server_p50_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST],
    },
    Layer {
        name: "serve.predict.conn_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST],
    },
    Layer {
        name: "serve.decode.conn_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST],
    },
    Layer {
        name: "serve.coalesce.predict.queue_wait_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "serve.coalesce.decode.queue_wait_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "serve.coalesce.predict.batch_size",
        unit: "rows",
        better: H,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "serve.coalesce.decode.batch_size",
        unit: "rows",
        better: H,
        moves: &[SERVE_REQUEST, SERVE_EVALS],
    },
    Layer {
        name: "serve.search.queue_ms",
        unit: "ms",
        better: L,
        moves: &[SERVE_SEARCH],
    },
    Layer {
        name: "obs.trace_overhead_pct",
        unit: "%",
        better: L,
        moves: &[],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
    /// a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        match doc.get(key) {
            Some(Value::Seq(items)) => items,
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    fn str_field<'v>(entry: &'v Value, key: &str) -> &'v str {
        match entry.get(key) {
            Some(Value::Str(s)) => s,
            _ => panic!("entry without {key}: {entry:?}"),
        }
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name));
        for name in names.chain(WORKLOADS) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
    }

    #[test]
    fn every_layer_metric_moves_a_declared_metric_on_a_declared_workload() {
        for layer in LAYERS {
            if layer.name == "obs.trace_overhead_pct" {
                assert!(layer.moves.is_empty());
                continue;
            }
            assert!(!layer.moves.is_empty(), "{} moves nothing", layer.name);
            for (metric, workload) in layer.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *metric),
                    "{}: {metric}",
                    layer.name
                );
                assert!(WORKLOADS.contains(workload), "{}: {workload}", layer.name);
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_declarations() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.label());
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (entry, m) in layers.iter().zip(LAYERS) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.label());
        }
    }
}
