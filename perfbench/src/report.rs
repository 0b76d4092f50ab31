//! What one run measured, and how it is printed.
//!
//! Every workload fills an [`Outcome`]: its gated operations, the
//! end-to-end metrics that apply to it, its deterministic counts, and (in
//! the traced run) the per-layer metrics. [`Outcome::print`] writes the
//! human-readable lines and, last, the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of the JSON result, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run: name, unit, and the end-to-end
/// metric and workload each one should move. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.analysis_s", "s", "setup_s@check"),
    ("check.explore_s", "s", "wall_s,states_per_s@check,check-spill"),
    ("check.shrink_s", "s", "wall_s,states_per_s@check,check-spill"),
    ("check.states", "count", "states_per_s@check,check-spill"),
    ("check.actions", "count", "actions_per_s@check,check-spill"),
    ("check.fused", "count", "wall_s@check,check-spill"),
    ("engine.clone_us", "us", "actions_per_s@check"),
    ("engine.fire_us", "us", "actions_per_s@check;txns_per_s@pipeline"),
    ("engine.digest_us", "us", "actions_per_s@check"),
    ("check.oracle_us", "us", "actions_per_s@check"),
    ("check.attributed_share", "ratio", "actions_per_s@check"),
    ("check.unattributed_share", "ratio", "actions_per_s@check"),
    ("core.spill_runs", "count", "wall_s@check-spill"),
    ("core.spill_bytes", "bytes", "wall_s@check-spill"),
    ("core.merge_passes", "count", "wall_s@check-spill"),
    ("core.runset_spill_us", "us", "wall_s@check-spill"),
    ("core.runset_probe_us", "us", "wall_s@check-spill"),
    ("pipeline.run_s", "s", "txns_per_s@pipeline"),
    ("pipeline.attributed_share", "ratio", "txns_per_s@pipeline"),
    ("pipeline.unattributed_share", "ratio", "txns_per_s@pipeline"),
    ("engine.round_us", "us", "txns_per_s@pipeline"),
    ("txn.lock_us", "us", "txns_per_s@pipeline"),
    ("storage.wal_append_us", "us", "txns_per_s@pipeline;actions_per_s@check"),
    ("storage.kv_us", "us", "txns_per_s@pipeline"),
    ("simnet.send_us", "us", "txns_per_s@pipeline"),
    ("engine.events", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("simnet.msgs", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("storage.wal_syncs", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("storage.wal_forces", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("storage.wal_bytes", "bytes", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("pipeline.deferrals", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("pipeline.blocked", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("pipeline.reaped_commits", "count", "txn_per_ktick,commit_p99_ticks@pipeline"),
    ("obs.read_s", "s", "events_per_s@trace-audit"),
    ("obs.parse_s", "s", "events_per_s@trace-audit"),
    ("obs.causal_s", "s", "events_per_s@trace-audit"),
    ("obs.verify_s", "s", "events_per_s@trace-audit"),
    ("obs.stats_s", "s", "events_per_s@trace-audit"),
    ("obs.events", "count", "events_per_s@trace-audit"),
    ("obs.trace_bytes", "bytes", "events_per_s@trace-audit"),
    ("obs.tracer_on_ratio", "ratio", "wall_s@pipeline"),
    ("bench.trace_overhead_ratio", "ratio", "none (traced wall / untraced wall)"),
    ("core.self_s", "s", "self time of core calls"),
    ("simnet.self_s", "s", "self time of simnet calls"),
    ("storage.self_s", "s", "self time of storage calls"),
    ("engine.self_s", "s", "self time of engine calls"),
    ("txn.self_s", "s", "self time of txn calls"),
    ("pipeline.self_s", "s", "self time of pipeline calls"),
    ("check.self_s", "s", "self time of check calls"),
    ("obs.self_s", "s", "self time of obs calls"),
    ("bench.self_s", "s", "benchmark code between calls"),
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Worker threads the measured phase used.
    pub threads: usize,
    /// Gated operations (checker runs, pipeline runs, trace audits).
    pub attempted: u64,
    /// Operations whose output failed a correctness gate.
    pub failed: u64,
    /// One line per failed gate.
    pub failures: Vec<String>,
    /// End-to-end metrics that apply to the workload.
    pub e2e: Vec<Metric>,
    /// Deterministic work counts: the same for the same workload and seed.
    pub counts: Vec<(String, u64)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall seconds of every measured batch, in order.
    pub batch_walls: Vec<f64>,
}

impl Outcome {
    /// Record one gated operation; `failure` describes it when `ok` is false.
    pub fn op(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(failure());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.into(), value, unit });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|l| l.0 == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    fn e2e_value(&self, name: &str) -> f64 {
        self.e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }

    /// Human-readable lines, then the JSON result as the last line.
    pub fn print(&self, header: &str, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for m in &self.e2e {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        let walls: Vec<String> = self.batch_walls.iter().map(|w| format!("{w:.4}")).collect();
        let _ = writeln!(out, "batches {} wall_s: {}", walls.len(), walls.join(" "));
        for (name, v) in &self.counts {
            let _ = writeln!(out, "count {name} {v}");
        }
        if traced {
            for (name, unit, moves) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(out, "layer {name} {v} {unit} moves={moves}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(out, "gate FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "gates: {} of {} operations passed",
            self.attempted - self.failed,
            self.attempted
        );
        let _ = writeln!(out, "{}", self.result_json(traced));
        out
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    entry(name, self.layers.get(name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            END_TO_END.iter().map(|(name, unit)| entry(name, self.e2e_value(name), unit)).collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn entry(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbc_obs::json::{parse, Value};

    /// `(name, unit)` of every metric in one `BENCHMARK.json` list.
    fn listed(key: &str) -> Vec<(String, String)> {
        let bench = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Value::Arr(items)) = bench.get(key) else { panic!("no {key} list") };
        items
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(listed("per_layer"), own(&layers));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        out.metric("wall_s", 1.5, "s");
        let v = parse(&out.result_json(false)).expect("result parses");
        let Value::Obj(fields) = &v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = v.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let Some(Value::Obj(traced)) =
            parse(&out.result_json(true)).unwrap().get("metrics").cloned()
        else {
            panic!("no traced metrics")
        };
        assert_eq!(traced.len(), PER_LAYER.len());
    }
}
