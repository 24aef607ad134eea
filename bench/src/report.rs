//! Metric names and units — the one place they are spelled — and the JSON
//! the benchmark prints. `BENCHMARK.json` repeats these tables; a test
//! keeps the two in step.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::host;

/// Bumped when a metric or workload is renamed, added or redefined.
pub const SCHEMA_VERSION: u32 = 1;

/// End-to-end metrics, reported by every workload with tracing off: name,
/// unit, and how far the metric may worsen, as a share of the parent's
/// median, before a change counts as a regression (`bench/README.md`
/// records the spreads the bounds rest on). Failures are not among them
/// because a healthy build has none (a metric that reads 0 has no relative
/// bound); they are the `failed` and `attempted` counts beside the metrics
/// and make `correct` false.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("ops_per_s", "1/s", 0.25),
    ("p50_ms", "ms", 0.25),
    ("tail_ms", "ms", 0.25),
    ("cpu_ms_per_op", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.1),
];

/// Per-layer metrics, reported by the traced run. A layer the workload
/// does not enter reads 0 (`lsm.*` on the served workloads, `serve.*` to
/// `reason.*` on `ingest-live`).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("serve.wire_ms", "ms"),
    ("serve.parse_head_us", "us"),
    ("serve.encode_ms", "ms"),
    ("serve.bytes_per_row", "B/row"),
    ("core.search_ms", "ms"),
    ("core.lineage_ms", "ms"),
    ("core.answer_ms", "ms"),
    ("core.steps_per_row", "steps/row"),
    ("core.admission_us", "us"),
    ("sparql.parse_us", "us"),
    ("sparql.plan_us", "us"),
    ("sparql.exec_ms", "ms"),
    ("sparql.est_ratio", "ratio"),
    ("reason.overlay_ns_per_row", "ns/row"),
    ("reason.materialize_s", "s"),
    ("reason.derived_triples", "count"),
    ("rdf.dict_lookup_ns", "ns"),
    ("rdf.dict_decode_ns", "ns"),
    ("rdf.scan_s_ns_per_row", "ns/row"),
    ("rdf.scan_p_ns_per_row", "ns/row"),
    ("rdf.scan_o_ns_per_row", "ns/row"),
    ("rdf.scan_sp_ns_per_row", "ns/row"),
    ("rdf.merge_scan0_ns_per_row", "ns/row"),
    ("rdf.merge_scan4_ns_per_row", "ns/row"),
    ("rdf.merge_scan16_ns_per_row", "ns/row"),
    ("rdf.freeze_ms", "ms"),
    ("rdf.bytes_per_triple", "B"),
    ("lsm.batches_per_fsync", "ratio"),
    ("lsm.seals", "count"),
    ("lsm.compactions", "count"),
    ("lsm.stalls", "count"),
    ("lsm.space_amp", "ratio"),
    ("lsm.snapshot_scan_ms", "ms"),
    ("lsm.recover_s", "s"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
];

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Attempted operations that failed, were shed or truncated, or
    /// whose answer differed from the expected one.
    pub failed: u64,
    /// Checks beyond per-operation ones that did not hold (durability,
    /// precision@3, reader watermark …); each makes the run incorrect.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat for the same seed (`--check-repeat`).
    pub exact: BTreeMap<&'static str, u64>,
}

impl RunResult {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        RunResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            values: BTreeMap::new(),
            exact: BTreeMap::new(),
        }
    }

    /// Nothing failed, every check held, and every metric of an
    /// untraced run was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.violations.is_empty()
            && self.attempted > 0
            && (self.traced
                || END_TO_END
                    .iter()
                    .all(|(name, ..)| self.values.contains_key(name)))
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Names and units of the metrics this run reports.
    fn table(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _)| (name, unit))
                .collect()
        }
    }

    fn metrics_json(&self) -> Value {
        let entries = self
            .table()
            .into_iter()
            .map(|(name, unit)| {
                // Absent: a layer the workload never enters, or a run
                // that failed before measuring (then `correct` is false).
                let value = self.values.get(name).copied().unwrap_or(0.0);
                (name.to_string(), json!({ "value": value, "unit": unit }))
            })
            .collect();
        Value::Object(entries)
    }

    /// The one-line result object of the benchmark contract.
    pub fn contract_line(&self) -> String {
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": self.metrics_json(),
        });
        serde_json::to_string(&line).expect("result serializes")
    }

    fn document_entry(&self) -> Value {
        let exact: Vec<(String, Value)> = self
            .exact
            .iter()
            .map(|(k, v)| (k.to_string(), json!(*v)))
            .collect();
        json!({
            "n": self.attempted - self.failed,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct(),
            "violations": self.violations.clone(),
            "metrics": self.metrics_json(),
            "exact": Value::Object(exact),
        })
    }
}

/// The document a full set writes: the baseline files under
/// `bench/baseline/` are this, committed.
pub fn document(results: &[RunResult], seed: u64, seconds: f64, scale: &str) -> String {
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|r| (r.workload.to_string(), r.document_entry()))
        .collect();
    let doc = json!({
        "schema_version": SCHEMA_VERSION,
        "kind": if results.iter().any(|r| r.traced) { "layers" } else { "e2e" },
        "git_sha": std::env::var("MDW_BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".to_string()),
        "seed": seed,
        "run_seconds": seconds,
        "scale": scale,
        "host": {
            "nproc": host::nproc(),
            "cpu_model": host::cpu_model(),
            "kernel": host::kernel(),
        },
        "workloads": Value::Object(workloads),
    });
    serde_json::to_string_pretty(&doc).expect("document serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this file names,
    /// with the same units, and the five workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let manifest = include_str!("../../BENCHMARK.json");
        let flat: String = manifest.split_whitespace().collect();
        let end_to_end = END_TO_END.iter().map(|&(name, unit, _)| (name, unit));
        for (name, unit) in end_to_end.chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _, bound) in END_TO_END {
            let at = flat
                .find(&format!("{{\"name\":\"{name}\","))
                .expect("listed above");
            let entry = &flat[at..at + flat[at..].find('}').expect("entry closes")];
            assert!(
                entry.ends_with(&format!("\"bound\":{bound}")),
                "{entry} vs bound {bound}"
            );
        }
        let listed = flat.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metric in BENCHMARK.json"
        );
        for workload in crate::workload::ALL {
            assert!(
                flat.contains(&format!("{{\"name\":\"{workload}\",\"why\":")),
                "{workload}"
            );
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut result = RunResult::new("search-stream", false);
        result.attempted = 10;
        for (name, ..) in END_TO_END {
            result.set(name, 1.25);
        }
        let line = result.contract_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn an_absent_layer_reads_zero_and_failures_are_incorrect() {
        let mut result = RunResult::new("ingest-live", true);
        result.attempted = 3;
        result.failed = 1;
        let line = result.contract_line();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
        assert!(line.contains("\"serve.wire_ms\":{\"value\":0.0,\"unit\":\"ms\"}"));
    }
}
