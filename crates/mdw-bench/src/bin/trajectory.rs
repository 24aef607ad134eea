//! Trajectory diff: two points of the standing benchmark, compared metric
//! by metric in units of each metric's `BENCHMARK.json` bound.
//!
//! Usage: trajectory BEFORE/BENCH_e2e.json AFTER/BENCH_e2e.json [BENCHMARK.json]
//!
//! A point is the `BENCH_e2e.json` the unmodified bench writes with
//! `--out`; committed points live under `trajectory/<pr>-<sha>/`. For every
//! workload of the later point and every end-to-end metric, the tool
//! prints both values, the relative change, and that change divided by the
//! metric's bound, signed so that positive is better. A metric worse by
//! more than its bound is marked `OUT`; so is a workload whose failure
//! count grew or whose answers stopped being correct. The exit status is
//! 0 either way: the diff is a report, the benchmark's own gate decides.

use std::fmt::Write as _;
use std::process::ExitCode;

use serde_json::{Number, Value};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, PartialEq)]
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Number(Number::Int(v)) => Some(*v as f64),
        Value::Number(Number::UInt(v)) => Some(*v as f64),
        Value::Number(Number::Float(v)) => Some(*v),
        _ => None,
    }
}

fn text(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Array(metrics)) = field(benchmark, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = field(m, "name").and_then(text).ok_or("an end_to_end metric has no name")?;
            let better = field(m, "better").and_then(text).ok_or("an end_to_end metric has no `better`")?;
            let bound = field(m, "bound").and_then(number).ok_or("an end_to_end metric has no bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// The workloads of a point, in file order.
fn workloads(point: &Value) -> Result<&[(String, Value)], String> {
    match field(point, "workloads") {
        Some(Value::Object(w)) => Ok(w),
        _ => Err("a point has no workloads object".into()),
    }
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    field(workload, "metrics").and_then(|m| field(m, name)).and_then(|m| field(m, "value")).and_then(number)
}

/// The change from `before` to `after` in units of `bound.bound`, positive
/// when better.
fn in_bounds(bound: &Bound, before: f64, after: f64) -> f64 {
    let relative = (after - before) / before;
    let signed = if bound.higher_is_better { relative } else { -relative };
    signed / bound.bound
}

fn diff(before: &Value, after: &Value, benchmark: &Value) -> Result<String, String> {
    let bounds = bounds(benchmark)?;
    let sha = |p: &Value| field(p, "git_sha").and_then(text).unwrap_or("?").to_string();
    let mut out = String::new();
    let _ = writeln!(out, "trajectory: {} -> {}", sha(before), sha(after));
    let _ = writeln!(out, "(in bounds: relative change / bound, positive = better; OUT = worse by more than the bound)");
    let _ = writeln!(
        out,
        "{:<15} {:<14} {:>12} {:>12} {:>9} {:>10}",
        "workload", "metric", "before", "after", "change", "in bounds"
    );
    let earlier = workloads(before)?;
    for (name, now) in workloads(after)? {
        let Some((_, then)) = earlier.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<15} (new in the later point)");
            continue;
        };
        let failed = |w: &Value| field(w, "failed").and_then(number).unwrap_or(0.0);
        let correct = |w: &Value| matches!(field(w, "correct"), Some(Value::Bool(true)));
        if failed(now) > failed(then) || (correct(then) && !correct(now)) {
            let _ = writeln!(
                out,
                "{name:<15} OUT: failed {} -> {}, correct {} -> {}",
                failed(then),
                failed(now),
                correct(then),
                correct(now)
            );
        }
        for bound in &bounds {
            let (Some(b), Some(a)) = (metric(then, &bound.name), metric(now, &bound.name)) else {
                continue;
            };
            let units = in_bounds(bound, b, a);
            let _ = writeln!(
                out,
                "{name:<15} {:<14} {b:>12.4} {a:>12.4} {:>8.1}% {units:>+10.2}{}",
                bound.name,
                (a - b) / b * 100.0,
                if units < -1.0 { " OUT" } else { "" }
            );
        }
    }
    Ok(out)
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(2..=3).contains(&args.len()) {
        eprintln!("usage: trajectory BEFORE/BENCH_e2e.json AFTER/BENCH_e2e.json [BENCHMARK.json]");
        return ExitCode::from(2);
    }
    let benchmark = args.get(2).map_or("BENCHMARK.json", String::as_str);
    match (|| diff(&read(&args[0])?, &read(&args[1])?, &read(benchmark)?))() {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
    ]}"#;

    fn point(sha: &str, ops: f64, p50: f64, failed: u64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"git_sha": "{sha}", "workloads": {{"keyword-answer": {{"failed": {failed}, "correct": true,
                "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                             "p50_ms": {{"value": {p50}, "unit": "ms"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn reads_the_declared_bounds() {
        let b = bounds(&serde_json::from_str(BENCHMARK).unwrap()).unwrap();
        assert_eq!(b[0], Bound { name: "ops_per_s".into(), higher_is_better: true, bound: 0.25 });
        assert!(!b[1].higher_is_better);
    }

    #[test]
    fn changes_are_signed_by_direction_and_scaled_by_the_bound() {
        let lower = Bound { name: "p50_ms".into(), higher_is_better: false, bound: 0.25 };
        let higher = Bound { name: "ops_per_s".into(), higher_is_better: true, bound: 0.25 };
        assert!((in_bounds(&lower, 8.0, 4.0) - 2.0).abs() < 1e-12);
        assert!((in_bounds(&higher, 8.0, 4.0) + 2.0).abs() < 1e-12);
        assert!((in_bounds(&higher, 10.0, 11.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn the_report_marks_what_left_its_bound() {
        let benchmark = serde_json::from_str(BENCHMARK).unwrap();
        let report = diff(&point("a", 100.0, 8.0, 0), &point("b", 70.0, 4.0, 1), &benchmark).unwrap();
        assert!(report.starts_with("trajectory: a -> b\n"), "{report}");
        let line = |m: &str| report.lines().find(|l| l.contains(m)).unwrap().to_string();
        assert!(line("ops_per_s").ends_with("-1.20 OUT"), "{report}");
        assert!(line("p50_ms").ends_with("+2.00"), "{report}");
        assert!(line("failed").contains("OUT: failed 0 -> 1"), "{report}");
    }
}
