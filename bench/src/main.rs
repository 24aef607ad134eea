//! The repository's standing benchmark: five paper-scale workloads through
//! `mdw-serve` and the LSM write path. See `bench/README.md`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out FILE] [--check-repeat]
//! ```
//!
//! With `--workload` the last line of standard output is the one-line
//! result object of the benchmark contract. Without it all five workloads
//! run as one set against one loaded warehouse and the output is the
//! document committed under `bench/baseline/`.

mod host;
mod ingest;
mod layers;
mod report;
mod rng;
mod serve_run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use mdw_corpus::{CorpusConfig, Scale};

use report::RunResult;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    check_repeat: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--out FILE] [--check-repeat]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
        check_repeat: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(*workload::ALL.iter().find(|w| *w == name).ok_or(format!(
                    "unknown workload {name}; one of {:?}",
                    workload::ALL
                ))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 0.5;
    }
    Ok(args)
}

/// Scratch space beside the executable: inside the build directory, so
/// inside the checkout and never committed.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe
        .parent()
        .expect("the executable has a directory")
        .join("bench-tmp");
    std::fs::create_dir_all(&dir).expect("scratch directory can be made");
    dir
}

/// Runs the requested workloads once. The four served workloads share one
/// loaded warehouse and server; `ingest-live` opens its own store.
fn run_set(args: &Args) -> Vec<RunResult> {
    // `--quick` runs on the corpus the repository grades keyword answers
    // on: as small as `Scale::Small`, but with enough concepts and reports
    // that the precision gate means something.
    let config = if args.quick {
        mdw_corpus::eval_config()
    } else {
        CorpusConfig::preset(Scale::Paper)
    };
    let window = Duration::from_secs_f64(args.seconds);
    let scratch = scratch_dir();
    let wanted: Vec<&'static str> = match args.workload {
        Some(name) => vec![name],
        None => workload::ALL.to_vec(),
    };
    let mut results = Vec::new();
    let served_names: Vec<_> = wanted
        .iter()
        .copied()
        .filter(|w| *w != workload::INGEST_LIVE)
        .collect();
    if !served_names.is_empty() {
        let want_cases = served_names.contains(&workload::KEYWORD_ANSWER);
        let served = serve_run::setup(&config, want_cases);
        eprintln!(
            "set-up {:.3} s (semantic index {:.3} s)",
            served.setup_s, served.materialize_s
        );
        for name in served_names {
            eprintln!("{name}:");
            results.push(if args.trace {
                let spans = scratch.join(format!("spans-{name}.jsonl"));
                layers::run(&served, name, args.seed, window, &spans)
            } else {
                serve_run::run(&served, name, args.seed, window)
            });
        }
    }
    if wanted.contains(&workload::INGEST_LIVE) {
        eprintln!("{}:", workload::INGEST_LIVE);
        results.push(ingest::run(&config, &scratch, window, args.trace));
    }
    for result in &results {
        if !result.exact.is_empty() {
            eprintln!("{} exact: {:?}", result.workload, result.exact);
        }
        for why in &result.violations {
            eprintln!("{}: VIOLATION: {why}", result.workload);
        }
    }
    results
}

/// The metric values of a contract result line, by name.
fn metric_values(line: &str) -> BTreeMap<String, f64> {
    // `"name":{"value":1.5,"unit":"ms"}`: the name is the last quoted
    // string before each `:{"value":`.
    let mut values = BTreeMap::new();
    let mut pieces = line.split("\":{\"value\":");
    let mut before = pieces.next().unwrap_or_default();
    for piece in pieces {
        let name = before.rsplit('"').next().unwrap_or_default();
        let number = piece.split(',').next().unwrap_or_default();
        if let Ok(value) = number.parse() {
            values.insert(name.to_string(), value);
        }
        before = piece;
    }
    values
}

/// One workload in a process of its own, as the driver runs it: the result
/// line and the `exact:` line of its standard error.
fn run_in_child(args: &Args, workload: &str) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command.args(["--workload", workload, "--trace", "0"]);
    command.args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("{workload} failed:\n{stderr}"));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let exact = stderr
        .lines()
        .find(|l| l.contains(" exact: "))
        .unwrap_or_default();
    Ok((line, exact.trim().to_string()))
}

/// Runs every requested workload twice, each run in a fresh process (a
/// second run inside one process inherits the first's fragmented heap and
/// is a tenth slower to set up), and checks that the two agree: every
/// end-to-end metric within its bound, the exact counts identical. Prints
/// each spread. `setup_s` is printed but not judged: single set-ups differ
/// by up to a third on the shared host, which is why the driver compares
/// medians of ten.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut agree = true;
    let wanted = args
        .workload
        .map_or(workload::ALL.to_vec(), |name| vec![name]);
    for name in wanted {
        let (first, first_exact) = run_in_child(args, name)?;
        let (second, second_exact) = run_in_child(args, name)?;
        let (first, second) = (metric_values(&first), metric_values(&second));
        for (metric, _, bound) in report::END_TO_END {
            let (Some(&x), Some(&y)) = (first.get(metric), second.get(metric)) else {
                return Err(format!("{name}: no {metric} in the result line"));
            };
            let spread = (x - y).abs() / x.min(y);
            let verdict = if metric == "setup_s" {
                "not judged"
            } else if spread <= bound {
                "ok"
            } else {
                agree = false;
                "OUTSIDE"
            };
            println!(
                "{name:<15} {metric:<14} {x:>12.4} {y:>12.4}  spread {:>6.2} %  bound {:>4.0} %  {verdict}",
                spread * 100.0,
                bound * 100.0,
            );
        }
        if first_exact != second_exact {
            agree = false;
            println!("{name:<15} exact counts differ: {first_exact:?} vs {second_exact:?}");
        }
    }
    Ok(agree)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|why| {
        eprintln!("{why}\n{USAGE}");
        std::process::exit(2);
    });
    if args.check_repeat {
        let agree = check_repeat(&args).unwrap_or_else(|why| {
            eprintln!("{why}");
            false
        });
        std::process::exit(if agree { 0 } else { 1 });
    }
    let results = run_set(&args);
    let ok = results.iter().all(RunResult::correct);
    let scale = if args.quick { "eval" } else { "paper" };
    let printed = match (&args.workload, results.as_slice()) {
        (Some(_), [only]) => only.contract_line(),
        _ => report::document(&results, args.seed, args.seconds, scale),
    };
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{printed}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
    }
    println!("{printed}");
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let args = parse_args(&argv(&[
            "--workload",
            "sparql-plan",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(workload::SPARQL_PLAN));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert_eq!(parse_args(&argv(&["--quick"])).unwrap().seconds, 0.5);
    }

    #[test]
    fn result_lines_read_back() {
        let mut result = RunResult::new(workload::LINEAGE_WALK, false);
        result.attempted = 3;
        for (i, (name, ..)) in report::END_TO_END.into_iter().enumerate() {
            result.set(name, i as f64 + 0.25);
        }
        let values = metric_values(&result.contract_line());
        assert_eq!(values.len(), report::END_TO_END.len());
        assert_eq!(values["ops_per_s"], 0.25);
        assert_eq!(values["peak_rss_mb"], 5.25);
    }

    /// All five workloads and the verifier on the small corpus, untraced
    /// and traced, in a few seconds.
    #[test]
    fn quick_smoke_runs_every_workload_and_verifies() {
        for trace in [false, true] {
            let args = Args {
                trace,
                ..parse_args(&argv(&["--quick"])).unwrap()
            };
            let results = run_set(&args);
            assert_eq!(
                results.iter().map(|r| r.workload).collect::<Vec<_>>(),
                workload::ALL.to_vec()
            );
            for result in &results {
                assert!(
                    result.correct(),
                    "{}: {:?}",
                    result.workload,
                    result.violations
                );
                assert!(
                    result.attempted >= 10,
                    "{}: {} ops",
                    result.workload,
                    result.attempted
                );
                // Every metric of the mode is there and serializes.
                assert!(result.contract_line().contains("\"correct\":true"));
            }
        }
    }
}
