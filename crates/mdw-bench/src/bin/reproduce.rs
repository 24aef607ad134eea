//! The reproduction harness: regenerates every table, figure, and listing
//! of the paper, plus the three quantitative studies.
//!
//! Usage:
//!
//! ```text
//! reproduce [EXPERIMENT] [--scale small|medium|paper] [--json FILE]
//! ```
//!
//! With `--json FILE`, a machine-readable record of every experiment run
//! (id, scale, report text, wall-clock) is appended to FILE — the archival
//! format EXPERIMENTS.md is regenerated from.
//!
//! Experiments: the ids of `experiments::EXPERIMENTS` (`--help` lists
//! them), or `all` (default: all at medium scale; paper scale reproduces
//! the published 130 k-node / 1.2 M-edge size and takes a few minutes end
//! to end).

use mdw_bench::experiments::EXPERIMENTS;
use mdw_bench::setup::parse_scale;
use mdw_corpus::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale = Scale::Medium;
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                json_path = iter.next().cloned();
                if json_path.is_none() {
                    eprintln!("--json needs a file path");
                    std::process::exit(2);
                }
            }
            "--scale" => {
                let value = iter.next().map(String::as_str).unwrap_or("");
                match parse_scale(value) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale: {value} (use small|medium|paper)");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                println!(
                    "usage: reproduce [EXPERIMENT] [--scale small|medium|paper] [--json FILE]\n\
                     experiments: {} all",
                    ids.join(" ")
                );
                return;
            }
            name => experiment = name.to_string(),
        }
    }

    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| experiment == "all" || experiment == *id)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {experiment} (try --help)");
        std::process::exit(2);
    }
    let mut records: Vec<serde_json::Value> = Vec::new();
    for (id, run) in selected {
        let started = std::time::Instant::now();
        let report = run(scale);
        let elapsed = started.elapsed();
        println!("{report}");
        if experiment == "all" {
            println!();
        }
        records.push(serde_json::json!({
            "experiment": id,
            "scale": format!("{scale:?}"),
            "wall_clock_ms": elapsed.as_millis() as u64,
            "report": report,
        }));
    }

    if let Some(path) = json_path {
        let doc = serde_json::json!({
            "paper": "The Credit Suisse Meta-data Warehouse (ICDE 2012)",
            "records": records,
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote JSON record to {path}");
    }
}
