//! Integration tests for the `mdwh` command-line frontend: generate a
//! store on disk, then drive every subcommand against it.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::{vocab, Term};

fn mdwh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mdwh"))
}

/// A shared generated store (built once per test binary run).
fn store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mdwh-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let output = mdwh()
            .args(["generate", "--scale", "small", "--out"])
            .arg(&dir)
            .output()
            .expect("run mdwh generate");
        assert!(
            output.status.success(),
            "generate failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        dir
    })
}

fn run_ok(args: &[&str]) -> String {
    let dir = store_dir();
    let output = mdwh()
        .args(args.iter().flat_map(|a| {
            if *a == "@STORE" {
                vec!["--store", dir.to_str().unwrap()]
            } else {
                vec![*a]
            }
        }))
        .output()
        .expect("run mdwh");
    assert!(
        output.status.success(),
        "mdwh {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).to_string()
}

#[test]
fn info_reports_scale() {
    let out = run_ok(&["info", "@STORE"]);
    assert!(out.contains("model:   DWH_CURR"));
    assert!(out.contains("nodes:"));
    assert!(out.contains("derived:"));
}

#[test]
fn census_prints_table1() {
    let out = run_ok(&["census", "@STORE"]);
    assert!(out.contains("Table I census"));
    assert!(out.contains("Hierarchies"));
}

#[test]
fn search_with_synonyms() {
    let plain = run_ok(&["search", "@STORE", "client"]);
    let expanded = run_ok(&["search", "@STORE", "client", "--synonyms"]);
    assert!(expanded.contains("expanded to: client, customer, partner"));
    // Synonyms can only widen the result set.
    let count = |s: &str| {
        s.lines()
            .find(|l| l.contains("distinct matching instance"))
            .and_then(|l| l.trim().split(' ').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0)
    };
    assert!(count(&expanded) >= count(&plain));
}

#[test]
fn lineage_downstream_and_filtered() {
    let out = run_ok(&["lineage", "@STORE", "dwh_stage0_item0"]);
    assert!(out.contains("Lineage from dwh_stage0_item0"));
    assert!(out.contains("--isMappedTo"));
    let filtered = run_ok(&[
        "lineage",
        "@STORE",
        "dwh_stage0_item0",
        "--rule-filter",
        "segment = 'PB'",
    ]);
    assert!(filtered.contains("endpoints"));
}

#[test]
fn audit_lists_roles() {
    let out = run_ok(&["audit", "@STORE", "dwh_stage2_item0"]);
    assert!(out.contains("Access audit for dwh_stage2_item0"));
    assert!(out.contains("distinct users with access:"));
}

#[test]
fn sparql_pattern_and_full_query() {
    let out = run_ok(&["sparql", "@STORE", "{ ?x rdf:type dm:Application }"]);
    assert!(out.contains("rows)"));
    let out = run_ok(&[
        "sparql",
        "@STORE",
        "SELECT (COUNT(*) AS ?n) WHERE { ?x a dm:Application }",
    ]);
    assert!(out.contains("(1 rows)"));
    assert!(out.contains('3')); // small corpus has 3 applications
    // ASK through the full-query path.
    let out = run_ok(&["sparql", "@STORE", "ASK { ?x a dm:Application }"]);
    assert!(out.contains("true"));
    // Both forms go through the warehouse, so both see the semantic index:
    // same rows for the same pattern, fewer once the rulebase is off.
    let rows = |args: &[&str]| -> usize {
        let out = run_ok(args);
        let line = out.lines().find(|l| l.ends_with(" rows)")).expect("row-count line");
        line[1..].split(' ').next().unwrap().parse().expect("row count")
    };
    let pattern = rows(&["sparql", "@STORE", "{ ?x rdf:type dm:Attribute }"]);
    let select = "SELECT ?x WHERE { ?x rdf:type dm:Attribute }";
    assert!(pattern > 0);
    assert_eq!(rows(&["sparql", "@STORE", select]), pattern);
    assert!(rows(&["sparql", "@STORE", select, "--no-rulebase"]) < pattern);
}

/// `--store` commands open the store the way the warehouse does — snapshot,
/// runs and journal — so they see every acknowledged write, checkpointed
/// or not. (Reading the snapshot alone, the parent answered from stale
/// state here, or refused a directory that had never been checkpointed.)
#[test]
fn store_commands_see_writes_that_were_never_checkpointed() {
    let dir = std::env::temp_dir().join(format!("mdwh-cli-unfolded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = |name: &str| {
        (
            Term::iri(vocab::cs::dwh(name)),
            Term::iri(vocab::rdf::TYPE),
            Term::iri(vocab::cs::dm("Application")),
        )
    };
    {
        let (mut w, _) = MetadataWarehouse::open(&dir).unwrap();
        // A bulk delivery is folded into the base snapshot…
        w.ingest(vec![Extract::new("scanner", vec![app("early_app")])]).unwrap();
        // …a single fact lives in the journal alone. No checkpoint.
        let (s, p, o) = app("late_app");
        assert!(w.insert_fact(&s, &p, &o).unwrap());
    }
    let run = |args: &[&str]| {
        let output = mdwh().args(args).arg("--store").arg(&dir).output().expect("run mdwh");
        assert!(
            output.status.success(),
            "mdwh {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let out = run(&["sparql", "SELECT ?x WHERE { ?x a dm:Application }"]);
    assert!(out.contains("early_app") && out.contains("late_app"), "{out}");
    assert!(out.contains("(2 rows)"), "{out}");
    assert!(run(&["info"]).contains("edges:   2"));
    // fsck agrees the directory is sound, and recover folds it for good.
    assert!(run(&["fsck"]).contains("clean"));
    assert!(run(&["recover"]).contains("checkpointed 2 triples"));
    assert!(run(&["sparql", "ASK { dwh:late_app a dm:Application }"]).contains("true"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gaps_reports_coverage() {
    let out = run_ok(&["gaps", "@STORE"]);
    // The base corpus assigns no owners: every data-mart item is a gap.
    let head = "data-mart items inspected: 10  |  ownerless: 10  |  coverage: 0.0 %\n";
    assert!(out.starts_with(head), "{out}");
    assert_eq!(out.lines().filter(|l| l.starts_with("  dwh_stage2_item")).count(), 10);
}

#[test]
fn sources_ranks_candidates() {
    let out = run_ok(&["sources", "@STORE", "Party"]);
    assert!(out.contains("Data sources for concept Party"));
}

#[test]
fn search_with_step_budget_reports_truncation() {
    let out = run_ok(&["search", "@STORE", "client", "--max-steps", "0"]);
    assert!(out.contains("truncated"), "expected truncation note in: {out}");
}

#[test]
fn lineage_with_generous_deadline_stays_complete() {
    let out = run_ok(&[
        "lineage",
        "@STORE",
        "dwh_stage0_item0",
        "--deadline-ms",
        "10000",
    ]);
    assert!(out.contains("Lineage from dwh_stage0_item0"));
    assert!(!out.contains("truncated"), "unexpected truncation in: {out}");
}

#[test]
fn sparql_with_row_budget_returns_tagged_partial() {
    let out = run_ok(&["sparql", "@STORE", "{ ?x rdf:type ?c }", "--max-rows", "2"]);
    assert!(out.contains("(2 rows)"));
    assert!(out.contains("truncated (row limit)"), "missing verdict in: {out}");
}

#[test]
fn drill_overload_sheds_without_panicking() {
    let output = mdwh()
        .args([
            "drill",
            "overload",
            "--threads",
            "8",
            "--requests",
            "32",
            "--quota",
            "1",
            "--expect-shed",
        ])
        .output()
        .expect("run mdwh drill overload");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "drill failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "worker panicked: {stderr}");
    let count = |label: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.starts_with(label))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no {label} line: {stdout}"))
    };
    let (shed, admitted, completed) = (count("shed:"), count("admitted:"), count("completed:"));
    assert!(shed > 0, "forced-low quotas must shed: {stdout}");
    // The gate sees every request, and every admitted one is answered.
    assert_eq!(admitted + shed, 8 * 32, "{stdout}");
    assert_eq!(completed, admitted, "{stdout}");
}

/// `--inject` arms process-wide: a wire fault named on the command line
/// fires on the in-process server's event-loop thread, which the arming
/// (main) thread never is, and the server's own counters show it.
#[test]
fn injected_wire_fault_reaches_the_in_process_server() {
    let out = run_ok(&[
        "drill",
        "wire",
        "@STORE",
        "--connections",
        "6",
        "--inject",
        "wire::accept=times:2",
    ]);
    let stats = out.lines().find(|l| l.starts_with("stats:")).expect("stats line");
    assert!(stats.contains("\"accept_errors\":2"), "fault never fired: {stats}");
    assert!(out.contains("io errors: 2"), "dropped connections not seen: {out}");
}

/// `generate`'s ingest stages every extract, so an armed
/// `staging::bulk_load` fails it: exit 2, with the fault named.
#[test]
fn injected_staging_fault_fails_generate() {
    let dir = std::env::temp_dir().join(format!("mdwh-cli-inject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = mdwh()
        .args(["generate", "--scale", "small", "--inject", "staging::bulk_load=once", "--out"])
        .arg(&dir)
        .output()
        .expect("run mdwh generate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("injected fault at failpoint: staging::bulk_load"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = mdwh().arg("frobnicate").output().expect("run mdwh");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

/// `mdwh <command> --store DIR <rest…>` exits 2 with the usage text, and
/// nothing was run.
fn assert_usage_error(args: &[&str]) {
    let (command, rest) = args.split_first().unwrap();
    let output = mdwh()
        .arg(command)
        .arg("--store")
        .arg(store_dir())
        .args(rest)
        .output()
        .expect("run mdwh");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "mdwh {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "mdwh {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "mdwh {args:?} still ran");
}

/// A flag the command does not declare is refused — not taken for a
/// boolean, which made `--thread 4 customer` a search for the term `4`.
#[test]
fn unknown_flag_fails_with_usage() {
    assert_usage_error(&["search", "--thread", "4", "customer"]);
    assert_usage_error(&["search", "client", "--synonym"]);
    assert_usage_error(&["info", "--bogus"]);
    // Declared, but by another command.
    assert_usage_error(&["census", "--depth", "2"]);
}

/// A value flag that ends the line is refused, not dropped.
#[test]
fn missing_flag_value_fails_with_usage() {
    assert_usage_error(&["lineage", "dwh_stage0_item0", "--depth"]);
    assert_usage_error(&["search", "client", "--max-rows"]);
}

/// Queries run on one thread: `--threads` is a drill's client or reader
/// count only, and a query command refuses it.
#[test]
fn query_commands_refuse_threads() {
    assert_usage_error(&["lineage", "dwh_stage0_item0", "--threads", "2"]);
}
