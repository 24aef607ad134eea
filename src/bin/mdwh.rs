//! `mdwh` — a command-line frontend for the meta-data warehouse.
//!
//! The paper's warehouse has a web frontend (Figures 6 and 7); this CLI is
//! the open-source equivalent: generate a landscape, persist it, and ask it
//! the paper's questions from the shell.
//!
//! ```text
//! mdwh generate --scale medium --out ./mdw-data [--seed N] [--extended]
//! mdwh info     --store ./mdw-data
//! mdwh census   --store ./mdw-data
//! mdwh search   --store ./mdw-data customer [--synonyms] [--area Integration]
//! mdwh lineage  --store ./mdw-data dwh_stage0_item0 [--upstream] [--depth N]
//!               [--rule-filter "segment = 'PB'"]
//! mdwh audit    --store ./mdw-data dwh_stage2_item0
//! mdwh sparql   --store ./mdw-data 'SELECT ?x WHERE { ?x a dm:Application }'
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use metadata_warehouse::core::admission::AdmissionConfig;
use metadata_warehouse::core::answer::AnswerRequest;
use metadata_warehouse::rdf::budget::{Completeness, MonotonicTime, QueryBudget};
use metadata_warehouse::core::error::MdwError;
use metadata_warehouse::core::governance::render_access;
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::model::Area;
use metadata_warehouse::core::report;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::{MetadataWarehouse, DEFAULT_MODEL};
use metadata_warehouse::corpus::{generate, CorpusConfig, Scale};
use metadata_warehouse::rdf::failpoint;
use metadata_warehouse::rdf::journal::JournalOp;
use metadata_warehouse::rdf::lsm::{LsmConfig, LsmStore};
use metadata_warehouse::rdf::metrics::{self, CounterSet};
use metadata_warehouse::rdf::persist;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::{FailSpec, RdfError, Term};
use metadata_warehouse::serve::{client, epoll, serve, signal, ServerConfig};
use metadata_warehouse::sparql::SemMatch;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mdwh: {message}");
            ExitCode::from(2)
        }
    }
}

/// One row per command: the one table that the usage text, the dispatch
/// and the flag parser all read.
struct Command {
    /// One or two words: `search`, `drill wire`.
    name: &'static str,
    /// The rest of the command's usage line — and its grammar: `--key
    /// VALUE` declares a value flag, `[--key]` a boolean one, any other
    /// word a positional; what the synopsis does not spell is refused.
    synopsis: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        synopsis: "[--scale small|medium|paper] --out DIR [--seed N] [--extended]",
        run: cmd_generate,
    },
    Command { name: "info", synopsis: "--store DIR", run: cmd_info },
    Command { name: "census", synopsis: "--store DIR", run: cmd_census },
    Command {
        name: "search",
        synopsis: "--store DIR TERM [--synonyms] [--area NAME] [--class LOCAL]
                [--deadline-ms MS] [--max-rows N] [--max-steps N]",
        run: cmd_search,
    },
    Command {
        name: "answer",
        synopsis: "--store DIR \"KEYWORDS\" [--top-k N] [--explain]
                [--deadline-ms MS] [--max-rows N] [--max-steps N]",
        run: cmd_answer,
    },
    Command {
        name: "lineage",
        synopsis: "--store DIR ITEM [--upstream] [--depth N] [--rule-filter STR]
                [--deadline-ms MS] [--max-rows N] [--max-steps N]",
        run: cmd_lineage,
    },
    Command { name: "audit", synopsis: "--store DIR ITEM", run: cmd_audit },
    Command { name: "gaps", synopsis: "--store DIR", run: cmd_gaps },
    Command { name: "sources", synopsis: "--store DIR CONCEPT", run: cmd_sources },
    Command {
        name: "sparql",
        synopsis: "--store DIR QUERY [--no-rulebase] [--explain] [--no-planner]
                [--deadline-ms MS] [--max-rows N] [--max-steps N]",
        run: cmd_sparql,
    },
    Command { name: "fsck", synopsis: "--store DIR", run: cmd_fsck },
    Command { name: "recover", synopsis: "--store DIR", run: cmd_recover },
    Command {
        name: "serve",
        synopsis: "[--store DIR] [--addr HOST:PORT] [--quota N] [--max-conns N]
                [--workers N] [--deadline-ms MS] [--drain-grace-ms MS]
                [--no-admission] [--seed N]",
        run: cmd_serve,
    },
    Command {
        name: "drill overload",
        synopsis: "[--store DIR] [--threads N] [--requests N] [--quota N]
                      [--deadline-ms MS] [--seed N] [--expect-shed]
                      [--writer-race [--writes N]]",
        run: drill_overload,
    },
    Command {
        name: "drill wire",
        synopsis: "[--addr HOST:PORT] [--connections N] [--requests N]
                  [--quota N] [--tenants N] [--max-conns N] [--deadline-ms MS]
                  [--no-admission] [--expect-shed] [--rss-ceiling-kb N]
                  [--store DIR] [--seed N]",
        run: drill_wire,
    },
    Command {
        name: "drill crash",
        synopsis: "[--writers N] [--readers N] [--batches N] [--batch-size N]
                   [--failpoint NAME] [--memtable N] [--stall-runs N]
                   [--stall-deadline-ms MS] [--store DIR]",
        run: drill_crash,
    },
];

/// Accepted by every command.
const GLOBAL_FLAGS: &str = "[--inject LIST]";

const USAGE_NOTES: &str = "
Serving: `mdwh serve` answers GET /search?q=, /lineage?item=, /sparql?query=
as streamed ndjson over HTTP/1.1 keep-alive; X-Deadline-Ms / X-Max-Rows /
X-Tenant headers map to a query budget and a per-tenant admission gate, and
GET /admin/stats reports the event loop's counters (accepted, timeouts by
state, keep-alive reuses, accept backoffs). SIGTERM drains gracefully:
in-flight responses finish (or return truthful truncated prefixes), then
the process exits.

Query budgets: a blown --deadline-ms, --max-rows or --max-steps budget
returns the partial answer tagged `truncated` instead of an error.

Planning: sparql orders joins by frozen-index statistics. --explain
prints the chosen plan (estimated vs observed rows per pattern, pushed
filters); --no-planner runs patterns in written order instead.

Fault drills: --inject 'name=spec,…' (or MDWH_FAILPOINTS env) arms
failpoints process-wide on any command (server and drill threads see
them); spec is once | times:N | always | pct:P[:SEED].";

fn usage() -> String {
    let mut text = "usage:\n".to_string();
    for command in COMMANDS {
        text.push_str(&format!("  mdwh {:<8} {}\n", command.name, command.synopsis));
    }
    text + USAGE_NOTES
}

/// Reads a synopsis (plus [`GLOBAL_FLAGS`]) as a grammar: the flags it
/// declares, each with whether it takes a value, and its positionals.
fn grammar(synopsis: &'static str) -> (Vec<(&'static str, bool)>, Vec<&'static str>) {
    let (mut flags, mut positionals) = (Vec::new(), Vec::new());
    let mut tokens = synopsis.split_whitespace().chain(GLOBAL_FLAGS.split_whitespace()).peekable();
    while let Some(token) = tokens.next() {
        let Some(flag) = token.trim_start_matches('[').strip_prefix("--") else {
            positionals.push(token);
            continue;
        };
        let takes_value =
            !flag.ends_with(']') && tokens.peek().is_some_and(|next| !next.starts_with(['[', '-']));
        if takes_value {
            tokens.next();
        }
        flags.push((flag.trim_end_matches(']'), takes_value));
    }
    (flags, positionals)
}

/// The parsed command line: `--key value` pairs, `--flag` booleans, and
/// bare positionals.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

/// Parses `args` against what `command` declares: an undeclared flag, a
/// value flag that ends the line, or a missing or surplus positional is an
/// error, not a guess.
fn parse_args(command: &Command, args: &[String]) -> Result<Args, String> {
    let (declared, positionals) = grammar(command.synopsis);
    let mut parsed = Args { positional: Vec::new(), options: Vec::new(), flags: Vec::new() };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            parsed.positional.push(arg.clone());
            continue;
        };
        match declared.iter().find(|(flag, _)| *flag == key) {
            Some((_, true)) => {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.options.push((key.to_string(), value.clone()));
            }
            Some((_, false)) => parsed.flags.push(key.to_string()),
            None => return Err(format!("{} has no flag {arg}", command.name)),
        }
    }
    if parsed.positional.len() != positionals.len() {
        return Err(format!(
            "{} takes {} argument(s) {}, got {}",
            command.name,
            positionals.len(),
            positionals.join(" "),
            parsed.positional.len()
        ));
    }
    Ok(parsed)
}

impl Args {
    fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    if matches!(args.first().map(String::as_str), Some("help" | "--help" | "-h")) {
        println!("{}", usage());
        return Ok(());
    }
    // A command's name is its first word, or its first two (`drill wire`).
    let found = COMMANDS.iter().find_map(|command| {
        let words = command.name.split(' ').count();
        (args.len() >= words && args[..words].join(" ") == command.name)
            .then(|| (command, &args[words..]))
    });
    let Some((command, rest)) = found else {
        let named = args.join(" ");
        let unknown = if named.is_empty() { named } else { format!("unknown command: {named}\n") };
        return Err(unknown + &usage());
    };
    let parsed = parse_args(command, rest).map_err(|e| format!("{e}\n{}", usage()))?;
    arm_failpoints(&parsed)?;
    (command.run)(&parsed)
}

/// Arms fault-injection failpoints from `--inject` and the
/// `MDWH_FAILPOINTS` environment variable (fault drills: run a real
/// command while the persistence layer or the wire misbehaves on purpose).
/// Process-global, so the threads a command starts — the server's event
/// loop and workers — see them too.
fn arm_failpoints(args: &Args) -> Result<(), String> {
    let env = std::env::var("MDWH_FAILPOINTS").ok();
    for (source, list) in [(" from env", env.as_deref()), ("", args.option("inject"))] {
        let names = failpoint::arm_from_list_global(list.unwrap_or(""))?;
        if !names.is_empty() {
            eprintln!("mdwh: armed failpoints{source}: {}", names.join(", "));
        }
    }
    Ok(())
}

fn cmd_fsck(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.option("store").ok_or("missing --store DIR")?);
    let report = persist::fsck(&dir).map_err(|e| e.to_string())?;
    match &report.snapshot {
        Some(info) => println!(
            "snapshot: generation {} (journal seq {})",
            info.generation, info.journal_seq
        ),
        None => println!("snapshot: none"),
    }
    for model in &report.models {
        match (&model.problem, model.triples) {
            (Some(problem), _) => println!("  model {} [{}]: {problem}", model.name, model.file),
            (None, Some(n)) => println!("  model {} [{}]: ok, {n} triples", model.name, model.file),
            (None, None) => println!("  model {} [{}]: ok", model.name, model.file),
        }
    }
    println!(
        "journal:  {} committed batch(es), {} torn byte(s)",
        report.committed_batches, report.torn_bytes
    );
    println!("runs:     {} live run(s)", report.run_entries);
    if report.clean() {
        println!("clean");
        Ok(())
    } else {
        for issue in &report.issues {
            println!("issue: {issue}");
        }
        Err(format!("{} issue(s) found", report.issues.len()))
    }
}

/// The directory `--store` names; it must already exist (`open` would
/// otherwise create an empty store at a mistyped path).
fn store_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(args.option("store").ok_or("missing --store DIR")?);
    if dir.is_dir() {
        Ok(dir)
    } else {
        Err(format!("no store directory at {}", dir.display()))
    }
}

fn cmd_recover(args: &Args) -> Result<(), String> {
    let dir = store_dir(args)?;
    // Recovery is the engine's open; the checkpoint makes the repair
    // durable: one solid snapshot, no runs, a journal rebased past it.
    let config = LsmConfig { auto_compact: false, ..LsmConfig::default() };
    let (store, report) = LsmStore::open(&dir, config).map_err(|e| e.to_string())?;
    let gen = report
        .snapshot_generation
        .map_or_else(|| "none".to_string(), |g| g.to_string());
    println!(
        "recovered: snapshot gen {gen}, {} run(s) loaded ({} already folded), replayed {} \
         batch(es) up to seq {}, quarantined {} orphan run file(s)",
        report.runs_loaded,
        report.runs_already_folded,
        report.replayed_batches,
        report.last_seq,
        report.quarantined.len(),
    );
    let save = store.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "checkpointed {} triples across {} model(s) as generation {}",
        save.total(),
        save.models.len(),
        save.generation
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let scale = match args.option("scale").unwrap_or("medium") {
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "paper" => Scale::Paper,
        other => return Err(format!("unknown scale: {other}")),
    };
    let out = PathBuf::from(args.option("out").ok_or("generate needs --out DIR")?);
    let mut config = CorpusConfig::preset(scale);
    config.seed = parse_or(args, "seed", config.seed)?;
    if args.flag("extended") {
        config.extended_scope = true;
    }
    let (mut warehouse, _) = MetadataWarehouse::open(&out).map_err(|e| e.to_string())?;
    let held = warehouse.stats().map_err(|e| e.to_string())?.edges;
    if held > 0 {
        return Err(format!(
            "{} already holds a store ({held} triples in {DEFAULT_MODEL}); \
             generate needs a fresh directory",
            out.display()
        ));
    }
    eprintln!("generating {scale:?} corpus (seed {}) …", config.seed);
    let corpus = generate(&config);
    let report = warehouse
        .ingest(corpus.into_extracts())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {} triples ({} duplicates, {} rejected)",
        report.load.loaded,
        report.load.duplicates,
        report.load.rejections.len()
    );
    let save = warehouse
        .checkpoint()
        .map_err(|e| e.to_string())?
        .expect("an opened warehouse is durable");
    println!(
        "wrote {} triples across {} model(s) to {}",
        save.total(),
        save.models.len(),
        out.display()
    );
    Ok(())
}

/// Opens a persisted store — snapshot, runs and journal, i.e. everything
/// that was acknowledged, checkpointed or not — and builds the semantic
/// index.
fn open_warehouse(args: &Args) -> Result<MetadataWarehouse, String> {
    let dir = store_dir(args)?;
    let (mut warehouse, _) = MetadataWarehouse::open(&dir).map_err(|e| e.to_string())?;
    // A store written without DWH_CURR (another current-model name, a
    // `drill crash` directory) serves its first model instead.
    if warehouse.stats().map_err(|e| e.to_string())?.edges == 0 {
        let other = warehouse
            .store()
            .model_names()
            .into_iter()
            .find(|name| *name != DEFAULT_MODEL)
            .map(str::to_string);
        if let Some(model) = other {
            drop(warehouse);
            (warehouse, _) =
                MetadataWarehouse::open_with_model(&dir, &model).map_err(|e| e.to_string())?;
        }
    }
    warehouse.build_semantic_index().map_err(|e| e.to_string())?;
    Ok(warehouse)
}

/// Builds a query budget from `--deadline-ms`, `--max-rows`, and
/// `--max-steps` (unlimited when none are given).
fn budget_from_args(args: &Args) -> Result<QueryBudget, String> {
    let mut budget = QueryBudget::unlimited();
    if let Some(ms) = parse_opt(args, "deadline-ms")? {
        budget = budget.with_deadline(Duration::from_millis(ms), Arc::new(MonotonicTime::new()));
    }
    if let Some(n) = parse_opt(args, "max-rows")? {
        budget = budget.with_max_rows(n);
    }
    if let Some(n) = parse_opt(args, "max-steps")? {
        budget = budget.with_max_steps(n);
    }
    Ok(budget)
}

/// Prints the overload-protection verdicts after a query's regular output.
fn note_verdicts(completeness: &Completeness) {
    if let Some(reason) = completeness.reason() {
        println!("note: result truncated ({reason}) — a valid partial answer");
    }
}

/// Resolves a user-supplied name: a full IRI, or a local name in
/// `namespace`.
fn resolve(name: &str, namespace: fn(&str) -> String) -> Term {
    if name.starts_with("http://") || name.starts_with("https://") {
        Term::iri(name)
    } else {
        Term::iri(namespace(name))
    }
}

/// An item name: a full IRI, or local to the `dwh` instance namespace.
fn resolve_item(name: &str) -> Term {
    resolve(name, vocab::cs::dwh)
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let warehouse = open_warehouse(args)?;
    let stats = warehouse.stats().map_err(|e| e.to_string())?;
    println!("model:   {}", warehouse.model_name());
    println!("nodes:   {}", stats.nodes);
    println!("edges:   {}", stats.edges);
    println!("derived: {} (semantic index)", warehouse.derived_count());
    println!(
        "models on disk: {}",
        warehouse.store().model_names().join(", ")
    );
    Ok(())
}

fn cmd_census(args: &Args) -> Result<(), String> {
    let warehouse = open_warehouse(args)?;
    let census = warehouse.census().map_err(|e| e.to_string())?;
    print!("{}", report::render_census(&census));
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let term = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let mut request = SearchRequest::new(term.clone());
    if args.flag("synonyms") {
        request = request.with_synonyms();
    }
    if let Some(area) = args.option("area") {
        request = request.in_area(match area {
            "Inbound" | "DWH Inbound Interface" => Area::InboundInterface,
            "Integration" => Area::Integration,
            "DataMart" | "Data Mart" => Area::DataMart,
            other => Area::Other(other.to_string()),
        });
    }
    if let Some(class) = args.option("class") {
        request = request.filter_class(Term::iri(vocab::cs::dm(class)));
    }
    request = request.with_budget(budget_from_args(args)?);
    let results = warehouse.search(&request).map_err(|e| e.to_string())?;
    print!("{}", report::render_search(term, &results));
    note_verdicts(&results.completeness);
    Ok(())
}

fn cmd_answer(args: &Args) -> Result<(), String> {
    let keywords = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let mut request = AnswerRequest::new(keywords.clone()).with_budget(budget_from_args(args)?);
    if let Some(k) = parse_opt(args, "top-k")? {
        request = request.with_top_k(k);
    }
    let result = warehouse.answer(&request).map_err(|e| e.to_string())?;

    println!("keywords: {}", result.tokens.join(" "));
    if !result.matches.is_empty() {
        println!("matched:");
        for m in result.matches.iter().take(8) {
            println!(
                "  {} -> {} (\"{}\", score {})",
                m.token,
                m.node.label(),
                m.label,
                m.score
            );
        }
    }
    if !result.unmatched_tokens.is_empty() {
        println!("filtered by name: {}", result.unmatched_tokens.join(" "));
    }
    println!("candidates ({} planned, {} executed):", result.candidates.len(), result.executed.len());
    for (i, c) in result.candidates.iter().enumerate() {
        let ran = if i < result.executed.len() { "*" } else { " " };
        println!(
            " {ran}[{i}] rank {} covers {} hops {} est {}  {}",
            c.rank,
            c.covered_tokens,
            c.hops,
            c.estimate,
            compact_sparql(&c.sparql)
        );
    }
    println!("answers ({}):", result.answers.len());
    for a in &result.answers {
        println!("  {}  ({}, via candidate {})", a.name, a.instance.label(), a.candidate);
    }
    if args.flag("explain") {
        for (i, ex) in result.executed.iter().enumerate() {
            println!("candidate {i}: {} ({} row(s))", compact_sparql(&ex.sparql), ex.rows);
            print!("{}", ex.report.to_text());
        }
    }
    note_verdicts(&result.completeness);
    Ok(())
}

/// One-line rendering of a generated candidate: the `WHERE` pattern only,
/// with the IRI boilerplate (prefix block, select head) dropped.
fn compact_sparql(sparql: &str) -> String {
    let mut inside = false;
    let mut parts: Vec<&str> = Vec::new();
    for line in sparql.lines() {
        let line = line.trim();
        if line.starts_with("WHERE") {
            inside = true;
            continue;
        }
        if inside {
            if line == "}" {
                break;
            }
            parts.push(line);
        }
    }
    if parts.is_empty() {
        sparql.split_whitespace().collect::<Vec<_>>().join(" ")
    } else {
        format!("{{ {} }}", parts.join(" "))
    }
}

fn cmd_lineage(args: &Args) -> Result<(), String> {
    let item = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let start = resolve_item(item);
    let mut request = if args.flag("upstream") {
        LineageRequest::upstream(start)
    } else {
        LineageRequest::downstream(start)
    };
    if let Some(depth) = parse_opt(args, "depth")? {
        request = request.max_depth(depth);
    }
    if let Some(filter) = args.option("rule-filter") {
        request = request.with_rule_filter(filter);
    }
    request = request.with_budget(budget_from_args(args)?);
    let result = warehouse.lineage(&request).map_err(|e| e.to_string())?;
    print!("{}", report::render_lineage(&result));
    note_verdicts(&result.completeness);
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let item = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let report = warehouse
        .who_can_access(&resolve_item(item))
        .map_err(|e| e.to_string())?;
    print!("{}", render_access(&report));
    Ok(())
}

fn cmd_gaps(args: &Args) -> Result<(), String> {
    let warehouse = open_warehouse(args)?;
    let gaps = warehouse.governance_gaps().map_err(|e| e.to_string())?;
    println!(
        "data-mart items inspected: {}  |  ownerless: {}  |  coverage: {:.1} %",
        gaps.inspected,
        gaps.ownerless.len(),
        gaps.coverage() * 100.0
    );
    for item in gaps.ownerless.iter().take(20) {
        println!("  {}", item.label());
    }
    if gaps.ownerless.len() > 20 {
        println!("  … and {} more", gaps.ownerless.len() - 20);
    }
    Ok(())
}

fn cmd_sources(args: &Args) -> Result<(), String> {
    let concept = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let result = warehouse
        .find_sources(&resolve(concept, vocab::cs::dm))
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        metadata_warehouse::core::assist::render_sources(&result)
    );
    Ok(())
}

fn cmd_sparql(args: &Args) -> Result<(), String> {
    let pattern_or_query = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    // A bare `{ … }` pattern or a full SELECT/ASK text: either way one
    // SEM_MATCH with the standard aliases, through the warehouse.
    let mut sem = SemMatch::new(pattern_or_query.clone())
        .alias("dm", vocab::cs::DM)
        .alias("dt", vocab::cs::DT)
        .alias("dwh", vocab::cs::DWH);
    if !args.flag("no-rulebase") {
        sem = sem.rulebase("OWLPRIME");
    }
    let (output, report) = warehouse
        .sem_match_explained(&sem, &budget_from_args(args)?, !args.flag("no-planner"))
        .map_err(|e| e.to_string())?;
    print!("{}", output.to_table());
    println!("({} rows)", output.rows.len());
    if args.flag("explain") {
        print!("{}", report.to_text());
    }
    note_verdicts(&output.completeness);
    Ok(())
}

/// The warehouse a drill runs against: the persisted store when `--store`
/// is given, otherwise a freshly generated small synthetic corpus.
fn drill_warehouse(args: &Args) -> Result<MetadataWarehouse, String> {
    if args.option("store").is_some() {
        return open_warehouse(args);
    }
    let mut config = CorpusConfig::preset(Scale::Small);
    config.seed = parse_or(args, "seed", config.seed)?;
    eprintln!("mdwh: no --store given, generating a small synthetic corpus");
    let corpus = generate(&config);
    let mut warehouse = MetadataWarehouse::new();
    warehouse
        .ingest(corpus.into_extracts())
        .map_err(|e| e.to_string())?;
    warehouse.build_semantic_index().map_err(|e| e.to_string())?;
    Ok(warehouse)
}

/// The value of `--key`, parsed; `None` when the flag was not given.
fn parse_opt<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, String> {
    args.option(key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key}: {v}")))
        .transpose()
}

fn parse_or<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> Result<T, String> {
    Ok(parse_opt(args, key)?.unwrap_or(default))
}

/// The overload drill: hammer one warehouse from many threads with a mixed
/// search/lineage/sparql/answer load behind a deliberately small admission
/// gate,
/// then report latency percentiles and the shed rate. Every request either
/// completes (possibly truncated by its deadline) or is shed with a typed
/// `Overloaded` — the drill fails if anything panics or errors otherwise.
fn drill_overload(args: &Args) -> Result<(), String> {
    if args.flag("writer-race") {
        return drill_writer_race(args);
    }
    let threads: usize = parse_or(args, "threads", 8)?;
    let requests: usize = parse_or(args, "requests", 32)?;
    let quota: usize = parse_or(args, "quota", 2)?;
    let deadline_ms: u64 = parse_or(args, "deadline-ms", 50)?;

    let mut warehouse = drill_warehouse(args)?;
    warehouse.enable_admission(AdmissionConfig {
        max_queued: 0,
        max_wait: Duration::ZERO,
        ..AdmissionConfig::with_quotas(quota, quota)
    });

    eprintln!(
        "overload drill: {threads} thread(s) × {requests} request(s), \
         concurrency quota {quota}, per-request deadline {deadline_ms} ms"
    );

    let warehouse = &warehouse;
    // All workers start together: the first wave alone oversubscribes the
    // quota, so a forced-low gate sheds deterministically.
    let start = &std::sync::Barrier::new(threads);
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut retry_after_ms: Vec<u64> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(requests);
                    let mut retries = Vec::new();
                    let mut errs = Vec::new();
                    start.wait();
                    for i in 0..requests {
                        let budget = QueryBudget::unlimited().with_deadline(
                            Duration::from_millis(deadline_ms),
                            Arc::new(MonotonicTime::new()),
                        );
                        let started = std::time::Instant::now();
                        let outcome: Result<(), MdwError> = match (t + i) % 4 {
                            0 => warehouse
                                .search(&SearchRequest::new("client").with_budget(budget))
                                .map(|_| ()),
                            1 => warehouse
                                .lineage(
                                    &LineageRequest::downstream(resolve_item("dwh_stage0_item0"))
                                        .with_budget(budget),
                                )
                                .map(|_| ()),
                            2 => warehouse
                                .answer(
                                    &AnswerRequest::new("customer report").with_budget(budget),
                                )
                                .map(|_| ()),
                            // A deliberately heavy cross join: it runs to
                            // its deadline and comes back truncated, so the
                            // permit is held long enough to create real
                            // contention at the gate.
                            _ => warehouse
                                .sem_match_explained(
                                    &SemMatch::new("{ ?a ?p ?b . ?c ?q ?d }")
                                        .rulebase("OWLPRIME")
                                        .select(&["?a", "?d"]),
                                    &budget,
                                    true,
                                )
                                .map(|_| ()),
                        };
                        match outcome {
                            Ok(()) => lat.push(started.elapsed().as_micros() as u64),
                            // The shed's back-off hint scales with queue
                            // depth — collect the distribution.
                            Err(MdwError::Overloaded(o)) => {
                                retries.push(o.retry_after.as_millis() as u64);
                            }
                            Err(other) => errs.push(other.to_string()),
                        }
                    }
                    (lat, retries, errs)
                })
            })
            .collect();
        for handle in handles {
            let (lat, retries, errs) = handle.join().expect("drill worker panicked");
            latencies_us.extend(lat);
            retry_after_ms.extend(retries);
            errors.extend(errs);
        }
    });

    let gate = warehouse.admission().expect("admission enabled");
    latencies_us.sort_unstable();
    println!("completed: {} request(s)", latencies_us.len());
    println!(
        "latency:   p50 {:.1} ms, p99 {:.1} ms",
        percentile_us(&latencies_us, 50.0) as f64 / 1000.0,
        percentile_us(&latencies_us, 99.0) as f64 / 1000.0,
    );
    println!("admitted:  {}", gate.total("_admitted"));
    println!("shed:      {}", gate.total("_shed"));
    println!("gate:      {}", metrics::to_line(gate));
    if !retry_after_ms.is_empty() {
        retry_after_ms.sort_unstable();
        println!(
            "retry-after: min {} ms, p50 {} ms, p99 {} ms, max {} ms (over {} shed(s))",
            retry_after_ms[0],
            percentile_us(&retry_after_ms, 50.0),
            percentile_us(&retry_after_ms, 99.0),
            retry_after_ms[retry_after_ms.len() - 1],
            retry_after_ms.len(),
        );
    }
    if !errors.is_empty() {
        return Err(format!(
            "{} request(s) failed with unexpected errors, e.g.: {}",
            errors.len(),
            errors[0]
        ));
    }
    if args.flag("expect-shed") && gate.total("_shed") == 0 {
        return Err("expected the gate to shed under forced-low quotas, but shed = 0".to_string());
    }
    Ok(())
}

/// The writer-race drill: reader threads spin on [`LsmStore::snapshot`]
/// (a lock-free load) while one writer loop commits batches to a volatile
/// engine — the one the warehouse writes through — each publishing a
/// generation that holds a whole batch of triples more. Every observed
/// snapshot must be internally whole: the fsck-style content checksum is
/// stable, the triple count is a multiple
/// of the batch size (a torn publish would expose a partial batch), a full
/// scan agrees with the O(log n) exact count, and generations never go
/// backwards. A snapshot pinned before the first write must still verify
/// unchanged at the end. Any violation exits non-zero.
fn drill_writer_race(args: &Args) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let readers: usize = parse_or(args, "threads", 8)?;
    let writes: usize = parse_or(args, "writes", 64)?;
    const BATCH: usize = 16;
    const MODEL: &str = "DRILL_RACE";

    // A small memtable, so the race also crosses seals; the empty batch
    // creates the model.
    let shared = LsmStore::in_memory(LsmConfig {
        memtable_limit: 4 * BATCH,
        auto_compact: false,
        ..LsmConfig::default()
    });
    shared.write_batch(MODEL, &[]).map_err(|e| e.to_string())?;

    eprintln!(
        "writer-race drill: {readers} reader(s) racing 1 writer × {writes} \
         publish(es) of {BATCH}-triple batches"
    );

    // Pinned before the writer starts: whatever gets published, this handle
    // must keep reading its generation exactly as it was.
    let pinned = shared.snapshot();
    let pinned_checksum = pinned.model(MODEL).map_err(|e| e.to_string())?.checksum();

    let done = AtomicBool::new(false);
    let total_reads = AtomicU64::new(0);
    let violations: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let shared = &shared;
        let done = &done;
        let total_reads = &total_reads;
        let violations = &violations;

        scope.spawn(move || {
            for round in 0..writes {
                let batch: Vec<JournalOp> = (0..BATCH)
                    .map(|i| {
                        JournalOp::Insert(
                            Term::iri(format!("http://ex.org/race/s{round}_{i}")),
                            Term::iri("http://ex.org/race/p"),
                            Term::iri(format!("http://ex.org/race/o{round}_{i}")),
                        )
                    })
                    .collect();
                shared.write_batch(MODEL, &batch).expect("race write");
                // Fold now and then: compaction publishes too.
                if round % 16 == 15 {
                    shared.compact_once().expect("race compaction");
                }
            }
            done.store(true, Ordering::Release);
        });

        for r in 0..readers {
            scope.spawn(move || {
                let mut last_generation = 0u64;
                let mut reads = 0u64;
                let report = |msg: String| violations.lock().unwrap().push(msg);
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let snap = shared.snapshot();
                    reads += 1;
                    let generation = snap.generation();
                    if generation < last_generation {
                        report(format!(
                            "reader {r}: generation went backwards \
                             ({last_generation} -> {generation})"
                        ));
                        break;
                    }
                    last_generation = generation;
                    let graph = match snap.model(MODEL) {
                        Ok(g) => g,
                        Err(e) => {
                            report(format!("reader {r}: generation {generation}: {e}"));
                            break;
                        }
                    };
                    if graph.len() % BATCH != 0 {
                        report(format!(
                            "reader {r}: torn batch at generation {generation}: \
                             {} triples (not a multiple of {BATCH})",
                            graph.len()
                        ));
                        break;
                    }
                    let checksum = graph.checksum();
                    let scanned = graph.iter().count();
                    if scanned != graph.len() || checksum != graph.checksum() {
                        report(format!(
                            "reader {r}: inconsistent snapshot at generation \
                             {generation}: scan {scanned} vs len {}",
                            graph.len()
                        ));
                        break;
                    }
                }
                total_reads.fetch_add(reads, Ordering::Relaxed);
            });
        }
    });

    let final_snap = shared.snapshot();
    let final_len = final_snap.model(MODEL).map_err(|e| e.to_string())?.len();
    println!(
        "reads:       {} across {readers} reader(s)",
        total_reads.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!(
        "generations: {} published, final model holds {final_len} triple(s)",
        final_snap.generation()
    );
    let pinned_graph = pinned.model(MODEL).map_err(|e| e.to_string())?;
    if pinned_graph.checksum() != pinned_checksum || !pinned_graph.is_empty() {
        return Err("pinned pre-write snapshot changed under the writer".to_string());
    }
    if final_len != writes * BATCH {
        return Err(format!(
            "writer lost updates: expected {} triples, found {final_len}",
            writes * BATCH
        ));
    }
    let violations = violations.into_inner().expect("no poisoned reader");
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        return Err(format!("{} torn-read violation(s)", violations.len()));
    }
    println!("zero torn reads: every snapshot verified whole (checksum + batch invariant)");
    Ok(())
}

/// `mdwh serve`: the long-lived query server. Binds, prints the address,
/// then runs until SIGTERM/SIGINT (or an admin drain), at which point it
/// walks the graceful-drain ladder: stop accepting, let in-flight requests
/// finish for the drain grace, cancel stragglers (their clients still get
/// complete frames with truthful truncated summaries), and exit 0.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let warehouse = drill_warehouse(args)?.into_shared();
    let mut config = ServerConfig {
        addr: args.option("addr").unwrap_or("127.0.0.1:7878").to_string(),
        ..ServerConfig::default()
    };
    config.max_connections = parse_or(args, "max-conns", config.max_connections)?;
    config.workers = parse_or(args, "workers", config.workers)?.max(1);
    if let Some(ms) = parse_opt(args, "deadline-ms")? {
        config.default_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_opt(args, "drain-grace-ms")? {
        config.drain_grace = Duration::from_millis(ms);
    }
    if args.flag("no-admission") {
        config.admission = None;
    } else if let Some(quota) = parse_opt(args, "quota")? {
        config.admission = Some(AdmissionConfig::with_quotas(quota, quota));
    }
    let grace = config.drain_grace;

    signal::install_termination_handler();
    let mut handle = serve(warehouse, config).map_err(|e| format!("bind failed: {e}"))?;
    println!("mdw-serve listening on {}", handle.addr());
    eprintln!("mdwh: GET /search?q= /lineage?item= /sparql?query= /admin/stats /healthz; SIGTERM drains");

    while !signal::termination_requested() && !handle.state().drain.is_draining() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("mdwh: draining (grace {} ms) …", grace.as_millis());
    let cancelled = handle.drain(grace);
    println!(
        "drained: cancelled in-flight {cancelled}; {}",
        metrics::to_line(&handle.state().counters)
    );
    Ok(())
}

/// `mdwh drill wire`: the client-side load drill. Holds `--connections`
/// keep-alive connections open at once (default 1000) against a server —
/// an external `--addr`, or an in-process one booted for the drill — and
/// issues `--requests` rounds over each, reporting latency percentiles,
/// shed counts, frame verdicts, the held-open RSS footprint, and the
/// server's own `/admin/stats` counters. Every response must be a complete
/// frame (ok, truncated-but-truthful, or a well-formed 503 shed); a
/// half-frame that parses as complete fails the drill, as does exceeding
/// `--rss-ceiling-kb` while every connection is open.
fn drill_wire(args: &Args) -> Result<(), String> {
    let mut connections: usize = parse_or(args, "connections", 1000)?;
    let requests: usize = parse_or(args, "requests", 1)?;
    let deadline_ms: u64 = parse_or(args, "deadline-ms", 1000)?;
    let quota: usize = parse_or(args, "quota", 4)?;
    let tenants: usize = parse_or(args, "tenants", 4)?.max(1);
    let rss_ceiling_kb: u64 = parse_or(args, "rss-ceiling-kb", 0)?;
    let timeout = Duration::from_secs(30);
    let in_process = args.option("addr").is_none();

    // Each held-open connection costs one client-side fd, plus a server-side
    // fd when the server runs in-process. Raise the soft RLIMIT_NOFILE to
    // the hard cap and clamp the drill under it — a drill that dies on
    // EMFILE measures nothing.
    if let Ok((soft, _hard)) = epoll::raise_nofile_limit() {
        let per_conn: u64 = if in_process { 2 } else { 1 };
        let budget = (soft.saturating_sub(128) / per_conn).max(1) as usize;
        if connections > budget {
            eprintln!(
                "WARNING: clamping --connections {connections} -> {budget} \
                 (RLIMIT_NOFILE {soft}, {per_conn} fd(s) per connection)"
            );
            connections = budget;
        }
    }

    let (addr, mut handle) = match args.option("addr") {
        Some(addr) => {
            let addr = addr
                .parse::<std::net::SocketAddr>()
                .map_err(|_| format!("bad --addr: {addr} (need IP:PORT)"))?;
            (addr, None)
        }
        None => {
            let warehouse = drill_warehouse(args)?.into_shared();
            let admission = if args.flag("no-admission") {
                None
            } else {
                // Forced-low, queueless quotas: overload sheds immediately,
                // which is the behavior the drill wants to observe.
                Some(AdmissionConfig {
                    max_queued: 0,
                    max_wait: Duration::ZERO,
                    ..AdmissionConfig::with_quotas(quota, quota)
                })
            };
            let config = ServerConfig {
                // Admit every drill connection (plus headroom for the stats
                // probe): the sheds this drill measures come from the
                // admission gate, which answers 503 and keeps the socket.
                max_connections: parse_or(args, "max-conns", connections + 64)?,
                // Drill connections open long before their first request,
                // sit parked between rounds, and are read serially by a
                // bounded client pool — give the slowloris/write-stall/idle
                // deadlines drill-scale values so the reapers stay out of
                // the measurement.
                read_timeout: Duration::from_secs(120),
                write_timeout: Duration::from_secs(30),
                idle_timeout: Duration::from_secs(120),
                admission,
                ..ServerConfig::default()
            };
            let handle = serve(warehouse, config).map_err(|e| format!("bind failed: {e}"))?;
            (handle.addr(), Some(handle))
        }
    };

    eprintln!(
        "wire drill: {connections} held-open connection(s) × {requests} request(s) \
         against {addr} (admission {})",
        if args.flag("no-admission") { "OFF" } else { "on" },
    );

    // A bounded pool of client threads multiplexes the connections: the
    // server must prove it scales past its own worker count, the drill
    // client doesn't have to.
    let client_threads = connections.clamp(1, 64);
    // Main participates in all three barriers: `start` (all sockets open),
    // `rounds_done` (load finished, every socket still open — RSS and
    // /admin/stats are sampled here), `release` (drop the sockets).
    let start = std::sync::Barrier::new(client_threads + 1);
    let rounds_done = std::sync::Barrier::new(client_threads + 1);
    let release = std::sync::Barrier::new(client_threads + 1);
    let mut ok_latencies_us: Vec<u64> = Vec::new();
    let mut truncated = 0u64;
    let mut sheds = 0u64;
    let mut io_errors = 0u64;
    let mut bad_frames: Vec<String> = Vec::new();
    let mut held_rss_kb: Option<u64> = None;
    let mut stats_line: Option<String> = None;
    std::thread::scope(|scope| {
        let (start, rounds_done, release) = (&start, &rounds_done, &release);
        let workers: Vec<_> = (0..client_threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let (mut trunc, mut shed, mut io) = (0u64, 0u64, 0u64);
                    let mut bad = Vec::new();
                    // This thread owns every connection index ≡ t (mod
                    // threads); each stays open across all rounds.
                    let mut conns: Vec<(usize, Option<client::WireConn>)> = (t..connections)
                        .step_by(client_threads)
                        .map(|c| match client::WireConn::connect(addr, timeout) {
                            Ok(conn) => (c, Some(conn)),
                            Err(_) => {
                                io += 1;
                                (c, None)
                            }
                        })
                        .collect();
                    start.wait();
                    for _ in 0..requests {
                        // Pipelined round: SEND on every connection first so
                        // the server faces the whole storm at once, then
                        // collect one frame per connection. This is what
                        // makes 10k connections mean 10k concurrent
                        // requests, not (client threads) of them.
                        let mut sent_at: Vec<Option<std::time::Instant>> =
                            vec![None; conns.len()];
                        for (i, (c, slot)) in conns.iter_mut().enumerate() {
                            let Some(conn) = slot else { continue };
                            let headers = [
                                ("X-Tenant", format!("tenant{}", *c % tenants)),
                                ("X-Deadline-Ms", deadline_ms.to_string()),
                            ];
                            // The overload drill's mix: fast search and
                            // lineage plus a heavy cross join that runs to
                            // its deadline — the long permit holds are what
                            // make the gate bite.
                            let target = match *c % 3 {
                                0 => "/search?q=client",
                                1 => "/lineage?item=dwh_stage0_item0",
                                _ => "/sparql?query=%7B%20%3Fa%20%3Fp%20%3Fb%20.%20%3Fc%20%3Fq%20%3Fd%20%7D",
                            };
                            match conn.send("GET", target, &headers) {
                                Ok(()) => sent_at[i] = Some(std::time::Instant::now()),
                                Err(client::WireError::Io(_)) => {
                                    io += 1;
                                    *slot = None;
                                }
                                Err(e) => {
                                    bad.push(e.to_string());
                                    *slot = None;
                                }
                            }
                        }
                        for (i, (_c, slot)) in conns.iter_mut().enumerate() {
                            let Some(conn) = slot else { continue };
                            let Some(begun) = sent_at[i] else { continue };
                            match conn.read_frame() {
                                Ok(resp) if resp.status == 200 && resp.answer_complete() => {
                                    lat.push(begun.elapsed().as_micros() as u64);
                                }
                                Ok(resp) if resp.status == 200 && resp.complete_frame => {
                                    // Truncated but truthful: frame closed,
                                    // the summary admits it.
                                    trunc += 1;
                                    lat.push(begun.elapsed().as_micros() as u64);
                                }
                                Ok(resp) if resp.status == 503 && resp.complete_frame => shed += 1,
                                Ok(resp) => bad.push(format!(
                                    "status {} complete_frame {}",
                                    resp.status, resp.complete_frame
                                )),
                                Err(client::WireError::Io(_)) => {
                                    io += 1;
                                    *slot = None;
                                }
                                Err(e) => {
                                    bad.push(e.to_string());
                                    *slot = None;
                                }
                            }
                        }
                    }
                    rounds_done.wait();
                    release.wait();
                    drop(conns);
                    (lat, trunc, shed, io, bad)
                })
            })
            .collect();
        start.wait();
        rounds_done.wait();
        // Every surviving connection is still parked open right now — this
        // is the footprint the drill exists to bound.
        held_rss_kb = epoll::current_rss_kb();
        stats_line = client::get(addr, "/admin/stats", &[], timeout)
            .ok()
            .filter(|resp| resp.status == 200)
            .map(|resp| resp.body.trim().to_string());
        release.wait();
        for worker in workers {
            let (lat, trunc, shed, io, bad) = worker.join().expect("wire worker panicked");
            ok_latencies_us.extend(lat);
            truncated += trunc;
            sheds += shed;
            io_errors += io;
            bad_frames.extend(bad);
        }
    });

    ok_latencies_us.sort_unstable();
    let total = connections * requests;
    println!("requests:  {total} over {connections} held-open connection(s)");
    println!(
        "completed: {} ({} truncated-but-truthful)",
        ok_latencies_us.len(),
        truncated
    );
    println!(
        "latency:   p50 {:.1} ms, p99 {:.1} ms",
        percentile_us(&ok_latencies_us, 50.0) as f64 / 1000.0,
        percentile_us(&ok_latencies_us, 99.0) as f64 / 1000.0,
    );
    println!("shed:      {sheds} (503 + Retry-After)");
    println!("io errors: {io_errors} (connect/read failures at the socket)");
    if let Some(rss_kb) = held_rss_kb {
        println!(
            "rss:       {:.1} MiB with all connections held open",
            rss_kb as f64 / 1024.0
        );
    }
    if let Some(stats) = &stats_line {
        println!("stats:     {stats}");
    }
    if let Some(handle) = handle.as_mut() {
        let cancelled = handle.drain(Duration::from_secs(5));
        println!(
            "server:    cancelled at drain {cancelled}; {}",
            metrics::to_line(&handle.state().counters)
        );
    }
    if !bad_frames.is_empty() {
        return Err(format!(
            "{} malformed frame(s), e.g.: {}",
            bad_frames.len(),
            bad_frames[0]
        ));
    }
    if args.flag("expect-shed") && sheds == 0 {
        return Err("expected sheds under forced-low quotas, but shed = 0".to_string());
    }
    if rss_ceiling_kb > 0 {
        match held_rss_kb {
            Some(rss) if rss > rss_ceiling_kb => {
                return Err(format!(
                    "RSS {rss} KiB with connections held open exceeds \
                     --rss-ceiling-kb {rss_ceiling_kb}"
                ));
            }
            None => eprintln!("WARNING: --rss-ceiling-kb set but RSS is unreadable here"),
            _ => {}
        }
    }
    Ok(())
}

/// Every write-path failpoint the crash drill kills at, in commit order:
/// journal append/sync, run seal (file, partial write, manifest swap),
/// standalone manifest writes, journal rotation, and the two compaction
/// commit points.
const CRASH_FAILPOINTS: &[&str] = &[
    "journal::append",
    "journal::append::partial",
    "journal::sync",
    "run::seal",
    "run::seal::partial",
    "run::seal::manifest",
    "run::manifest",
    "journal::rotate",
    "compact::merge",
    "compact::manifest",
];

/// `mdwh drill crash`: the kill-anywhere write-path drill. For each
/// failpoint in [`CRASH_FAILPOINTS`], races `--writers` group-committing
/// writer threads (and `--readers` snapshot readers) against an injected
/// fault at that point, "crashes" by dropping the store, then reopens and
/// verifies the two LSM invariants: every *acknowledged* batch is fully
/// recovered, and the recovered triple count is an exact multiple of the
/// batch size (an atomic-batch check — a torn run or half-replayed batch
/// would break it). Backpressure sheds are retried a few times, then
/// counted as typed sheds — never as losses. With `--store DIR` each
/// round's recovered directory is kept as `DIR/<failpoint>` (for `fsck`,
/// `info` and the other `--store` commands) instead of a removed temp dir.
fn drill_crash(args: &Args) -> Result<(), String> {
    let writers: usize = parse_or(args, "writers", 4)?;
    let writers = writers.max(1);
    let readers: usize = parse_or(args, "readers", 2)?;
    let batches: usize = parse_or(args, "batches", 24)?;
    let batch_size: usize = parse_or(args, "batch-size", 8)?;
    let batch_size = batch_size.max(1);
    let memtable: usize = parse_or(args, "memtable", 64)?;
    let cfg = LsmConfig {
        memtable_limit: memtable,
        max_runs: 2,
        stall_runs: parse_or(args, "stall-runs", 8)?,
        stall_mem_ops: 4 * memtable,
        stall_deadline: Duration::from_millis(parse_or(args, "stall-deadline-ms", 2000)?),
        auto_compact: true,
    };
    let keep = args.option("store").map(PathBuf::from);

    let points: Vec<&'static str> = match args.option("failpoint") {
        Some(name) => match CRASH_FAILPOINTS.iter().find(|p| **p == name) {
            Some(p) => vec![p],
            None => {
                return Err(format!(
                    "unknown crash failpoint: {name} (available: {})",
                    CRASH_FAILPOINTS.join(", ")
                ))
            }
        },
        None => CRASH_FAILPOINTS.to_vec(),
    };

    eprintln!(
        "crash drill: {writers} writer(s) × {batches} batch(es) of {batch_size}, \
         {readers} reader(s), memtable {memtable}, kill at {} failpoint(s)",
        points.len()
    );

    let mut failures: Vec<String> = Vec::new();
    for point in &points {
        let verdict = drill_crash_round(
            point,
            writers,
            readers,
            batches,
            batch_size,
            &cfg,
            keep.as_deref(),
        )?;
        if let Some(problem) = verdict {
            failures.push(format!("{point}: {problem}"));
        }
    }
    failpoint::reset_global();
    if failures.is_empty() {
        println!(
            "crash drill: {} failpoint(s) survived — no acked batch lost, \
             no torn batch surfaced",
            points.len()
        );
        Ok(())
    } else {
        Err(format!(
            "crash drill FAILED at {} failpoint(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// One crash-drill round: returns `Ok(None)` when the invariants held,
/// `Ok(Some(problem))` when recovery lost or tore data.
fn drill_crash_round(
    point: &str,
    writers: usize,
    readers: usize,
    batches: usize,
    batch_size: usize,
    cfg: &LsmConfig,
    keep: Option<&std::path::Path>,
) -> Result<Option<String>, String> {
    use std::sync::atomic::{AtomicBool, Ordering};

    const MODEL: &str = "DRILL_CRASH";
    let slug = point.replace("::", "-");
    let dir = match keep {
        Some(root) => root.join(&slug),
        None => std::env::temp_dir().join(format!("mdwh-crash-{slug}-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // Global scope: the fault must be visible to whichever writer thread
    // wins the commit-window leadership and to the background compactor,
    // not just to the arming thread.
    failpoint::reset_global();
    failpoint::arm_global(point, FailSpec::Once);

    let (store, _) = LsmStore::open(&dir, cfg.clone()).map_err(|e| e.to_string())?;
    let done = AtomicBool::new(false);
    let mut acked: Vec<(usize, usize, u64)> = Vec::new();
    let (mut faulted, mut shed) = (0u64, 0u64);
    let mut reader_problems: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let store = &store;
        let done = &done;
        let worker_handles: Vec<_> = (0..writers)
            .map(|w| {
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let (mut faulted, mut shed) = (0u64, 0u64);
                    for b in 0..batches {
                        let ops: Vec<JournalOp> = (0..batch_size)
                            .map(|t| {
                                JournalOp::Insert(
                                    Term::iri(format!("http://ex.org/crash/w{w}b{b}t{t}")),
                                    Term::iri("http://ex.org/crash/p"),
                                    Term::iri("http://ex.org/crash/o"),
                                )
                            })
                            .collect();
                        let mut stalls = 0;
                        loop {
                            match store.write_batch(MODEL, &ops) {
                                Ok(committed) => {
                                    acked.push((w, b, committed.seq));
                                    break;
                                }
                                Err(RdfError::Backpressure { .. }) if stalls < 5 => {
                                    stalls += 1;
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                Err(RdfError::Backpressure { .. }) => {
                                    shed += 1;
                                    break;
                                }
                                Err(_) => {
                                    // The injected kill (or its I/O shadow):
                                    // the batch is NOT acknowledged.
                                    faulted += 1;
                                    break;
                                }
                            }
                        }
                    }
                    (acked, faulted, shed)
                })
            })
            .collect();
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let mut problems = Vec::new();
                    let (mut last_generation, mut last_watermark) = (0u64, 0u64);
                    while !done.load(Ordering::Acquire) {
                        let snap = store.snapshot();
                        if snap.generation() < last_generation {
                            problems.push(format!(
                                "reader {r}: generation went backwards \
                                 ({last_generation} -> {})",
                                snap.generation()
                            ));
                            break;
                        }
                        if snap.watermark() < last_watermark {
                            problems.push(format!(
                                "reader {r}: watermark went backwards \
                                 ({last_watermark} -> {})",
                                snap.watermark()
                            ));
                            break;
                        }
                        last_generation = snap.generation();
                        last_watermark = snap.watermark();
                        if let Ok(g) = snap.model(MODEL) {
                            // Published snapshots never expose a torn batch.
                            if g.len() % batch_size != 0 {
                                problems.push(format!(
                                    "reader {r}: observed {} triples, not a \
                                     multiple of batch size {batch_size}",
                                    g.len()
                                ));
                                break;
                            }
                        }
                        std::thread::yield_now();
                    }
                    problems
                })
            })
            .collect();
        for handle in worker_handles {
            let (a, f, s) = handle.join().expect("crash-drill writer panicked");
            acked.extend(a);
            faulted += f;
            shed += s;
        }
        done.store(true, Ordering::Release);
        for handle in reader_handles {
            reader_problems.extend(handle.join().expect("crash-drill reader panicked"));
        }
    });

    // The "kill": drop the store with whatever half-finished seal or
    // compaction the fault left behind, then recover from disk alone.
    drop(store);
    failpoint::reset_global();

    let (recovered, report) = LsmStore::open(&dir, LsmConfig { auto_compact: false, ..cfg.clone() })
        .map_err(|e| format!("reopen after {point}: {e}"))?;
    let snap = recovered.snapshot();
    let max_acked_seq = acked.iter().map(|(_, _, s)| *s).max().unwrap_or(0);

    let mut problem = None;
    if !reader_problems.is_empty() {
        problem = Some(reader_problems.join("; "));
    } else if snap.watermark() < max_acked_seq {
        problem = Some(format!(
            "recovered watermark {} < max acked seq {max_acked_seq}",
            snap.watermark()
        ));
    } else if !acked.is_empty() {
        match snap.model(MODEL) {
            Err(e) => problem = Some(format!("model lost: {e}")),
            Ok(graph) => {
                let mut lost = Vec::new();
                for (w, b, seq) in &acked {
                    let whole = (0..batch_size).all(|t| {
                        let term = Term::iri(format!("http://ex.org/crash/w{w}b{b}t{t}"));
                        let (Some(s), Some(p), Some(o)) = (
                            snap.dict().lookup(&term),
                            snap.dict().lookup(&Term::iri("http://ex.org/crash/p")),
                            snap.dict().lookup(&Term::iri("http://ex.org/crash/o")),
                        ) else {
                            return false;
                        };
                        graph.contains(metadata_warehouse::rdf::Triple::new(s, p, o))
                    });
                    if !whole {
                        lost.push(format!("w{w}b{b} (seq {seq})"));
                    }
                }
                if !lost.is_empty() {
                    problem = Some(format!("acked batches lost: {}", lost.join(", ")));
                } else if graph.len() % batch_size != 0 {
                    problem = Some(format!(
                        "recovered {} triples, not a multiple of batch size \
                         {batch_size} (torn batch)",
                        graph.len()
                    ));
                } else if graph.len() / batch_size > writers * batches {
                    problem = Some(format!(
                        "recovered {} batches, more than the {} attempted",
                        graph.len() / batch_size,
                        writers * batches
                    ));
                }
            }
        }
    }

    println!(
        "{point:<26} acked {}/{} shed {shed} faulted {faulted} | reopen: runs {}, \
         folded {}, replayed {}, quarantined {} | {}",
        acked.len(),
        writers * batches,
        report.runs_loaded,
        report.runs_already_folded,
        report.replayed_batches,
        report.quarantined.len(),
        match &problem {
            None => "all acked recovered".to_string(),
            Some(p) => format!("FAILED: {p}"),
        }
    );
    drop(recovered);
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(problem)
}

fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}
