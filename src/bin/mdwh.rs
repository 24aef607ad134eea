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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metadata_warehouse::core::admission::{AdmissionConfig, QueryClass};
use metadata_warehouse::core::answer::AnswerRequest;
use metadata_warehouse::rdf::budget::{Completeness, MonotonicTime, QueryBudget};
use metadata_warehouse::core::error::MdwError;
use metadata_warehouse::core::assist::render_sources;
use metadata_warehouse::core::governance::{render_access, render_gaps};
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
use metadata_warehouse::rdf::{FailSpec, FrozenGraph, FrozenStore, RdfError, Term, Triple};
use metadata_warehouse::serve::tenant::DEFAULT_TENANT;
use metadata_warehouse::serve::{client, epoll, serve, signal, ServerConfig, TenantGates};
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
                [--workers N] [--deadline-ms MS] [--drain-grace-ms MS] [--seed N]",
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
                  [--expect-shed] [--rss-ceiling-kb N] [--store DIR] [--seed N]",
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
and POST /answer?q= as streamed ndjson over HTTP/1.1 keep-alive;
X-Deadline-Ms / X-Max-Rows / X-Tenant headers map to a query budget and a
per-tenant admission gate (--quota N concurrent queries; a request waits in
its tenant's bounded FIFO on the event loop, or gets 503 + Retry-After when
the FIFO is full or its wait runs out). GET /admin/stats reports the event
loop's counters (accepted, timeouts by state, keep-alive reuses, accept
backoffs); GET /healthz answers ok. SIGTERM or POST /admin/drain drains
gracefully: in-flight responses finish (or return truthful truncated
prefixes), then the process exits.

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
        .who_can_access(&resolve_item(item), &QueryBudget::unlimited())
        .map_err(|e| e.to_string())?;
    print!("{}", render_access(&report));
    Ok(())
}

fn cmd_gaps(args: &Args) -> Result<(), String> {
    let warehouse = open_warehouse(args)?;
    let gaps = warehouse.governance_gaps(&QueryBudget::unlimited()).map_err(|e| e.to_string())?;
    print!("{}", render_gaps(&gaps));
    Ok(())
}

fn cmd_sources(args: &Args) -> Result<(), String> {
    let concept = &args.positional[0];
    let warehouse = open_warehouse(args)?;
    let result = warehouse
        .find_sources(&resolve(concept, vocab::cs::dm), &QueryBudget::unlimited())
        .map_err(|e| e.to_string())?;
    print!("{}", render_sources(&result));
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
    let mut warehouse = MetadataWarehouse::new();
    warehouse.ingest(generate(&config).into_extracts()).map_err(|e| e.to_string())?;
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

/// Runs `work` on `n` scoped threads: each first builds its own state with
/// `prepare`, then all are released together and all are joined. A
/// worker's panic comes back as an error.
fn fan_out<S, T: Send>(
    n: usize,
    prepare: impl Fn(usize) -> S + Sync,
    work: impl Fn(usize, S) -> T + Sync,
) -> Result<Vec<T>, String> {
    let start = std::sync::Barrier::new(n);
    let (start, prepare, work) = (&start, &prepare, &work);
    std::thread::scope(|scope| {
        let spawn = |i| {
            scope.spawn(move || {
                let state = prepare(i);
                start.wait();
                work(i, state)
            })
        };
        let workers: Vec<_> = (0..n).map(spawn).collect();
        workers
            .into_iter()
            .map(|worker| worker.join().map_err(|_| "a drill worker panicked".to_string()))
            .collect()
    })
}

/// The request shapes the load drills send: `drill overload` all four in
/// process, `drill wire` the three that are `GET`s.
#[derive(Clone, Copy)]
enum Shape {
    Search,
    Lineage,
    Answer,
    /// A deliberately heavy cross join: it runs to its deadline and comes
    /// back truncated, so the permit is held long enough to create real
    /// contention at the gate.
    CrossJoin,
}

impl Shape {
    /// Every shape, in the order `drill overload` rotates through them.
    const ALL: [Shape; 4] = [Shape::Search, Shape::Lineage, Shape::Answer, Shape::CrossJoin];
    /// The shapes `drill wire` sends, in its rotation order.
    const GETS: [Shape; 3] = [Shape::Search, Shape::Lineage, Shape::CrossJoin];

    /// What the request asks for: a term, an item, keywords or a pattern.
    fn text(self) -> &'static str {
        match self {
            Shape::Search => "client",
            Shape::Lineage => "dwh_stage0_item0",
            Shape::Answer => "customer report",
            Shape::CrossJoin => "{ ?a ?p ?b . ?c ?q ?d }",
        }
    }

    /// The admission class the request is counted under.
    fn class(self) -> QueryClass {
        match self {
            Shape::Search => QueryClass::Search,
            Shape::Lineage => QueryClass::Lineage,
            Shape::Answer => QueryClass::Answer,
            Shape::CrossJoin => QueryClass::Sparql,
        }
    }

    /// Runs the request in process; `Ok(true)` when the answer came back
    /// truncated.
    fn run(self, warehouse: &MetadataWarehouse, budget: QueryBudget) -> Result<bool, MdwError> {
        let text = self.text();
        let completeness = match self {
            Shape::Search => {
                warehouse.search(&SearchRequest::new(text).with_budget(budget))?.completeness
            }
            Shape::Lineage => {
                let request = LineageRequest::downstream(resolve_item(text));
                warehouse.lineage(&request.with_budget(budget))?.completeness
            }
            Shape::Answer => {
                warehouse.answer(&AnswerRequest::new(text).with_budget(budget))?.completeness
            }
            Shape::CrossJoin => {
                let sem = SemMatch::new(text).rulebase("OWLPRIME").select(&["?a", "?d"]);
                warehouse.sem_match_explained(&sem, &budget, true)?.0.completeness
            }
        };
        Ok(completeness.reason().is_some())
    }

    /// The request as a `GET` target.
    fn target(self) -> String {
        match self {
            Shape::Search => format!("/search?q={}", self.text()),
            Shape::Lineage => format!("/lineage?item={}", self.text()),
            Shape::Answer => unreachable!("keyword answers are POSTed"),
            Shape::CrossJoin => self.text().bytes().fold("/sparql?query=".into(), |url, b| match b {
                b' ' | b'?' | b'{' | b'}' => format!("{url}%{b:02X}"),
                _ => format!("{url}{}", char::from(b)),
            }),
        }
    }
}

/// The outcomes of a load drill's requests, recorded by every client
/// thread as they come in.
#[derive(Default)]
struct Tally {
    /// Latency of every answered request, truncated ones included.
    latencies_us: Vec<u64>,
    truncated: u64,
    /// The back-off each typed shed asked for.
    retry_after_ms: Vec<u64>,
    io_errors: u64,
    /// Unexpected errors and malformed frames: either fails the drill.
    failures: Vec<String>,
}

impl Tally {
    /// An answered request, complete or truncated but truthful.
    fn done(&mut self, latency: Duration, truncated: bool) {
        self.latencies_us.push(latency.as_micros() as u64);
        self.truncated += u64::from(truncated);
    }

    /// A send or read that failed at the socket or on a malformed frame.
    fn wire_error(&mut self, e: &client::WireError) {
        match e {
            client::WireError::Io(_) => self.io_errors += 1,
            e => self.failures.push(e.to_string()),
        }
    }

    fn report(&mut self) {
        self.latencies_us.sort_unstable();
        self.retry_after_ms.sort_unstable();
        let (lat, retry) = (&self.latencies_us, &self.retry_after_ms);
        let ms = |pct| percentile(lat, pct) as f64 / 1000.0;
        let (wait, most) = (percentile(retry, 50.0), percentile(retry, 100.0));
        println!("completed: {} ({} truncated-but-truthful)", lat.len(), self.truncated);
        println!("latency:   p50 {:.1} ms, p99 {:.1} ms", ms(50.0), ms(99.0));
        println!("shed:      {} (typed; retry-after p50 {wait} ms, max {most} ms)", retry.len());
        println!("io errors: {} (connect/read failures at the socket)", self.io_errors);
    }

    /// Fails on any unexpected error or malformed frame, and on no shed at
    /// all when `expect_shed` asked for one.
    fn verdict(&self, expect_shed: bool) -> Result<(), String> {
        if let Some(first) = self.failures.first() {
            return Err(format!(
                "{} request(s) failed with an unexpected error or a malformed frame, e.g.: {first}",
                self.failures.len()
            ));
        }
        if expect_shed && self.retry_after_ms.is_empty() {
            return Err("expected sheds under forced-low quotas, but shed = 0".to_string());
        }
        Ok(())
    }
}

/// The value at `pct` of an ascending slice (0 when it is empty).
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    let idx = (sorted.len().saturating_sub(1) as f64 * pct / 100.0).round() as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Forced-low, queueless quotas: overload sheds at once, which is the
/// behavior the wire drill wants to observe.
fn queueless(quota: usize) -> AdmissionConfig {
    let quotas = AdmissionConfig::with_quotas(quota, quota);
    AdmissionConfig { max_queued: 0, max_wait: Duration::ZERO, ..quotas }
}

/// The overload drill: hammer one warehouse from many threads with a mixed
/// search/lineage/sparql/answer load behind a deliberately small admission
/// gate — one tenant's, admitted at once through [`TenantGates::admit`] —
/// then report latency percentiles and the shed rate. Every request
/// either completes (possibly truncated by its deadline) or is shed with a
/// typed `Overloaded` — the drill fails if anything panics or errors
/// otherwise.
fn drill_overload(args: &Args) -> Result<(), String> {
    if args.flag("writer-race") {
        return drill_writer_race(args);
    }
    let threads: usize = parse_or(args, "threads", 8)?;
    let requests: usize = parse_or(args, "requests", 32)?;
    let quota: usize = parse_or(args, "quota", 2)?;
    let deadline_ms: u64 = parse_or(args, "deadline-ms", 50)?;

    let warehouse = drill_warehouse(args)?;
    let gates = TenantGates::new(AdmissionConfig::with_quotas(quota, quota));

    eprintln!(
        "overload drill: {threads} thread(s) × {requests} request(s), \
         concurrency quota {quota}, per-request deadline {deadline_ms} ms"
    );

    let warehouse = &warehouse;
    // All workers start together: the first wave alone oversubscribes the
    // quota, so a forced-low gate sheds deterministically.
    let tally = Mutex::new(Tally::default());
    fan_out(threads, |_| (), |t, ()| {
        for i in 0..requests {
            let shape = Shape::ALL[(t + i) % 4];
            let budget = QueryBudget::unlimited()
                .with_deadline(Duration::from_millis(deadline_ms), Arc::new(MonotonicTime::new()));
            let began = Instant::now();
            let outcome = (gates.admit(DEFAULT_TENANT, shape.class()))
                .map(|_permit| shape.run(warehouse, budget));
            let latency = began.elapsed();
            let mut tally = tally.lock().unwrap();
            match outcome {
                Ok(Ok(truncated)) => tally.done(latency, truncated),
                Ok(Err(e)) => tally.failures.push(e.to_string()),
                // A typed shed: its back-off hint is what a client waits.
                Err(o) => tally.retry_after_ms.push(o.retry_after.as_millis() as u64),
            }
        }
    })?;

    let mut tally = tally.into_inner().unwrap();
    tally.report();
    let (_, gate, _) = (gates.stats().into_iter())
        .find(|(tenant, ..)| tenant == DEFAULT_TENANT)
        .expect("the default tenant is always present");
    println!("admitted:  {}", gate.total("_admitted"));
    println!("gate:      {}", metrics::to_line(&gate));
    tally.verdict(args.flag("expect-shed"))
}

/// The model a writer/reader race writes.
const RACE_MODEL: &str = "DRILL_RACE";

/// One writer/reader race over an [`LsmStore`]: `writers` threads commit
/// `batches` numbered batches of `batch_size` triples each, while
/// `readers` threads load snapshots until the last writer is done and
/// check every one of them.
struct Race {
    writers: usize,
    readers: usize,
    batches: usize,
    batch_size: usize,
}

/// What a race's threads saw.
#[derive(Default)]
struct RaceOutcome {
    /// `(writer, batch, seq)` of every acknowledged batch.
    acked: Vec<(usize, usize, u64)>,
    /// Batches still refused by backpressure after five retries.
    shed: u64,
    /// Batches that failed otherwise — an injected fault or its I/O
    /// shadow — and so were never acknowledged.
    faulted: u64,
    reads: u64,
    violations: Vec<String>,
}

impl Race {
    /// Triple `t` of writer `w`'s batch `b`: every batch has subjects of
    /// its own, so a reopened store shows which batches came back whole.
    fn triple(w: usize, b: usize, t: usize) -> [Term; 3] {
        [
            Term::iri(format!("http://ex.org/drill/w{w}b{b}t{t}")),
            Term::iri("http://ex.org/drill/p"),
            Term::iri("http://ex.org/drill/o"),
        ]
    }

    /// Runs the race on `store`, which must already hold [`RACE_MODEL`].
    fn run(&self, store: &LsmStore) -> Result<RaceOutcome, String> {
        let (writing, out) = (AtomicUsize::new(self.writers), Mutex::default());
        fan_out(self.writers + self.readers, |_| (), |i, ()| {
            if i < self.writers {
                self.write(store, i, &out);
                writing.fetch_sub(1, Ordering::Release);
            } else {
                self.read(store, i - self.writers, &writing, &out);
            }
        })?;
        Ok(out.into_inner().unwrap())
    }

    fn write(&self, store: &LsmStore, w: usize, out: &Mutex<RaceOutcome>) {
        for b in 0..self.batches {
            let ops: Vec<JournalOp> = (0..self.batch_size)
                .map(|t| Self::triple(w, b, t))
                .map(|[s, p, o]| JournalOp::Insert(s, p, o))
                .collect();
            let mut stalls = 0;
            let result = loop {
                match store.write_batch(RACE_MODEL, &ops) {
                    Err(RdfError::Backpressure { .. }) if stalls < 5 => {
                        stalls += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    result => break result,
                }
            };
            let mut out = out.lock().unwrap();
            match result {
                Ok(committed) => out.acked.push((w, b, committed.seq)),
                Err(RdfError::Backpressure { .. }) => out.shed += 1,
                Err(_) => out.faulted += 1,
            }
        }
    }

    /// Generation and watermark never go backwards, and every snapshot
    /// holds the model whole.
    fn read(&self, store: &LsmStore, r: usize, writing: &AtomicUsize, out: &Mutex<RaceOutcome>) {
        let (mut generation, mut watermark, mut reads) = (0, 0, 0);
        while writing.load(Ordering::Acquire) > 0 || reads == 0 {
            reads += 1;
            let snap = store.snapshot();
            let verdict = if snap.generation() < generation {
                Err(format!("generation went backwards ({generation} -> {})", snap.generation()))
            } else if snap.watermark() < watermark {
                Err(format!("watermark went backwards ({watermark} -> {})", snap.watermark()))
            } else {
                snap.model(RACE_MODEL)
                    .map_err(|e| format!("generation {}: {e}", snap.generation()))
                    .and_then(|graph| self.whole(graph))
            };
            if let Err(why) = verdict {
                out.lock().unwrap().violations.push(format!("reader {r}: {why}"));
                break;
            }
            (generation, watermark) = (snap.generation(), snap.watermark());
            std::thread::yield_now();
        }
        out.lock().unwrap().reads += reads;
    }

    /// A whole graph holds a multiple of the batch size (a torn publish
    /// would expose a partial batch), and its full scan and its checksum
    /// agree with its exact count.
    fn whole(&self, graph: &FrozenGraph) -> Result<(), String> {
        let (len, size) = (graph.len(), self.batch_size);
        if len % size != 0 {
            return Err(format!("{len} triples, not a multiple of batch size {size} (torn batch)"));
        }
        let (checksum, scanned) = (graph.checksum(), graph.iter().count());
        if scanned != len || checksum != graph.checksum() {
            return Err(format!("inconsistent snapshot: scan {scanned} vs len {len}"));
        }
        Ok(())
    }

    /// Checks `snap`, taken after the race, against what the readers saw
    /// and the writers were told: the watermark covers the highest acked
    /// seq, every acked batch is there whole, the model is whole, and no
    /// more batches are there than were attempted.
    fn verify(&self, snap: &FrozenStore, outcome: &RaceOutcome) -> Result<(), String> {
        if !outcome.violations.is_empty() {
            return Err(outcome.violations.join("; "));
        }
        let max_acked = outcome.acked.iter().map(|&(_, _, seq)| seq).max().unwrap_or(0);
        if snap.watermark() < max_acked {
            return Err(format!("watermark {} < max acked seq {max_acked}", snap.watermark()));
        }
        let graph = match snap.model(RACE_MODEL) {
            Ok(graph) => graph,
            Err(_) if outcome.acked.is_empty() => return Ok(()),
            Err(e) => return Err(format!("model lost: {e}")),
        };
        let id = |term: &Term| snap.dict().lookup(term);
        let lost: Vec<String> = (outcome.acked.iter())
            .filter(|&&(w, b, _)| {
                !(0..self.batch_size).all(|t| match Self::triple(w, b, t).each_ref().map(id) {
                    [Some(s), Some(p), Some(o)] => graph.contains(Triple::new(s, p, o)),
                    _ => false,
                })
            })
            .map(|(w, b, seq)| format!("w{w}b{b} (seq {seq})"))
            .collect();
        if !lost.is_empty() {
            return Err(format!("acked batches lost: {}", lost.join(", ")));
        }
        self.whole(graph)?;
        let (found, attempted) = (graph.len() / self.batch_size, self.writers * self.batches);
        if found > attempted {
            return Err(format!("{found} batches, more than the {attempted} attempted"));
        }
        Ok(())
    }
}

/// The writer-race drill: `--threads` readers race one writer that
/// commits `--writes` 16-triple batches to a volatile engine — the one the
/// warehouse writes through — with a memtable small enough that the race
/// crosses seals and background compactions. Besides the race's own
/// checks, a snapshot pinned before the first write must still verify
/// unchanged at the end, and no write may be lost. Any violation exits
/// non-zero.
fn drill_writer_race(args: &Args) -> Result<(), String> {
    let readers = parse_or(args, "threads", 8)?;
    let batches = parse_or(args, "writes", 64)?;
    let batch_size = 16;
    let race = Race { writers: 1, readers, batches, batch_size };
    // The empty batch creates the model.
    let config = LsmConfig { memtable_limit: 4 * batch_size, ..LsmConfig::default() };
    let store = LsmStore::in_memory(config);
    store.write_batch(RACE_MODEL, &[]).map_err(|e| e.to_string())?;

    eprintln!(
        "writer-race drill: {readers} reader(s) racing 1 writer × {batches} publish(es) of \
         {batch_size}-triple batches"
    );

    // Pinned before the writer starts: whatever gets published, this handle
    // must keep reading its generation exactly as it was.
    let pinned = store.snapshot();
    let pinned_graph = pinned.model(RACE_MODEL).map_err(|e| e.to_string())?;
    let pinned_checksum = pinned_graph.checksum();

    let outcome = race.run(&store)?;
    let last = store.snapshot();
    let held = last.model(RACE_MODEL).map_err(|e| e.to_string())?.len();
    println!("reads:       {} across {readers} reader(s)", outcome.reads);
    println!("generations: {} published, final model holds {held} triple(s)", last.generation());
    if pinned_graph.checksum() != pinned_checksum || !pinned_graph.is_empty() {
        return Err("pinned pre-write snapshot changed under the writer".to_string());
    }
    race.verify(&last, &outcome)?;
    let written = batches * batch_size;
    if held != written {
        return Err(format!("writer lost updates: expected {written} triples, found {held}"));
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
    if let Some(quota) = parse_opt(args, "quota")? {
        config.admission = AdmissionConfig::with_quotas(quota, quota);
    }
    let grace = config.drain_grace;

    signal::install_termination_handler();
    let mut handle = serve(warehouse, config).map_err(|e| format!("bind failed: {e}"))?;
    println!("mdw-serve listening on {}", handle.addr());
    eprintln!("mdwh: GET /search?q= /lineage?item= /sparql?query= /admin/stats /healthz");
    eprintln!("mdwh: POST /answer?q= /admin/drain; SIGTERM drains");

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

    // Each held-open connection costs one client-side fd, plus a server-side
    // fd when the server runs in-process. Raise the soft RLIMIT_NOFILE to
    // the hard cap and clamp the drill under it — a drill that dies on
    // EMFILE measures nothing.
    if let Ok((soft, _hard)) = epoll::raise_nofile_limit() {
        let per_conn: u64 = if args.option("addr").is_none() { 2 } else { 1 };
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
            let parsed = addr.parse::<std::net::SocketAddr>();
            (parsed.map_err(|_| format!("bad --addr: {addr} (need IP:PORT)"))?, None)
        }
        None => {
            let warehouse = drill_warehouse(args)?.into_shared();
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
                admission: queueless(quota),
                ..ServerConfig::default()
            };
            let handle = serve(warehouse, config).map_err(|e| format!("bind failed: {e}"))?;
            (handle.addr(), Some(handle))
        }
    };

    eprintln!(
        "wire drill: {connections} held-open connection(s) × {requests} request(s) \
         against {addr}"
    );

    // A bounded pool of client threads multiplexes the connections: the
    // server must prove it scales past its own worker count, the drill
    // client doesn't have to. Thread t opens every connection index ≡ t
    // (mod threads) before any thread sends, keeps each one that works
    // open across all rounds, and hands them back still open.
    let client_threads = connections.clamp(1, 64);
    let tally = Mutex::new(Tally::default());
    let open = |t: usize| -> Vec<(usize, client::WireConn, Instant)> {
        let connect = |c| {
            let conn = client::WireConn::connect(addr, timeout);
            let conn = conn.inspect_err(|e| tally.lock().unwrap().wire_error(e)).ok()?;
            Some((c, conn, Instant::now()))
        };
        (t..connections).step_by(client_threads).filter_map(connect).collect()
    };
    let held = fan_out(client_threads, open, |_, mut conns| {
        for _ in 0..requests {
            // Pipelined round: SEND on every connection first so the server
            // faces the whole storm at once, then collect one frame per
            // connection. This is what makes 10k connections mean 10k
            // concurrent requests, not (client threads) of them.
            conns.retain_mut(|(c, conn, sent)| {
                let headers = [
                    ("X-Tenant", format!("tenant{}", *c % tenants)),
                    ("X-Deadline-Ms", deadline_ms.to_string()),
                ];
                let shape = Shape::GETS[*c % 3];
                if let Err(e) = conn.send("GET", &shape.target(), &headers) {
                    tally.lock().unwrap().wire_error(&e);
                    return false;
                }
                *sent = Instant::now();
                true
            });
            conns.retain_mut(|(_, conn, sent)| {
                let frame = conn.read_frame();
                let latency = sent.elapsed();
                let mut tally = tally.lock().unwrap();
                match frame {
                    Ok(resp) if resp.complete_frame && resp.status == 200 => {
                        tally.done(latency, !resp.answer_complete())
                    }
                    Ok(resp) if resp.complete_frame && resp.status == 503 => {
                        tally.retry_after_ms.push(resp.retry_after_secs().unwrap_or(0) * 1000)
                    }
                    Ok(resp) => tally.failures.push(format!(
                        "status {} complete_frame {}",
                        resp.status, resp.complete_frame
                    )),
                    Err(e) => {
                        tally.wire_error(&e);
                        return false;
                    }
                }
                true
            });
        }
        conns
    })?;
    // Every surviving connection is still open right now — this is the
    // footprint the drill exists to bound.
    let held_rss_kb = epoll::current_rss_kb();
    let stats_line = client::get(addr, "/admin/stats", &[], timeout)
        .ok()
        .filter(|resp| resp.status == 200)
        .map(|resp| resp.body.trim().to_string());
    drop(held);

    let mut tally = tally.into_inner().unwrap();
    println!("requests:  {} over {connections} held-open connection(s)", connections * requests);
    tally.report();
    if let Some(rss_kb) = held_rss_kb {
        println!("rss:       {:.1} MiB with all connections held open", rss_kb as f64 / 1024.0);
    }
    if let Some(stats) = &stats_line {
        println!("stats:     {stats}");
    }
    if let Some(handle) = handle.as_mut() {
        let cancelled = handle.drain(Duration::from_secs(5));
        let counters = metrics::to_line(&handle.state().counters);
        println!("server:    cancelled at drain {cancelled}; {counters}");
    }
    tally.verdict(args.flag("expect-shed"))?;
    match held_rss_kb {
        Some(rss) if rss_ceiling_kb > 0 && rss > rss_ceiling_kb => Err(format!(
            "RSS {rss} KiB with connections held open exceeds --rss-ceiling-kb {rss_ceiling_kb}"
        )),
        None if rss_ceiling_kb > 0 => {
            eprintln!("WARNING: --rss-ceiling-kb set but RSS is unreadable here");
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Every write-path failpoint the crash drill kills at, in commit order:
/// journal append/sync, run seal (file, partial write, manifest swap),
/// standalone manifest writes, journal rotation, and the two compaction
/// commit points.
const CRASH_FAILPOINTS: &[&str] = &[
    "journal::append", "journal::append::partial", "journal::sync",
    "run::seal", "run::seal::partial", "run::seal::manifest",
    "run::manifest",
    "journal::rotate",
    "compact::merge", "compact::manifest",
];

/// `mdwh drill crash`: the kill-anywhere write-path drill. For each
/// failpoint in [`CRASH_FAILPOINTS`], runs the writer/reader [`Race`] —
/// `--writers` racing writers, `--readers` snapshot readers —
/// on a durable store with a fault armed at that point, "crashes" by
/// dropping the store, then reopens it and verifies the race against
/// what recovery brought back: every *acknowledged* batch is whole, and
/// no batch is torn (a torn run or half-replayed batch would break the
/// batch-size multiple). Backpressure sheds are typed, never losses. A
/// round fails too when its failpoint never fired, even after a forced
/// seal and compaction.
/// With `--store DIR` each round's recovered directory is kept as
/// `DIR/<failpoint>` (for `fsck`, `info` and the other `--store`
/// commands) instead of a removed temp dir.
fn drill_crash(args: &Args) -> Result<(), String> {
    let writers = parse_or(args, "writers", 4usize)?.max(1);
    let readers = parse_or(args, "readers", 2)?;
    let batches = parse_or(args, "batches", 24)?;
    let batch_size = parse_or(args, "batch-size", 8usize)?.max(1);
    let race = Race { writers, readers, batches, batch_size };
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
    let scratch = std::env::temp_dir().join(format!("mdwh-crash-{}", std::process::id()));

    let points = match args.option("failpoint") {
        None => CRASH_FAILPOINTS.to_vec(),
        Some(name) if CRASH_FAILPOINTS.contains(&name) => vec![name],
        Some(name) => {
            let available = CRASH_FAILPOINTS.join(", ");
            return Err(format!("unknown crash failpoint: {name} (available: {available})"));
        }
    };

    eprintln!(
        "crash drill: {writers} writer(s) × {batches} batch(es) of {batch_size}, \
         {readers} reader(s), memtable {memtable}, kill at {} failpoint(s)",
        points.len()
    );

    let mut failures: Vec<String> = Vec::new();
    for point in &points {
        let dir = keep.as_ref().unwrap_or(&scratch).join(point.replace("::", "-"));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = LsmStore::open(&dir, cfg.clone()).map_err(|e| e.to_string())?;
        store.write_batch(RACE_MODEL, &[]).map_err(|e| e.to_string())?;
        // Global scope: the fault must be visible to whichever writer thread
        // commits when it fires and to the background compactor, not just
        // to the arming thread.
        failpoint::reset_global();
        failpoint::arm_global(point, FailSpec::Once);
        let outcome = race.run(&store)?;
        // A background point (a seal, the journal rotation, a compaction)
        // may not come up in a short race: while it is still armed, force a
        // seal and a compaction; their errors are the injected fault.
        if failpoint::reset_global().iter().any(|name| name == point) {
            failpoint::arm_global(point, FailSpec::Once);
            let _ = store.seal_now();
            let _ = store.compact_once();
        }
        // Writers the stall gate held back: shows whether the race reached
        // backpressure at all.
        let stalls = store.metrics().stalls;
        // The "kill": drop the store with whatever half-finished seal or
        // compaction the fault left behind, then recover from disk alone.
        drop(store);
        let unfired = failpoint::reset_global().iter().any(|name| name == point);

        let reopen = LsmConfig { auto_compact: false, ..cfg.clone() };
        let (recovered, report) =
            LsmStore::open(&dir, reopen).map_err(|e| format!("reopen after {point}: {e}"))?;
        let verdict = match race.verify(&recovered.snapshot(), &outcome) {
            Ok(()) if unfired => Err("the armed failpoint never fired".to_string()),
            verdict => verdict,
        };
        drop(recovered);
        println!(
            "{point:<26} acked {}/{} shed {} stalls {stalls} faulted {} | reopen: runs {}, \
             folded {}, replayed {}, quarantined {} | {}",
            outcome.acked.len(),
            writers * batches,
            outcome.shed,
            outcome.faulted,
            report.runs_loaded,
            report.runs_already_folded,
            report.replayed_batches,
            report.quarantined.len(),
            match &verdict {
                Ok(()) => "all acked recovered".to_string(),
                Err(problem) => format!("FAILED: {problem}"),
            }
        );
        failures.extend(verdict.err().map(|problem| format!("{point}: {problem}")));
    }
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    if !failures.is_empty() {
        let (n, list) = (failures.len(), failures.join("\n  "));
        return Err(format!("crash drill FAILED at {n} failpoint(s):\n  {list}"));
    }
    println!(
        "crash drill: {} failpoint(s) fired and survived — no acked batch lost, \
         no torn batch surfaced",
        points.len()
    );
    Ok(())
}
