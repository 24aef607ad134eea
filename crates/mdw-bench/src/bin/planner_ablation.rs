//! Planner ablation smoke: the cost-based join order against naive
//! written-order execution, on the query shapes the paper actually runs.
//!
//! Four workloads:
//!
//! 1. `adversarial_bgp` — a two-pattern join over a deliberately skewed
//!    store (100 k wide-scan rows, one selective class instance) written
//!    worst-first: the broad `hasName` scan before the selective type
//!    probe. This is the ordering the planner exists to fix; the smoke
//!    **fails the process** (non-zero exit) if the planned run is not
//!    faster than the naive run or if the two answers differ.
//! 2. `listing1_adversarial` — the paper's Listing 1 search shape with
//!    its patterns written in the worst order (instance scan first, the
//!    selective `subClassOf` anchor last), over the synthetic corpus with
//!    the OWLPRIME entailment view (the planner orders by the view's
//!    summed base + derived statistics).
//! 3. `listing2_adversarial` — Listing 2's two-hop lineage join written
//!    mapping-first.
//! 4. `union_after_class` — a class scan written before a selective
//!    UNION of two schemas, over the corpus with OWLPRIME. The planner
//!    runs the union first and probes the class once per union row; the
//!    smoke **fails the process** if the planned run charges as many
//!    budget steps as written order or more, or if the answers differ.
//!    Steps, not wall clock, so the gate is deterministic at every scale.
//!    The class is `dm:Item`, not the benchmark's `dm:Table`: on the
//!    small corpus six tables are genuinely cheaper than the two schemas'
//!    estimated members, so the `dm:Table` shape keeps written order there.
//!
//! Usage: planner_ablation [--scale small|medium|paper] [--iters N]
//!
//! Wall-clock is min-of-N; charged budget steps are printed alongside as
//! the machine-independent work metric. EXPERIMENTS.md quotes this
//! binary's output.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mdw_bench::setup::{load_scale, parse_scale};
use mdw_rdf::budget::QueryBudget;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::Scale;
use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::vocab;
use mdw_sparql::{execute, parser, ExecOptions, SemMatch};

/// One timed mode: minimum wall-clock over `iters` runs, the charged step
/// count, and the canonically sorted rows for the equivalence check.
struct Measured {
    best: Duration,
    steps: u64,
    rows: Vec<String>,
    summary: String,
}

fn measure_direct(store: &FrozenStore, query_text: &str, use_planner: bool, iters: usize) -> Measured {
    let query = parser::parse(query_text).expect("ablation query parses");
    let graph = store.model("ABLATION").expect("model");
    let mut best = Duration::MAX;
    let mut steps = 0;
    let mut rows = Vec::new();
    let mut summary = String::new();
    for _ in 0..iters {
        let budget = QueryBudget::unlimited();
        let t = Instant::now();
        let options = ExecOptions { budget: budget.clone(), use_planner };
        let (out, report) =
            execute(&query, graph, store.dict(), &options).expect("ablation query executes");
        let elapsed = t.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        steps = budget.steps_charged();
        rows = out.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        summary = report.summary();
    }
    Measured { best, steps, rows, summary }
}

fn measure_warehouse(
    w: &MetadataWarehouse,
    query: &SemMatch,
    use_planner: bool,
    iters: usize,
) -> Measured {
    let mut best = Duration::MAX;
    let mut steps = 0;
    let mut rows = Vec::new();
    let mut summary = String::new();
    for _ in 0..iters {
        let budget = QueryBudget::unlimited();
        let t = Instant::now();
        let (out, report) = w
            .sem_match_explained(query, &budget, use_planner)
            .expect("ablation query executes");
        let elapsed = t.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        steps = budget.steps_charged();
        rows = out.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        summary = report.summary();
    }
    Measured { best, steps, rows, summary }
}

fn speedup(naive: &Measured, planned: &Measured) -> f64 {
    naive.best.as_secs_f64() / planned.best.as_secs_f64().max(1e-9)
}

fn report(name: &str, naive: &Measured, planned: &Measured) {
    println!("== {name} ==");
    println!("  naive   : {:>12?}  steps={:<10} {}", naive.best, naive.steps, naive.summary);
    println!("  planned : {:>12?}  steps={:<10} {}", planned.best, planned.steps, planned.summary);
    println!(
        "  speedup : {:.1}x wall-clock, {:.1}x charged steps",
        speedup(naive, planned),
        naive.steps as f64 / (planned.steps as f64).max(1.0),
    );
}

/// The skewed store: `wide` rows carrying a name, one `Institution`.
/// Written-order execution of the adversarial query scans every name and
/// probes each; the planned order starts from the one-row class scan.
/// The model is folded into a solid base, so the timings measure solid
/// column scans.
fn skewed_store(wide: usize) -> Arc<FrozenStore> {
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri("http://ex.org/hasName");
    let row_class = Term::iri("http://ex.org/Row");
    let mut ops = Vec::with_capacity(2 * wide + 2);
    for i in 0..wide {
        let it = Term::iri(format!("http://ex.org/row{i}"));
        ops.push(JournalOp::Insert(it.clone(), ty.clone(), row_class.clone()));
        ops.push(JournalOp::Insert(it, has_name.clone(), Term::plain(format!("row_{i}"))));
    }
    let inst = Term::iri("http://ex.org/the_institution");
    ops.push(JournalOp::Insert(inst.clone(), ty, Term::iri("http://ex.org/Institution")));
    ops.push(JournalOp::Insert(inst, has_name, Term::plain("the_institution")));
    let store = LsmStore::in_memory(LsmConfig::default());
    store.write_batch("ABLATION", &ops).expect("write");
    store.seal_now().expect("seal");
    store.compact_once().expect("compact");
    let snapshot = store.snapshot();
    assert!(!snapshot.model("ABLATION").expect("model").is_stacked());
    snapshot
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut iters = 5usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
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
            "--iters" => {
                iters = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--iters needs a number");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let mut failed = false;

    // 1. The gated adversarial BGP on the skewed store (frozen statistics).
    let store = skewed_store(100_000);
    let adversarial = "SELECT ?x ?n WHERE { \
         ?x <http://ex.org/hasName> ?n . \
         ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Institution> }";
    let naive = measure_direct(&store, adversarial, false, iters.min(3));
    let planned = measure_direct(&store, adversarial, true, iters);
    report("adversarial_bgp (100k-row skew, worst-first written order)", &naive, &planned);
    if planned.rows != naive.rows {
        eprintln!("FAIL: planned and naive answers differ");
        failed = true;
    }
    if planned.best >= naive.best {
        eprintln!("FAIL: planned ordering is not faster than written order");
        failed = true;
    }

    // 2–3. Listing shapes over the corpus warehouse (entailed view: the
    // planner runs on its summed base + derived statistics). These are
    // informational — equivalence is still enforced.
    let loaded = load_scale(scale);
    let listing1 = SemMatch::new(
        "{ ?object dm:hasName ?term .
           ?object rdf:type ?c .
           ?c rdfs:label ?class .
           ?c rdfs:subClassOf dm:Application1_Item }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .select(&["?class", "?object"])
    .filter("regex(?term, \"customer\", \"i\")");
    let naive = measure_warehouse(&loaded.warehouse, &listing1, false, iters.min(3));
    let planned = measure_warehouse(&loaded.warehouse, &listing1, true, iters);
    report("listing1_adversarial (search shape, instance scan written first)", &naive, &planned);
    if planned.rows != naive.rows {
        eprintln!("FAIL: listing1 planned and naive answers differ");
        failed = true;
    }

    let listing2 = SemMatch::new(
        "{ ?source_id dt:isMappedTo ?via .
           ?via dt:isMappedTo ?target_id .
           ?target_id rdf:type dm:Application1_Item .
           ?target_id dm:hasName ?target_name }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dt", vocab::cs::DT)
    .select(&["?source_id", "?target_id", "?target_name"]);
    let naive = measure_warehouse(&loaded.warehouse, &listing2, false, iters.min(3));
    let planned = measure_warehouse(&loaded.warehouse, &listing2, true, iters);
    report("listing2_adversarial (two-hop lineage join, mapping-first)", &naive, &planned);
    if planned.rows != naive.rows {
        eprintln!("FAIL: listing2 planned and naive answers differ");
        failed = true;
    }

    let union_after_class = SemMatch::new(
        "{ ?x rdf:type dm:Item .
           { ?x dm:inSchema dwh:app0_schema } UNION { ?x dm:inSchema dwh:app1_schema } }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dwh", vocab::cs::DWH)
    .select(&["?x"]);
    let naive = measure_warehouse(&loaded.warehouse, &union_after_class, false, iters.min(3));
    let planned = measure_warehouse(&loaded.warehouse, &union_after_class, true, iters);
    report("union_after_class (class scan written before a selective UNION)", &naive, &planned);
    if planned.rows != naive.rows {
        eprintln!("FAIL: union_after_class planned and naive answers differ");
        failed = true;
    }
    if planned.steps >= naive.steps {
        eprintln!("FAIL: union_after_class planned run charges no fewer steps than written order");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("planner ablation smoke: OK");
}
