//! The cost ledger: the work each request shape does, pinned as exact
//! counts. A fixed request set runs through the warehouse facade on the
//! seeded medium corpus with the extended scope (the only one with
//! governance edges), and each request is recorded as one line: budget
//! steps charged, result rows, and the length and FNV-1a of its rendered
//! text (the request's renderer, or `{:?}` where it has none). One more
//! line records the corpus: triples, derived triples, and the derived
//! count of each rule. `tests/golden/cost_ledger.txt` is the expected
//! ledger; a change that moves a count fails here.
//!
//! The set: three searches, three lineage walks, the six `sparql-plan`
//! shapes of the standing benchmark, two graded keyword cases, one
//! `isMappedTo*` path query, and the six read services (audit, governance
//! gaps, report sources, schema flows, drill-down, impact summary).
//!
//! Regenerate the file with `MDW_BLESS=1 cargo test --test cost_ledger`
//! and name every moved line in the change log.

use std::fmt::Write as _;
use std::path::PathBuf;

use metadata_warehouse::core::answer::AnswerRequest;
use metadata_warehouse::core::assist::render_sources;
use metadata_warehouse::core::governance::{render_access, render_gaps};
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::report;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{eval_cases, generate, CaseKind, CorpusConfig};
use metadata_warehouse::rdf::budget::QueryBudget;
use metadata_warehouse::rdf::{vocab, Term};
use metadata_warehouse::sparql::SemMatch;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_ledger.txt")
}

/// FNV-1a over a rendered text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One ledger line.
fn record(out: &mut String, label: &str, steps: u64, rows: usize, text: &str) {
    let _ = writeln!(
        out,
        "{label:<40} steps {steps:>7} rows {rows:>5} len {:>7} fnv1a {:016x}",
        text.len(),
        fnv1a(text.as_bytes())
    );
}

fn dwh(item: &str) -> Term {
    Term::iri(vocab::cs::dwh(item))
}

fn ledger() -> String {
    let config = CorpusConfig::medium().extended();
    let corpus = generate(&config);
    let cases = eval_cases(&corpus);
    let (chain_start, schemas) = (corpus.chain_start.clone(), corpus.stage_schemas.clone());
    let mut w = MetadataWarehouse::new();
    w.ingest(corpus.into_extracts()).unwrap();
    let materialized = w.build_semantic_index().unwrap();
    let mut out = String::new();

    let per_rule: Vec<String> =
        materialized.per_rule.iter().map(|(rule, n)| format!("{rule}={n}")).collect();
    let _ = writeln!(
        out,
        "corpus medium-extended triples {} derived {} rounds {} rules {}",
        w.stats().unwrap().edges,
        w.derived_count(),
        materialized.rounds,
        per_rule.join(" ")
    );

    let searches = [
        ("search customer", SearchRequest::new("customer")),
        ("search account synonyms", SearchRequest::new("account").with_synonyms()),
        (
            "search trade max-rows 50",
            SearchRequest::new("trade").with_budget(QueryBudget::unlimited().with_max_rows(50)),
        ),
    ];
    for (label, request) in searches {
        let results = w.search(&request).unwrap();
        let text = report::render_search(&request.term, &results);
        let steps = request.budget.steps_charged();
        record(&mut out, label, steps, results.instance_count(), &text);
    }

    let last = config.dwh_stages - 1;
    let walks = [
        ("lineage down stage0 item0", LineageRequest::downstream(dwh("dwh_stage0_item0"))),
        (
            "lineage up last stage item1",
            LineageRequest::upstream(dwh(&format!("dwh_stage{last}_item1"))),
        ),
        (
            "lineage down stage0 item3 depth 1",
            LineageRequest::downstream(dwh("dwh_stage0_item3")).max_depth(1),
        ),
    ];
    for (label, request) in walks {
        let result = w.lineage(&request).unwrap();
        let text = report::render_lineage(&result);
        let steps = request.budget.steps_charged();
        record(&mut out, label, steps, result.endpoints.len(), &text);
    }

    // The standing benchmark's six `sparql-plan` shapes, with fixed
    // applications and word, plus one `isMappedTo*` path.
    let shapes = [
        (
            "sparql listing 1",
            "{ ?object dm:hasName ?term . ?object rdf:type ?c . ?c rdfs:label ?class . \
             ?c rdfs:subClassOf dm:Application1_Item . FILTER(regex(?term, \"customer\", \"i\")) }",
            true,
        ),
        (
            "sparql listing 2",
            "{ ?source dt:isMappedTo ?via . ?via dt:isMappedTo ?target . \
             ?target rdf:type dm:Application2_View_Column . ?target dm:hasName ?name }",
            true,
        ),
        (
            "sparql class listing",
            "{ ?x dm:hasName ?name . ?x rdf:type dm:Application2_Item }",
            true,
        ),
        (
            "sparql class listing no-rulebase",
            "{ ?x dm:hasName ?name . ?x rdf:type dm:Application2_Item }",
            false,
        ),
        (
            "sparql optional",
            "{ ?t dm:inSchema dwh:app3_schema . ?t rdf:type dm:Table . \
             OPTIONAL { ?t dm:hasName ?name } }",
            true,
        ),
        (
            "sparql union",
            "{ ?x rdf:type dm:Table . { ?x dm:inSchema dwh:app4_schema } UNION \
             { ?x dm:inSchema dwh:app5_schema } }",
            true,
        ),
        (
            "sparql isMappedTo* path",
            "{ dwh:dwh_stage0_item0 dt:isMappedTo* ?t . ?t rdf:type ?c }",
            true,
        ),
    ];
    for (label, pattern, rulebase) in shapes {
        let mut query = SemMatch::new(pattern)
            .alias("dm", vocab::cs::DM)
            .alias("dt", vocab::cs::DT)
            .alias("dwh", vocab::cs::DWH);
        if rulebase {
            query = query.rulebase("OWLPRIME");
        }
        let budget = QueryBudget::unlimited();
        let (output, _) = w.sem_match_explained(&query, &budget, true).unwrap();
        let steps = budget.steps_charged();
        record(&mut out, label, steps, output.rows.len(), &output.to_table());
    }

    // The first graded case of two kinds: a concept and a multi-hop join.
    for kind in [CaseKind::Concept, CaseKind::MultiHop] {
        let case = cases.iter().find(|c| c.kind == kind).expect("a case of the kind");
        let request = AnswerRequest::new(case.keywords.clone());
        let result = w.answer(&request).unwrap();
        let label = format!("answer {}", case.name);
        let steps = request.budget.steps_charged();
        record(&mut out, &label, steps, result.answers.len(), &format!("{result:?}"));
    }

    // The six read services, each under a fresh budget.
    let item = dwh(&format!("dwh_stage{last}_item0"));
    let b = QueryBudget::unlimited();
    let access = w.who_can_access(&item, &b).unwrap();
    let (users, text) = (access.all_users().len(), render_access(&access));
    record(&mut out, "service audit", b.steps_charged(), users, &text);
    let b = QueryBudget::unlimited();
    let gaps = w.governance_gaps(&b).unwrap();
    let (ownerless, text) = (gaps.ownerless.len(), render_gaps(&gaps));
    record(&mut out, "service gaps", b.steps_charged(), ownerless, &text);
    let b = QueryBudget::unlimited();
    let sources = w.find_sources(&Term::iri(vocab::cs::dm("Party")), &b).unwrap();
    let (candidates, text) = (sources.candidates.len(), render_sources(&sources));
    record(&mut out, "service sources Party", b.steps_charged(), candidates, &text);
    let b = QueryBudget::unlimited();
    let flows = w.schema_flow(&b).unwrap().flows;
    let text = report::render_flows(&flows);
    record(&mut out, "service schema flow", b.steps_charged(), flows.len(), &text);
    let b = QueryBudget::unlimited();
    let hops = w.drill_down(&schemas[0], &schemas[1], &b).unwrap().hops;
    let text = report::render_drill_down(schemas[0].label(), schemas[1].label(), &hops);
    let label = "service drill-down stage0 stage1";
    record(&mut out, label, b.steps_charged(), hops.len(), &text);
    let impact = w.lineage(&LineageRequest::downstream(chain_start)).unwrap();
    let b = QueryBudget::unlimited();
    let summary = w.impact_summary(&impact, &b).unwrap();
    let text = format!("{:?}", (&summary.by_schema, summary.unassigned, summary.total));
    let label = "service impact chain start";
    record(&mut out, label, b.steps_charged(), summary.by_schema.len(), &text);
    out
}

#[test]
fn cost_ledger_matches_the_golden_file() {
    let got = ledger();
    let path = golden_path();
    if std::env::var_os("MDW_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (MDW_BLESS=1 writes it)", path.display()));
    if got != want {
        let moved: Vec<String> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("  got  {g}\n  want {w}"))
            .collect();
        panic!(
            "the cost ledger moved ({} against {} lines):\n{}\nMDW_BLESS=1 regenerates it",
            got.lines().count(),
            want.lines().count(),
            moved.join("\n")
        );
    }
}
