//! Tests for SPARQL 1.1 property paths — the query form the paper's lineage
//! path expression `(isMappedTo)* rdf:type` (Figure 8) calls for.

use std::sync::Arc;

use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::vocab;
use mdw_sparql::exec::{execute, ExecOptions};
use mdw_sparql::parser::parse;

/// The Figure 3 mapping chain plus extra shape for path operators:
///
/// ```text
/// client --maps--> partner --maps--> customer
/// customer : ViewColumn ;  alt  --other--> side
/// ```
fn chain_ops() -> Vec<JournalOp> {
    let t = |local: &str| Term::iri(format!("http://t/{local}"));
    let mut ops: Vec<JournalOp> = [
        ("client", "maps", "partner"),
        ("partner", "maps", "customer"),
        ("client", "other", "side"),
        ("side", "maps", "customer"),
    ]
    .into_iter()
    .map(|(s, p, o)| JournalOp::Insert(t(s), t(p), t(o)))
    .collect();
    ops.push(JournalOp::Insert(t("customer"), Term::iri(vocab::rdf::TYPE), t("ViewColumn")));
    ops
}

fn chain_store() -> Arc<FrozenStore> {
    fixture(&chain_ops())
}

/// Model `"m"` of a volatile engine, written in one batch.
fn fixture(ops: &[JournalOp]) -> Arc<FrozenStore> {
    let store = LsmStore::in_memory(LsmConfig::default());
    store.write_batch("m", ops).unwrap();
    store.snapshot()
}

fn run(store: &FrozenStore, q: &str) -> Vec<Vec<String>> {
    let query = parse(q).unwrap();
    let (out, _) =
        execute(&query, store.model("m").unwrap(), store.dict(), &ExecOptions::default()).unwrap();
    out.rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|c| c.as_ref().map(|t| t.label().to_string()).unwrap_or_default())
                .collect()
        })
        .collect()
}

#[test]
fn zero_or_more_closure() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:maps* ?x } ORDER BY ?x",
    );
    // Zero hops (client itself) + partner + customer.
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["client", "customer", "partner"]);
}

#[test]
fn one_or_more_excludes_start() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:maps+ ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["customer", "partner"]);
}

#[test]
fn zero_or_one() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:maps? ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["client", "partner"]);
}

#[test]
fn sequence_path() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:maps/t:maps ?x }",
    );
    assert_eq!(rows, vec![vec!["customer".to_string()]]);
}

#[test]
fn figure8_path_expression_verbatim() {
    // The paper: "(isMappedTo)* rdf:type" — as one SPARQL property path.
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\n\
         PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
         SELECT ?class WHERE { t:client t:maps*/rdf:type ?class }",
    );
    assert_eq!(rows, vec![vec!["ViewColumn".to_string()]]);
}

#[test]
fn alternative_path() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client (t:maps|t:other) ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["partner", "side"]);
}

#[test]
fn inverse_path() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:customer ^t:maps ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["partner", "side"]);
}

#[test]
fn inverse_closure_is_provenance() {
    // Upstream lineage as a path: everything customer derives from.
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:customer (^t:maps)+ ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["client", "partner", "side"]);
}

#[test]
fn bound_object_evaluates_backwards() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { ?x t:maps+ t:customer } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["client", "partner", "side"]);
}

#[test]
fn both_endpoints_bound_checks_reachability() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT (COUNT(*) AS ?n) WHERE { t:client t:maps* t:customer }",
    );
    assert_eq!(rows, vec![vec!["1".to_string()]]);
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT (COUNT(*) AS ?n) WHERE { t:customer t:maps+ t:client }",
    );
    assert_eq!(rows, vec![vec!["0".to_string()]]);
}

#[test]
fn both_endpoints_free_enumerates_pairs() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?a ?b WHERE { ?a t:maps+ ?b } ORDER BY ?a ?b",
    );
    // Pairs of the + closure over the maps edges.
    let got: Vec<(String, String)> = rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
    assert!(got.contains(&("client".into(), "customer".into())));
    assert!(got.contains(&("client".into(), "partner".into())));
    assert!(got.contains(&("partner".into(), "customer".into())));
    assert!(got.contains(&("side".into(), "customer".into())));
    assert!(!got.contains(&("customer".into(), "client".into())));
}

#[test]
fn path_over_cycle_terminates() {
    let t = |local: &str| Term::iri(format!("http://t/{local}"));
    let ops: Vec<JournalOp> = [("a", "b"), ("b", "c"), ("c", "a")]
        .into_iter()
        .map(|(s, o)| JournalOp::Insert(t(s), t("p"), t(o)))
        .collect();
    let store = fixture(&ops);
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:a t:p+ ?x } ORDER BY ?x",
    );
    // The cycle closes: a reaches a, b, c (each exactly once).
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["a", "b", "c"]);
}

#[test]
fn unknown_predicate_in_nullable_path_matches_zero_hops() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:never_used* ?x }",
    );
    assert_eq!(rows, vec![vec!["client".to_string()]]);
    // Non-nullable: no match at all.
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client t:never_used+ ?x }",
    );
    assert!(rows.is_empty());
}

#[test]
fn path_joins_with_plain_patterns() {
    // The full Listing-2 shape as a single query: path + type + name join.
    let mut ops = chain_ops();
    ops.push(JournalOp::Insert(
        Term::iri("http://t/customer"),
        Term::iri(vocab::cs::HAS_NAME),
        Term::plain("customer_id"),
    ));
    let store = fixture(&ops);
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\n\
         PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>\n\
         SELECT ?target ?name WHERE {\n\
           t:client t:maps* ?target .\n\
           ?target a <http://t/ViewColumn> .\n\
           ?target dm:hasName ?name\n\
         }",
    );
    assert_eq!(rows, vec![vec!["customer".to_string(), "customer_id".to_string()]]);
}

#[test]
fn grouped_path_with_modifier() {
    let store = chain_store();
    let rows = run(
        &store,
        "PREFIX t: <http://t/>\nSELECT ?x WHERE { t:client (t:maps/t:maps)? ?x } ORDER BY ?x",
    );
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(got, vec!["client", "customer"]);
}

#[test]
fn parse_errors_for_malformed_paths() {
    assert!(parse("SELECT ?x WHERE { ?x <p>/ ?y }").is_err());
    assert!(parse("SELECT ?x WHERE { ?x ^ ?y }").is_err());
    assert!(parse("SELECT ?x WHERE { ?x (<p> ?y }").is_err());
}

#[test]
fn free_sequence_with_nullable_prefix_starts_at_its_second_arm() {
    // `p?` matches zero hops from `lone`, so `lone p?/q far` holds, and a
    // free start must range over the terms incident to `q` as well.
    let t = |local: &str| Term::iri(format!("http://t/{local}"));
    let store = fixture(&[
        JournalOp::Insert(t("a"), t("p"), t("b")),
        JournalOp::Insert(t("lone"), t("q"), t("far")),
    ]);
    let bound = run(&store, "PREFIX t: <http://t/>\nSELECT ?y WHERE { t:lone t:p?/t:q ?y }");
    assert_eq!(bound, vec![vec!["far".to_string()]]);
    let free = run(&store, "PREFIX t: <http://t/>\nSELECT ?x ?y WHERE { ?x t:p?/t:q ?y }");
    assert_eq!(free, vec![vec!["lone".to_string(), "far".to_string()]]);
}
