//! Fuzzing the SPARQL parser, the decoder every `GET /sparql` feeds
//! untrusted text to.
//!
//! Inputs are arbitrary strings, soups of SPARQL tokens, and single-byte
//! mutations and truncations of real queries: Listings 1 and 2 and the six
//! `sparql-plan` benchmark shapes. `parser::parse` must never panic, and
//! every query it accepts must execute on an empty and on a small store
//! without panicking — an error is an answer, a panic is a bug.

use std::sync::Arc;

use proptest::prelude::*;

use mdw_rdf::budget::QueryBudget;
use mdw_rdf::frozen::FrozenStore;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::vocab;
use mdw_sparql::parser::parse;
use mdw_sparql::{execute, ExecOptions};

/// The `PREFIX` lines every seed query starts with.
fn prefixes() -> String {
    format!(
        "PREFIX rdf: <{}>\nPREFIX rdfs: <{}>\nPREFIX dm: <{}>\nPREFIX dt: <{}>\nPREFIX dwh: <{}>\n",
        vocab::rdf::NS,
        vocab::rdfs::NS,
        vocab::cs::DM,
        vocab::cs::DT,
        vocab::cs::DWH
    )
}

/// Listing 1 (grouped, as the reproduction runs it at scale), Listing 2,
/// and the six `sparql-plan` shapes.
fn seeds() -> Vec<String> {
    let shapes = [
        "{ ?object dm:hasName ?term . ?object rdf:type ?c . ?c rdfs:label ?class . \
         ?c rdfs:subClassOf dm:Application1_Item . FILTER(regex(?term, \"code\", \"i\")) }",
        "{ ?source dt:isMappedTo ?via . ?via dt:isMappedTo ?target . \
         ?target rdf:type dm:Application1_View_Column . ?target dm:hasName ?name }",
        "{ ?x dm:hasName ?name . ?x rdf:type dm:Application0_Item }",
        "{ ?t dm:inSchema dwh:app1_schema . ?t rdf:type dm:Table . OPTIONAL { ?t dm:hasName ?name } }",
        "{ ?x rdf:type dm:Table . { ?x dm:inSchema dwh:app0_schema } UNION \
         { ?x dm:inSchema dwh:app2_schema } }",
        "{ dwh:dwh_stage0_item0 dt:isMappedTo+ ?t . ?t rdf:type ?c }",
    ];
    let p = prefixes();
    let mut out = vec![
        format!(
            "{p}SELECT ?class (COUNT(?object) AS ?n) WHERE {{ ?object rdf:type ?c . \
             ?c rdfs:label ?class . ?c rdfs:subClassOf dm:Application1_Item . \
             ?object dm:hasName ?term FILTER(regex(?term, \"customer\", \"i\")) }} \
             GROUP BY ?class ORDER BY ?class"
        ),
        format!(
            "{p}SELECT DISTINCT ?source ?name WHERE {{ ?source dt:isMappedTo* ?via . \
             ?via dt:isMappedTo ?target . ?target dm:hasName ?name \
             FILTER(NOT EXISTS {{ ?target rdf:type dm:Table }} && ?name != \"x\") }} \
             ORDER BY DESC(?name) LIMIT 10 OFFSET 1"
        ),
    ];
    out.extend(shapes.iter().map(|s| format!("{p}SELECT * WHERE {s}")));
    out
}

/// A few triples in the listings' vocabulary, so parsed queries find
/// something to join.
fn small_store() -> Arc<FrozenStore> {
    let iri = |ns: &str, local: &str| Term::iri(format!("{ns}{local}"));
    let (dm, dt, dwh) = (vocab::cs::DM, vocab::cs::DT, vocab::cs::DWH);
    let ops = [
        (iri(dwh, "a"), Term::iri(vocab::rdf::TYPE), iri(dm, "Table")),
        (
            iri(dwh, "a"),
            iri(dm, "hasName"),
            Term::plain("customer code"),
        ),
        (iri(dwh, "a"), iri(dm, "inSchema"), iri(dwh, "app0_schema")),
        (iri(dwh, "a"), iri(dt, "isMappedTo"), iri(dwh, "b")),
        (iri(dwh, "b"), iri(dt, "isMappedTo"), iri(dwh, "a")),
        (iri(dwh, "b"), iri(dm, "hasName"), Term::integer(7)),
        (
            iri(dm, "Table"),
            Term::iri(vocab::rdfs::LABEL),
            Term::plain("Table"),
        ),
    ]
    .map(|(s, p, o)| JournalOp::Insert(s, p, o));
    store_with(&ops)
}

fn store_with(ops: &[JournalOp]) -> Arc<FrozenStore> {
    let store = LsmStore::in_memory(LsmConfig::default());
    store.write_batch("m", ops).unwrap();
    store.snapshot()
}

/// Parses `text`; whatever parses must run on both stores, in both planner
/// modes, to a result or an error.
fn check(text: &str, stores: &[Arc<FrozenStore>]) {
    let Ok(query) = parse(text) else { return };
    for store in stores {
        for use_planner in [true, false] {
            let options = ExecOptions {
                budget: QueryBudget::unlimited().with_max_steps(100_000),
                use_planner,
            };
            let _ = execute(&query, store.model("m").unwrap(), store.dict(), &options);
        }
    }
}

fn stores() -> Vec<Arc<FrozenStore>> {
    vec![store_with(&[]), small_store()]
}

/// Whitespace-separated SPARQL tokens in random order.
fn token_soup() -> impl Strategy<Value = String> {
    let tokens = [
        "SELECT",
        "ASK",
        "DISTINCT",
        "WHERE",
        "FILTER",
        "OPTIONAL",
        "UNION",
        "GROUP",
        "BY",
        "ORDER",
        "DESC(?x)",
        "ASC(?y)",
        "LIMIT",
        "OFFSET",
        "PREFIX",
        "dm:",
        "<dm:a>",
        "COUNT",
        "(COUNT(*) AS ?n)",
        "(COUNT(DISTINCT ?x) AS ?k)",
        "AS",
        "EXISTS",
        "NOT",
        "regex",
        "bound",
        "str",
        "{",
        "}",
        "(",
        ")",
        ".",
        ";",
        ",",
        "?x",
        "?y",
        "?",
        "*",
        "+",
        "|",
        "/",
        "^",
        "a",
        "rdf:type",
        "dm:hasName",
        "dt:isMappedTo",
        "\"v\"",
        "\"i\"",
        "7",
        "-1",
        "=",
        "!=",
        "<",
        "<=",
        ">",
        ">=",
        "&&",
        "||",
        "!",
        "<http://x>",
        "_:b",
    ];
    proptest::collection::vec(0..tokens.len(), 0..24).prop_map(move |picks| {
        picks
            .iter()
            .map(|&i| tokens[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(
        text in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..96)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
            "[ -~]{0,80}",
            token_soup(),
        ],
    ) {
        check(&text, &stores());
    }

    #[test]
    fn mutated_and_truncated_queries_never_panic(
        seed in 0usize..8,
        at in any::<usize>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = seeds()[seed].clone().into_bytes();
        let i = at % bytes.len();
        if truncate {
            bytes.truncate(i);
        } else {
            bytes[i] = byte;
        }
        check(&String::from_utf8_lossy(&bytes), &stores());
    }
}

/// The seeds themselves parse and run to completion on the small store.
#[test]
fn seed_queries_parse_and_run() {
    let store = small_store();
    for text in seeds() {
        let query = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        let (out, _) = execute(
            &query,
            store.model("m").unwrap(),
            store.dict(),
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(out.completeness.is_complete(), "{text}");
    }
}
