//! The read services under the answer contract: audit, governance gaps,
//! report sources, schema flows, drill-down and impact summary each run
//! under every budget shape of `common::make_budget`, across a sweep of
//! limits, and every list of the budgeted report must be a truthful prefix
//! of the unlimited report's — equal when the verdict claims completeness,
//! a prefix when it admits truncation, with the shape's own reason.

mod common;

use std::fmt::Debug;

use common::{assert_truthful_prefix, make_budget, tripped_reason, BUDGET_VARIANTS};
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, Corpus, CorpusConfig};
use metadata_warehouse::rdf::budget::{Completeness, QueryBudget};
use metadata_warehouse::rdf::{vocab, Term};

/// Step caps from nothing to more than any service charges here.
const LIMITS: [u64; 16] = [0, 1, 2, 3, 5, 8, 13, 21, 40, 75, 150, 300, 600, 1200, 2400, 100_000];

/// One service's report as its lists of rows, and its verdict.
type Lists = (Vec<Vec<String>>, Completeness);

/// A service called with a budget.
type Service = Box<dyn Fn(&MetadataWarehouse, &QueryBudget) -> Lists>;

fn rows<T: Debug>(list: &[T]) -> Vec<String> {
    list.iter().map(|row| format!("{row:?}")).collect()
}

/// The six services on one corpus, each reduced to [`Lists`]; the audit
/// reads `item`.
fn services(corpus: &Corpus, item: Term) -> Vec<(&'static str, Service)> {
    let (from, to) = (corpus.stage_schemas[0].clone(), corpus.stage_schemas[1].clone());
    let start = corpus.chain_start.clone();
    vec![
        (
            "audit",
            Box::new(move |w, b| {
                let r = w.who_can_access(&item, b).unwrap();
                let lists = vec![
                    rows(&r.applications),
                    rows(&r.grants),
                    rows(&r.owners),
                    rows(&r.consumers),
                    rows(&r.used_by_reports),
                ];
                (lists, r.completeness)
            }),
        ),
        (
            "gaps",
            Box::new(|w, b| {
                let r = w.governance_gaps(b).unwrap();
                let inspected = if r.completeness.is_complete() { vec![r.inspected] } else { vec![] };
                (vec![rows(&r.ownerless), rows(&inspected)], r.completeness)
            }),
        ),
        (
            "sources",
            Box::new(|w, b| {
                let r = w.find_sources(&Term::iri(vocab::cs::dm("Party")), b).unwrap();
                (vec![rows(&r.expanded_concepts), rows(&r.candidates)], r.completeness)
            }),
        ),
        (
            "schema flow",
            Box::new(|w, b| {
                let r = w.schema_flow(b).unwrap();
                (vec![rows(&r.flows)], r.completeness)
            }),
        ),
        (
            "drill-down",
            Box::new(move |w, b| {
                let r = w.drill_down(&from, &to, b).unwrap();
                (vec![rows(&r.hops)], r.completeness)
            }),
        ),
        (
            "impact",
            Box::new(move |w, b| {
                let result = w.lineage(&LineageRequest::downstream(start.clone())).unwrap();
                let r = w.impact_summary(&result, b).unwrap();
                (vec![rows(&r.by_schema)], r.completeness)
            }),
        ),
    ]
}

#[test]
fn budgeted_services_are_truthful_prefixes() {
    let corpus = generate(&CorpusConfig::small().extended());
    let mut w = MetadataWarehouse::new();
    w.ingest(corpus.clone().into_extracts()).unwrap();
    w.build_semantic_index().unwrap();
    // Two more holders of each role the audited item's applications
    // grant, so a row cap can cut a grant between its users.
    let last = corpus.config.dwh_stages - 1;
    let item = Term::iri(vocab::cs::dwh(&format!("dwh_stage{last}_item0")));
    let audit = w.who_can_access(&item, &QueryBudget::unlimited()).unwrap();
    let has_role = Term::iri(vocab::cs::dm("hasRole"));
    for (i, grant) in audit.grants.iter().enumerate() {
        for extra in 0..2 {
            let user = Term::iri(vocab::cs::dwh(&format!("auditor{i}_{extra}")));
            w.insert_fact(&user, &has_role, &grant.role).unwrap();
        }
    }
    for (name, service) in services(&corpus, item) {
        let (full, verdict) = service(&w, &QueryBudget::unlimited());
        assert!(verdict.is_complete(), "{name}: the unlimited run is complete");
        assert!(full.iter().any(|list| !list.is_empty()), "{name}: the corpus answers it");
        let mut cut = 0;
        for variant in 0..BUDGET_VARIANTS {
            for limit in LIMITS {
                let (lists, verdict) = service(&w, &make_budget(variant, limit));
                if let Some(reason) = verdict.reason() {
                    assert_eq!(Some(reason), tripped_reason(variant), "{name}: the shape's reason");
                    cut += 1;
                }
                for (list, all) in lists.iter().zip(&full) {
                    assert_truthful_prefix(
                        (list.as_slice(), verdict),
                        (all.as_slice(), Completeness::Complete),
                    );
                }
            }
        }
        assert!(cut > 0, "{name}: some budget cuts the service short");
    }
}
