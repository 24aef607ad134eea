//! Cross-crate property tests: the lineage *service* and the SPARQL
//! *property path* are two implementations of the same Figure 8 semantics —
//! on any random mapping graph they must agree. Likewise the graph and
//! relational stores must agree on reachability. And under every budget
//! shape, a lineage walk is a truthful prefix of the unlimited walk.

mod common;

use proptest::prelude::*;

use common::{assert_truthful_prefix, landscape, make_budget, tripped_reason, BUDGET_VARIANTS};
use metadata_warehouse::core::ingest::Extract;
use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::Term;
use metadata_warehouse::relational::lineage::RelLineageRequest;
use metadata_warehouse::relational::{load_extracts, rel_lineage, RelationalStore};
use metadata_warehouse::sparql::exec::{execute, ExecOptions};
use metadata_warehouse::sparql::parser::parse;

fn item(i: u8) -> Term {
    Term::iri(format!("http://x/item{i}"))
}

fn edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..8, 0u8..8), 0..20)
}

fn build(mappings: &[(u8, u8)]) -> MetadataWarehouse {
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    let ty = Term::iri(vocab::rdf::TYPE);
    let mut triples = Vec::new();
    for i in 0..8u8 {
        triples.push((item(i), ty.clone(), Term::iri("http://x/Thing")));
    }
    for &(a, b) in mappings {
        if a != b {
            triples.push((item(a), mapped.clone(), item(b)));
        }
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("prop", triples)]).unwrap();
    w.build_semantic_index().unwrap();
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lineage service's reachable set equals the property-path query
    /// `start dt:isMappedTo+ ?x`.
    #[test]
    fn lineage_service_equals_property_path(mappings in edges(), start in 0u8..8) {
        let w = build(&mappings);

        let service = w
            .lineage(&LineageRequest::downstream(item(start)))
            .unwrap();
        let mut service_set: Vec<String> = service
            .endpoints
            .iter()
            .map(|e| e.node.as_iri().unwrap().to_string())
            .collect();
        service_set.sort();

        let query = parse(&format!(
            "PREFIX dt: <{}>\nPREFIX x: <http://x/>\nSELECT DISTINCT ?t WHERE {{ x:item{start} dt:isMappedTo+ ?t }}",
            vocab::cs::DT,
        ))
        .unwrap();
        let graph = w.store().model(w.model_name()).unwrap();
        let (out, _) = execute(&query, graph, w.store().dict(), &ExecOptions::default()).unwrap();
        let mut path_set: Vec<String> = out
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().as_iri().unwrap().to_string())
            .filter(|iri| iri != item(start).as_iri().unwrap())
            .collect();
        path_set.sort();
        path_set.dedup();

        prop_assert_eq!(service_set, path_set);
    }

    /// Graph-service and relational-baseline lineage agree on reachability
    /// and distance for any random mapping graph.
    #[test]
    fn graph_and_relational_lineage_agree(mappings in edges(), start in 0u8..8) {
        let w = build(&mappings);
        let g = w.lineage(&LineageRequest::downstream(item(start))).unwrap();

        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        let ty = Term::iri(vocab::rdf::TYPE);
        let mut triples = Vec::new();
        for i in 0..8u8 {
            triples.push((item(i), ty.clone(), Term::iri(vocab::cs::dm("Column"))));
        }
        for &(a, b) in &mappings {
            if a != b {
                triples.push((item(a), mapped.clone(), item(b)));
            }
        }
        let mut rel = RelationalStore::new();
        load_extracts(&mut rel, &[Extract::new("prop", triples)]);
        let r = rel_lineage(
            &rel,
            &RelLineageRequest::downstream(item(start).as_iri().unwrap()),
        );

        let g_set: Vec<(String, usize)> = g
            .endpoints
            .iter()
            .map(|e| (e.node.as_iri().unwrap().to_string(), e.distance))
            .collect();
        let r_set: Vec<(String, usize)> =
            r.endpoints.iter().map(|(k, v)| (k.clone(), *v)).collect();
        prop_assert_eq!(g_set, r_set);
    }

    /// `ASK { a isMappedTo* b }` is exactly "b is an endpoint (or a = b)".
    #[test]
    fn ask_reachability_matches_service(mappings in edges(), a in 0u8..8, b in 0u8..8) {
        let w = build(&mappings);
        let service = w.lineage(&LineageRequest::downstream(item(a))).unwrap();
        let reachable = a == b || service.endpoints.iter().any(|e| e.node == item(b));

        let query = parse(&format!(
            "PREFIX dt: <{}>\nPREFIX x: <http://x/>\nASK {{ x:item{a} dt:isMappedTo* x:item{b} }}",
            vocab::cs::DT,
        ))
        .unwrap();
        let graph = w.store().model(w.model_name()).unwrap();
        let (out, _) = execute(&query, graph, w.store().dict(), &ExecOptions::default()).unwrap();
        let answer = out.rows[0][0].as_ref().unwrap().label() == "true";
        prop_assert_eq!(answer, reachable);
    }

    /// Under every budget shape, a lineage walk in either direction
    /// enumerates a truthful prefix of the unlimited walk's paths, a
    /// complete one reaches the same endpoints, and a truncated one names
    /// the budget that tripped.
    #[test]
    fn budgeted_lineage_is_a_truthful_prefix(
        l in landscape(),
        start in 0u8..10,
        upstream in any::<bool>(),
        variant in 0u8..BUDGET_VARIANTS,
        limit in 0u64..60,
    ) {
        let w = common::build(&l);
        let request = if upstream {
            LineageRequest::upstream(common::item(start))
        } else {
            LineageRequest::downstream(common::item(start))
        };
        let full = w.lineage(&request).unwrap();
        let cut = w
            .lineage(&request.with_budget(make_budget(variant, limit)))
            .unwrap();
        if let Some(reason) = cut.completeness.reason() {
            prop_assert_eq!(Some(reason), tripped_reason(variant));
        }
        assert_truthful_prefix((&cut.paths, cut.completeness), (&full.paths, full.completeness));
        if cut.completeness.is_complete() {
            prop_assert_eq!(&cut.endpoints, &full.endpoints);
        }
    }
}
