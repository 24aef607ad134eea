//! End-to-end integration: the full Figure 4 pipeline on the Figure 2/3
//! fixture, exercising every crate together — staging, bulk load, semantic
//! index, search, lineage, SEM_MATCH, census, and historization.

use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::model::{Area, EdgeCategory};
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::fig2;
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::Term;
use metadata_warehouse::sparql::SemMatch;

fn dm(l: &str) -> Term {
    Term::iri(vocab::cs::dm(l))
}

#[test]
fn pipeline_ingest_to_search() {
    let fx = fig2::fixture();
    let mut w = MetadataWarehouse::new();
    let report = w.ingest(vec![fx.ontology.clone(), fx.facts.clone()]).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.staged, fx.ontology.len() + fx.facts.len());

    // Before the semantic index: no search ("derived triples only exist
    // through the indexes").
    assert!(w.search(&SearchRequest::new("customer")).is_err());

    let stats = w.build_semantic_index().unwrap();
    assert!(stats.derived > 0);

    // Figure 6: the customer_id result counts under every inherited class.
    let results = w.search(&SearchRequest::new("customer")).unwrap();
    for group in ["Column", "Attribute", "Application"] {
        assert!(
            results.group(group).is_some(),
            "missing group {group}; got {:?}",
            results.groups.iter().map(|g| &g.label).collect::<Vec<_>>()
        );
    }
}

#[test]
fn listing1_sem_match_equals_search_service() {
    let w = fig2::warehouse();

    // The service's answer…
    let service = w
        .search(&SearchRequest::new("customer").filter_class(dm("Application1_Item")))
        .unwrap();
    let mut service_pairs: Vec<(String, String)> = Vec::new();
    for g in &service.groups {
        for &i in &g.hits {
            let h = &service.hits[i as usize];
            service_pairs.push((
                g.label.clone(),
                service.term(h.instance).label().to_string(),
            ));
        }
    }
    service_pairs.sort();

    // …must equal Listing 1's answer for the same class filter.
    let listing1 = SemMatch::new(
        "{ ?object rdf:type ?c .
           ?c rdfs:label ?class .
           ?c rdfs:subClassOf dm:Application1_Item .
           ?object dm:hasName ?term }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .select(&["?class", "?object"])
    .filter("regex(?term, \"customer\", \"i\")")
    .group_by(&["?class", "?object"]);
    let out = w.sem_match(&listing1).unwrap();
    let mut sparql_pairs: Vec<(String, String)> = out
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_ref().unwrap().label().to_string(),
                r[1].as_ref().unwrap().label().to_string(),
            )
        })
        .collect();
    sparql_pairs.sort();

    // The service also groups under the filter root itself
    // (Application1_Item has no rdfs:subClassOf itself in the listing's
    // pattern, which asks for *proper* subclasses) — align on the common
    // subset.
    for pair in &sparql_pairs {
        assert!(
            service_pairs.contains(pair),
            "SEM_MATCH produced {pair:?} not in service output {service_pairs:?}"
        );
    }
    assert!(!sparql_pairs.is_empty());
}

#[test]
fn listing2_iterated_equals_lineage_service() {
    let w = fig2::warehouse();
    let fx = fig2::fixture();

    let service = w
        .lineage(
            &LineageRequest::downstream(fx.client_information_id.clone())
                .filter_class(dm("Application1_Item")),
        )
        .unwrap();
    let service_targets: Vec<String> = service
        .endpoints
        .iter()
        .map(|e| e.node.label().to_string())
        .collect();

    // Listing 2 iterated to two hops.
    let hop2 = SemMatch::new(
        "{ ?source_id dt:isMappedTo ?via .
           ?via dt:isMappedTo ?target_id .
           ?target_id rdf:type dm:Application1_Item .
           ?target_id dm:hasName ?target_name }",
    )
    .rulebase("OWLPRIME")
    .alias("dm", vocab::cs::DM)
    .alias("dt", vocab::cs::DT)
    .alias("dwh", vocab::cs::DWH)
    .select(&["?target_id", "?target_name"])
    .filter("?source_id = dwh:client_information_id")
    .group_by(&["?target_id", "?target_name"]);
    let out = w.sem_match(&hop2).unwrap();
    let sparql_targets: Vec<String> = out
        .rows
        .iter()
        .map(|r| r[0].as_ref().unwrap().label().to_string())
        .collect();

    assert_eq!(service_targets, sparql_targets);
    assert_eq!(sparql_targets, vec!["customer_id"]);
}

#[test]
fn area_filters_match_figure2_stages() {
    let w = fig2::warehouse();
    for (area, expected) in [
        (Area::InboundInterface, "client_information_id"),
        (Area::Integration, "partner_id"),
        (Area::DataMart, "customer_id"),
    ] {
        let results = w
            .search(&SearchRequest::new("id").in_area(area.clone()))
            .unwrap();
        assert_eq!(results.instance_count(), 1, "area {}", area.as_str());
        let hit = &results.hits[results.groups[0].hits[0] as usize];
        assert_eq!(results.name(hit), expected, "area {}", area.as_str());
    }
}

#[test]
fn census_is_consistent_after_inference() {
    let w = fig2::warehouse();
    let census = w.census().unwrap();
    // The census counts only asserted triples; inference lives in the index.
    assert_eq!(census.total_edges, w.stats().unwrap().edges);
    assert!(census.edges_in(EdgeCategory::Hierarchy) >= 10);
    assert!(census.edges_in(EdgeCategory::Fact) >= 20);
    let node_sum: usize = census.node_counts.iter().map(|(_, n)| n).sum();
    assert_eq!(node_sum, census.total_nodes);
}

#[test]
fn historization_across_releases() {
    let mut w = fig2::warehouse();
    let v1 = w.snapshot("2009.1").unwrap();
    // A release adds a new column and re-snapshots.
    w.insert_fact(
        &Term::iri(vocab::cs::dwh("new_risk_column")),
        &Term::iri(vocab::rdf::TYPE),
        &dm("Application1_View_Column"),
    )
    .unwrap();
    w.insert_fact(
        &Term::iri(vocab::cs::dwh("new_risk_column")),
        &Term::iri(vocab::cs::HAS_NAME),
        &Term::plain("risk_exposure_amount"),
    )
    .unwrap();
    let v2 = w.snapshot("2009.2").unwrap();
    assert_eq!(v2.stats.edges, v1.stats.edges + 2);

    let diff = w.diff("2009.1", "2009.2").unwrap();
    assert_eq!(diff.added.len(), 2);
    assert!(diff.removed.is_empty());

    // SEM_MODELS: the same query door reads a historized release by name.
    let named = SemMatch::new("{ ?x dm:hasName \"risk_exposure_amount\" }").alias("dm", vocab::cs::DM);
    assert!(w.sem_match(&named.clone().model(&v1.model)).unwrap().rows.is_empty());
    assert_eq!(w.sem_match(&named.clone().model(&v2.model)).unwrap().rows.len(), 1);
    assert_eq!(w.sem_match(&named).unwrap().rows.len(), 1);

    // The incremental index extension makes the new column searchable
    // without a rebuild.
    let results = w.search(&SearchRequest::new("risk_exposure")).unwrap();
    assert_eq!(results.instance_count(), 1);
    assert!(results.group("Attribute").is_some());
}

#[test]
fn synonym_search_bridges_figure2_vocabulary() {
    let w = fig2::warehouse();
    // "partner" alone does not find customer_id or client_information_id…
    let plain = w.search(&SearchRequest::new("partner")).unwrap();
    // (partner_id matches textually)
    assert_eq!(plain.instance_count(), 1);
    // …but with the synonym table, partner ⇔ customer ⇔ client.
    let expanded = w
        .search(&SearchRequest::new("partner").with_synonyms())
        .unwrap();
    assert_eq!(expanded.instance_count(), 3);
}
