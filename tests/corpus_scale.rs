//! Corpus-scale integration: the medium synthetic landscape through the
//! whole stack, checking the invariants that must hold at any scale.

use std::collections::BTreeSet;

use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::model::EdgeCategory;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, Corpus, CorpusConfig};
use metadata_warehouse::rdf::vocab;
use metadata_warehouse::rdf::Term;

fn loaded(config: &CorpusConfig) -> (MetadataWarehouse, Corpus) {
    let corpus = generate(config);
    let mut w = MetadataWarehouse::new();
    let report = w.ingest(corpus.clone().into_extracts()).unwrap();
    assert!(report.is_clean(), "rejections: {:?}", report.load.rejections.len());
    w.build_semantic_index().unwrap();
    (w, corpus)
}

#[test]
fn medium_corpus_full_stack() {
    let (w, corpus) = loaded(&CorpusConfig::medium());

    // Scale sanity: the warehouse holds what the generator produced
    // (minus exact duplicates from random edge generation).
    let stats = w.stats().unwrap();
    assert!(stats.edges > corpus.total_triples() * 9 / 10);
    assert!(stats.nodes > 1_000);

    // The running example works.
    let results = w.search(&SearchRequest::new("customer")).unwrap();
    assert!(results.instance_count() > 0);

    // Lineage spans the pipeline.
    let lineage = w
        .lineage(&LineageRequest::downstream(corpus.chain_start.clone()))
        .unwrap();
    assert!(lineage
        .endpoints
        .iter()
        .any(|e| e.distance == corpus.config.dwh_stages - 1));
}

#[test]
fn medium_semantic_index_is_pinned() {
    // The exact derived set of the medium corpus: any change to rule
    // evaluation must reproduce it triple for triple, and credit each
    // triple to the same rule.
    let mut w = MetadataWarehouse::new();
    w.ingest(generate(&CorpusConfig::medium()).into_extracts())
        .unwrap();
    let stats = w.build_semantic_index().unwrap();
    assert_eq!(stats.derived, 7_349);
    assert_eq!(
        w.entailed().unwrap().derived().checksum(),
        0x5376_9ad9_cfe9_728d
    );
    let per_rule: Vec<_> = stats.per_rule.into_iter().collect();
    assert_eq!(
        per_rule,
        [
            ("owl-symmetric", 2_369),
            ("rdfs11-subclass-transitivity", 157),
            ("rdfs9-type-inheritance", 4_823),
        ]
    );
}

#[test]
fn census_matches_paper_structure() {
    let (w, _) = loaded(&CorpusConfig::medium());
    let census = w.census().unwrap();
    // All three Table I edge categories are populated.
    for cat in EdgeCategory::ALL {
        assert!(census.edges_in(cat) > 0, "empty category {cat:?}");
    }
    // Facts dominate, as in any real warehouse.
    assert!(census.edges_in(EdgeCategory::Fact) > census.edges_in(EdgeCategory::Hierarchy));
    // Matrix total equals edge total.
    let matrix_sum: usize = census.matrix.iter().map(|(_, _, _, n)| n).sum();
    assert_eq!(matrix_sum, census.total_edges);
}

#[test]
fn determinism_across_generations() {
    let (w1, _) = loaded(&CorpusConfig::small());
    let (w2, _) = loaded(&CorpusConfig::small());
    assert_eq!(w1.stats().unwrap().edges, w2.stats().unwrap().edges);
    assert_eq!(w1.derived_count(), w2.derived_count());
    let r1 = w1.search(&SearchRequest::new("customer")).unwrap();
    let r2 = w2.search(&SearchRequest::new("customer")).unwrap();
    assert_eq!(r1.instance_count(), r2.instance_count());
    let labels1: Vec<_> = r1.groups.iter().map(|g| g.label.clone()).collect();
    let labels2: Vec<_> = r2.groups.iter().map(|g| g.label.clone()).collect();
    assert_eq!(labels1, labels2);
}

#[test]
fn every_search_hit_contains_a_needle() {
    let (w, _) = loaded(&CorpusConfig::medium());
    let results = w
        .search(&SearchRequest::new("partner").with_synonyms())
        .unwrap();
    let needles = &results.expanded_terms;
    for hit in &results.hits {
        let name = results.name(hit);
        let lower = name.to_lowercase();
        assert!(
            needles.iter().any(|n| lower.contains(n.as_str())),
            "hit {name:?} matches none of {needles:?}"
        );
    }
}

#[test]
fn lineage_paths_are_real_edge_chains() {
    let (w, corpus) = loaded(&CorpusConfig::medium());
    let result = w
        .lineage(&LineageRequest::downstream(corpus.chain_start.clone()).max_depth(4))
        .unwrap();
    let dict = w.store().dict();
    let graph = w.store().model(w.model_name()).unwrap();
    let mapped = dict
        .lookup(&Term::iri(vocab::cs::IS_MAPPED_TO))
        .unwrap();
    for path in &result.paths {
        // Contiguity: each hop starts where the previous ended (in the
        // traversal's data-flow orientation for downstream).
        for window in path.hops.windows(2) {
            assert_eq!(window[0].to, window[1].from);
        }
        // Reality: each hop is an asserted isMappedTo edge.
        for hop in &path.hops {
            let s = dict.lookup(&hop.from).unwrap();
            let o = dict.lookup(&hop.to).unwrap();
            assert!(
                graph.contains(metadata_warehouse::rdf::Triple::new(s, mapped, o)),
                "phantom hop {} → {}",
                hop.from.label(),
                hop.to.label()
            );
        }
    }
}

#[test]
fn subject_area_inventory_is_queryable() {
    // The Figure 1 inventory the generator reports must agree with what
    // the graph actually contains for a spot-checked area.
    let (w, corpus) = loaded(&CorpusConfig::small());
    let apps_area = corpus
        .subject_areas
        .iter()
        .find(|a| a.area == "Applications")
        .unwrap();
    let view = w.entailed().unwrap();
    let dict = w.store().dict();
    let ty = dict.lookup(&Term::iri(vocab::rdf::TYPE)).unwrap();
    let app_class = dict.lookup(&Term::iri(vocab::cs::dm("Application"))).unwrap();
    let instances: BTreeSet<_> = view
        .scan(metadata_warehouse::rdf::TriplePattern::with_po(ty, app_class))
        .map(|t| t.s)
        .collect();
    assert_eq!(instances.len(), apps_area.instances);
}

#[test]
fn fanout_sweep_shows_path_explosion() {
    // The Section V lesson, end to end: more stages and fanout → paths
    // explode; a rule-condition filter keeps them bounded.
    let mut explored = Vec::new();
    for fanout in [1, 2, 3] {
        let config = CorpusConfig::small().with_stages(5).with_fanout(fanout);
        let (w, corpus) = loaded(&config);
        let result = w
            .lineage(&LineageRequest::downstream(corpus.chain_start.clone()))
            .unwrap();
        explored.push(result.paths_explored);
    }
    assert!(explored[0] < explored[1]);
    assert!(explored[1] < explored[2]);

    // With a filter, exploration shrinks.
    let config = CorpusConfig::small().with_stages(5).with_fanout(3);
    let (w, corpus) = loaded(&config);
    let unfiltered = w
        .lineage(&LineageRequest::downstream(corpus.chain_start.clone()))
        .unwrap();
    let filtered = w
        .lineage(
            &LineageRequest::downstream(corpus.chain_start.clone())
                .with_rule_filter("segment = 'PB'"),
        )
        .unwrap();
    assert!(filtered.paths_explored < unfiltered.paths_explored);
}
