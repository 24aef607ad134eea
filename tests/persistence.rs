//! Persistence round trip across the whole stack: corpus → durable
//! warehouse → drop → open → same answers.

use metadata_warehouse::core::lineage::LineageRequest;
use metadata_warehouse::core::search::SearchRequest;
use metadata_warehouse::core::warehouse::MetadataWarehouse;
use metadata_warehouse::corpus::{generate, CorpusConfig};
use metadata_warehouse::rdf::persist::load_store;
use metadata_warehouse::rdf::Term;

/// Everything the comparison looks at: statistics, the search answer group
/// for group, and the lineage answer endpoint for endpoint.
#[allow(clippy::type_complexity)]
fn answers(
    w: &MetadataWarehouse,
    chain_start: &Term,
) -> (usize, usize, usize, Vec<(String, usize)>, Vec<(Term, usize)>) {
    let search = w.search(&SearchRequest::new("customer")).unwrap();
    let lineage = w.lineage(&LineageRequest::downstream(chain_start.clone())).unwrap();
    (
        w.stats().unwrap().edges,
        w.derived_count(),
        search.instance_count(),
        search.groups.iter().map(|g| (g.label.clone(), g.count())).collect(),
        lineage.endpoints.iter().map(|e| (e.node.clone(), e.distance)).collect(),
    )
}

#[test]
fn saved_warehouse_answers_identically_after_reload() {
    let corpus = generate(&CorpusConfig::small());
    let chain_start = corpus.chain_start.clone();
    let dir = std::env::temp_dir().join(format!("mdw-e2e-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = {
        let (mut original, _) = MetadataWarehouse::open(&dir).unwrap();
        original.ingest(corpus.into_extracts()).unwrap();
        original.build_semantic_index().unwrap();
        // Historization checkpoints: the version is persisted alongside
        // the current model, as one plain solid snapshot.
        original.snapshot("2009.1").unwrap();
        answers(&original, &chain_start)
    };
    assert!(before.2 > 0 && !before.4.is_empty(), "the comparison must compare something");
    assert_eq!(load_store(&dir).unwrap().model_names(), vec!["DWH_CURR", "HIST_2009.1"]);

    let (mut reloaded, recovery) = MetadataWarehouse::open(&dir).unwrap();
    assert_eq!(recovery.replayed_batches, 0, "the checkpoint folded the journal in");
    reloaded.build_semantic_index().unwrap();
    assert_eq!(answers(&reloaded, &chain_start), before);

    drop(reloaded);
    std::fs::remove_dir_all(&dir).unwrap();
}
