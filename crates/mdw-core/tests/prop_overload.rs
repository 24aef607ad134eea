//! Property-based tests for query-side overload protection: a capped
//! search must return a subset of the uncapped answer, and its
//! `Completeness` verdict must be accurate — `Complete` exactly when
//! nothing was cut off, `Truncated{reason}` naming the cap that actually
//! tripped. Lineage's truthful-prefix property is the root suite's
//! (`tests/properties.rs`), under every budget shape.

use proptest::prelude::*;

use mdw_rdf::budget::{Completeness, TruncationReason};
use mdw_core::ingest::Extract;
use mdw_core::search::SearchRequest;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::term::Term;
use mdw_rdf::vocab;

fn item(i: u8) -> Term {
    Term::iri(format!("http://ex.org/item{i}"))
}

/// A random mapping graph: items with names, random classes, and random
/// `isMappedTo` edges (cycles allowed).
#[derive(Debug, Clone)]
struct RandomLandscape {
    names: Vec<String>,
    classes: Vec<u8>,
    mappings: Vec<(u8, u8)>,
}

fn landscape() -> impl Strategy<Value = RandomLandscape> {
    let n = 8usize;
    (
        proptest::collection::vec("[a-z]{2,8}", n..=n),
        proptest::collection::vec(0u8..4, n..=n),
        proptest::collection::vec((0u8..8, 0u8..8), 0..20),
    )
        .prop_map(|(names, classes, mappings)| RandomLandscape { names, classes, mappings })
}

fn build(l: &RandomLandscape) -> MetadataWarehouse {
    let mut triples = Vec::new();
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    for (i, name) in l.names.iter().enumerate() {
        let it = item(i as u8);
        triples.push((
            it.clone(),
            ty.clone(),
            Term::iri(format!("http://ex.org/Class{}", l.classes[i])),
        ));
        triples.push((it.clone(), has_name.clone(), Term::plain(name.clone())));
    }
    for &(a, b) in &l.mappings {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A capped search finds a subset of the uncapped instances and reports
    /// `RowLimit` exactly when instances were actually dropped.
    #[test]
    fn capped_search_is_a_truthful_subset(
        l in landscape(),
        needle in "[a-z]{1,2}",
        cap in 0usize..12,
    ) {
        let w = build(&l);
        let full = w.search(&SearchRequest::new(needle.clone())).unwrap();
        let capped = w
            .search(&SearchRequest { max_results: cap, ..SearchRequest::new(needle) })
            .unwrap();

        prop_assert!(capped.instance_count() <= full.instance_count());
        prop_assert!(capped.instance_count() <= cap);
        // Subset: every capped hit appears in the full result.
        for hit in &capped.hits {
            let found = full.hits.iter().any(|h| h.instance == hit.instance);
            prop_assert!(found, "capped hit {:?} missing from full result", capped.name(hit));
        }

        match capped.completeness {
            Completeness::Complete => {
                prop_assert_eq!(capped.instance_count(), full.instance_count());
            }
            Completeness::Truncated { reason } => {
                prop_assert_eq!(reason, TruncationReason::RowLimit);
                prop_assert!(full.instance_count() > capped.instance_count());
            }
        }
    }
}
