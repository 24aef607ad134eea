//! Property-based tests for the warehouse services: search soundness,
//! lineage path validity against a BFS oracle, census accounting, and
//! historization diff consistency.

use proptest::prelude::*;

use mdw_core::ingest::Extract;
use mdw_core::lineage::LineageRequest;
use mdw_core::model::census;
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
    names: Vec<String>,           // names[i] is item i's name
    classes: Vec<u8>,             // classes[i] ∈ 0..4
    mappings: Vec<(u8, u8)>,      // edges between items
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
        triples.push((it.clone(), ty.clone(), Term::iri(format!("http://ex.org/Class{}", l.classes[i]))));
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

/// BFS oracle for reachability + shortest distance over the mapping edges.
fn bfs(l: &RandomLandscape, start: u8) -> Vec<(u8, usize)> {
    let mut adj: Vec<Vec<u8>> = vec![Vec::new(); 8];
    for &(a, b) in &l.mappings {
        if a != b && !adj[a as usize].contains(&b) {
            adj[a as usize].push(b);
        }
    }
    let mut dist = [None; 8];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((start, 0usize));
    while let Some((node, d)) = queue.pop_front() {
        for &next in &adj[node as usize] {
            if next != start && dist[next as usize].is_none() {
                dist[next as usize] = Some(d + 1);
                queue.push_back((next, d + 1));
            }
        }
    }
    dist.iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i as u8, d)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn search_hits_are_sound_and_complete(l in landscape(), needle in "[a-z]{1,3}") {
        let w = build(&l);
        let results = w.search(&SearchRequest::new(needle.clone())).unwrap();
        // Soundness: every hit's name contains the needle.
        for hit in &results.hits {
            let name = results.name(hit);
            prop_assert!(
                name.to_lowercase().contains(&needle),
                "hit {:?} does not contain {:?}", name, needle
            );
        }
        // Completeness: every item whose name contains the needle is found.
        let expected = l
            .names
            .iter()
            .filter(|n| n.to_lowercase().contains(&needle))
            .count();
        prop_assert_eq!(results.instance_count(), expected);
    }

    #[test]
    fn lineage_matches_bfs_oracle(l in landscape(), start in 0u8..8) {
        let w = build(&l);
        let result = w
            .lineage(&LineageRequest::downstream(item(start)))
            .unwrap();
        let oracle = bfs(&l, start);
        // Same reachable set with the same minimum distances.
        let mut got: Vec<(u8, usize)> = result
            .endpoints
            .iter()
            .map(|e| {
                let label = e.node.label().trim_start_matches("item").parse::<u8>().unwrap();
                (label, e.distance)
            })
            .collect();
        got.sort();
        let mut expected = oracle;
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn lineage_paths_are_simple_and_contiguous(l in landscape(), start in 0u8..8) {
        let w = build(&l);
        let result = w
            .lineage(&LineageRequest::downstream(item(start)))
            .unwrap();
        for path in &result.paths {
            // Contiguous chain.
            for pair in path.hops.windows(2) {
                prop_assert_eq!(&pair[0].to, &pair[1].from);
            }
            // Simple: no node twice (including the start).
            let mut nodes: Vec<&Term> =
                std::iter::once(&path.hops[0].from).chain(path.hops.iter().map(|h| &h.to)).collect();
            let before = nodes.len();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), before, "path revisits a node");
        }
    }

    #[test]
    fn upstream_is_reverse_of_downstream(l in landscape(), a in 0u8..8, b in 0u8..8) {
        let w = build(&l);
        let down = w.lineage(&LineageRequest::downstream(item(a))).unwrap();
        let up = w.lineage(&LineageRequest::upstream(item(b))).unwrap();
        let down_reaches_b = down.endpoints.iter().any(|e| e.node == item(b));
        let up_reaches_a = up.endpoints.iter().any(|e| e.node == item(a));
        prop_assert_eq!(down_reaches_b, up_reaches_a);
    }

    #[test]
    fn census_accounting_holds(l in landscape()) {
        let w = build(&l);
        let graph = w.store().model(w.model_name()).unwrap();
        let c = census(graph, w.store().dict());
        let node_sum: usize = c.node_counts.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(node_sum, c.total_nodes);
        let edge_sum: usize = c.edge_counts.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(edge_sum, c.total_edges);
        let matrix_sum: usize = c.matrix.iter().map(|(_, _, _, n)| n).sum();
        prop_assert_eq!(matrix_sum, c.total_edges);
        prop_assert_eq!(c.total_edges, graph.len());
    }

    /// After any sequence of resyncs, the model's edge set equals the union
    /// of every source's current assertion set.
    #[test]
    fn resync_keeps_model_equal_to_source_union(
        deliveries in proptest::collection::vec(
            (0usize..3, proptest::collection::vec((0u8..6, 0u8..6), 0..8)),
            1..8,
        ),
    ) {
        use mdw_rdf::triple::TriplePattern;
        let sources = ["alpha", "beta", "gamma"];
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        let mut w = MetadataWarehouse::new();
        // Mirror of each source's current set, decoded.
        let mut mirror: std::collections::BTreeMap<usize, Vec<(Term, Term)>> = Default::default();
        for (src, pairs) in deliveries {
            let triples: Vec<(Term, Term, Term)> = pairs
                .iter()
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| (item(a), mapped.clone(), item(b)))
                .collect();
            mirror.insert(src, triples.iter().map(|(s, _, o)| (s.clone(), o.clone())).collect());
            w.resync(Extract::new(sources[src], triples)).unwrap();
        }
        // Expected edges: union over sources.
        let mut expected: std::collections::BTreeSet<(Term, Term)> = Default::default();
        for pairs in mirror.values() {
            expected.extend(pairs.iter().cloned());
        }
        // Actual isMappedTo edges in the model.
        let dict = w.store().dict();
        let graph = w.store().model(w.model_name()).unwrap();
        // If no delivery ever mentioned isMappedTo, the predicate is not
        // even interned — the actual edge set is empty.
        let actual: std::collections::BTreeSet<(Term, Term)> = match dict.lookup(&mapped) {
            Some(mapped_id) => graph
                .scan(TriplePattern::with_p(mapped_id))
                .map(|t| {
                    (
                        dict.term_unchecked(t.s).clone(),
                        dict.term_unchecked(t.o).clone(),
                    )
                })
                .collect(),
            None => Default::default(),
        };
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn diff_reconstructs_versions(
        l in landscape(),
        to_remove in proptest::collection::vec(0usize..20, 0..5),
        to_add in proptest::collection::vec((0u8..8, 0u8..8), 0..5),
    ) {
        let mut w = build(&l);
        w.snapshot("v1").unwrap();

        // Random mutation between releases.
        let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
        for (a, b) in to_add {
            if a != b {
                w.insert_fact(&item(a), &mapped, &item(b)).unwrap();
            }
        }
        // Removals via raw triple surgery on the current model would need a
        // lower-level API; emulate removal-free churn only (additions) and
        // verify: v2 = v1 + diff.added.
        let _ = to_remove;
        w.snapshot("v2").unwrap();

        let diff = w.diff("v1", "v2").unwrap();
        prop_assert!(diff.removed.is_empty());
        let v1_edges = w.history().get("v1").unwrap().stats.edges;
        let v2_edges = w.history().get("v2").unwrap().stats.edges;
        prop_assert_eq!(v1_edges + diff.added.len(), v2_edges);
    }
}
