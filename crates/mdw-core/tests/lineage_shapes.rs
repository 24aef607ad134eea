//! Lineage on adversarial graph shapes: cycles, diamond fan-in, wide
//! fan-in, and self-loops sitting exactly at depth limits.
//!
//! The level-synchronous BFS discovers the mapping subgraph one frontier
//! level at a time, and a DFS enumerates simple paths over it. These tests
//! pin what that walk guarantees: shortest-hop distances stay exact, every
//! arm of a fan-in survives as its own path, and depth limits cut cycles
//! and self-loops at the right hop.

use mdw_core::ingest::Extract;
use mdw_core::lineage::{LineageRequest, LineageResult};
use mdw_core::warehouse::MetadataWarehouse;
use mdw_rdf::term::Term;
use mdw_rdf::vocab;

fn node(name: &str) -> Term {
    Term::iri(format!("http://ex.org/{name}"))
}

/// Builds a warehouse from `from -> to` mapping edges.
fn warehouse(edges: &[(&str, &str)]) -> MetadataWarehouse {
    let ty = Term::iri(vocab::rdf::TYPE);
    let has_name = Term::iri(vocab::cs::HAS_NAME);
    let mapped = Term::iri(vocab::cs::IS_MAPPED_TO);
    let mut names: Vec<&str> = Vec::new();
    for &(a, b) in edges {
        for n in [a, b] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    let mut triples = Vec::new();
    for n in names {
        triples.push((node(n), ty.clone(), Term::iri("http://ex.org/Item")));
        triples.push((node(n), has_name.clone(), Term::plain(n)));
    }
    for &(a, b) in edges {
        triples.push((node(a), mapped.clone(), node(b)));
    }
    let mut w = MetadataWarehouse::new();
    w.ingest(vec![Extract::new("lineage-shapes", triples)])
        .unwrap();
    w.build_semantic_index().unwrap();
    w
}

fn distance(result: &LineageResult, name: &str) -> Option<usize> {
    result.endpoint(&node(name)).map(|e| e.distance)
}

/// A 4-cycle: a -> b -> c -> d -> a. The BFS must re-discover `a` through
/// the cycle without looping, and distances around the ring stay exact.
#[test]
fn cycle_distances_are_exact() {
    let w = warehouse(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]);
    let result = w.lineage(&LineageRequest::downstream(node("a"))).unwrap();
    assert_eq!(distance(&result, "b"), Some(1));
    assert_eq!(distance(&result, "c"), Some(2));
    assert_eq!(distance(&result, "d"), Some(3));
    // The start is not its own endpoint even though the cycle returns to it.
    assert_eq!(distance(&result, "a"), None);
}

/// Diamond fan-in (a -> {b, c} -> d -> e): `d` is reached twice in the same
/// frontier level, and the walk must keep both incoming edges (two distinct
/// paths) while recording the shortest distance exactly once.
#[test]
fn diamond_fan_in_keeps_both_paths_and_one_distance() {
    let w = warehouse(&[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]);
    let result = w.lineage(&LineageRequest::downstream(node("a"))).unwrap();
    assert_eq!(distance(&result, "d"), Some(2));
    assert_eq!(distance(&result, "e"), Some(3));
    let through_d = result
        .paths
        .iter()
        .filter(|p| p.endpoint() == Some(&node("d")))
        .count();
    assert_eq!(through_d, 2, "both diamond arms must survive");
}

/// A self-loop on the node sitting exactly at the depth limit: with
/// max_depth 2 on a -> b -> c(c -> c), the loop edge is discovered in the
/// final frontier expansion but must not extend any path past the limit.
#[test]
fn self_loop_at_depth_limit_does_not_extend_paths() {
    let w = warehouse(&[("a", "b"), ("b", "c"), ("c", "c"), ("c", "d")]);
    let result = w
        .lineage(&LineageRequest::downstream(node("a")).max_depth(2))
        .unwrap();
    assert_eq!(distance(&result, "b"), Some(1));
    assert_eq!(distance(&result, "c"), Some(2));
    // d is 3 hops out — beyond the limit.
    assert_eq!(distance(&result, "d"), None);
    assert!(
        result.paths.iter().all(|p| p.len() <= 2),
        "no path may exceed max_depth"
    );
}

/// Self-loop on the start node combined with a cycle back into it: the
/// upstream direction must show the same exactness.
#[test]
fn upstream_cycle_with_start_self_loop() {
    let w = warehouse(&[("a", "a"), ("b", "a"), ("c", "b"), ("a", "c")]);
    let result = w.lineage(&LineageRequest::upstream(node("a"))).unwrap();
    assert_eq!(distance(&result, "b"), Some(1));
    assert_eq!(distance(&result, "c"), Some(2));
}

/// Wide fan-in at scale: 40 sources all mapping into one sink, plus a
/// two-hop tail. A single frontier level holds all 40 sources, and every
/// source must still contribute exactly one path.
#[test]
fn wide_fan_in_keeps_one_path_per_source() {
    let names: Vec<String> = (0..40).map(|i| format!("src{i}")).collect();
    let mut edges: Vec<(&str, &str)> = vec![("root", "sink"), ("sink", "tail")];
    for n in &names {
        edges.push(("root", n));
        edges.push((n, "sink"));
    }
    let w = warehouse(&edges);
    let result = w
        .lineage(&LineageRequest::downstream(node("root")))
        .unwrap();
    assert_eq!(distance(&result, "sink"), Some(1));
    assert_eq!(distance(&result, "tail"), Some(2));
    let into_sink = result
        .paths
        .iter()
        .filter(|p| p.endpoint() == Some(&node("sink")))
        .count();
    // Direct edge plus one path through each of the 40 sources.
    assert_eq!(into_sink, 41);
}
