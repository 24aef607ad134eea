//! Property-based checks of the frozen columnar index against an
//! independent oracle — a plain `BTreeSet` of triples filtered by
//! `TriplePattern::matches` — plus snapshot isolation along the `Arc`
//! publish path.
//!
//! For *every* bound-prefix pattern shape, a frozen scan must yield exactly
//! the oracle's triples, each once, sorted in the order of the permutation
//! the pattern routes to (every routed pattern is a pure prefix of it), and
//! the O(log n) exact count must agree. `union` and `difference` must be the
//! set operations they are named after. A snapshot an `LsmStore` published
//! before a write must keep reading the old state forever.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mdw_rdf::dict::TermId;
use mdw_rdf::frozen::{route, FrozenIndex, Permutation};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};

fn small_triple() -> impl Strategy<Value = Triple> {
    (0u64..12, 0u64..6, 0u64..12)
        .prop_map(|(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
}

/// Builds one pattern per bound-prefix shape (all 8 combinations of
/// bound/wildcard), binding components from the given values.
fn all_shapes(s: u64, p: u64, o: u64) -> Vec<TriplePattern> {
    let mut shapes = Vec::with_capacity(8);
    for mask in 0u8..8 {
        shapes.push(TriplePattern {
            s: (mask & 1 != 0).then_some(TermId(s)),
            p: (mask & 2 != 0).then_some(TermId(p)),
            o: (mask & 4 != 0).then_some(TermId(o)),
        });
    }
    shapes
}

/// A triple's key in `perm`'s column order.
fn permuted(perm: Permutation, t: Triple) -> (u64, u64, u64) {
    let (s, p, o) = t.as_tuple();
    match perm {
        Permutation::Spo => (s, p, o),
        Permutation::Pos => (p, o, s),
        Permutation::Osp => (o, s, p),
    }
}

fn rows(triples: &[Triple]) -> Vec<(u64, u64, u64)> {
    triples.iter().map(|t| t.as_tuple()).collect()
}

proptest! {
    /// Every pattern shape scans exactly the oracle's matches, each once,
    /// in its routed permutation's order — for probe values that occur in
    /// the data and for values that don't.
    #[test]
    fn frozen_scan_matches_a_filtered_set_for_every_shape(
        triples in proptest::collection::vec(small_triple(), 0..60),
        probe in (0u64..12, 0u64..6, 0u64..12),
    ) {
        let oracle: BTreeSet<Triple> = triples.iter().copied().collect();
        let frozen = FrozenIndex::from_spo_rows(rows(&triples));
        prop_assert_eq!(frozen.len(), oracle.len());
        prop_assert!(frozen.iter().eq(oracle.iter().copied()));

        // Probe values from the strategy range (often present in the data)
        // and from a sampled triple (always present when data is non-empty).
        let mut probes = vec![probe];
        if let Some(&t) = triples.first() {
            probes.push((t.s.0, t.p.0, t.o.0));
        }
        for (s, p, o) in probes {
            for pattern in all_shapes(s, p, o) {
                let want: BTreeSet<Triple> =
                    oracle.iter().copied().filter(|t| pattern.matches(*t)).collect();
                let got: Vec<Triple> = frozen.run(pattern).collect();
                let perm = route(&pattern);
                prop_assert!(
                    got.windows(2).all(|w| permuted(perm, w[0]) < permuted(perm, w[1])),
                    "run for {:?} is not strictly sorted in {:?} order", pattern, perm
                );
                prop_assert_eq!(
                    got.iter().copied().collect::<BTreeSet<_>>(), want,
                    "scan mismatch for pattern {:?}", pattern
                );
                prop_assert_eq!(
                    frozen.count_exact(pattern), got.len(),
                    "count_exact mismatch for pattern {:?}", pattern
                );
            }
        }
        let absent_or_not = Triple::new(TermId(probe.0), TermId(probe.1), TermId(probe.2));
        prop_assert_eq!(frozen.contains(absent_or_not), oracle.contains(&absent_or_not));
        for t in &oracle {
            prop_assert!(frozen.contains(*t));
        }
    }

    /// The union of two disjoint indexes is the index of their rows
    /// together.
    #[test]
    fn union_of_disjoint_indexes_is_the_index_of_both_row_sets(
        left in proptest::collection::vec(small_triple(), 0..40),
        right in proptest::collection::vec(small_triple(), 0..40),
    ) {
        let right: Vec<Triple> = right.into_iter().filter(|t| !left.contains(t)).collect();
        let a = FrozenIndex::from_spo_rows(rows(&left));
        let b = FrozenIndex::from_spo_rows(rows(&right));
        let both = FrozenIndex::from_spo_rows([rows(&left), rows(&right)].concat());
        prop_assert_eq!(a.union(&b), both.clone());
        prop_assert_eq!(b.union(&a), both);
    }

    /// `a.difference(b)` is the index of `a`'s rows that `b` lacks.
    #[test]
    fn difference_is_the_index_of_the_filtered_rows(
        left in proptest::collection::vec(small_triple(), 0..40),
        right in proptest::collection::vec(small_triple(), 0..40),
    ) {
        let a = FrozenIndex::from_spo_rows(rows(&left));
        let b = FrozenIndex::from_spo_rows(rows(&right));
        let kept: Vec<Triple> = left.iter().copied().filter(|t| !right.contains(t)).collect();
        prop_assert_eq!(a.difference(&b), FrozenIndex::from_spo_rows(rows(&kept)));
    }

    /// The publish path: a reader holding `LsmStore::snapshot()` across
    /// any number of later-generation publishes keeps reading its own
    /// generation, and each committed batch bumps the generation counter
    /// by one.
    #[test]
    fn engine_snapshot_survives_publishes(
        batches in proptest::collection::vec(
            proptest::collection::vec(small_triple(), 1..10), 1..6),
    ) {
        let term = |id: TermId| Term::iri(format!("http://ex.org/t{}", id.0));
        let engine = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        engine.write_batch("m", &[]).unwrap();

        let pinned = engine.snapshot();
        let pinned_gen = pinned.generation();
        prop_assert!(pinned.model("m").unwrap().is_empty());

        let mut expected = std::collections::BTreeSet::new();
        for batch in &batches {
            let ops: Vec<JournalOp> = batch
                .iter()
                .map(|t| JournalOp::Insert(term(t.s), term(t.p), term(t.o)))
                .collect();
            engine.write_batch("m", &ops).unwrap();
            expected.extend(batch.iter().map(|t| (term(t.s), term(t.p), term(t.o))));
            // Every publish: pinned snapshot unchanged, current one exact.
            prop_assert!(pinned.model("m").unwrap().is_empty());
            let current = engine.snapshot();
            let rows: std::collections::BTreeSet<(Term, Term, Term)> = current
                .model("m")
                .unwrap()
                .iter()
                .map(|t| {
                    let (s, p, o) = current.decode(t).unwrap();
                    (s.clone(), p.clone(), o.clone())
                })
                .collect();
            prop_assert_eq!(&rows, &expected);
        }
        prop_assert_eq!(
            engine.snapshot().generation(),
            pinned_gen + batches.len() as u64
        );
        prop_assert_eq!(pinned.generation(), pinned_gen);
    }
}
