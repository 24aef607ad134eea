//! Property-based equivalence between the mutable BTreeSet index and its
//! frozen columnar form, plus snapshot isolation along the `Arc` publish
//! path.
//!
//! The frozen index must be a perfect drop-in for the mutable one on the
//! read path: for *every* bound-prefix pattern shape, a frozen scan yields
//! exactly the same triples in exactly the same order (both route to the
//! same permutation, and every routed pattern is a pure prefix of it), and
//! the O(log n) exact count agrees with actually iterating. Snapshots taken
//! before a write — whether a direct `freeze()` or an `LsmStore` publish —
//! must keep reading the old state forever.

use proptest::prelude::*;

use mdw_rdf::dict::TermId;
use mdw_rdf::frozen::FrozenIndex;
use mdw_rdf::index::TripleIndex;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::store::Store;
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

proptest! {
    /// Freezing changes the representation, never the answer: same triple
    /// set, same order, for every pattern shape — including shapes whose
    /// bound values do occur in the data and shapes whose values don't.
    #[test]
    fn frozen_scan_matches_mutable_for_every_shape(
        triples in proptest::collection::vec(small_triple(), 0..60),
        probe in (0u64..12, 0u64..6, 0u64..12),
    ) {
        let mut index = TripleIndex::new();
        for &t in &triples {
            index.insert(t);
        }
        let frozen = FrozenIndex::from_index(&index);
        prop_assert_eq!(frozen.len(), index.len());

        // Probe values from the strategy range (often present in the data)
        // and from a sampled triple (always present when data is non-empty).
        let mut probes = vec![probe];
        if let Some(&t) = triples.first() {
            probes.push((t.s.0, t.p.0, t.o.0));
        }
        for (s, p, o) in probes {
            for pattern in all_shapes(s, p, o) {
                let mutable: Vec<Triple> = index.scan(pattern).collect();
                let cold: Vec<Triple> = frozen.run(pattern).collect();
                prop_assert_eq!(
                    &mutable, &cold,
                    "scan mismatch for pattern {:?}", pattern
                );
                prop_assert_eq!(
                    frozen.count_exact(pattern), mutable.len(),
                    "count_exact mismatch for pattern {:?}", pattern
                );
                for t in &mutable {
                    prop_assert!(frozen.contains(*t));
                }
            }
        }

        // Round trip: thawing the frozen form reproduces the index.
        let thawed: Vec<Triple> = frozen.thaw().iter().collect();
        let original: Vec<Triple> = index.iter().collect();
        prop_assert_eq!(thawed, original);
    }

    /// A snapshot frozen before a batch of writes is bit-for-bit unaffected
    /// by them: the `Arc`d frozen form keeps answering from the old state
    /// while the thawed graph moves on.
    #[test]
    fn frozen_snapshot_isolated_from_later_writes(
        initial in proptest::collection::vec(small_triple(), 1..30),
        ops in proptest::collection::vec((small_triple(), any::<bool>()), 1..30),
    ) {
        let mut store = Store::new();
        store.create_model("m").unwrap();
        // Intern enough terms that the small_triple id range is valid.
        for i in 0..12u64 {
            store.dict_mut().intern(&Term::iri(format!("http://ex.org/t{i}")));
        }
        for &t in &initial {
            store.model_mut("m").unwrap().insert(t);
        }

        let snapshot = store.model("m").unwrap().freeze();
        let before: Vec<Triple> = snapshot.iter().collect();
        let checksum = snapshot.checksum();

        for &(t, is_insert) in &ops {
            let g = store.model_mut("m").unwrap();
            if is_insert { g.insert(t); } else { g.remove(t); }
        }

        // The held snapshot still reads exactly the pre-write state.
        let after: Vec<Triple> = snapshot.iter().collect();
        prop_assert_eq!(&after, &before);
        prop_assert_eq!(snapshot.checksum(), checksum);
        // And a fresh freeze of the mutated graph is its own object unless
        // nothing effectively changed.
        let refrozen = store.model("m").unwrap().freeze();
        let now: Vec<Triple> = store.model("m").unwrap().iter().collect();
        let refrozen_rows: Vec<Triple> = refrozen.iter().collect();
        prop_assert_eq!(refrozen_rows, now);
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
