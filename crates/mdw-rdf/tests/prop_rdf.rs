//! Property-based tests for the RDF substrate: dictionary bijectivity,
//! index-permutation agreement against a brute-force oracle, and
//! serializer/parser round-trips.

use proptest::prelude::*;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::frozen::{FrozenGraph, FrozenIndex};
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::term::{Literal, Term};
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::turtle;

// ---- Strategies -----------------------------------------------------------

fn iri_strategy() -> impl Strategy<Value = Term> {
    "[a-z]{1,6}(/[a-z0-9]{1,4}){0,2}".prop_map(|s| Term::iri(format!("http://ex.org/{s}")))
}

fn literal_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        // Plain, with characters that exercise escaping.
        "[ -~]{0,12}".prop_map(Term::plain),
        ("[a-zA-Z0-9 ]{1,8}", "[a-z]{2}").prop_map(|(l, t)| Term::lang(l, t)),
        any::<i64>().prop_map(Term::integer),
    ]
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => iri_strategy(),
        2 => literal_strategy(),
        1 => "[a-z][a-z0-9]{0,5}".prop_map(Term::bnode),
    ]
}

fn small_triple() -> impl Strategy<Value = Triple> {
    (0u64..12, 0u64..6, 0u64..12)
        .prop_map(|(s, p, o)| Triple::new(TermId(s), TermId(p), TermId(o)))
}

fn small_pattern() -> impl Strategy<Value = TriplePattern> {
    (
        proptest::option::of(0u64..12),
        proptest::option::of(0u64..6),
        proptest::option::of(0u64..12),
    )
        .prop_map(|(s, p, o)| TriplePattern {
            s: s.map(TermId),
            p: p.map(TermId),
            o: o.map(TermId),
        })
}

// ---- Dictionary -----------------------------------------------------------

proptest! {
    #[test]
    fn dictionary_round_trips(terms in proptest::collection::vec(term_strategy(), 0..40)) {
        let mut dict = Dictionary::new();
        let ids: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
        // Every id decodes back to the exact term.
        for (term, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(dict.term(*id), Some(term));
            prop_assert_eq!(dict.lookup(term), Some(*id));
        }
        // Distinct terms get distinct ids; equal terms get equal ids.
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j], "terms {} and {}", i, j);
            }
        }
        // The dictionary is no larger than the distinct-term count.
        let mut distinct = terms.clone();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(dict.len(), distinct.len());
    }

    #[test]
    fn interning_is_stable_under_reinsertion(terms in proptest::collection::vec(term_strategy(), 1..20)) {
        let mut dict = Dictionary::new();
        let first: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
        let len = dict.len();
        let second: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
        prop_assert_eq!(first, second);
        prop_assert_eq!(dict.len(), len);
    }
}

// ---- Index ----------------------------------------------------------------

proptest! {
    #[test]
    fn scan_agrees_with_bruteforce(
        triples in proptest::collection::vec(small_triple(), 0..60),
        pattern in small_pattern(),
    ) {
        let rows = triples.iter().map(|t| t.as_tuple()).collect();
        let index = FrozenGraph::new(FrozenIndex::from_spo_rows(rows));
        let mut got: Vec<Triple> = index.scan(pattern).collect();
        got.sort();
        got.dedup();
        let mut expected: Vec<Triple> = triples
            .iter()
            .copied()
            .filter(|t| pattern.matches(*t))
            .collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(got, expected);
    }

    /// Inserts and removes written through the engine, some batches sealed
    /// into runs of their own, read back as the oracle set after every
    /// batch.
    #[test]
    fn insert_remove_maintains_set_semantics(
        batches in proptest::collection::vec(
            (proptest::collection::vec((small_triple(), any::<bool>()), 0..10), any::<bool>()),
            0..10,
        ),
    ) {
        let engine = LsmStore::in_memory(LsmConfig { auto_compact: false, ..LsmConfig::default() });
        // Term `tN` is interned first as id N, so the oracle's ids are the
        // engine's.
        let term = |id: TermId| Term::iri(format!("http://ex.org/t{}", id.0));
        engine.with_dict(|dict| {
            for id in 0..12 {
                dict.intern(&term(TermId(id)));
            }
        });
        let mut oracle = std::collections::BTreeSet::new();
        for (ops, seal) in batches {
            let journal: Vec<JournalOp> = ops
                .iter()
                .map(|&(t, is_insert)| {
                    let (s, p, o) = (term(t.s), term(t.p), term(t.o));
                    if is_insert { JournalOp::Insert(s, p, o) } else { JournalOp::Remove(s, p, o) }
                })
                .collect();
            engine.write_batch("m", &journal).unwrap();
            if seal {
                engine.seal_now().unwrap();
            }
            for (t, is_insert) in ops {
                if is_insert {
                    oracle.insert(t);
                } else {
                    oracle.remove(&t);
                }
            }
            let snap = engine.snapshot();
            let index = snap.model("m").unwrap();
            prop_assert_eq!(index.len(), oracle.len());
            prop_assert!(index.iter().eq(oracle.iter().copied()));
        }
    }
}

// ---- Turtle ----------------------------------------------------------------

fn statement_strategy() -> impl Strategy<Value = (Term, Term, Term)> {
    (
        prop_oneof![iri_strategy(), "[a-z][a-z0-9]{0,5}".prop_map(Term::bnode)],
        iri_strategy(),
        term_strategy(),
    )
}

proptest! {
    #[test]
    fn ntriples_round_trip(
        triples in proptest::collection::vec(statement_strategy(), 0..30),
    ) {
        let text = turtle::to_ntriples(&triples);
        let doc = turtle::parse(&text).unwrap();
        let mut got = doc.triples;
        got.sort();
        got.dedup();
        let mut expected = triples;
        expected.sort();
        expected.dedup();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn literal_escaping_round_trips(lexical in "[ -~\t\n\r]{0,24}") {
        let triple = (
            Term::iri("http://ex.org/s"),
            Term::iri("http://ex.org/p"),
            Term::Literal(Literal::plain(lexical.clone())),
        );
        let text = turtle::to_ntriples(std::slice::from_ref(&triple));
        let doc = turtle::parse(&text).unwrap();
        prop_assert_eq!(doc.triples.len(), 1);
        prop_assert_eq!(&doc.triples[0], &triple);
    }
}
