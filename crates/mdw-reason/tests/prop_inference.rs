//! The inference engine against an independent fixpoint oracle: the
//! rulebase applied by nested loops to a whole `BTreeSet<Triple>` until a
//! pass adds nothing — no indexes, no delta, no join order. `materialize`,
//! and `extend` after a random split of the facts, must equal it exactly on
//! random graphs: half over the full OWLPRIME vocabulary, half dense class
//! hierarchies with deep and cyclic subclass chains. The entailed view's
//! planner statistics must match a scan of the view, before and after an
//! `extend`. A last test bounds what `extend` reads: the consequences of
//! its new facts, not the whole graph.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use mdw_rdf::dict::{Dictionary, TermId};
use mdw_rdf::frozen::FrozenGraph;
use mdw_rdf::journal::JournalOp;
use mdw_rdf::lsm::{LsmConfig, LsmStore};
use mdw_rdf::store::{Scan, TripleSource};
use mdw_rdf::term::Term;
use mdw_rdf::triple::{Triple, TriplePattern};
use mdw_rdf::vocab::{owl, rdf, rdfs};
use mdw_reason::{EntailedGraph, Materialization, RuleAtom, RuleTerm, Rulebase};

/// One random edge: a kind and three pool indexes (see [`triple`]).
type Edge = (u8, u8, u8, u8);

/// The most edges a random graph has, so the most a split can keep.
const MAX_EDGES: usize = 26;

/// Either every edge kind over pools of 4, or subclass and type edges only
/// over 8 classes and 6 instances — the rdfs9 / rdfs11 chains and cycles
/// the corpus fires, which the first rarely draws.
fn random_graph() -> impl Strategy<Value = Vec<Edge>> {
    let any_kind = (0u8..15, 0u8..4, 0u8..4, 0u8..4);
    let hierarchy = prop_oneof![
        3 => (Just(0u8), 0u8..8, 0u8..8, Just(0u8)),
        2 => (Just(10u8), 0u8..6, 0u8..8, Just(0u8)),
    ];
    prop_oneof![
        proptest::collection::vec(any_kind, 0..20),
        proptest::collection::vec(hierarchy, 0..MAX_EDGES),
    ]
}

fn class(i: u8) -> Term {
    Term::iri(format!("http://ex.org/C{i}"))
}

fn prop(i: u8) -> Term {
    Term::iri(format!("http://ex.org/p{i}"))
}

fn inst(i: u8) -> Term {
    Term::iri(format!("http://ex.org/x{i}"))
}

fn lit(i: u8) -> Term {
    Term::plain(format!("l{i}"))
}

/// An edge as a triple over the whole OWLPRIME vocabulary: class and
/// property hierarchies, domain and range, symmetric and transitive
/// properties, inverses, `sameAs`, equivalent classes and properties, typed
/// instances, and facts and schema edges with literal objects (whose
/// consequences test the literal-subject and non-IRI-predicate filters).
fn triple((kind, a, b, c): Edge) -> (Term, Term, Term) {
    let iri = Term::iri;
    match kind {
        0 => (class(a), iri(rdfs::SUB_CLASS_OF), class(b)),
        1 => (prop(a), iri(rdfs::SUB_PROPERTY_OF), prop(b)),
        2 => (prop(a), iri(rdfs::DOMAIN), class(b)),
        3 => (prop(a), iri(rdfs::RANGE), class(b)),
        4 => (prop(a), iri(rdf::TYPE), iri(owl::SYMMETRIC_PROPERTY)),
        5 => (prop(a), iri(rdf::TYPE), iri(owl::TRANSITIVE_PROPERTY)),
        6 => (prop(a), iri(owl::INVERSE_OF), prop(b)),
        7 => (inst(a), iri(owl::SAME_AS), inst(b)),
        8 => (class(a), iri(owl::EQUIVALENT_CLASS), class(b)),
        9 => (prop(a), iri(owl::EQUIVALENT_PROPERTY), prop(b)),
        10 => (inst(a), iri(rdf::TYPE), class(b)),
        11 | 12 => (inst(a), prop(b), inst(c)),
        13 => (inst(a), prop(b), lit(c)),
        _ if c % 2 == 0 => (prop(a), iri(rdfs::SUB_PROPERTY_OF), lit(b)),
        _ => (inst(a), iri(owl::SAME_AS), lit(b)),
    }
}

fn inserts(edges: &[Edge]) -> Vec<JournalOp> {
    edges
        .iter()
        .map(|&edge| {
            let (s, p, o) = triple(edge);
            JournalOp::Insert(s, p, o)
        })
        .collect()
}

/// An engine holding `edges` in model `"m"`, and its rulebase (interned
/// first).
fn build(edges: &[Edge], rdfs_only: bool) -> (LsmStore, Rulebase) {
    let store = LsmStore::in_memory(LsmConfig::default());
    let rb = store.with_dict(if rdfs_only { Rulebase::rdfs } else { Rulebase::owlprime });
    store.write_batch("m", &inserts(edges)).unwrap();
    (store, rb)
}

fn base(store: &LsmStore) -> BTreeSet<Triple> {
    store.snapshot().model("m").unwrap().iter().collect()
}

fn materialize(store: &LsmStore, rb: &Rulebase) -> Materialization {
    let snap = store.snapshot();
    Materialization::materialize(snap.model("m").unwrap(), rb, snap.dict())
}

fn derived(m: &Materialization) -> BTreeSet<Triple> {
    m.derived().iter().collect()
}

/// The reference: every rule applied to the whole set by nested loops
/// until a pass adds nothing. Returns what the rules add to `base`.
fn oracle(base: &BTreeSet<Triple>, rulebase: &Rulebase, dict: &Dictionary) -> BTreeSet<Triple> {
    let mut all = base.clone();
    loop {
        let mut heads = Vec::new();
        for rule in &rulebase.rules {
            let mut bindings = vec![None; rule.var_count()];
            matches(&all, &rule.body, rule.head, &mut bindings, &mut heads);
        }
        let before = all.len();
        all.extend(heads.into_iter().filter(|&t| well_formed(dict, t)));
        if all.len() == before {
            return all.difference(base).copied().collect();
        }
    }
}

/// Every match of `body` in `all`, atom by atom in body order, each
/// instantiating `head` into `heads`.
fn matches(
    all: &BTreeSet<Triple>,
    body: &[RuleAtom],
    head: RuleAtom,
    bindings: &mut Vec<Option<TermId>>,
    heads: &mut Vec<Triple>,
) {
    let Some((&atom, rest)) = body.split_first() else {
        let at = |term: RuleTerm| term.resolve(bindings).expect("rules are range-restricted");
        heads.push(Triple::new(at(head.s), at(head.p), at(head.o)));
        return;
    };
    for &t in all {
        let saved = bindings.clone();
        if [(atom.s, t.s), (atom.p, t.p), (atom.o, t.o)]
            .into_iter()
            .all(|(term, id)| unify(term, id, bindings))
        {
            matches(all, rest, head, bindings, heads);
        }
        *bindings = saved;
    }
}

fn unify(term: RuleTerm, id: TermId, bindings: &mut [Option<TermId>]) -> bool {
    match term {
        RuleTerm::Const(c) => c == id,
        RuleTerm::Var(v) => *bindings[v as usize].get_or_insert(id) == id,
    }
}

/// RDF well-formedness: no literal subject, an IRI predicate.
fn well_formed(dict: &Dictionary, t: Triple) -> bool {
    !dict.term(t.s).unwrap().is_literal() && dict.term(t.p).unwrap().is_iri()
}

/// Writes `edges` to model `"m"` and extends `m` with the ones the model
/// did not hold.
fn insert_and_extend(store: &LsmStore, m: &mut Materialization, rb: &Rulebase, edges: &[Edge]) {
    let before = store.snapshot();
    let held = before.model("m").unwrap();
    let committed = store.write_batch("m", &inserts(edges)).unwrap();
    // The dictionary is append-only, so a triple keeps its ids across the
    // write, and one with a new term was not in the model.
    let new_facts: Vec<Triple> =
        committed.ops.into_iter().map(|(_, t)| t).filter(|&t| !held.contains(t)).collect();
    let snap = store.snapshot();
    m.extend(snap.model("m").unwrap(), rb, snap.dict(), &new_facts);
}

/// Materializes `edges[..split]`, extends with the rest, and checks the
/// result against the oracle over all of `edges`.
fn check_extend(edges: &[Edge], split: usize, rdfs_only: bool) {
    let (store, rb) = build(&edges[..split], rdfs_only);
    let mut m = materialize(&store, &rb);
    insert_and_extend(&store, &mut m, &rb, &edges[split..]);
    assert_eq!(derived(&m), oracle(&base(&store), &rb, store.snapshot().dict()));
}

/// The entailed view's planner statistics against a scan of the view: the
/// total, every predicate's count and every class's instance count exact,
/// and every predicate's distincts at least the union's.
fn check_view_stats(store: &LsmStore, m: &Materialization) {
    let snap = store.snapshot();
    let base = snap.model("m").unwrap();
    let type_id = snap.dict().lookup(&Term::iri(rdf::TYPE));
    let view = EntailedGraph::new(base, m.derived(), Arc::new(m.entailed_stats(base, type_id)));
    let stats = view.planner_stats(type_id).expect("the entailed view has statistics");

    let mut predicates: BTreeMap<TermId, (usize, BTreeSet<TermId>, BTreeSet<TermId>)> =
        BTreeMap::new();
    let mut classes: BTreeMap<TermId, usize> = BTreeMap::new();
    let mut rows = 0;
    for t in view.scan(TriplePattern::any()) {
        rows += 1;
        let (count, subjects, objects) = predicates.entry(t.p).or_default();
        *count += 1;
        subjects.insert(t.s);
        objects.insert(t.o);
        if Some(t.p) == type_id {
            *classes.entry(t.o).or_default() += 1;
        }
    }
    assert_eq!(stats.total_triples(), view.len());
    assert_eq!(stats.total_triples(), rows);
    assert_eq!(stats.predicates().len(), predicates.len());
    for (&p, (count, subjects, objects)) in &predicates {
        let ps = stats.predicate(p).expect("every scanned predicate is summarised");
        assert_eq!(ps.count, *count);
        assert!(ps.distinct_subjects >= subjects.len());
        assert!(ps.distinct_objects >= objects.len());
    }
    assert_eq!(stats.classes().len(), classes.len());
    for (&class, &count) in &classes {
        assert_eq!(stats.class_count(class), Some(count));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn materialize_equals_the_fixpoint_oracle(edges in random_graph(), rdfs_only in any::<bool>()) {
        let (store, rb) = build(&edges, rdfs_only);
        let m = materialize(&store, &rb);
        let expected = oracle(&base(&store), &rb, store.snapshot().dict());
        prop_assert_eq!(derived(&m), expected.clone());
        prop_assert_eq!(m.stats().derived, expected.len());
        prop_assert_eq!(m.stats().per_rule.values().sum::<usize>(), expected.len());
    }

    #[test]
    fn extend_after_a_split_equals_the_fixpoint_oracle(
        edges in random_graph(),
        split in 0..=MAX_EDGES,
        rdfs_only in any::<bool>(),
    ) {
        // The edges are drawn independently, so a prefix is a random subset.
        check_extend(&edges, split.min(edges.len()), rdfs_only);
    }

    #[test]
    fn entailed_stats_are_the_exact_sum_and_follow_extend(
        edges in random_graph(),
        split in 0..=MAX_EDGES,
    ) {
        let split = split.min(edges.len());
        let (store, rb) = build(&edges[..split], false);
        let mut m = materialize(&store, &rb);
        // The first check caches the derived side's statistics; `extend`
        // must drop them.
        check_view_stats(&store, &m);
        insert_and_extend(&store, &mut m, &rb, &edges[split..]);
        check_view_stats(&store, &m);
    }
}

#[test]
fn extend_adds_a_subclass_edge_beside_a_self_loop() {
    // Materialized: C0 ⊑ C0 (repeated), C4 ⊑ C0, C0 ⊑ C1, C0 ⊑ C5 ⊑ C6.
    // Extended: C0 ⊑ C0 again, then C4 ⊑ C5.
    let pairs = [
        (0, 0),
        (0, 0),
        (4, 0),
        (0, 0),
        (0, 1),
        (5, 6),
        (0, 0),
        (0, 5),
    ];
    let later = [(0, 0), (0, 0), (0, 0), (4, 5)];
    let edges: Vec<Edge> = pairs
        .iter()
        .chain(&later)
        .map(|&(a, b)| (0, a, b, 0))
        .collect();
    for rdfs_only in [true, false] {
        check_extend(&edges, pairs.len(), rdfs_only);
    }
}

/// A base graph that tallies the rows its pattern scans serve.
struct CountingSource<'a> {
    graph: &'a FrozenGraph,
    rows: Cell<usize>,
}

impl TripleSource for CountingSource<'_> {
    fn scan_pattern(&self, pattern: TriplePattern) -> Scan<'_> {
        self.rows
            .set(self.rows.get() + self.graph.scan(pattern).count());
        self.graph.scan(pattern).into()
    }

    fn contains_triple(&self, t: Triple) -> bool {
        self.graph.contains(t)
    }

    fn estimate(&self, pattern: TriplePattern, cap: usize) -> usize {
        self.graph.estimate_upto(pattern, cap)
    }

    fn len_triples(&self) -> usize {
        self.graph.len()
    }
}

#[test]
fn extend_reads_what_the_new_facts_reach_not_the_graph() {
    // 200 instances at the bottom of a class chain, a symmetric property
    // and a domain: a naive pass over this graph reads every typed row.
    let edges: Vec<Edge> = (0..3)
        .map(|i| (0, i, i + 1, 0))
        .chain((0..200).map(|x| (10, x, 0, 0)))
        .chain([(4, 0, 0, 0), (2, 1, 2, 0)])
        .chain((0..50).map(|x| (11, x, 0, x + 1)))
        .collect();
    let (store, rb) = build(&edges, false);
    let mut m = materialize(&store, &rb);

    // A fact over a property no schema edge mentions reaches nothing.
    let (s, p, o) = (inst(0), prop(3), inst(1));
    let before = store.snapshot();
    let fact = store.write_batch("m", &[JournalOp::Insert(s, p, o)]).unwrap().ops[0].1;
    assert!(!before.model("m").unwrap().contains(fact));
    let snap = store.snapshot();
    let counting = CountingSource {
        graph: snap.model("m").unwrap(),
        rows: Cell::new(0),
    };
    m.extend(&counting, &rb, snap.dict(), &[fact]);
    assert!(
        counting.rows.get() <= 4,
        "extend read {} base rows for one unrelated fact",
        counting.rows.get()
    );

    let full = materialize(&store, &rb);
    assert_eq!(derived(&m), derived(&full));
}
